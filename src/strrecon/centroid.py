"""Centroid decomposition of a tree, giving a logarithmic-height search tree.

A centroid of an m-node component splits it, upon removal, into components
of size at most m/2 (Jordan). Decomposing recursively yields a tree over the
same nodes whose height is O(log m); root-to-node paths in the original tree
can then be binary-searched by walking the decomposition.

The tree is given as child lists rooted at node 0 (node ids need not be in
topological order, and child order does not matter). One breadth-first pass
checks that the lists form a tree and derives every parent; its reverse
computes every subtree size. Every component then has a unique shallowest
node, its top, and a node's size counts only the part of its subtree inside
its component. From the top, the walk to the centroid c follows the child
holding more than half the component. A tree has at most two centroids; the
second one can only be a child of c holding exactly half, and the smaller
node id wins. Removing c leaves each live child of c on top of a component
whose sizes are already right, and the parent side keeps its top once
size[c] is subtracted along the path from parent(c) up to the top. A
component left with one node is its own centroid and is placed at once,
without a task of its own (about half a suffix tree's nodes are leaves).
Each walk and each path update stays inside one component, and a node lies in
O(log m) components, so the whole decomposition takes O(m log m) (Della
Giustina, Prezza and Venturini, SPIRE 2019, avoid even the log factor).
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CentroidTree:
    """Decomposition over node ids of the decomposed tree."""

    root: int
    parent: list[int]          # centroid-tree parent per node, -1 at the root
    depth: list[int]           # centroid-tree depth per node
    height: int
    balanced: bool             # every split produced components of size <= m/2

    @property
    def size(self) -> int:
        return len(self.parent)

    def component_of(self, u: int, v: int) -> int | None:
        """The centroid-child of u whose component contains v.

        None when v == u or v lies outside u's component (i.e. u is not a
        strict ancestor of v in the decomposition).
        """
        if not 0 <= u < self.size or not 0 <= v < self.size:
            raise KeyError(f"unknown node in ({u}, {v})")
        if u == v:
            return None
        du = self.depth[u]
        depth = self.depth
        parent = self.parent
        cur = v
        while depth[cur] > du:
            prev = cur
            cur = parent[cur]
            if cur == u:
                return prev
        return None


def decompose(kids: list[list[int]]) -> CentroidTree:
    """Centroid-decompose the tree rooted at node 0 whose child lists are
    kids; raises ValueError unless they form exactly one such tree."""
    m = len(kids)
    if m == 0:
        raise ValueError("cannot decompose an empty tree")
    parent = [-1] * m
    order = [0]
    for v in order:
        kv = kids[v]
        if kv:
            for w in kv:
                if not 0 < w < m or parent[w] >= 0:
                    raise ValueError(f"child {w} of {v}: the root, out of range or seen twice")
                parent[w] = v
            order += kv
    if len(order) != m:
        raise ValueError(f"{m - len(order)} nodes are unreachable from node 0")
    # size[v]: nodes of v's subtree inside v's current component; 0 once v
    # is removed, so no removed node ever looks heavy or live
    size = [1] * m
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    parent_ct = [-1] * m
    depth_ct = [0] * m
    balanced = True
    root = 0
    # each task decomposes the component whose shallowest node is `top`,
    # hanging its centroid under `ct_parent`
    tasks: list[tuple[int, int]] = [(0, -1)]
    while tasks:
        top, ct_parent = tasks.pop()
        msize = size[top]
        half = msize // 2
        # walk down through the child holding more than half the component
        c = top
        while True:
            for w in kids[c]:
                if size[w] > half:
                    c = w
                    break
            else:
                break
        # the only other possible centroid is a child of exactly half the
        # component; the smaller node id wins
        for w in kids[c]:
            if 2 * size[w] == msize:
                c = min(c, w)
                break
        worst = msize - size[c]
        for w in kids[c]:
            if size[w] > worst:
                worst = size[w]
        if worst > half:
            balanced = False
        parent_ct[c] = ct_parent
        if ct_parent == -1:
            root = c
        else:
            depth_ct[c] = depth_ct[ct_parent] + 1
        sc = size[c]
        size[c] = 0
        tops = kids[c]  # the top of each component c leaves, once removed
        if c != top:
            p = parent[c]
            while True:
                size[p] -= sc
                if p == top:
                    break
                p = parent[p]
            tops = [*tops, top]
        below = depth_ct[c] + 1
        for w in tops:
            sw = size[w]
            if sw == 1:  # a one-node component is its own centroid: place it now
                size[w] = 0
                parent_ct[w] = c
                depth_ct[w] = below
            elif sw:
                tasks.append((w, c))
    return CentroidTree(root, parent_ct, depth_ct, max(depth_ct) + 1, balanced)
