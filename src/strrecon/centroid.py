"""Centroid decomposition of a tree, giving a logarithmic-height search tree,
placed on demand.

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
component left with one node is its own centroid and is placed at once
(about half a suffix tree's nodes are leaves). Each walk and each path
update stays inside one component, and a node lies in O(log m) components,
so the whole decomposition takes O(m log m) (Della Giustina, Prezza and
Venturini, SPIRE 2019, avoid even the log factor).

`CentroidTree.of` places only the root. Every other component waits until
`component_of` is first asked for it: a component below a placed centroid c
is keyed by its top, a child of c, and the one above c by ~c. Placing a
component reads and writes only the sizes inside it, and components are
disjoint, so the order of placement cannot change any centroid: a phrase
search that enters a tenth of the components pays for a tenth of the walks,
and `complete()` (which `decompose` calls) places the rest to give the same
tree as placing everything at once.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class CentroidTree:
    """Decomposition over node ids of the decomposed tree; a node not placed
    yet has parent and depth -1."""

    root: int
    parent: list[int]          # centroid-tree parent per node, -1 at the root
    depth: list[int]           # centroid-tree depth per node
    height: int                # of the placed part
    balanced: bool             # every split produced components of size <= m/2
    placed: int = field(default=0, compare=False, repr=False)  # nodes placed so far
    # until complete(): the tree's child lists, parents and in-component
    # sizes, and the pending components (key -> top) and placed ones
    # (key -> centroid), keyed as in the module docstring
    _kids: list | None = field(default=None, compare=False, repr=False)
    _up: list | None = field(default=None, compare=False, repr=False)
    _size: list | None = field(default=None, compare=False, repr=False)
    _pending: dict = field(default_factory=dict, compare=False, repr=False)
    _found: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.parent)

    @classmethod
    def of(cls, kids: list[list[int]]) -> CentroidTree:
        """The decomposition of the tree rooted at node 0 whose child lists
        are kids, with only its root placed; raises ValueError unless they
        form exactly one such tree. kids must not change while the tree is
        incomplete."""
        m = len(kids)
        if m == 0:
            raise ValueError("cannot decompose an empty tree")
        up = [-1] * m
        order = [0]
        for v in order:
            kv = kids[v]
            if kv:
                for w in kv:
                    if not 0 < w < m or up[w] >= 0:
                        raise ValueError(f"child {w} of {v}: the root, out of range or seen twice")
                    up[w] = v
                order += kv
        if len(order) != m:
            raise ValueError(f"{m - len(order)} nodes are unreachable from node 0")
        # size[v]: nodes of v's subtree inside v's current component; 0 once v
        # is placed, so no placed node ever looks heavy or live
        size = [1] * m
        for v in reversed(order[1:]):
            size[up[v]] += size[v]
        ct = cls(0, [-1] * m, [-1] * m, 0, True, 0, kids, up, size)
        ct.root = ct._place(0, -1)
        return ct

    def _place(self, top: int, above: int) -> int:
        """Place the centroid of the pending component whose top is `top`
        under centroid `above` (-1 for the root); return it."""
        kids, size, up = self._kids, self._size, self._up
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
            self.balanced = False
        parent, depth = self.parent, self.depth
        parent[c] = above
        depth[c] = depth[above] + 1 if above >= 0 else 0
        below = depth[c] + 1
        sc = size[c]
        size[c] = 0
        pending = self._pending
        ones = 0
        for w in kids[c]:
            sw = size[w]
            if sw == 1:  # a one-node component is its own centroid: place it now
                size[w] = 0
                parent[w] = c
                depth[w] = below
                ones += 1
            elif sw:
                pending[w] = w
        if c != top:
            p = up[c]
            while True:
                size[p] -= sc
                if p == top:
                    break
                p = up[p]
            if size[top] == 1:
                size[top] = 0
                parent[top] = c
                depth[top] = below
                ones += 1
            else:
                pending[~c] = top
        self.placed += 1 + ones
        self.height = max(self.height, below + 1 if ones else below)
        return c

    def complete(self) -> CentroidTree:
        """Place every pending component; returns self."""
        pending = self._pending
        up = self._up
        while pending:
            key, top = pending.popitem()
            self._place(top, up[key] if key > 0 else ~key)
        self._kids = self._up = self._size = None
        self._found = {}
        return self

    def component_of(self, u: int, v: int) -> int | None:
        """The centroid-child of u whose component contains v.

        None when v == u or v lies outside u's component (i.e. u is not a
        strict ancestor of v in the decomposition). Places the component
        when u is placed and v is a tree neighbour of u that is not;
        completes the tree first for any other pair holding a node not
        placed yet.
        """
        depth = self.depth
        if not 0 <= u < len(depth) or not 0 <= v < len(depth):
            raise KeyError(f"unknown node in ({u}, {v})")
        if u == v:
            return None
        du = depth[u]
        if du < 0 or depth[v] < 0:
            up = self._up
            # v unplaced next to a placed u lies in a component u left, never
            # outside, even when a centroid is already placed inside it
            key = 0 if du < 0 else v if up[v] == u else ~u if up[u] == v else 0
            if key:
                c = self._found.get(key)
                if c is None:
                    c = self._found[key] = self._place(self._pending.pop(key), u)
                return c
            self.complete()
            du = depth[u]
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
    kids, every component placed; raises ValueError unless they form exactly
    one such tree."""
    return CentroidTree.of(kids).complete()
