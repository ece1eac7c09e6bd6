"""Centroid decomposition of a tree, giving a logarithmic-height search tree,
placed on demand.

A centroid of an m-node component splits it, upon removal, into components
of size at most m/2 (Jordan). Decomposing recursively yields a tree over the
same nodes whose height is O(log m); root-to-node paths in the original tree
can then be binary-searched by walking the decomposition.

The tree is given as child maps rooted at node 0, each mapping a key (in a
suffix tree, the first edge symbol) to a child id; node ids need not be in
topological order, and neither keys nor child order matter. The maps are read
in place, so they must not change while a decomposition is incomplete. One
breadth-first pass checks that they form a tree and inverts them into every
node's tree parent, kept as `tree_parent`, the one parent list a suffix-tree
search reads; its reverse computes every subtree size. Every component then
has a unique shallowest node, its top, and a node's size counts only the part
of its subtree inside its component. From the top, the walk to the centroid c
follows the child holding more than half the component. A tree has at most
two centroids; the second one can only be a child of c holding exactly half,
and the smaller node id wins. Removing c leaves each live child of c on top
of a component whose sizes are already right, and the parent side keeps its
top once size[c] is subtracted along the path from parent(c) up to the top. A
component left with one node is its own centroid and is placed at once (about
half a suffix tree's nodes are leaves). Each walk and each path update stays
inside one component, and a node lies in O(log m) components, so the whole
decomposition takes O(m log m) (Della Giustina, Prezza and Venturini, SPIRE
2019, avoid even the log factor).

`CentroidTree.of` places only the root. Every other component waits in
`pending` until a search first enters it, keyed 0 for the whole tree, by its
top for one below a placed centroid c (a child of c), and ~c for the one above
c. `place(key)` takes it out, hangs its centroid under the centroid above
(`tree_parent[key]` for a key >= 0, else ~key) and keeps it in `entered`
under the same key. Placing a component reads and writes only the sizes
inside it, and components are disjoint, so the order of placement cannot
change any centroid: a phrase search that enters a tenth of the components
pays for a tenth of the walks, and `complete()` (which `decompose` calls)
places the rest to give the same tree as placing everything at once. A
search moves only from a placed node to one of its tree neighbours, so the
step needs the key alone. `component_of` is the checked entry point for such
a step; the phrase searches (`reconstruct._phrase_searches`, gone before the
tree's next `extend`) make it inline, reading `depth` and `entered` themselves.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class CentroidTree:
    """Decomposition over node ids of the decomposed tree; a node not placed
    yet has parent and depth -1; height, balance and the placed count are
    read off the two."""

    root: int
    parent: list[int]          # centroid-tree parent per node, -1 at the root
    depth: list[int]           # centroid-tree depth per node
    # the decomposed tree's parent per node, -1 at node 0: the inverse of
    # its child maps, kept after complete()
    tree_parent: list[int] = field(compare=False, repr=False)
    # until complete(), the child maps and in-component sizes; the pending
    # components (key -> top) and the entered ones (key -> centroid), keyed
    # as in the module docstring
    _kids: list | None = field(default=None, compare=False, repr=False)
    _size: list | None = field(default=None, compare=False, repr=False)
    pending: dict = field(default_factory=dict, compare=False, repr=False)
    entered: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.parent)

    @property
    def placed(self) -> int:
        return len(self.depth) - self.depth.count(-1)

    @property
    def height(self) -> int:  # of the placed part
        return max(self.depth) + 1

    @property
    def balanced(self) -> bool:
        """Every centroid's subtree in the centroid tree holds at most half of
        its parent centroid's (defined once complete() has run)."""
        parent = self.parent
        sub = [1] * len(parent)
        for v in sorted(range(len(parent)), key=self.depth.__getitem__, reverse=True):
            if parent[v] >= 0:
                sub[parent[v]] += sub[v]
        return all(2 * sub[v] <= sub[p] for v, p in enumerate(parent) if p >= 0)

    @classmethod
    def of(cls, kids: list) -> CentroidTree:
        """The decomposition of the tree rooted at node 0 whose child maps
        are kids, with only its root placed; raises ValueError unless they
        form exactly one such tree. kids is read in place and must not change
        while the tree is incomplete."""
        m = len(kids)
        if m == 0:
            raise ValueError("cannot decompose an empty tree")
        up = [-1] * m
        order = [0]
        for v in order:
            kv = kids[v]
            if kv:
                for w in kv.values():
                    if not 0 < w < m or up[w] >= 0:
                        raise ValueError(f"child {w} of {v}: the root, out of range or seen twice")
                    up[w] = v
                    order.append(w)
        if len(order) != m:
            raise ValueError(f"{m - len(order)} nodes are unreachable from node 0")
        # size[v]: nodes of v's subtree inside v's current component; 0 once v
        # is placed, so no placed node ever looks heavy or live
        size = [1] * m
        for v in reversed(order[1:]):
            size[up[v]] += size[v]
        ct = cls(0, [-1] * m, [-1] * m, up, kids, size, {0: 0})
        ct.root = ct.place(0)
        return ct

    def place(self, key: int) -> int:
        """Place the centroid of the component pending under `key`, keep it
        in `entered` under that key and return it."""
        kids, size, up, pending = self._kids, self._size, self.tree_parent, self.pending
        top = pending.pop(key)
        above = up[key] if key >= 0 else ~key
        msize = size[top]
        # walk down through the child holding more than half the component;
        # the only other possible centroid is a child of exactly half the
        # component, where the walk stops, and the smaller node id wins
        c = top
        while True:
            for w in kids[c].values():
                if 2 * size[w] >= msize:
                    break
            else:
                break
            if 2 * size[w] == msize:
                c = min(c, w)
                break
            c = w
        parent, depth = self.parent, self.depth
        parent[c] = above
        depth[c] = depth[above] + 1 if above >= 0 else 0
        below = depth[c] + 1
        sc = size[c]
        size[c] = 0
        for w in kids[c].values():
            sw = size[w]
            if sw == 1:  # a one-node component is its own centroid: place it now
                size[w] = 0
                parent[w] = c
                depth[w] = below
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
            else:
                pending[~c] = top
        self.entered[key] = c
        return c

    def complete(self) -> CentroidTree:
        """Place every pending component; returns self."""
        while self.pending:  # each pass places what the last one left pending
            for key in list(self.pending):
                self.place(key)
        self._kids = self._size = None
        return self

    def component_of(self, u: int, v: int) -> int | None:
        """The centroid-child of placed u whose component holds v, a tree
        child or the tree parent of u; None when v was placed at depth <=
        depth[u], outside u's component. Raises ValueError for any other
        pair. A neighbour placed deeper than u lies in the component u left
        on its side, which this method or complete() placed, or is v alone.
        """
        depth, up = self.depth, self.tree_parent
        if not (0 <= u < len(depth) and 0 <= v < len(depth) and depth[u] >= 0
                and (up[v] == u or up[u] == v)):
            raise ValueError(f"({u}, {v}): u must be placed and v a tree neighbour of u")
        dv = depth[v]
        if 0 <= dv <= depth[u]:
            return None
        key = v if up[v] == u else ~u
        if key in self.entered:
            return self.entered[key]
        return v if dv >= 0 else self.place(key)


def decompose(kids: list) -> CentroidTree:
    """Centroid-decompose the tree rooted at node 0 whose child maps are
    kids, every component placed; raises ValueError unless they form exactly
    one such tree."""
    return CentroidTree.of(kids).complete()
