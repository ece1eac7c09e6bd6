"""Online (Ukkonen) suffix tree over an append-only text.

No terminal sentinel is ever appended: the tree is the implicit suffix tree,
so suffixes that are proper prefixes of other suffixes have no leaf. Edge
labels are position intervals into the shared text.

The live tree is kept in flat per-node lists indexed by node id (creation
order, root 0); `extend` appends a new node's entries inline, one bound
`append` per list. Ukkonen's algorithm creates leaves in increasing order of
suffix start and never removes one, so the oldest leaf below a node marks the
first occurrence of its locus; a split node takes it over from the child it
splits, and a snapshot is a plain copy of the lists.

Ukkonen's algorithm never hangs a child under a leaf, so every leaf shares one
read-only empty child map (`_LEAF_KIDS`): a leaf costs no dict, and a write to
it would raise rather than corrupt the tree. Snapshots likewise give every
leaf one shared empty tuple.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

from .text import Text

# The child map of every leaf: empty, shared and read-only.
_LEAF_KIDS = MappingProxyType({})


@dataclass
class TreeSnapshot:
    """Array copy of a suffix tree, indexed by node id.

    ``first_occ[v]`` is the 0-based start of the first occurrence of
    locus(v) in the text, so locus(v) == text[first_occ[v] : first_occ[v] +
    depth[v]].
    """

    text: bytes
    depth: list[int]
    parent: list[int]
    children: list[list[int] | tuple[int, ...]]  # per node: child ids in insertion order
    first_occ: list[int]
    _by_symbol: dict[int, list[int]] = field(default_factory=dict, compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.depth)

    def children_by_symbol(self, v: int) -> list[int]:
        """Children of v in ascending order of first edge symbol, sorted on
        first request: searches visit few nodes, but the top ones often."""
        kids = self._by_symbol.get(v)
        if kids is None:
            text, first, d = self.text, self.first_occ, self.depth[v]
            kids = self._by_symbol[v] = sorted(self.children[v], key=lambda ch: text[first[ch] + d])
        return kids

    def locus(self, v: int) -> bytes:
        f = self.first_occ[v]
        return self.text[f : f + self.depth[v]]


class SuffixTree:
    """Suffix tree of the text appended so far, built online."""

    def __init__(self, sigma: int):
        if sigma < 1:
            raise ValueError("sigma must be >= 1")
        self.sigma = sigma
        self.text = bytearray()
        self._start = [0]        # edge label = text[start:end]
        self._end = [0]          # -1 = open leaf edge, growing with the text
        self._parent = [-1]
        self._depth = [0]        # string depth; unused for leaves (see string_depth)
        self._first = [0]        # start of the first occurrence of the locus
        self._children: list = [{}]  # first edge symbol -> child id; _LEAF_KIDS at leaves
        self._slink = [0]
        self._active_node = 0
        self._active_edge = 0
        self._active_len = 0
        self._remainder = 0

    def __len__(self) -> int:
        return len(self.text)

    @property
    def node_count(self) -> int:
        return len(self._start)

    def append(self, c: int) -> None:
        """Add one symbol; the tree then represents all suffixes of text+c."""
        self.extend((c,))

    def extend(self, chunk) -> None:
        """Append the symbols of chunk in order, with Ukkonen's algorithm."""
        chunk = bytes(chunk)
        if chunk and not (min(chunk) >= 1 and max(chunk) <= self.sigma):
            raise ValueError(f"symbols {min(chunk)}..{max(chunk)} out of range [1..{self.sigma}]")
        text = self.text
        start, end, parent, depth = self._start, self._end, self._parent, self._depth
        first, children, slink = self._first, self._children, self._slink
        add_start, add_end, add_parent, add_depth = start.append, end.append, parent.append, depth.append
        add_first, add_kids, add_slink = first.append, children.append, slink.append
        leaf_kids = _LEAF_KIDS
        nodes = len(start)  # id of the next node
        active_node, active_edge, active_len = self._active_node, self._active_edge, self._active_len
        remainder = self._remainder
        for c in chunk:
            pos = len(text)
            text.append(c)
            remainder += 1
            last_internal = 0  # split node awaiting its suffix link; 0 = none
            while remainder:
                if active_len == 0:
                    active_edge = pos
                a_sym = text[active_edge]
                node = active_node
                child = children[node].get(a_sym)
                if child is None:
                    children[node][a_sym] = nodes
                    add_start(pos)
                    add_end(-1)
                    add_parent(node)
                    add_depth(0)
                    add_first(pos - depth[node])
                    add_kids(leaf_kids)
                    add_slink(0)
                    nodes += 1
                    if last_internal:
                        slink[last_internal] = node
                        last_internal = 0
                else:
                    cs = start[child]
                    e = end[child]
                    edge_len = (e if e >= 0 else pos + 1) - cs
                    if active_len >= edge_len:
                        active_edge += edge_len
                        active_len -= edge_len
                        active_node = child
                        continue
                    if text[cs + active_len] == c:
                        active_len += 1
                        if last_internal:
                            slink[last_internal] = node
                        break
                    # node `split` on the edge into child, then its new leaf
                    split = nodes
                    split_depth = depth[node] + active_len
                    children[node][a_sym] = split
                    add_start(cs)
                    add_end(cs + active_len)
                    add_parent(node)
                    add_depth(split_depth)
                    add_first(first[child])
                    add_kids({c: split + 1, text[cs + active_len]: child})
                    add_slink(0)
                    add_start(pos)
                    add_end(-1)
                    add_parent(split)
                    add_depth(0)
                    add_first(pos - split_depth)
                    add_kids(leaf_kids)
                    add_slink(0)
                    nodes += 2
                    start[child] = cs + active_len
                    parent[child] = split
                    if last_internal:
                        slink[last_internal] = split
                    last_internal = split
                remainder -= 1
                if active_node == 0 and active_len > 0:
                    active_len -= 1
                    active_edge = pos - remainder + 1
                elif active_node != 0:
                    active_node = slink[active_node]
        self._active_node, self._active_edge, self._active_len = active_node, active_edge, active_len
        self._remainder = remainder

    def is_leaf(self, v: int) -> bool:
        return self._end[v] < 0

    def string_depth(self, v: int) -> int:
        if self.is_leaf(v):
            return len(self.text) - self._first[v]
        return self._depth[v]

    def contains(self, q) -> bool:
        """Substring membership by edge traversal."""
        if isinstance(q, Text):
            q = q.symbols
        text = self.text
        node = 0
        i = 0
        m = len(q)
        while i < m:
            child = self._children[node].get(q[i])
            if child is None:
                return False
            end = self._end[child]
            if end < 0:
                end = len(text)
            j = self._start[child]
            while j < end and i < m:
                if text[j] != q[i]:
                    return False
                i += 1
                j += 1
            node = child
        return True

    def leaf_suffix_starts(self) -> list[int]:
        """Start positions of suffixes that have an explicit leaf."""
        return sorted(f for f, e in zip(self._first, self._end) if e < 0)

    def locus_interval(self, node_id: int) -> tuple[int, int]:
        """1-based inclusive interval [i, j] such that text[i..j] spells
        locus(node), using the first occurrence; the root yields (1, 0)."""
        if not 0 <= node_id < self.node_count:
            raise KeyError(f"unknown node id {node_id}")
        d = self.string_depth(node_id)
        if d == 0:
            return (1, 0)
        f = self._first[node_id]
        return (f + 1, f + d)

    def locus(self, node_id: int) -> bytes:
        i, j = self.locus_interval(node_id)
        return bytes(self.text[i - 1 : j])

    def snapshot(self) -> TreeSnapshot:
        """Copy the current tree into arrays indexed by node id."""
        n = len(self.text)
        depth = [n - f if e < 0 else d for d, f, e in zip(self._depth, self._first, self._end)]
        children = [list(kids.values()) if kids else () for kids in self._children]
        return TreeSnapshot(bytes(self.text), depth, self._parent[:], children, self._first[:])
