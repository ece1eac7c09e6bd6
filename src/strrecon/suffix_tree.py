"""Online (Ukkonen) suffix tree over an append-only text.

No terminal sentinel is ever appended: the tree is the implicit suffix tree,
so suffixes that are proper prefixes of other suffixes have no leaf.

The live tree is kept in four flat per-node lists indexed by node id
(creation order, root 0): string depth, first occurrence, child map and
suffix link; `extend` appends a new node's entries inline, one bound
`append` per list. No parent is kept, since Ukkonen's algorithm never reads
one; `CentroidTree.tree_parent` inverts the child maps. Ukkonen's algorithm
creates leaves in increasing order of suffix start and never removes one, so
the oldest leaf below a node marks the first occurrence of its locus; a split
node takes it over from the child it splits. Edge labels are not stored: the
edge from u into its child v is text[first[v] + depth[u] : first[v] +
depth[v]], running to the end of the text at a leaf, because first[v] starts
an occurrence of locus(v).

Ukkonen's algorithm never hangs a child under a leaf, so every leaf shares one
read-only empty child map (`_LEAF_KIDS`), and that map is the only leaf
marker: a leaf costs no dict, and a write to it would raise rather than
corrupt the tree.

A snapshot is a read-only view of the tree, valid until the next `extend`:
it shares the first-occurrence and child-map lists and builds only the text
bytes and the string depths, which a leaf does not store.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

from .text import Text

# The child map of every leaf: empty, shared and read-only.
_LEAF_KIDS = MappingProxyType({})


@dataclass
class TreeSnapshot:
    """Read-only view of a suffix tree, indexed by node id, valid until the
    tree's next `extend`: first_occ and children are the tree's own lists.
    ``first_occ[v]`` is the 0-based start of the first occurrence of locus(v)
    in the text, so locus(v) == text[first_occ[v] : first_occ[v] + depth[v]]."""

    text: bytes
    depth: list[int]
    children: list  # per node: first edge symbol -> child id
    first_occ: list[int]
    by_symbol: dict[int, tuple[tuple[int, ...], bytes]] = field(
        default_factory=dict, compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.depth)

    def children_by_symbol(self, v: int) -> tuple[tuple[int, ...], bytes]:
        """(children, symbols): the children of v in ascending order of
        their first edge symbols, and those symbols. Built on first request
        and kept in `by_symbol`, since searches visit few nodes but the top
        ones often."""
        pair = self.by_symbol.get(v)
        if pair is None:
            kids = self.children[v]
            syms = bytes(sorted(kids))
            pair = self.by_symbol[v] = (tuple(map(kids.__getitem__, syms)), syms)
        return pair


class SuffixTree:
    """Suffix tree of the text appended so far, built online."""

    def __init__(self, sigma: int):
        if sigma < 1:
            raise ValueError("sigma must be >= 1")
        self.sigma = sigma
        self.text = bytearray()
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
        return len(self._first)

    def extend(self, chunk) -> None:
        """Append the symbols of chunk in order, with Ukkonen's algorithm."""
        chunk = bytes(chunk)
        if chunk and not (min(chunk) >= 1 and max(chunk) <= self.sigma):
            raise ValueError(f"symbols {min(chunk)}..{max(chunk)} out of range [1..{self.sigma}]")
        text = self.text
        depth, first, children, slink = self._depth, self._first, self._children, self._slink
        add_depth, add_first = depth.append, first.append
        add_kids, add_slink = children.append, slink.append
        leaf_kids = _LEAF_KIDS
        nodes = len(first)  # id of the next node
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
                    add_depth(0)
                    add_first(pos - depth[node])
                    add_kids(leaf_kids)
                    add_slink(0)
                    nodes += 1
                    if last_internal:
                        slink[last_internal] = node
                        last_internal = 0
                else:
                    dn = depth[node]
                    cs = first[child] + dn  # the edge into child starts here
                    edge_len = pos + 1 - cs if children[child] is leaf_kids else depth[child] - dn
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
                    split_depth = dn + active_len
                    children[node][a_sym] = split
                    add_depth(split_depth)
                    add_first(first[child])
                    add_kids({c: split + 1, text[cs + active_len]: child})
                    add_slink(0)
                    add_depth(0)
                    add_first(pos - split_depth)
                    add_kids(leaf_kids)
                    add_slink(0)
                    nodes += 2
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
        """Whether node v is a leaf; the one id check of is_leaf, string_depth
        and locus_interval, which raise KeyError outside [0, node_count)."""
        if not 0 <= v < self.node_count:
            raise KeyError(f"unknown node id {v}")
        return self._children[v] is _LEAF_KIDS

    def string_depth(self, v: int) -> int:
        if self.is_leaf(v):
            return len(self.text) - self._first[v]
        return self._depth[v]

    def contains(self, q) -> bool:
        """Substring membership by edge traversal."""
        q = bytes(q.symbols if isinstance(q, Text) else q)
        text, first, m = self.text, self._first, len(q)
        node = d = 0  # q[:d] == locus(node)
        while d < m:
            child = self._children[node].get(q[d])
            if child is None:
                return False
            f, e = first[child], min(self.string_depth(child), m)
            if text[f + d : f + e] != q[d:e]:
                return False
            node, d = child, e
        return True

    def leaf_suffix_starts(self) -> list[int]:
        """Start positions of suffixes that have an explicit leaf."""
        return sorted(f for f, kids in zip(self._first, self._children) if kids is _LEAF_KIDS)

    def locus_interval(self, node_id: int) -> tuple[int, int]:
        """1-based inclusive interval [i, j] such that text[i..j] spells
        locus(node), using the first occurrence; the root yields (1, 0)."""
        d = self.string_depth(node_id)
        if d == 0:
            return (1, 0)
        f = self._first[node_id]
        return (f + 1, f + d)

    def locus(self, node_id: int) -> bytes:
        i, j = self.locus_interval(node_id)
        return bytes(self.text[i - 1 : j])

    def snapshot(self) -> TreeSnapshot:
        """A read-only view of the tree, valid until the next `extend`."""
        n = len(self.text)
        leaf = _LEAF_KIDS
        depth = [n - f if kids is leaf else d
                 for d, f, kids in zip(self._depth, self._first, self._children)]
        return TreeSnapshot(bytes(self.text), depth, self._children, self._first)
