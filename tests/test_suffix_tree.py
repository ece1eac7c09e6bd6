"""Online suffix tree against brute-force substring checks."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from strrecon import SuffixTree, from_letters
from strrecon.suffix_tree import _LEAF_KIDS


def build(s: bytes, sigma: int) -> SuffixTree:
    tree = SuffixTree(sigma)
    tree.extend(s)
    return tree


def tree_parents(children: list) -> list[int]:
    """Each node's parent, -1 at the root: the inverse of the child maps."""
    up = [-1] * len(children)
    for v, kids in enumerate(children):
        for w in kids.values():
            up[w] = v
    return up


def all_substrings(s: bytes) -> set[bytes]:
    return {s[i:j] for i in range(len(s)) for j in range(i, len(s) + 1)}


strings = st.binary(min_size=0, max_size=40).map(
    lambda b: bytes((x % 3) + 1 for x in b)
)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        SuffixTree(0)
    tree = SuffixTree(2)
    with pytest.raises(ValueError):
        tree.extend((3,))
    with pytest.raises(ValueError):
        tree.extend((0,))
    with pytest.raises(KeyError):
        tree.locus_interval(99)


@given(strings)
@settings(max_examples=250)
def test_contains_matches_brute_force(s):
    tree = build(s, 3)
    subs = all_substrings(s)
    for q in subs:
        assert tree.contains(q)
    rng = random.Random(len(s))
    for _ in range(30):
        q = bytes(rng.randint(1, 3) for _ in range(rng.randint(1, len(s) + 2)))
        assert tree.contains(q) == (q in s)


@given(strings)
@settings(max_examples=250)
def test_snapshot_loci_are_distinct_substrings(s):
    tree = build(s, 3)
    snap = tree.snapshot()
    parent = tree_parents(snap.children)
    seen = set()
    for v in range(snap.size):
        loc = tree.locus(v)
        assert loc in s or loc == b""
        assert len(loc) == snap.depth[v]
        assert loc not in seen
        seen.add(loc)
        # first_occ really is an occurrence starting there
        f = snap.first_occ[v]
        assert s[f : f + snap.depth[v]] == loc
        if v != 0:
            p = parent[v]
            assert snap.depth[p] < snap.depth[v]
            assert loc[: snap.depth[p]] == tree.locus(p)


@given(strings)
@settings(max_examples=250)
def test_first_occurrence_is_leftmost(s):
    tree = build(s, 3)
    snap = tree.snapshot()
    for v in range(snap.size):
        loc = tree.locus(v)
        assert snap.first_occ[v] == s.find(loc)
        assert tree.locus_interval(v)[0] - 1 == s.find(loc)


@given(strings)
@settings(max_examples=250)
def test_children_are_symbol_sorted_and_consistent(s):
    # the snapshot reads the tree's own child maps, so every node but the
    # root is some node's child exactly once; children_by_symbol orders
    # them by their distinct first edge symbols and pairs them with those
    # symbols, as bytes, as the live map files them; a pair is built once
    tree = build(s, 3)
    snap = tree.snapshot()
    assert snap.children is tree._children
    assert sorted(w for kids in snap.children for w in kids.values()) == list(range(1, snap.size))
    for v in range(snap.size):
        kids, syms = pair = snap.children_by_symbol(v)
        live = tree._children[v]
        assert syms == bytes(sorted(live))
        assert kids == tuple(live[c] for c in syms)
        assert type(syms) is bytes
        assert list(syms) == [tree.locus(ch)[snap.depth[v]] for ch in kids]
        assert list(syms) == sorted(set(syms))
        assert snap.children_by_symbol(v) is pair


@given(strings)
@settings(max_examples=250)
def test_leaf_suffix_starts_are_unique_occurrence_suffixes(s):
    # an implicit tree has a leaf for suffix s[i:] iff that suffix occurs
    # nowhere else in s (any other occurrence is earlier, ending the path
    # mid-tree instead)
    starts = build(s, 3).leaf_suffix_starts()
    expected = sorted(i for i in range(len(s)) if s.find(s[i:]) == i)
    assert starts == expected


def test_fixture_locus_interval():
    tree = SuffixTree(5)
    tree.extend(from_letters("AAABCABCABCAAA").symbols)
    target = from_letters("ABCABCA").symbols
    hits = [
        v for v in range(tree.node_count)
        if not tree.is_leaf(v) and tree.locus(v) == target
    ]
    assert len(hits) == 1
    assert tree.locus_interval(hits[0]) == (3, 9)


def test_root_interval_and_empty_tree():
    tree = SuffixTree(2)
    assert tree.locus_interval(0) == (1, 0)
    assert tree.contains(b"")
    assert not tree.contains(b"\x01")
    snap = tree.snapshot()
    assert snap.size == 1 and snap.first_occ[0] == 0
    tree.extend((1,))
    assert tree.contains(b"\x01")
    assert tree.locus_interval(0) == (1, 0)


def test_loci_of_a_deep_tree():
    # a^1500 b: internal nodes a, aa, ..., a^1499 form a chain 1500 levels deep
    text = bytes([1] * 1500 + [2])
    tree = build(text, 2)
    assert tree.node_count == 3001
    internal = set()
    for v in range(tree.node_count):
        i, j = tree.locus_interval(v)
        loc = tree.locus(v)
        assert loc == text[i - 1 : j] and text.find(loc) == i - 1, v
        if v and not tree.is_leaf(v):
            internal.add(loc)
    assert internal == {b"\x01" * k for k in range(1, 1500)}


@given(strings)
@settings(max_examples=150)
def test_online_build_matches_batch_build(s):
    # a snapshot, taken after each append, equals that of a batch build, so
    # first_occ kept up online does too; a snapshot is a view valid until
    # the next append, so each is compared when it is taken
    online = SuffixTree(3)
    for i, c in enumerate(s):
        online.extend((c,))
        prefix = s[: i + 1]
        for q in all_substrings(prefix):
            assert online.contains(q)
        assert online.snapshot() == build(prefix, 3).snapshot()
    assert online.node_count == build(s, 3).node_count


@given(strings, st.lists(st.integers(min_value=0, max_value=9), max_size=12))
@settings(max_examples=200)
def test_chunked_extension_matches_per_symbol_appends(s, cuts):
    # Ukkonen's algorithm does not depend on how its input is chunked, so a
    # tree extended only when a snapshot is due equals one fed per symbol
    chunked = SuffixTree(3)
    single = SuffixTree(3)
    for k in cuts + [len(s)]:
        chunk = s[len(chunked) : len(chunked) + k]
        chunked.extend(chunk)
        for c in chunk:
            single.extend((c,))
        assert chunked.snapshot() == single.snapshot()
        assert chunked.node_count == single.node_count
    assert bytes(chunked.text) == s


@given(strings, st.lists(st.integers(min_value=0, max_value=9), max_size=12))
@settings(max_examples=200)
def test_edges_derive_from_first_occurrence_and_depth(s, cuts):
    # no node stores its edge: the edge into v is text[first[v] +
    # depth(parent) : first[v] + depth(v)], and it must be nonempty, begin
    # with the symbol the parent files v under, and extend the parent's locus
    tree = SuffixTree(3)
    for k in cuts + [len(s)]:
        tree.extend(s[len(tree) : len(tree) + k])
        text = bytes(tree.text)
        parent = tree_parents(tree._children)
        for v in range(1, tree.node_count):
            p, f = parent[v], tree._first[v]
            edge = text[f + tree.string_depth(p) : f + tree.string_depth(v)]
            assert edge
            assert tree._children[p][edge[0]] == v
            assert tree.locus(p) + edge == tree.locus(v)


def check_leaves(tree: SuffixTree) -> None:
    """The leaves are the nodes that are no node's parent; they start exactly
    the suffixes that occur once, each holds the shared empty child map,
    which stayed empty and read-only, and no query runs on past a leaf."""
    text = bytes(tree.text)
    leaves = set(range(tree.node_count)) - set(tree_parents(tree._children))
    assert leaves
    assert leaves == {v for v in range(tree.node_count) if tree.is_leaf(v)}
    assert sorted(tree._first[v] for v in leaves) == [
        i for i in range(len(text)) if text.find(text[i:]) == i
    ]
    for v in leaves:
        assert tree._children[v] is _LEAF_KIDS
        for c in range(1, tree.sigma + 1):
            q = tree.locus(v) + bytes((c,))
            assert q not in text
            assert not tree.contains(q)
    with pytest.raises(TypeError):
        _LEAF_KIDS[1] = 1
    assert len(_LEAF_KIDS) == 0
    snap = tree.snapshot()
    assert all(not snap.children[v] for v in leaves)


@given(strings.filter(bool))
@settings(max_examples=150)
def test_leaves_share_one_read_only_empty_map(s):
    check_leaves(build(s, 3))


def test_leaves_of_long_and_deep_trees():
    rng = random.Random(11)
    check_leaves(build(bytes(rng.randint(1, 4) for _ in range(1500)), 4))
    # a^1500 b: every leaf hangs off the 1500-level chain of a's
    check_leaves(build(bytes([1] * 1500 + [2]), 2))


def test_node_count_is_linear():
    rng = random.Random(5)
    s = bytes(rng.randint(1, 4) for _ in range(2000))
    tree = build(s, 4)
    assert tree.node_count <= 2 * len(s)
