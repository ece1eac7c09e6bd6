"""Centroid decomposition against brute-force component checks."""
from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from strrecon import CentroidTree, Oracle, SuffixTree, decompose, generate, reconstruct
from strrecon.reconstruct import decompose_snapshot, reconstruct_lz_prefix, reconstruct_lz_substring


Kids = list[dict[int, int]]


def tree(lists: list[list[int]]) -> Kids:
    """The child maps of the tree whose child lists are lists, as a suffix
    tree keeps them: each child keyed by its position, standing in for its
    first edge symbol."""
    return [dict(enumerate(ks)) for ks in lists]


def random_tree(m: int, rng: random.Random) -> Kids:
    """Child maps of a random tree rooted at 0."""
    kids: list[list[int]] = [[] for _ in range(m)]
    for v in range(1, m):
        kids[rng.randrange(v)].append(v)
    return tree(kids)


def relabel(kids: Kids, rng: random.Random) -> Kids:
    """The same tree under a random permutation of the ids that fixes root 0,
    so a parent may get a larger id than its child (as split nodes do in a
    suffix tree)."""
    m = len(kids)
    perm = [0] + rng.sample(range(1, m), m - 1)
    out: list[list[int]] = [[] for _ in range(m)]
    for v, ks in enumerate(kids):
        out[perm[v]] = [perm[w] for w in ks.values()]
    return tree(out)


def path(m: int) -> Kids:
    return tree([[v + 1] for v in range(m - 1)] + [[]])


def tree_parents(kids: Kids) -> list[int]:
    """Each node's tree parent, -1 at the root: the inverse of the child maps."""
    up = [-1] * len(kids)
    for v, ks in enumerate(kids):
        for w in ks.values():
            up[w] = v
    return up


def undirected(kids: Kids) -> list[list[int]]:
    adj = [list(ks.values()) for ks in kids]
    for v, ks in enumerate(kids):
        for w in ks.values():
            adj[w].append(v)
    return adj


def reference_component_of(ct: CentroidTree, u: int, v: int) -> int | None:
    """The centroid-child of u whose component holds v, or None, for any pair
    of placed nodes: climb ct.parent from v to u's depth."""
    prev, cur = None, v
    while ct.depth[cur] > ct.depth[u]:
        prev, cur = cur, ct.parent[cur]
    return prev if cur == u else None


def neighbour_pairs(kids: Kids):
    """Every (u, v) with v a tree child or the tree parent of u."""
    for u, ks in enumerate(kids):
        for w in ks.values():
            yield u, w
            yield w, u


def brute_components(adj: list[list[int]], alive: set[int], c: int) -> list[set[int]]:
    comps = []
    seen = {c}
    for start in adj[c]:
        if start not in alive:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w in alive and w != c and w not in comp:
                    comp.add(w)
                    stack.append(w)
        comps.append(comp)
        seen |= comp
    return comps


def check_decomposition(kids: Kids) -> None:
    """Every structural invariant, verified with set arithmetic."""
    m = len(kids)
    adj = undirected(kids)
    ct = decompose(kids)
    assert ct.size == m
    assert ct.parent[ct.root] == -1
    ct_kids: list[list[int]] = [[] for _ in range(m)]
    for v, p in enumerate(ct.parent):
        if p >= 0:
            ct_kids[p].append(v)

    def recurse(c: int, comp: set[int], depth: int) -> int:
        assert c in comp
        assert ct.depth[c] == depth
        half = len(comp) // 2
        rest = comp - {c}
        pieces = brute_components(adj, rest, c)
        assert set().union(*pieces) == rest if pieces else rest == set()
        # centroid property: every remaining component has size <= m/2
        assert all(len(p) <= half for p in pieces)
        # smallest-id tie-break: no smaller node is also a centroid
        for v in comp:
            if v < c:
                others = brute_components(adj, comp - {v}, v)
                assert any(len(p) > half for p in others)
        # the centroid-tree children of c cover the components one-to-one
        assert len(ct_kids[c]) == len(pieces)
        height = 1
        for piece in pieces:
            (kid,) = [v for v in ct_kids[c] if v in piece]
            for v in piece:
                assert reference_component_of(ct, c, v) == kid
            height = max(height, 1 + recurse(kid, piece, depth + 1))
        return height

    height = recurse(ct.root, set(range(m)), 0)
    assert ct.height == height
    assert ct.balanced
    assert height <= math.floor(math.log2(m)) + 1
    for u, v in neighbour_pairs(kids):
        assert ct.component_of(u, v) == reference_component_of(ct, u, v)


def check_lazy_placement(kids: Kids, rng: random.Random) -> None:
    """Place components in a random order through the neighbour calls a
    phrase search makes, each answer checked against the full
    decomposition; then ask every neighbour pair of a placed node, complete
    the tree, compare it field for field and ask every neighbour pair again.
    tree_parent, the one parent list, inverts the child maps throughout."""
    m = len(kids)
    up = tree_parents(kids)
    full = decompose(kids)
    ct = CentroidTree.of(kids)
    assert ct.tree_parent == full.tree_parent == up
    reached = [ct.root]
    for _ in range(min(2 * m, 300)):
        u = rng.choice(reached)
        near = [*kids[u].values(), up[u]] if u else [*kids[u].values()]
        if near:
            v = rng.choice(near)
            got = ct.component_of(u, v)
            assert got == reference_component_of(full, u, v)
            if got is not None:
                reached.append(got)
    placed = [v for v in range(m) if ct.depth[v] >= 0]
    assert len(placed) == ct.placed
    assert all((ct.parent[v], ct.depth[v]) == (full.parent[v], full.depth[v]) for v in placed)
    for u, v in neighbour_pairs(kids):
        if ct.depth[u] >= 0:
            assert ct.component_of(u, v) == reference_component_of(full, u, v)
    assert ct.complete() == full
    assert ct.placed == m and ct.tree_parent == up
    for u, v in neighbour_pairs(kids):
        assert ct.component_of(u, v) == reference_component_of(full, u, v)


def test_single_node():
    ct = decompose(tree([[]]))
    assert ct.root == 0 and ct.height == 1 and ct.balanced
    assert reference_component_of(ct, 0, 0) is None
    with pytest.raises(ValueError):
        ct.component_of(0, 0)  # a node is not its own neighbour


def test_empty_tree_rejected():
    with pytest.raises(ValueError):
        decompose(tree([]))


@pytest.mark.parametrize(
    "kids",
    [[[1, 2], [2], []],     # node 2 listed as a child twice
     [[1], [0]],            # the root listed as a child
     [[1], [], [3], [2]],   # nodes 2 and 3 form a cycle unreachable from 0
     [[1, 2], [2], [0]],    # both of the first two at once
     [[1], [5]],            # a child id out of range
     [[1], [-1]]],          # a negative child id
    ids=["twice", "root", "unreachable", "twice-and-root", "out-of-range", "negative"],
)
def test_malformed_trees_rejected(kids):
    with pytest.raises(ValueError):
        decompose(tree(kids))


def test_path_of_seven_picks_middle():
    ct = decompose(path(7))
    assert ct.root == 3
    assert [v for v in range(7) if ct.parent[v] == 3] == [1, 5]
    assert ct.height == 3


def test_two_centroids_smaller_id_wins():
    # path of 4: nodes 1 and 2 are both centroids; 1 must win
    ct = decompose(path(4))
    assert ct.root == 1


def test_component_of_edge_cases():
    ct = decompose(path(4))
    assert reference_component_of(ct, ct.root, ct.root) is None
    # a node outside u's component yields None
    for u in range(4):
        for v in range(4):
            got = reference_component_of(ct, u, v)
            if got is not None:
                assert ct.parent[got] == u
            if abs(u - v) == 1:
                assert ct.component_of(u, v) == got
            else:
                with pytest.raises(ValueError):
                    ct.component_of(u, v)
    for u, v in [(0, 9), (9, 0), (0, -1), (-1, 0)]:
        with pytest.raises(ValueError):
            ct.component_of(u, v)


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_random_trees_satisfy_all_invariants(m, seed):
    check_decomposition(random_tree(m, random.Random(seed)))


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_relabelled_random_trees_satisfy_all_invariants(m, seed):
    rng = random.Random(seed)
    check_decomposition(relabel(random_tree(m, rng), rng))


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_lazy_placement_in_any_order_matches_decompose(m, seed):
    rng = random.Random(seed)
    check_lazy_placement(random_tree(m, rng), rng)
    check_lazy_placement(relabel(random_tree(m, rng), rng), rng)


def test_centroid_placed_in_a_subcomponent_is_not_outside():
    # path of 15: the root 7 leaves {0..6} and {8..14}; 11 splits the latter
    # into {8, 9, 10} and {12, 13, 14}, and 13 the last one into two leaves
    ct = CentroidTree.of(path(15))
    assert (ct.root, ct.placed) == (7, 1)
    assert ct.component_of(7, 8) == 11
    assert ct.component_of(11, 12) == 13
    assert ct.placed == 5  # 7, 11, 13 and the one-node components 12 and 14
    # 8 is not placed, but its component's centroid is: 11 again
    assert ct.component_of(7, 8) == 11
    # 9 splits {8, 9, 10} into two one-node components, placed with it
    assert ct.component_of(11, 10) == 9
    assert ct.placed == 8
    # 8 is now placed three levels below 7 and still lies inside its
    # component, whose centroid was stored under its key
    assert ct.component_of(7, 8) == 11
    # 10 is a placed one-node component: its own centroid
    assert ct.component_of(9, 10) == 10
    # 11 and 9 were placed above 10 and 8: outside their components
    assert ct.component_of(10, 11) is None
    assert ct.component_of(8, 9) is None
    assert ct.complete() == decompose(path(15))
    assert reference_component_of(ct, 7, 12) == 11
    assert reference_component_of(ct, 13, 11) is None


def test_component_of_rejects_pairs_that_are_not_placed_neighbours():
    # 14 is not next to 7, and 11 is not placed yet: both raise, and
    # neither places anything
    ct = CentroidTree.of(path(15))
    with pytest.raises(ValueError):
        ct.component_of(7, 14)
    with pytest.raises(ValueError):
        ct.component_of(11, 12)
    assert ct.placed == 1
    # the same pairs on the completed tree: 14 still is not next to 7
    ct.complete()
    with pytest.raises(ValueError):
        ct.component_of(7, 14)
    assert ct.component_of(11, 12) == 13
    assert reference_component_of(ct, 7, 14) == 11


def test_star_and_caterpillar():
    star = [list(range(1, 30))] + [[] for _ in range(29)]
    check_decomposition(tree(star))
    cat = [[v + 1] for v in range(19)] + [[] for _ in range(21)]
    for v in range(20, 40):
        cat[v - 20].append(v)
    check_decomposition(tree(cat))


@pytest.mark.parametrize(
    "kids, root, parent, depth, height",
    [([[1], []], 0, [-1, 0], [0, 1], 2),
     ([[1], [2], []], 1, [1, -1, 1], [1, 0, 1], 2),
     ([[1, 2, 3, 4, 5], [], [], [], [], []], 0, [-1, 0, 0, 0, 0, 0], [0, 1, 1, 1, 1, 1], 2),
     ([[1, 4], [2, 5], [3, 6], [7], [], [], [], []],
      1, [1, -1, 1, 2, 0, 1, 2, 3], [1, 0, 1, 2, 2, 1, 2, 3], 4)],
    ids=["two-nodes", "path-3", "star-5", "caterpillar"],
)
def test_one_node_components_at_the_deepest_level(kids, root, parent, depth, height):
    # one-node components are placed without a task of their own, so these
    # pins cover the depth and height they get there; on two nodes both are
    # centroids and 0 wins, on path-3 the root is left alone above the centroid
    kids = tree(kids)
    ct = decompose(kids)
    assert (ct.root, ct.parent, ct.depth, ct.height, ct.balanced) == (root, parent, depth, height, True)
    check_decomposition(kids)


def test_suffix_tree_decomposition_is_logarithmic():
    rng = random.Random(9)
    s = bytes(rng.randint(1, 3) for _ in range(800))
    stree = SuffixTree(3)
    stree.extend(s)
    ct = decompose(stree.snapshot().children)
    assert ct.size == stree.node_count
    assert ct.balanced
    assert ct.height <= math.floor(math.log2(ct.size)) + 1


@pytest.mark.parametrize(
    "text",
    [generate("random", 300, 2, 1), generate("random", 300, 4, 2), generate("random", 120, 26, 3),
     generate("fibonacci", 300, 2), generate("runs(3)", 300, 2), generate("runs(7)", 300, 3)],
    ids=["random-2", "random-4", "random-26", "fibonacci", "runs3", "runs7"],
)
def test_snapshot_decomposition_matches_adjacency(text):
    # snapshots map first edge symbols to children in insertion order; the
    # decomposition must equal that of the same tree rebuilt from the parents
    # the child maps give, with children sorted by first edge symbol, and of
    # any other child order
    stree = SuffixTree(text.sigma)
    size = 1
    while True:
        stree.extend(text.symbols[len(stree) : size])
        snap = stree.snapshot()
        by_symbol: list[list[int]] = [[] for _ in range(snap.size)]
        for v, p in enumerate(tree_parents(snap.children)):
            if p >= 0:
                by_symbol[p].append(v)
        for v, ks in enumerate(by_symbol):
            ks.sort(key=lambda ch, d=snap.depth[v]: snap.text[snap.first_occ[ch] + d])
        ct = decompose_snapshot(snap).complete()
        assert ct == decompose(tree(by_symbol)) == decompose(tree([ks[::-1] for ks in by_symbol]))
        check_decomposition(snap.children)
        check_lazy_placement(snap.children, random.Random(size))
        if size >= len(text):
            break
        size = min(2 * size, len(text))


@pytest.mark.parametrize("algo", [reconstruct_lz_substring, reconstruct_lz_prefix],
                         ids=["lz-substring", "lz-prefix"])
@pytest.mark.parametrize(
    "text", [generate("random", 200, 2, 4), generate("fibonacci", 200, 2), generate("random", 80, 26, 5)],
    ids=["random-2", "fibonacci", "random-26"])
def test_tree_parent_of_every_lz_snapshot_inverts_its_child_maps(algo, text, monkeypatch):
    # every decomposition an LZ run builds is checked when it is built, while
    # the snapshot's child maps are still the live tree's: before complete()
    # and after it (completing early cannot change a centroid, so the run
    # asks the same queries and stays exact)
    build = reconstruct.decompose_snapshot
    checked = []

    def capture(snap):
        up = tree_parents(snap.children)
        ct = build(snap)
        assert ct.tree_parent == up and up[0] == -1
        assert ct.complete().tree_parent == up
        checked.append(snap.size)
        return ct

    monkeypatch.setattr(reconstruct, "decompose_snapshot", capture)
    rep = algo(Oracle(text), text.sigma)
    assert rep.recovered == text
    assert len(checked) == len(rep.extras["decompositions"]) > 1
