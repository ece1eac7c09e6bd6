"""Exactness and query bounds of the four reconstruction algorithms."""
from __future__ import annotations

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from strrecon import (
    Oracle,
    SuffixTree,
    Text,
    from_letters,
    generate,
    measure,
    reconstruct_lz_prefix,
    reconstruct_lz_substring,
    reconstruct_naive,
    reconstruct_rle,
    to_letters,
)
from strrecon import reconstruct
from strrecon.bench import bound_holds, run_one
from strrecon.reconstruct import _max_true, _phrase_search, decompose_snapshot

ALGOS = [reconstruct_naive, reconstruct_rle, reconstruct_lz_prefix, reconstruct_lz_substring]
ALGO_NAMES = ["naive", "rle", "lz-prefix", "lz-substring"]


def check_exact(algo, hidden: Text) -> None:
    rep = algo(Oracle(hidden), hidden.sigma)
    assert rep.recovered.symbols == hidden.symbols, (algo.__name__, hidden.symbols)


@pytest.mark.parametrize("algo", ALGOS, ids=ALGO_NAMES)
def test_exhaustive_binary_up_to_8(algo):
    for n in range(1, 9):
        for tup in itertools.product((1, 2), repeat=n):
            check_exact(algo, Text(bytes(tup), 2))


@pytest.mark.parametrize("algo", ALGOS, ids=ALGO_NAMES)
def test_exhaustive_ternary_up_to_5(algo):
    for n in range(1, 6):
        for tup in itertools.product((1, 2, 3), repeat=n):
            check_exact(algo, Text(bytes(tup), 3))


texts = st.binary(min_size=1, max_size=80).map(
    lambda b: Text(bytes((x % 4) + 1 for x in b), 4)
)


@pytest.mark.parametrize("algo", ALGOS, ids=ALGO_NAMES)
@given(hidden=texts)
@settings(max_examples=120, deadline=None)
def test_random_strings_are_recovered(algo, hidden):
    check_exact(algo, hidden)


@pytest.mark.parametrize("algo", ALGOS, ids=ALGO_NAMES)
def test_sigma_below_oracle_alphabet_is_rejected(algo):
    # with sigma 2 the symbol c is never probed, so "abcabcab" would come
    # back as "ab"; the mismatch is caught before any query
    o = Oracle(from_letters("abcabcab"))
    with pytest.raises(ValueError):
        algo(o, 2)
    assert o.stats().total_queries == 0


@pytest.mark.parametrize("name", ALGO_NAMES)
def test_query_bounds_hold_on_families(name):
    for family, n, sigma in [
        ("random", 200, 2), ("random", 150, 6), ("unary", 300, 3),
        ("periodic", 256, 4), ("fibonacci", 233, 2), ("thue-morse", 256, 2),
        ("runs(7)", 210, 3), ("copy-paste(4)", 240, 5),
    ]:
        hidden = generate(family, n, sigma, seed=1)
        row = run_one(name, hidden, family=family)
        assert row.exact and row.bound_ok, (name, family, row)


def test_naive_bound_is_tight_in_shape():
    hidden = generate("random", 500, 3, seed=2)
    rep = reconstruct_naive(Oracle(hidden), 3)
    assert rep.stats.substring_queries <= 3 * (500 + 2)
    assert rep.stats.prefix_queries == 0


def test_rle_query_count_scales_with_runs():
    hidden = Text(b"\x01" * 1000, 4)
    rep = reconstruct_rle(Oracle(hidden), 4)
    assert rep.recovered.symbols == hidden.symbols
    assert sum(p.units for p in rep.phases) == 1
    # one run: alphabet probes plus one exponential search
    assert rep.stats.substring_queries <= 4 * 1 * (4 + 10 + 2)


def test_lz_prefix_uses_only_prefix_queries():
    hidden = generate("copy-paste(6)", 300, 3, seed=3)
    rep = reconstruct_lz_prefix(Oracle(hidden), 3)
    assert rep.recovered.symbols == hidden.symbols
    assert rep.stats.substring_queries == 0
    assert rep.stats.prefix_queries > 0
    assert rep.phases[0].direction == "forward"


def test_lz_substring_runs_both_directions():
    hidden = from_letters("dcbaabcdabcd")
    rep = reconstruct_lz_substring(Oracle(hidden), 4)
    assert rep.recovered.symbols == hidden.symbols
    assert [p.direction for p in rep.phases] == ["forward", "backward"]
    assert rep.stats.prefix_queries == 0


def test_single_symbol_string_query_costs():
    hidden = Text(b"\x1a", 26)  # "z" over a 26-letter alphabet
    for algo, limit in zip(ALGOS, (3 * 26, 3 * 26, 2 * 26, 4 * 26)):
        o = Oracle(hidden)
        rep = algo(o, 26)
        assert rep.recovered.symbols == hidden.symbols
        assert o.stats().total_queries <= limit, algo.__name__


def test_decomposition_records_are_emitted(monkeypatch):
    built = []

    def counted(snap):
        built.append(decompose_snapshot(snap))
        return built[-1]

    monkeypatch.setattr(reconstruct, "decompose_snapshot", counted)
    hidden = generate("random", 400, 2, seed=4)
    rep = reconstruct_lz_substring(Oracle(hidden), 2)
    # one record per decomposition, each phase's last one included
    assert rep.extras["decompositions"] == [(ct.size, ct.placed) for ct in built]
    assert all(1 <= placed <= size for size, placed in rep.extras["decompositions"])


def test_searches_place_few_centroids():
    # the phrase searches enter only a small part of each decomposition;
    # placing every centroid up front would read 100 %
    hidden = generate("random", 2000, 2, seed=4)
    records = reconstruct_lz_substring(Oracle(hidden), 2).extras["decompositions"]
    assert sum(placed for _, placed in records) < 0.25 * sum(size for size, _ in records)


def phrase_search(known: Text, extend) -> bytes:
    """One phrase step over the suffix tree of known, as the LZ loop takes it."""
    tree = SuffixTree(known.sigma)
    tree.extend(known.symbols)
    snap = tree.snapshot()
    return _phrase_search(snap, decompose_snapshot(snap), extend)


def test_phrase_search_finds_longest_extending_substring():
    # known text contains ABCABCA...; the next phrase toward the hidden
    # string AAABCABCABCAAAABCAB must be ABCAB
    known = from_letters("AAABCABCABCAAA", sigma=5)
    o = Oracle(from_letters("AAABCABCABCAAAABCAB", sigma=5))
    phrase = phrase_search(known, lambda t: o.is_prefix(known.symbols + t))
    assert phrase == from_letters("ABCAB").symbols


def test_phrase_search_empty_when_nothing_extends():
    known = from_letters("ab")
    o = Oracle(from_letters("ab"))
    assert phrase_search(known, lambda t: o.is_prefix(known.symbols + t)) == b""


@pytest.mark.parametrize(
    "known, extending, phrase",
    [("cba", {"b", "c"}, "b"),                   # at the root: children c, b, a
     ("adacab", {"a", "ab", "ac"}, "ab")],       # at node a: children c, d, b
    ids=["root", "internal"],
)
def test_phrase_search_probes_children_in_symbol_order(known, extending, phrase):
    # the snapshot keeps children in insertion order, which here is not the
    # symbol order; two children extend, and the smaller symbol must be
    # probed first and taken
    asked: list[str] = []

    def extend(t: bytes) -> bool:
        asked.append(to_letters(t))
        return asked[-1] in extending

    assert to_letters(phrase_search(from_letters(known, sigma=4), extend)) == phrase
    parent = phrase[:-1]
    siblings = [q for q in asked if len(q) == len(parent) + 1 and q.startswith(parent)]
    assert siblings == sorted(siblings) and siblings[-1] == phrase


def test_phrase_search_never_asks_the_same_query_twice():
    # known is a prefix of the hidden string (prefix probes, as lz-prefix
    # asks) or any piece of it (substring probes, as lz-substring asks)
    rng = random.Random(11)
    for case in range(600):
        sigma = rng.randint(2, 8)
        hidden = bytes(rng.randint(1, sigma) for _ in range(rng.randint(2, 60)))
        i = rng.randrange(len(hidden))
        j = rng.randint(i + 1, len(hidden))
        known = hidden[:j] if case % 2 else hidden[i:j]
        asked: list[bytes] = []

        def probe(t: bytes) -> bool:
            asked.append(bytes(t))
            q = known + t
            return hidden.startswith(q) if case % 2 else q in hidden

        phrase_search(Text(known, sigma), probe)
        assert len(asked) == len(set(asked)), (hidden, known)


def test_max_true_exact_over_small_domain():
    for answer in range(1, 70):
        calls = 0

        def pred(l, _a=answer):
            nonlocal calls
            calls += 1
            return l <= _a

        assert _max_true(pred) == answer
        assert calls <= 2 * max(1, answer.bit_length()) + 2


def test_max_true_respects_cap():
    for answer in range(1, 20):
        for cap in range(1, 25):
            got = _max_true(lambda l, _a=answer: l <= _a, cap=cap)
            assert got == min(answer, cap)


def test_bound_holds_rejects_unknown_algorithm():
    hidden = Text(b"\x01\x02", 2)
    rep = reconstruct_naive(Oracle(hidden), 2)
    for name in ("nope", "universal-nope"):
        with pytest.raises(ValueError):
            bound_holds(name, rep, measure(hidden))
        with pytest.raises(ValueError):
            run_one(name, hidden)


@pytest.mark.parametrize("name", ALGO_NAMES)
def test_run_one_row_is_consistent(name):
    hidden = generate("periodic", 120, 3, seed=0)
    row = run_one(name, hidden, family="periodic")
    m = measure(hidden)
    assert (row.n, row.sigma, row.rle, row.z, row.z_no) == (m.n, m.sigma, m.rle, m.z, m.z_no)
    assert row.exact and row.bound_ok
    assert row.sub_q + row.pre_q > 0


class _HashingOracle(Oracle):
    """An oracle that also feeds (kind, answer, length, query bytes) of every
    query to a hash, so the hash pins the whole transcript."""

    __slots__ = ("digest",)

    def __init__(self, hidden: Text, digest):
        super().__init__(hidden)
        self.digest = digest

    def _log(self, kind: bytes, q, answer: bool) -> bool:
        self.digest.update(b"%s%d %d:" % (kind, answer, len(q)))
        self.digest.update(q)
        return answer

    def contains_substring(self, q) -> bool:
        return self._log(b"S", q, super().contains_substring(q))

    def is_prefix(self, q) -> bool:
        return self._log(b"P", q, super().is_prefix(q))


@pytest.mark.parametrize("algo", [reconstruct_lz_substring, reconstruct_lz_prefix],
                         ids=["lz-substring", "lz-prefix"])
def test_lz_tree_is_extended_only_as_far_as_snapshots_read(algo, monkeypatch):
    # the phrase search reads the suffix tree only through snapshots, so each
    # phase's tree must receive exactly the symbols of its last snapshot
    fed: dict[SuffixTree, int] = {}
    read: dict[SuffixTree, int] = {}
    extend, snapshot = SuffixTree.extend, SuffixTree.snapshot

    def counting_extend(self, chunk):
        chunk = bytes(chunk)
        fed[self] = fed.get(self, 0) + len(chunk)
        extend(self, chunk)

    def recording_snapshot(self):
        snap = snapshot(self)
        read[self] = len(snap.text)
        return snap

    monkeypatch.setattr(SuffixTree, "extend", counting_extend)
    monkeypatch.setattr(SuffixTree, "snapshot", recording_snapshot)
    unread = 0
    for family, n, sigma in [("random", 300, 4), ("runs(5)", 200, 3), ("fibonacci", 233, 2),
                             ("copy-paste(6)", 300, 3)]:
        hidden = generate(family, n, sigma, seed=1)
        fed.clear()
        read.clear()
        rep = algo(Oracle(hidden), sigma)
        assert rep.recovered.symbols == hidden.symbols
        assert len(fed) == len(rep.phases)
        assert fed == read
        unread += len(hidden) - max(read.values())
    assert unread > 0  # the last snapshot of a phase is older than its end


class _LoggingOracle(Oracle):
    """An oracle that also logs every query as kind, answer and letters,
    e.g. "P0abca" for a prefix query abca answered no."""

    __slots__ = ("log",)

    def __init__(self, hidden: Text):
        super().__init__(hidden)
        self.log: list[str] = []

    def contains_substring(self, q) -> bool:
        answer = super().contains_substring(q)
        self.log.append(f"S{answer:d}{to_letters(q)}")
        return answer

    def is_prefix(self, q) -> bool:
        answer = super().is_prefix(q)
        self.log.append(f"P{answer:d}{to_letters(q)}")
        return answer


# On both strings a phrase search comes back empty over a snapshot that lacks
# a symbol of the known string (abccc: c, snapshot ab; aabcc: b, snapshot aa),
# and the fresh-symbol fallback must ask that symbol; with sigma 4 the symbol
# d never occurs and is asked last.
STALE_SNAPSHOT_LOGS = {
    ("abccc", 3, "lz-prefix"):
        "P1a P0aa P1ab P0aba P0abb P1abc P0abca P0abcb P1abcc P0abcca P0abccb P1abccc"
        " P0abcccc P0abccca P0abcccb P0abcccc",
    ("abccc", 3, "lz-substring"):
        "S1a S0aa S1ab S0aba S0abb S1abc S0abca S0abcb S1abcc S0abcca S0abccb S1abccc"
        " S0abcccc S0abccca S0abcccb S0abcccc S0cabccc S0aabccc S0babccc",
    ("abccc", 4, "lz-prefix"):
        "P1a P0aa P1ab P0aba P0abb P1abc P0abca P0abcb P1abcc P0abcca P0abccb P1abccc"
        " P0abcccc P0abccca P0abcccb P0abcccc P0abcccd",
    ("abccc", 4, "lz-substring"):
        "S1a S0aa S1ab S0aba S0abb S1abc S0abca S0abcb S1abcc S0abcca S0abccb S1abccc"
        " S0abcccc S0abccca S0abcccb S0abcccc S0abcccd S0cabccc S0aabccc S0babccc S0dabccc",
    ("aabcc", 3, "lz-prefix"):
        "P1a P1aa P0aaa P1aab P0aaba P0aabb P1aabc P0aabca P0aabcb P1aabcc P0aabcca"
        " P0aabccb P0aabccc",
    ("aabcc", 3, "lz-substring"):
        "S1a S1aa S0aaa S1aab S0aaba S0aabb S1aabc S0aabca S0aabcb S1aabcc S0aabcca"
        " S0aabccb S0aabccc S0aaabcc S0baabcc S0caabcc",
    ("aabcc", 4, "lz-prefix"):
        "P1a P1aa P0aaa P1aab P0aaba P0aabb P1aabc P0aabca P0aabcb P1aabcc P0aabcca"
        " P0aabccb P0aabccc P0aabccd",
    ("aabcc", 4, "lz-substring"):
        "S1a S1aa S0aaa S1aab S0aaba S0aabb S1aabc S0aabca S0aabcb S1aabcc S0aabcca"
        " S0aabccb S0aabccc S0aabccd S0aaabcc S0baabcc S0caabcc S0daabcc",
}


@pytest.mark.parametrize("case", STALE_SNAPSHOT_LOGS, ids=lambda c: "-".join(map(str, c)))
def test_fresh_symbols_after_a_stale_snapshot_are_pinned(case):
    letters, sigma, name = case
    hidden = from_letters(letters, sigma)
    algo = dict(zip(ALGO_NAMES, ALGOS))[name]
    o = _LoggingOracle(hidden)
    assert algo(o, sigma).recovered.symbols == hidden.symbols
    assert " ".join(o.log) == STALE_SNAPSHOT_LOGS[case]
    # the native cursors charge the same queries and symbols
    native = algo(Oracle(hidden), sigma).stats
    assert native.total_queries == len(o.log)
    assert native.total_queried_symbols == sum(len(q) - 2 for q in o.log)


PINNED_TRANSCRIPTS = {
    "naive": "e7ed59377e515d86a9826387e1cb8116a625d173286e9a71fa14f160ed7907a0",
    "rle": "4396209bf1e8428d54e82f0bf6942f4bbae3c81739f4398216d5c04a30fe8668",
    "lz-prefix": "cdc6ae285f1a800705d6ba38bffff107feb989b339e32c07d34e3e3cc318fc8d",
    "lz-substring": "878731b0fc376b366d25fc42a57de99d8fe9671918d17751fce87e7a6386bb77",
}


@pytest.mark.parametrize("algo", ALGOS, ids=ALGO_NAMES)
def test_transcripts_match_pinned_digests(algo):
    # a refactor that still reconstructs exactly but asks other queries, or
    # the same ones in another order, changes these digests
    h = hashlib.sha256()
    for family, n, sigma in [("random", 300, 4), ("runs(5)", 200, 3),
                             ("periodic", 120, 5), ("fibonacci", 233, 2)]:
        hidden = generate(family, n, sigma, seed=1)
        rep = algo(_HashingOracle(hidden, h), sigma)
        assert rep.recovered.symbols == hidden.symbols
    assert h.hexdigest() == PINNED_TRANSCRIPTS[rep.algorithm]
