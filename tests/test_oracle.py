"""Oracle behavior checked against brute-force scans."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from strrecon import (
    Oracle,
    Text,
    from_letters,
    generate,
    reconstruct_lz_prefix,
    reconstruct_lz_substring,
    reconstruct_naive,
    reconstruct_rle,
)
from strrecon.oracle import QueryStats, cursor

ALGOS = [reconstruct_naive, reconstruct_rle, reconstruct_lz_prefix, reconstruct_lz_substring]
ALGO_NAMES = ["naive", "rle", "lz-prefix", "lz-substring"]
# (family, n, sigma): one run, one period, no structure, few LZ phrases
CASES = [("unary", 2000, 1), ("periodic", 2000, 26), ("random", 2000, 26),
         ("fibonacci", 1597, 2), ("random", 40, 3), ("random", 2000, 255)]


def mk(symbols: bytes, sigma: int | None = None) -> Text:
    return Text(symbols, sigma or max(symbols))


symbols = st.integers(min_value=1, max_value=3)
strings = st.binary(min_size=1, max_size=60).map(
    lambda b: bytes((x % 3) + 1 for x in b)
)
queries = st.binary(min_size=0, max_size=20).map(
    lambda b: bytes((x % 3) + 1 for x in b)
)


def test_rejects_empty_hidden():
    with pytest.raises(ValueError):
        Oracle(Text(b"", 1))


@given(strings, queries)
@settings(max_examples=400)
def test_matches_brute_force_scan(s, q):
    o = Oracle(mk(s, 3))
    expected_sub = any(s[i : i + len(q)] == q for i in range(len(s) - len(q) + 1))
    assert o.contains_substring(q) == expected_sub
    assert o.is_prefix(q) == (s[: len(q)] == q)


@given(strings, queries)
@settings(max_examples=200)
def test_prefix_implies_substring(s, q):
    o = Oracle(mk(s, 3))
    if o.is_prefix(q):
        assert o.contains_substring(q)


def test_empty_query_is_true_and_counted():
    o = Oracle(mk(b"\x01\x02"))
    assert o.contains_substring(b"")
    assert o.is_prefix(b"")
    st_ = o.stats()
    assert st_.substring_queries == 1
    assert st_.prefix_queries == 1
    assert st_.total_queried_symbols == 0
    assert st_.max_query_length == 0


def test_counters_are_exact_and_count_repeats():
    o = Oracle(mk(b"\x01\x02\x01"))
    o.contains_substring(b"\x01\x02")
    o.contains_substring(b"\x01\x02")
    o.is_prefix(b"\x01\x02\x01\x01")
    st_ = o.stats()
    assert st_.substring_queries == 2
    assert st_.prefix_queries == 1
    assert st_.total_queried_symbols == 2 + 2 + 4
    assert st_.max_query_length == 4
    assert st_.total_queries == 3


def test_bulk_charge_equals_single_charges():
    # times=0 leaves every field alone, max_query_length included
    for kind in ("substring", "prefix"):
        bulk, single = Oracle(mk(b"\x01")), Oracle(mk(b"\x01"))
        for length, times in ((3, 4), (9, 0), (2, 1), (5, 2), (0, 3)):
            bulk._count(kind, length, times)
            for _ in range(times):
                single._count(kind, length)
            assert bulk.stats() == single.stats()
        assert bulk.stats().max_query_length == 5
    untouched = Oracle(mk(b"\x01"))
    untouched._count("substring", 9, 0)
    untouched._count("prefix", 9, 0)
    assert untouched.stats() == QueryStats()


def test_stats_returns_a_snapshot():
    o = Oracle(mk(b"\x01"))
    before = o.stats()
    o.contains_substring(b"\x01")
    assert before.substring_queries == 0
    assert o.stats().substring_queries == 1


def test_bytearray_and_text_queries_accepted():
    o = Oracle(mk(b"\x01\x02\x01"))
    assert o.contains_substring(bytearray(b"\x02\x01"))
    assert o.is_prefix(bytearray(b"\x01\x02"))
    assert o.contains_substring(Text(b"\x01\x02", 2))
    assert o.is_prefix(Text(b"\x01", 1))


def test_long_extension_sequences_match_brute_force():
    # long queries sharing one core, extended on both sides, interleaved
    # with unrelated probes
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(30, 300)
        s = bytes(rng.randint(1, 2) for _ in range(n))
        o = Oracle(Text(s, 2))
        i = rng.randrange(0, n - 15)
        core = s[i : i + 14]
        for _ in range(80):
            roll = rng.random()
            if roll < 0.4:
                q = core + bytes(rng.randint(1, 2) for _ in range(rng.randint(0, 6)))
            elif roll < 0.8:
                q = bytes(rng.randint(1, 2) for _ in range(rng.randint(0, 4))) + core
            else:
                q = bytes(rng.randint(1, 2) for _ in range(rng.randint(1, 20)))
            assert o.contains_substring(q) == (q in s), (s, q)


class _PassThrough:
    """A wrapper, so cursors over it take the full-query path."""

    def __init__(self, o: Oracle):
        self._o = o
        self.sigma = o.sigma

    def contains_substring(self, q) -> bool:
        return self._o.contains_substring(q)

    def is_prefix(self, q) -> bool:
        return self._o.is_prefix(q)

    def stats(self):
        return self._o.stats()


def _extensions(s: bytes, side: str, known: bytes) -> list[bytes]:
    """Every t (at most 4 symbols) whose canonical query occurs in s."""
    k = len(known)
    starts = [0] if side == "prefix" else range(len(s) + 1)
    found = set()
    for p in starts:
        if s[p : p + k] != known:
            continue
        for m in range(5):
            if side == "left":
                if p >= m:
                    found.add(s[p - m : p][::-1])
            elif p + k + m <= len(s):
                found.add(s[p + k : p + k + m])
    return sorted(found)


def _holds(s: bytes, side: str, q: bytes) -> bool:
    return s.startswith(q) if side == "prefix" else q in s


@given(st.data())
@settings(max_examples=500, deadline=None)
def test_cursors_match_brute_force_on_the_canonical_query(data):
    # seeds and steps are true extensions, pieces of the hidden string
    # forward or reversed, or free strings with symbols 0 and sigma + 1
    # (never in the hidden string): verified or not, unique or not, empty
    # or not; first() steps try symbol lists in any order, with duplicates,
    # empty, and with symbols at or past a right cursor's row width (sigma
    # may lie above the hidden string's largest symbol)
    top = data.draw(st.integers(min_value=1, max_value=3))
    s = bytes(data.draw(st.lists(st.integers(1, top), min_size=1, max_size=40)))
    sigma = top + data.draw(st.sampled_from([0, 0, 1, 2]))
    cut = st.integers(0, len(s))
    piece = st.tuples(cut, cut).map(lambda ij: s[min(ij) : max(ij)])
    free = st.one_of(piece, piece.map(lambda b: b[::-1]),
                     st.lists(st.integers(0, sigma + 1), max_size=5).map(bytes))
    side = data.draw(st.sampled_from(["right", "left", "prefix"]))
    known = data.draw(free)
    native_o, full_o = Oracle(Text(s, sigma)), Oracle(Text(s, sigma))
    cursors = [cursor(native_o, side, known), cursor(_PassThrough(full_o), side, known)]
    calls = symbols = longest = 0
    for _ in range(data.draw(st.integers(0, 30))):
        step = data.draw(st.sampled_from(["probe", "advance", "first"]))
        if step == "first":
            tried = data.draw(st.lists(st.integers(0, sigma + 1), max_size=6))
            if data.draw(st.booleans()):
                tried = bytes(tried)
            q = [bytes((c,)) + known if side == "left" else known + bytes((c,)) for c in tried]
            hits = [i for i, qc in enumerate(q) if _holds(s, side, qc)]
            expected = hits[0] if hits else -1
            assert [c.first(tried) for c in cursors] == [expected, expected], (s, side, known, tried)
            asked = expected + 1 if hits else len(tried)
            calls += asked
            symbols += asked * (len(known) + 1)
            if asked:
                longest = max(longest, len(known) + 1)
            assert native_o.stats() == full_o.stats()
            continue
        ext = _extensions(s, side, known)
        t = data.draw(st.sampled_from(ext) if ext and data.draw(st.booleans()) else free)
        q = t[::-1] + known if side == "left" else known + t
        if step == "advance":
            for c in cursors:
                c.advance(t)
            known = q
            continue
        expected = _holds(s, side, q)
        assert [c.probe(t) for c in cursors] == [expected, expected], (s, side, q)
        calls += 1
        symbols += len(q)
        longest = max(longest, len(q))
    assert [c.result() for c in cursors] == [known, known]
    kind = "prefix_queries" if side == "prefix" else "substring_queries"
    for o in (native_o, full_o):
        stats = o.stats()
        assert (getattr(stats, kind), stats.total_queries) == (calls, calls)
        assert (stats.total_queried_symbols, stats.max_query_length) == (symbols, longest)


def test_cursor_rejects_an_unknown_side():
    with pytest.raises(ValueError, match="unknown cursor side"):
        cursor(Oracle(mk(b"\x01")), "up")


@pytest.mark.parametrize("algo", ALGOS, ids=ALGO_NAMES)
def test_native_cursors_charge_what_full_queries_charge(algo):
    for family, n, sigma in CASES:
        hidden = generate(family, n, sigma, seed=5)
        native = algo(Oracle(hidden), sigma)
        full = algo(_PassThrough(Oracle(hidden)), sigma)
        assert native.recovered == full.recovered == hidden
        assert native.stats == full.stats  # all four QueryStats fields
        assert native.phases == full.phases


class _Logging(_PassThrough):
    """Logs each query object as given, or a copy of it, with its answer,
    and also keeps the answers by query."""

    def __init__(self, o: Oracle, copy: bool):
        super().__init__(o)
        self.copy = copy
        self.log = []
        self.answers = {}

    def _keep(self, q, a: bool) -> bool:
        q = bytes(q) if self.copy else q
        self.log.append((q, a))
        self.answers[q] = a
        return a

    def contains_substring(self, q) -> bool:
        return self._keep(q, super().contains_substring(q))

    def is_prefix(self, q) -> bool:
        return self._keep(q, super().is_prefix(q))


@pytest.mark.parametrize("algo", ALGOS, ids=ALGO_NAMES)
def test_full_query_cursors_hand_out_queries_a_wrapper_can_keep(algo):
    # naive, rle and lz-substring ask through right and left cursors,
    # lz-prefix through a prefix cursor; a wrapper that keeps each query
    # object uncopied must see what a copying one sees
    hidden = from_letters("abracadabra")
    kept, copied = _Logging(Oracle(hidden), False), _Logging(Oracle(hidden), True)
    sigma = hidden.sigma
    assert algo(kept, sigma).recovered == algo(copied, sigma).recovered == hidden
    assert kept.log == copied.log
    assert kept.answers == copied.answers


class _Loose(_Logging):
    """Answers 1 for true and `false` for false, like a wrapper that returns
    match counts or optional matches instead of bools."""

    def __init__(self, o: Oracle, false):
        super().__init__(o, True)
        self.false = false

    def _keep(self, q, a: bool):
        super()._keep(q, a)
        return 1 if a else self.false


@pytest.mark.parametrize("false", [0, None])
@pytest.mark.parametrize("algo", ALGOS, ids=ALGO_NAMES)
def test_non_bool_answers_ask_and_charge_what_bools_do(algo, false):
    # the phrase search's memo takes a None answer for "not asked yet", so
    # full-query probes must hand it bools
    for family, n, sigma in CASES[1:5]:
        hidden = generate(family, n // 10, sigma, seed=5)
        plain, logged, loose = Oracle(hidden), _Logging(Oracle(hidden), True), _Loose(Oracle(hidden), false)
        reps = [algo(x, sigma) for x in (plain, logged, loose)]
        assert [r.recovered for r in reps] == [hidden] * 3
        assert reps[0].stats == reps[1].stats == reps[2].stats
        assert loose.log == logged.log


@pytest.mark.parametrize("algo", ALGOS, ids=ALGO_NAMES)
def test_plain_oracle_reconstructs_without_building_full_queries(algo, monkeypatch):
    # the native cursors answer in O(|t|); a full query per probe would
    # cost O(|known|) more, so none may be asked on a plain Oracle
    def refuse(self, q):
        raise AssertionError("a full query was built")

    monkeypatch.setattr(Oracle, "contains_substring", refuse)
    monkeypatch.setattr(Oracle, "is_prefix", refuse)
    for family, n, sigma in CASES:
        hidden = generate(family, n, sigma, seed=5)
        assert algo(Oracle(hidden), sigma).recovered == hidden
