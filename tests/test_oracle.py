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
from strrecon.oracle import cursor

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


class _Super(Oracle):
    """Answers through the base class, as a transcript-hashing subclass does."""

    __slots__ = ()

    def contains_substring(self, q) -> bool:
        return super().contains_substring(q)

    def is_prefix(self, q) -> bool:
        return super().is_prefix(q)


def test_direct_query_counts_are_identical_through_super_and_for_text():
    rng = random.Random(4)
    hidden = mk(bytes(rng.randint(1, 3) for _ in range(50)), 3)
    asked = [bytes(rng.randint(1, 3) for _ in range(rng.randint(0, 12))) for _ in range(300)]
    ways = [(Oracle(hidden), bytes), (_Super(hidden), bytes), (Oracle(hidden), bytearray),
            (Oracle(hidden), lambda q: Text(q, 3)), (_Super(hidden), lambda q: Text(q, 3))]
    answers = []
    for o, wrap in ways:
        answers.append([(o.contains_substring(wrap(q)), o.is_prefix(wrap(q))) for q in asked])
    assert all(a == answers[0] for a in answers)
    assert answers[0] == [(q in hidden.symbols, hidden.symbols.startswith(q)) for q in asked]
    want = ways[0][0].stats()
    assert want.substring_queries == want.prefix_queries == len(asked)
    assert want.total_queried_symbols == 2 * sum(map(len, asked))
    assert want.max_query_length == max(map(len, asked))
    assert all(o.stats() == want for o, _ in ways)


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
    # or not; first() and step() try symbol lists, as bytes or as lists, in
    # any order, with duplicates, empty, and with symbols that have no
    # transition anywhere in a right cursor's automaton (0, and above the
    # hidden string's largest symbol, which sigma may exceed), first() after
    # a mid that is empty, a true extension or free; a step advances both
    # cursors by the symbol it found, and leaves them as they were on a miss
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
        step = data.draw(st.sampled_from(["probe", "advance", "first", "step"]))
        ext = _extensions(s, side, known)
        if step in ("first", "step"):
            tried = data.draw(st.lists(st.integers(0, sigma + 1), max_size=6))
            if data.draw(st.booleans()):
                tried = bytes(tried)
            mid = b"" if step == "step" else data.draw(
                st.one_of(st.just(b""), st.sampled_from(ext) if ext else free, free))
            q = [bytes((c,)) + mid[::-1] + known if side == "left" else known + mid + bytes((c,))
                 for c in tried]
            hits = [i for i, qc in enumerate(q) if _holds(s, side, qc)]
            expected = hits[0] if hits else -1
            asked = expected + 1 if hits else len(tried)
            calls += asked
            symbols += asked * (len(known) + len(mid) + 1)
            if asked:
                longest = max(longest, len(known) + len(mid) + 1)
            if step == "step":
                answers = [c.step(tried) for c in cursors]
                if hits:
                    took = bytes((tried[expected],))
                    known = took + known if side == "left" else known + took
                assert [c.result() for c in cursors] == [known, known], (s, side, known, tried)
            elif mid or data.draw(st.booleans()):
                answers = [c.first(tried, mid) for c in cursors]
            else:  # the default mid
                answers = [c.first(tried) for c in cursors]
            assert answers == [expected, expected], (s, side, known, mid, tried)
            assert native_o.stats() == full_o.stats()
            continue
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


class _NoIter(list):
    """A symbol list that may be searched but not iterated."""

    def __iter__(self):
        raise AssertionError("first() iterated over its symbols")


@pytest.mark.parametrize("family, n", [("periodic", 1000), ("random", 300)])
def test_right_first_over_255_symbols_matches_full_queries(family, n):
    # state 0 has a transition for every symbol of the string, a long
    # verified known one; symbol lists as bytes and as lists, ascending,
    # shuffled, with duplicates and with symbols the string lacks (0 always,
    # about a third of them in the random string)
    hidden = generate(family, n, 255, seed=9)
    s = hidden.symbols
    rng = random.Random(9)
    shuffled = list(range(256))
    rng.shuffle(shuffled)
    absent = [c for c in range(256) if c not in s]
    lists = [list(range(256)), shuffled, shuffled[:40] * 2 + shuffled, absent,
             absent + shuffled[::3], [s[-1]] * 3]
    for known in (b"", s[100:260], s[-200:]):
        native_o, full_o = Oracle(hidden), Oracle(hidden)
        right = cursor(native_o, "right", known)
        full = cursor(_PassThrough(full_o), "right", known)
        at = s.find(known) + len(known)
        for mid in (b"", s[at : at + 7], b"\x00", s[at : at + 3] + b"\x00"):
            for tried in lists:
                for native, plain in ((tried, tried), (bytes(tried), bytes(tried)),
                                      (_NoIter(tried), tried)):
                    assert right.first(native, mid) == full.first(plain, mid), (known, mid, tried)
                    assert native_o.stats() == full_o.stats()
        # step(): the brute-force index, and an advance by that symbol only
        # on a hit, from a fresh pair of cursors per symbol list
        for tried in lists:
            hits = [i for i, c in enumerate(tried) if known + bytes((c,)) in s]
            want = hits[0] if hits else -1
            after = known + bytes((tried[want],)) if hits else known
            for native, plain in ((tried, tried), (bytes(tried), bytes(tried)),
                                  (_NoIter(tried), tried)):
                right = cursor(native_o, "right", known)
                full = cursor(_PassThrough(full_o), "right", known)
                assert right.step(native) == full.step(plain) == want, (known, tried)
                assert right.result() == full.result() == after
                assert native_o.stats() == full_o.stats()


@pytest.mark.parametrize("side", ["right", "left", "prefix"])
def test_step_from_an_unverified_known_asks_every_symbol_and_takes_none(side):
    # right state -1 (the known string occurs nowhere), or a prefix cursor
    # whose known is not a prefix (_ok False), the left one over the
    # reversed hidden string; symbols as bytes and as lists, with duplicates
    # and with symbols the hidden string lacks
    s = from_letters("abcab").symbols
    known = b"\x03\x03"
    for tried in (b"\x01\x02\x03", [3, 1, 1, 0, 2]):
        native_o, full_o = Oracle(Text(s, 3)), Oracle(Text(s, 3))
        native = cursor(native_o, side, known)
        full = cursor(_PassThrough(full_o), side, known)
        assert (native._state == -1) if side == "right" else (native._ok is False)
        assert native.step(tried) == full.step(tried) == -1
        assert native.result() == full.result() == known
        assert native_o.stats() == full_o.stats()
        assert native_o.stats().total_queries == len(tried)
        assert native_o.stats().total_queried_symbols == len(tried) * (len(known) + 1)
