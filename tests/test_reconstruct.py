"""Exactness and query bounds of the four reconstruction algorithms."""
from __future__ import annotations

import gc
import hashlib
import itertools
import random
import sys
import tracemalloc
import weakref
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from strrecon import (
    CentroidTree,
    Oracle,
    SuffixTree,
    Text,
    decompose,
    from_letters,
    generate,
    measure,
    reconstruct_lz_prefix,
    reconstruct_lz_substring,
    reconstruct_naive,
    reconstruct_rle,
    to_letters,
)
from strrecon import oracle, reconstruct
from strrecon.automaton import SuffixAutomaton
from strrecon.bench import bound_holds, run_one
from strrecon.oracle import cursor
from strrecon.reconstruct import _phrase_searches, decompose_snapshot
from strrecon.text import MAX_SIGMA

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


@pytest.mark.parametrize("sigma", [MAX_SIGMA + 1, 300])
@pytest.mark.parametrize("algo", ALGOS, ids=ALGO_NAMES)
def test_sigma_above_max_sigma_is_rejected(algo, sigma):
    # no symbol lies above MAX_SIGMA, and the grow loops could not even list
    # the symbols to try: the range is named before any query
    o = Oracle(from_letters("abcabcab"))
    with pytest.raises(ValueError, match=rf"outside \[3, {MAX_SIGMA}\]"):
        algo(o, sigma)
    assert o.stats().total_queries == 0


@pytest.mark.parametrize("algo", [reconstruct_naive, reconstruct_rle, reconstruct_lz_substring],
                         ids=["naive", "rle", "lz-substring"])
def test_left_phases_on_a_plain_oracle_never_take_the_full_path(algo, monkeypatch):
    # forward-stuck soundness: a left phase starts from a string that occurs
    # once, as a suffix, so its cursor is the native one; right and prefix
    # cursors over a plain Oracle are always native
    made = []

    class Counted(oracle._Full):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(oracle, "_Full", Counted)
    rng = random.Random(21)
    hidden = [Text(bytes(tup), 2) for n in range(1, 9) for tup in itertools.product((1, 2), repeat=n)]
    hidden += [generate("random", rng.randint(1, 300), sigma, rng.randrange(10**6))
               for sigma in (4, 26) for _ in range(40)]
    for h in hidden:
        check_exact(algo, h)
    assert made == []


def test_a_left_known_that_is_not_a_unique_suffix_takes_the_full_path():
    # in "abcab", "ab" occurs twice and "bc" once but not as a suffix: a
    # compare at the start of the reversed hidden string would miss an
    # occurrence, so those cursors ask full queries and answer like `in`;
    # "cab" (a unique suffix) and "cc" (absent) get the native cursor
    s = from_letters("abcab").symbols
    for known, native in [(b"\x01\x02", False), (b"\x02\x03", False),
                          (b"\x03\x01\x02", True), (b"\x03\x03", True)]:
        o = Oracle(Text(s, 3))
        c = cursor(o, "left", known)
        assert (type(c) is not oracle._Full) == native, known
        asked = 0
        for m in range(4):
            for t in map(bytes, itertools.product((1, 2, 3), repeat=m)):
                assert c.probe(t) == (t[::-1] + known in s), (known, t)
                asked += 1
        hits = [c for c in (3, 2, 1) if bytes((c,)) + known in s]
        assert c.first(bytes((3, 2, 1))) == ((3, 2, 1).index(hits[0]) if hits else -1)
        assert o.stats().substring_queries == asked + ((3, 2, 1).index(hits[0]) + 1 if hits else 3)
        c.advance(b"\x02")
        assert c.result() == b"\x02" + known


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


class _Lengths:
    """A cursor that passes every call on to `inner` and logs the known
    string's length at the start and after each advance or taking step."""

    def __init__(self, inner, known: bytes):
        self.inner, self.probe, self.first = inner, inner.probe, inner.first
        self.lengths = [len(known)]

    def step(self, symbols) -> int:
        i = self.inner.step(symbols)
        if i >= 0:
            self.lengths.append(self.lengths[-1] + 1)
        return i

    def advance(self, t) -> None:
        self.inner.advance(t)
        self.lengths.append(self.lengths[-1] + len(t))

    def result(self) -> bytes:
        return self.inner.result()


@pytest.mark.parametrize("algo", [reconstruct_lz_prefix, reconstruct_lz_substring],
                         ids=["lz-prefix", "lz-substring"])
def test_snapshots_follow_the_doubling_schedule(algo, monkeypatch):
    # a phase takes its first snapshot once it holds a symbol, so a phase
    # that starts from nothing records no one-node tree, then one each time
    # the known string has doubled since the last
    phases: list[_Lengths] = []
    taken: list[int] = []

    def logged_cursor(o, side, known=b""):
        phases.append(_Lengths(cursor(o, side, known), known))
        return phases[-1]

    def sized(snap):
        taken.append(len(snap.text))
        return decompose_snapshot(snap)

    monkeypatch.setattr(reconstruct, "cursor", logged_cursor)
    monkeypatch.setattr(reconstruct, "decompose_snapshot", sized)
    for family, n, sigma in [("random", 300, 4), ("fibonacci", 233, 2), ("unary", 9, 3),
                             ("copy-paste(6)", 300, 3)]:
        hidden = generate(family, n, sigma, seed=2)
        phases.clear()
        taken.clear()
        rep = algo(Oracle(hidden), sigma)
        assert rep.recovered == hidden
        expected = []
        for phase in phases:
            rebuild_at = 1
            for length in phase.lengths:
                if length >= rebuild_at:
                    expected.append(length)
                    rebuild_at = 2 * length
        assert phases[0].lengths[0] == 0 and expected[0] == 1
        assert taken == expected
        records = rep.extras["decompositions"]
        assert len(records) == len(expected) and min(size for size, _ in records) > 1


class _NeverOracle(Oracle):
    """An oracle subclass, so asked through full queries, that counts every
    query and answers no."""

    __slots__ = ()

    def contains_substring(self, q) -> bool:
        return super().contains_substring(q) and False

    def is_prefix(self, q) -> bool:
        return super().is_prefix(q) and False


@pytest.mark.parametrize("algo", [reconstruct_lz_prefix, reconstruct_lz_substring],
                         ids=["lz-prefix", "lz-substring"])
def test_an_oracle_that_never_answers_yes_gets_no_decompositions(algo):
    rep = algo(_NeverOracle(from_letters("abc")), 3)
    assert rep.recovered.symbols == b""
    assert rep.extras["decompositions"] == []
    assert rep.stats.total_queries == 3 * len(rep.phases)  # one fresh-symbol round per phase


def phrase_search(known: Text, model) -> bytes:
    """One phrase step over the suffix tree of known, as the LZ loop takes it,
    asking through the cursor `model`."""
    tree = SuffixTree(known.sigma)
    tree.extend(known.symbols)
    snap = tree.snapshot()
    return next(_phrase_searches(snap, decompose_snapshot(snap), model))


def test_phrase_search_finds_longest_extending_substring():
    # known text contains ABCABCA...; the next phrase toward the hidden
    # string AAABCABCABCAAAABCAB must be ABCAB
    known = from_letters("AAABCABCABCAAA", sigma=5)
    o = Oracle(from_letters("AAABCABCABCAAAABCAB", sigma=5))
    phrase = phrase_search(known, cursor(o, "prefix", known.symbols))
    assert phrase == from_letters("ABCAB").symbols


def test_phrase_search_empty_when_nothing_extends():
    known = from_letters("ab")
    o = Oracle(from_letters("ab"))
    assert phrase_search(known, cursor(o, "prefix", known.symbols)) == b""


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

    def extend(q: bytes) -> bool:
        asked.append(to_letters(q))
        return asked[-1] in extending

    # a full-query cursor over `extend`, holding the empty string
    model = oracle._Full(extend, False, b"")
    assert to_letters(phrase_search(from_letters(known, sigma=4), model)) == phrase
    parent = phrase[:-1]
    siblings = [q for q in asked if len(q) == len(parent) + 1 and q.startswith(parent)]
    assert siblings == sorted(siblings) and siblings[-1] == phrase


def test_phrase_search_never_asks_the_same_query_twice():
    # known is a prefix of the hidden string (prefix probes, as lz-prefix
    # asks) or any piece of it (substring probes, as lz-substring asks);
    # the native cursor charges what the logged full queries charge
    rng = random.Random(11)
    for case in range(600):
        sigma = rng.randint(2, 8)
        hidden = bytes(rng.randint(1, sigma) for _ in range(rng.randint(2, 60)))
        i = rng.randrange(len(hidden))
        j = rng.randint(i + 1, len(hidden))
        known = hidden[:j] if case % 2 else hidden[i:j]
        side = "prefix" if case % 2 else "right"
        logged, native = _LoggingOracle(Text(hidden, sigma)), Oracle(Text(hidden, sigma))
        phrases = [phrase_search(Text(known, sigma), cursor(o, side, known)) for o in (logged, native)]
        assert len(logged.log) == len(set(logged.log)), (hidden, known)
        assert phrases[0] == phrases[1]
        assert logged.stats() == native.stats()


class _CallLog:
    """A cursor that logs each probe and first call, with its answer, in
    letters, and passes it on to `inner`."""

    def __init__(self, inner):
        self.inner = inner
        self.calls: list[tuple] = []

    def probe(self, t) -> bool:
        answer = self.inner.probe(t)
        self.calls.append(("probe", to_letters(t), answer))
        return answer

    def first(self, symbols, mid=b"") -> int:
        answer = self.inner.first(symbols, mid)
        self.calls.append(("first", to_letters(mid), to_letters(symbols), answer))
        return answer


def test_phrase_search_asks_around_a_child_whose_locus_was_asked():
    # over the tree of known = bbbba the walk first asks the centroid bb (no),
    # then the root's extensions a, b in one first() call: b extends, and b
    # is also the locus of a node, which is therefore not asked again; of
    # that node's children ba and bb, the locus bb was asked already, so the
    # one first() call at that node tries only a, asking ba
    known = from_letters("bbbba")
    model = _CallLog(cursor(Oracle(from_letters("bbbbab")), "prefix", known.symbols))
    assert to_letters(phrase_search(known, model)) == "b"
    assert model.calls == [("probe", "bb", False), ("first", "", "ab", 1), ("first", "b", "a", -1)]


def _capped_max_true(pred, cap: int) -> int:
    """Largest l <= cap with pred(l) true, for monotone pred with pred(1)
    true and cap >= 1: doubles from 1 while at most cap, then bisects below
    cap + 1, which counts as false unasked."""
    lo, hi = 1, 2
    while hi <= cap and pred(hi):
        lo, hi = hi, 2 * hi
    hi = min(hi, cap + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _reference_phrase_search(snap, ct, model, paths: Counter) -> bytes:
    """The phrase search as a closure per search and a helper call per
    visited node, as it was before the search became one loop (now
    `reconstruct._phrase_searches`); kept as the reference that loop must
    match call for call, search after search. `paths` counts the searches
    that filter failed one-symbol children out of a `first` call ("filter")
    and those that reach its fallback for a walk that verified no node
    ("unverified")."""
    probe, first = model.probe, model.first
    text, depth, first_occ, parent = snap.text, snap.depth, snap.first_occ, ct.tree_parent
    by_symbol = snap.children_by_symbol
    seen: dict[int, bool] = {0: True}
    failed: dict[int, list[int]] = {}

    def extending_child(u: int, loc: bytes) -> int:
        kids, syms = by_symbol(u)
        gone = failed.get(u)
        if gone:
            paths["filter"] += 1
            kids = [v for v in kids if v not in gone]
            syms = bytes(text[first_occ[v] + depth[u]] for v in kids)
        i = first(syms, loc) if kids else -1
        ch = kids[i] if i >= 0 else -1
        if ch >= 0 and depth[ch] == depth[u] + 1:
            seen[ch] = True
        return ch

    best, found, nxt = 0, b"", None
    u: int | None = ct.root
    while u is not None:
        f = first_occ[u]
        loc = text[f : f + depth[u]]
        ok = seen.get(u)
        if ok is None:
            ok = seen[u] = probe(loc)
        if ok:
            best, found, nxt = u, loc, extending_child(u, loc)
            if nxt < 0:
                return found
            u = ct.component_of(u, nxt)
        else:
            p = parent[u]
            if depth[u] == depth[p] + 1:
                failed.setdefault(p, []).append(u)
            u = ct.component_of(u, p)
    if nxt is None:
        paths["unverified"] += 1
        nxt = extending_child(0, b"")
    while nxt >= 0:
        f, d, e = first_occ[nxt], depth[best], depth[nxt]
        a = seen.get(nxt)
        k = _capped_max_true(lambda l: probe(text[f : f + d + l]) if a is None or d + l < e else a, e - d)
        if d + k < e:
            return text[f : f + d + k]
        found = text[f : f + e]
        best, nxt = nxt, extending_child(nxt, found)
    return found


def _reference_searches(snap, ct, model, paths: Counter):
    """`_reference_phrase_search` once per `next()`, as `_phrase_searches`
    yields its searches."""
    while True:
        yield _reference_phrase_search(snap, ct, model, paths)


@pytest.mark.parametrize("side", ["right", "left", "prefix"])
def test_phrase_search_matches_the_closure_reference(side):
    # up to three searches in a row over one (often stale) snapshot, as the
    # LZ loop makes them: resumes of one generator, against one reference
    # call each, through the native cursors of a plain Oracle and
    # through the full queries of a logging subclass: the same phrases, the
    # same cursor calls and queries, the same charges and placed centroids.
    # 250 short random cases, then 60 longer low-entropy ones, whose deep
    # centroid trees and long edges the short ones seldom reach
    rng = random.Random(28)
    paths: Counter = Counter()
    cases = []  # (sigma, hidden, known, how much of known the tree holds)
    for case in range(250):
        sigma = rng.choice((2, 3, 5))
        hidden = bytes(rng.randint(1, sigma) for _ in range(rng.randint(1, 40)))
        if case % 3:  # a piece of the hidden string, as the LZ phases hold
            i = rng.randrange(len(hidden))
            j = rng.randint(i + 1, len(hidden))
            known = hidden[:j] if side == "prefix" else hidden[i:j]
        else:
            known = bytes(rng.randint(1, sigma) for _ in range(rng.randint(1, 20)))
        cases.append((sigma, hidden, known, rng.randint(1, len(known))))
    families = ("fibonacci", "thue-morse", "copy-paste(5)", "runs(3)", "periodic")
    for case in range(60):
        family = families[case % len(families)]
        sigma = 2 if family in ("fibonacci", "thue-morse") else rng.choice((2, 3, 5))
        hidden = generate(family, rng.randint(60, 300), sigma, seed=case).symbols
        i = rng.randrange(len(hidden) // 2)  # a piece of at least a quarter
        j = rng.randint(i + len(hidden) // 4, len(hidden))
        known = hidden[:j] if side == "prefix" else hidden[i:j]
        cases.append((sigma, hidden, known, rng.randint(1, len(known))))
    for sigma, hidden, known, held in cases:
        tree = SuffixTree(sigma)
        tree.extend((known[::-1] if side == "left" else known)[:held])
        runs = []
        built = []
        for searches in (_phrase_searches, partial(_reference_searches, paths=paths)):
            for o in (Oracle(Text(hidden, sigma)), _LoggingOracle(Text(hidden, sigma))):
                snap = tree.snapshot()
                ct = decompose_snapshot(snap)
                built.append((snap, ct))
                model = _CallLog(cursor(o, side, known))
                search = searches(snap, ct, model)
                phrases = []
                while len(phrases) < 3 and (not phrases or phrases[-1]):
                    phrases.append(next(search))
                    model.inner.advance(phrases[-1])
                runs.append((phrases, model.calls, o.stats(), getattr(o, "log", None),
                             ct.placed, ct.parent))
        assert runs[0] == runs[2] and runs[1] == runs[3], (side, hidden, known)
        # the components the searches placed inline are the ones the full
        # decomposition has
        for snap, ct in built:
            assert ct.complete() == decompose(snap.children), (side, hidden, known)
    # the fallback is never reached: a walk that fails at every node climbs
    # to node 0, whose locus b"" is verified without a query
    assert paths["filter"] and not paths["unverified"]


@pytest.mark.parametrize("algo", [reconstruct_lz_prefix, reconstruct_lz_substring],
                         ids=["lz-prefix", "lz-substring"])
def test_phrase_searches_never_call_the_checked_component_step(algo, monkeypatch):
    # the search steps between centroids inline; with component_of raising,
    # runs still recover the string and ask what an unpatched run asks
    cases = [("random", 600, 2), ("random", 400, 16), ("fibonacci", 377, 2),
             ("copy-paste(8)", 500, 4)]
    hiddens = [generate(family, n, sigma, seed=5) for family, n, sigma in cases]
    expected = [algo(Oracle(h), h.sigma) for h in hiddens]

    def refuse(self, u, v):
        raise AssertionError(f"component_of({u}, {v}) called")

    monkeypatch.setattr(CentroidTree, "component_of", refuse)
    for hidden, want in zip(hiddens, expected):
        rep = algo(Oracle(hidden), hidden.sigma)
        assert rep.recovered == hidden
        assert rep.stats == want.stats
        assert rep.extras["decompositions"] == want.extras["decompositions"]


class _Counted:
    """A cursor that logs (its class name, method, answer) for each call and
    passes it on to `inner`."""

    def __init__(self, inner, log: list):
        self._inner, self._log = inner, log

    def __getattr__(self, name):
        method = getattr(self._inner, name)

        def call(*args):
            answer = method(*args)
            self._log.append((type(self._inner).__name__, name, answer))
            return answer

        return call


@pytest.fixture
def cursor_calls(monkeypatch) -> list[tuple]:
    """Every call the reconstructors make on their cursors from now on, as
    `_Counted` logs it; the cursors themselves are the ones `cursor` makes."""
    calls: list[tuple] = []
    make = reconstruct.cursor
    monkeypatch.setattr(reconstruct, "cursor", lambda *args: _Counted(make(*args), calls))
    return calls


def test_rle_run_length_search_asks_at_most_2_bit_length_plus_2_probes(cursor_calls):
    # in a^k b, the right phase's first step takes a; the probes before its
    # next step count the rest of a's run, and only a longer run is advanced
    for k in range(1, 70):
        hidden = Text(b"\x01" * k + b"\x02", 2)
        cursor_calls.clear()
        assert reconstruct_rle(Oracle(hidden), 2).recovered == hidden
        names = [name for _, name, _ in cursor_calls]
        assert cursor_calls[0] == ("_Right", "step", 0)
        search = names[1 : names.index("step", 1)]
        assert search.count("probe") <= 2 * k.bit_length() + 2, k
        assert search.count("advance") == (k > 1), k


def test_naive_and_rle_grow_by_step_calls_on_native_cursors(cursor_calls):
    # deterministic call counts, which a timing cannot give: naive takes each
    # recovered symbol by one step and ends each phase with one failing step;
    # rle on periodic text (every run of length one) makes no advance
    for family, n, sigma in [("random", 400, 4), ("fibonacci", 300, 2), ("periodic", 500, 26)]:
        hidden = generate(family, n, sigma, seed=3)
        hidden = Text(hidden.symbols[7:], sigma)  # so the left phase has symbols to take
        cursor_calls.clear()
        assert reconstruct_naive(Oracle(hidden), sigma).recovered == hidden
        assert {kind for kind, _, _ in cursor_calls} == {"_Right", "_Prefix"}
        counts = Counter((name, answer >= 0) for _, name, answer in cursor_calls if name != "result")
        assert counts == {("step", True): len(hidden), ("step", False): 2}, family
    hidden = Text(generate("periodic", 500, 26).symbols[7:], 26)
    cursor_calls.clear()
    assert reconstruct_rle(Oracle(hidden), 26).recovered == hidden
    counts = Counter(name for _, name, _ in cursor_calls)
    assert counts == {"step": len(hidden) + 2, "probe": len(hidden), "result": 2}


def _watch_searches(monkeypatch, before_resume) -> list:
    """Wrap `_phrase_searches` from now on so that before_resume(snap) runs
    before each search a generator resumes; returns the list it fills with
    a weak reference to each generator made."""
    searches, made = reconstruct._phrase_searches, []

    def watched(snap, ct, model):
        inner = searches(snap, ct, model)
        made.append(weakref.ref(inner))

        def resume():
            while True:
                before_resume(snap)
                yield next(inner)

        return resume()

    monkeypatch.setattr(reconstruct, "_phrase_searches", watched)
    return made


# Phrase searches per LZ run on the strings below, as counted for the one
# call per search that the loop made before it resumed one generator per
# snapshot: (algorithm, family) -> searches.
PINNED_SEARCHES = {
    ("lz-prefix", "random"): 111, ("lz-prefix", "fibonacci"): 12,
    ("lz-prefix", "copy-paste(6)"): 43, ("lz-substring", "random"): 112,
    ("lz-substring", "fibonacci"): 14, ("lz-substring", "copy-paste(6)"): 57,
}


@pytest.mark.parametrize("algo", [reconstruct_lz_prefix, reconstruct_lz_substring],
                         ids=["lz-prefix", "lz-substring"])
def test_lz_runs_make_one_search_generator_per_decomposition(algo, monkeypatch):
    # deterministic call counts: each snapshot's searches are resumes of one
    # generator, so the generators made are the decompositions recorded, and
    # the resumes are the searches the loop has always made
    resumed: list = []
    made = _watch_searches(monkeypatch, resumed.append)
    for family, n, sigma in [("random", 300, 4), ("fibonacci", 233, 2), ("copy-paste(6)", 300, 3)]:
        hidden = generate(family, n, sigma, seed=1)
        made.clear()
        resumed.clear()
        rep = algo(Oracle(hidden), sigma)
        assert rep.recovered == hidden
        assert len(made) == len(rep.extras["decompositions"]) > 0, family
        assert len(resumed) == PINNED_SEARCHES[rep.algorithm, family], family


# Bytes per symbol a naive or rle run may hold at its peak besides the hidden
# string's suffix automaton: its byte strings. Fewer than ten of at most 2n
# bytes are alive at once: the cursor's known string and the result copies
# `_drive` and `result()` make, the reversed hidden and known strings of the
# left cursor, and one probe or advance argument (an rle probe may reach
# twice a run's length).
_RUN_BYTES_PER_SYMBOL = 10 * 2
# The automaton's own bound, from tests/test_automaton.py (random text is its
# worst case).
_AUTOMATON_BYTES_PER_SYMBOL = 700


@pytest.mark.parametrize("algo", [reconstruct_naive, reconstruct_rle], ids=["naive", "rle"])
def test_naive_and_rle_run_in_linear_space(algo, monkeypatch):
    # one constant bounds the traced peak per symbol at two sizes. Started
    # from an empty build slot, the peak is the automaton build's temporary
    # lists, so that check catches only super-linear growth, such as a run
    # that kept a copy of the known string per step. A second run over the
    # same string reuses the build, so its peak is the run's own buffers.
    for n in (10**4, 4 * 10**4):
        hidden = generate("random", n, 2, seed=n)
        monkeypatch.setattr(SuffixAutomaton, "_last", None)
        for bound in (_AUTOMATON_BYTES_PER_SYMBOL + _RUN_BYTES_PER_SYMBOL, _RUN_BYTES_PER_SYMBOL):
            gc.collect()
            tracemalloc.start()
            try:
                rep = algo(Oracle(hidden), 2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rep.recovered == hidden
            assert peak <= bound * n, (n, bound, f"{peak / n:.0f} bytes per symbol")


# Bytes per node an LZ run may hold for one node of its suffix tree, of the
# live snapshot and of that snapshot's decomposition, on sigma 2 text under
# 64-bit CPython. A list slot takes 8 B, or 9 in a list grown by appends,
# which over-allocates by at most an eighth. An implicit suffix tree has at
# least as many leaves as internal nodes (Ukkonen), so a leaf-only cost is
# counted once per node and an internal-only cost once per two:
# - the tree: four slots, the node's id and first occurrence as ints, and an
#   internal node's string depth as an int and its child map of at most
#   sigma = 2 entries (leaves share one depth and one child map);
# - the snapshot: one depth slot and a leaf's depth as an int;
# - the decomposition: four exact-size slots (parent, depth, tree parent,
#   size), one slot of the breadth-first order `CentroidTree.of` builds, and
#   an internal node's in-component size as an int.
# Left out are the maps that the searches fill only where they walk: the
# snapshot's `by_symbol` pairs and the decomposition's pending and entered
# components (6-8 % and 16-19 % of the last snapshot's nodes in these runs).
_INT, _CHILD_MAP = sys.getsizeof(2**20), sys.getsizeof({1: 1, 2: 2})
_LZ_BYTES_PER_NODE = (4 * 9 + 2 * _INT + (_INT + _CHILD_MAP) / 2   # tree
                      + 9 + _INT                                  # snapshot
                      + 4 * 8 + 9 + _INT / 2)                     # decomposition
# Byte strings of at most 2n bytes an LZ run holds besides a naive or rle
# run's: the known string it grows, the tree's text and the snapshot's.
_LZ_BYTES_PER_SYMBOL = _RUN_BYTES_PER_SYMBOL + 3 * 2


@pytest.mark.parametrize("algo", [reconstruct_lz_prefix, reconstruct_lz_substring],
                         ids=["lz-prefix", "lz-substring"])
def test_lz_runs_hold_one_tree_snapshot_and_decomposition(algo, monkeypatch):
    # the tree is extended only when a snapshot is due, so it never has more
    # nodes than its phase's largest snapshot, at most 2n (Ukkonen); a run
    # holds one tree, one live snapshot and its decomposition, and its byte
    # strings, plus the hidden string's automaton if its right cursor builds
    # one (lz-substring; tests/test_automaton.py bounds it). So the traced
    # peak is at most _LZ_BYTES_PER_NODE per node of the largest snapshot
    # plus a constant per symbol: at most (2 * 310 + 26 + 700) B per symbol
    # at both sizes under CPython 3.11. As in the naive and rle check, a second run reuses the
    # automaton build, so its peak is the run's own.
    builds = (True, False) if algo is reconstruct_lz_substring else (False,)
    for n in (10**4, 4 * 10**4):
        hidden = generate("random", n, 2, seed=n)
        monkeypatch.setattr(SuffixAutomaton, "_last", None)
        for builds_automaton in builds:
            gc.collect()
            tracemalloc.start()
            try:
                rep = algo(Oracle(hidden), 2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rep.recovered == hidden
            nodes = max(size for size, _ in rep.extras["decompositions"])
            assert nodes <= 2 * n
            per_symbol = _LZ_BYTES_PER_SYMBOL + builds_automaton * _AUTOMATON_BYTES_PER_SYMBOL
            bound = _LZ_BYTES_PER_NODE * nodes + per_symbol * n
            assert peak <= bound, (n, builds_automaton,
                                   f"{peak / n:.0f} > {bound / n:.0f} bytes per symbol")


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


@pytest.mark.parametrize("algo", [reconstruct_lz_substring, reconstruct_lz_prefix],
                         ids=["lz-substring", "lz-prefix"])
def test_phrase_search_reads_only_a_current_snapshot(algo, monkeypatch):
    # a snapshot is a view of the live tree, valid until its next extend, so
    # every resumed phrase search must read one whose text and node count are
    # still its tree's, and no snapshot's search generator may outlive it
    snapshot, extend = SuffixTree.snapshot, SuffixTree.extend
    taken: list = []  # (snapshot, its tree), kept alive so ids stay unique
    resumed = 0

    def recording_snapshot(self):
        snap = snapshot(self)
        taken.append((snap, self))
        return snap

    def checked_extend(self, chunk):
        alive = sum(ref() is not None for ref in made)
        assert not alive, f"{alive} search generators are alive as the tree extends"
        extend(self, chunk)

    def check_current(snap):
        nonlocal resumed
        (tree,) = [t for s, t in taken if s is snap]
        assert snap.text == tree.text and snap.size == tree.node_count
        resumed += 1

    monkeypatch.setattr(SuffixTree, "snapshot", recording_snapshot)
    monkeypatch.setattr(SuffixTree, "extend", checked_extend)
    made = _watch_searches(monkeypatch, check_current)
    for family, n, sigma in [("random", 300, 4), ("fibonacci", 233, 2), ("copy-paste(6)", 300, 3)]:
        hidden = generate(family, n, sigma, seed=1)
        rep = algo(Oracle(hidden), sigma)
        assert rep.recovered.symbols == hidden.symbols
    assert len(made) == len(taken)  # one generator per snapshot
    assert resumed > len(taken)  # most searches read a snapshot taken before


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


@pytest.mark.parametrize("algo", [reconstruct_lz_prefix, reconstruct_lz_substring],
                         ids=["lz-prefix", "lz-substring"])
def test_native_lz_runs_match_full_queries_at_large_alphabets(algo):
    # the pinned digests stop at sigma 5; here the native cursors' first()
    # calls over up to 26 children must ask and charge what the full-query
    # path asks one query at a time
    for family, n, sigma in [("random", 1000, 16), ("random", 1000, 26), ("fibonacci", 987, 2),
                             ("copy-paste(8)", 1000, 26)]:
        hidden = generate(family, n, sigma, seed=3)
        native, full = algo(Oracle(hidden), sigma), algo(_LoggingOracle(hidden), sigma)
        assert native.recovered == full.recovered == hidden
        assert native.stats == full.stats
        assert native.extras["decompositions"] == full.extras["decompositions"]


PINNED_TRANSCRIPTS = {
    "naive": "e7ed59377e515d86a9826387e1cb8116a625d173286e9a71fa14f160ed7907a0",
    "rle": "4396209bf1e8428d54e82f0bf6942f4bbae3c81739f4398216d5c04a30fe8668",
    "lz-prefix": "cdc6ae285f1a800705d6ba38bffff107feb989b339e32c07d34e3e3cc318fc8d",
    "lz-substring": "878731b0fc376b366d25fc42a57de99d8fe9671918d17751fce87e7a6386bb77",
}


# (size, placed) per snapshot decomposition of the LZ runs below, one list
# per string: the centroids the searches place, read off the depths
PINNED_DECOMPOSITIONS = {
    "lz-prefix": [
        [(2, 2), (3, 3), (6, 6), (11, 11), (22, 14), (46, 23), (101, 46), (207, 98), (416, 49)],
        [(2, 2), (2, 2), (2, 2), (11, 7), (28, 5), (28, 5), (28, 5)],
        [(2, 2), (3, 3), (5, 5), (6, 6), (6, 6), (6, 6), (6, 6)],
        [(2, 2), (3, 3), (5, 3), (9, 5), (25, 7), (67, 7), (177, 14)]],
    "lz-substring": [
        [(2, 2), (2, 2), (7, 4), (12, 9), (22, 16), (49, 31), (101, 64), (211, 93), (425, 5), (440, 43)],
        [(2, 2), (2, 2), (2, 2), (11, 7), (28, 5), (28, 5), (28, 5), (28, 1)],
        [(2, 2), (3, 3), (5, 5), (6, 6), (6, 6), (6, 6), (6, 6), (6, 6)],
        [(2, 2), (2, 2), (5, 5), (11, 5), (27, 6), (69, 10), (109, 11), (181, 7)]],
}


@pytest.mark.parametrize("algo", ALGOS, ids=ALGO_NAMES)
def test_transcripts_match_pinned_digests(algo):
    # a refactor that still reconstructs exactly but asks other queries, or
    # the same ones in another order, changes these digests; one that places
    # other centroids changes the LZ runs' decomposition records
    h = hashlib.sha256()
    records = []
    for family, n, sigma in [("random", 300, 4), ("runs(5)", 200, 3),
                             ("periodic", 120, 5), ("fibonacci", 233, 2)]:
        hidden = generate(family, n, sigma, seed=1)
        rep = algo(_HashingOracle(hidden, h), sigma)
        assert rep.recovered.symbols == hidden.symbols
        records.append(rep.extras.get("decompositions"))
    assert h.hexdigest() == PINNED_TRANSCRIPTS[rep.algorithm]
    assert records == PINNED_DECOMPOSITIONS.get(rep.algorithm, [None] * 4)
