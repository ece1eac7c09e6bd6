"""Exactness and query bounds of the four reconstruction algorithms."""
from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from strrecon import (
    Oracle,
    SuffixTree,
    Text,
    centroid_decompose,
    from_letters,
    generate,
    lz_phrase_search,
    measure,
    reconstruct_lz_prefix,
    reconstruct_lz_substring,
    reconstruct_naive,
    reconstruct_rle,
)
from strrecon.bench import bound_holds, run_one
from strrecon.reconstruct import _max_true

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
    assert rep.extras["run_steps"] == 1
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


def test_decomposition_records_are_emitted():
    hidden = generate("random", 400, 2, seed=4)
    rep = reconstruct_lz_substring(Oracle(hidden), 2)
    records = rep.extras["decompositions"]
    assert records and all(size >= 1 and height >= 1 for size, height, _ in records)
    assert all(balanced for _, _, balanced in records)


def test_phrase_search_finds_longest_extending_substring():
    # known text contains ABCABCA...; the next phrase toward the hidden
    # string AAABCABCABCAAAABCAB must be ABCAB
    known = from_letters("AAABCABCABCAAA")
    hidden = from_letters("AAABCABCABCAAAABCAB", sigma=5)
    o = Oracle(hidden)
    st_ = SuffixTree(5)
    st_.extend(known.symbols)
    ct = centroid_decompose(st_)

    def extend(t: bytes) -> bool:
        return o.is_prefix(known.symbols + t)

    phrase = lz_phrase_search(known, st_, ct, extend)
    assert phrase.symbols == from_letters("ABCAB").symbols


def test_phrase_search_empty_when_nothing_extends():
    known = from_letters("ab")
    hidden = from_letters("ab")
    o = Oracle(hidden)
    st_ = SuffixTree(2)
    st_.extend(known.symbols)
    ct = centroid_decompose(st_)
    phrase = lz_phrase_search(known, st_, ct, lambda t: o.is_prefix(known.symbols + t))
    assert phrase.symbols == b""


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
