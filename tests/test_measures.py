"""Compressibility measures against brute-force parses."""
from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from strrecon import Text, from_letters, lz77, measure, rle_runs
from strrecon.measures import grammar_size_bound


def brute_lz_count(s: bytes, overlap: bool) -> int:
    """Quadratic greedy parse used as an independent reference."""
    i, count, n = 0, 0, len(s)
    while i < n:
        best = 0
        for length in range(1, n - i + 1):
            piece = s[i : i + length]
            found = False
            for k in range(i):
                if (overlap or k + length <= i) and s[k : k + length] == piece:
                    found = True
                    break
            if found:
                best = length
            else:
                break
        i += max(1, best)
        count += 1
    return count


small = st.binary(min_size=1, max_size=28).map(lambda b: bytes((x % 3) + 1 for x in b))


def test_known_phrase_counts():
    s = from_letters("abbabba").symbols
    assert len(lz77(s, allow_overlap=True)) == 4
    assert len(lz77(s, allow_overlap=False)) == 5
    rep = measure(from_letters("abbabba"))
    assert (rep.n, rep.rle, rep.z, rep.z_no) == (7, 5, 4, 5)


def test_single_run_string():
    rep = measure(Text(b"\x01" * 4, 1))
    assert (rep.rle, rep.z, rep.z_no) == (1, 2, 3)


def test_two_fresh_symbols():
    rep = measure(from_letters("ab"))
    assert (rep.n, rep.rle, rep.z, rep.z_no) == (2, 2, 2, 2)


def test_rle_runs_counts_maximal_runs():
    assert rle_runs(from_letters("AAABCABCABCAAA")) == 10
    assert rle_runs(b"\x01") == 1
    assert rle_runs(b"\x01\x01\x02") == 2
    with pytest.raises(ValueError):
        rle_runs(b"")


@pytest.mark.parametrize("fn", [measure, lz77, rle_runs])
def test_raw_bytes_with_the_reserved_symbol_are_rejected(fn):
    # without the check, measure(b"\x00\x01\x00") read sigma 1 for a string
    # of two distinct symbols
    for data in (b"\x00\x01\x00", b"\x00", bytearray(b"\x02\x00")):
        with pytest.raises(ValueError, match="reserved"):
            fn(data)


@given(small, st.booleans())
@settings(max_examples=300)
def test_phrase_count_matches_brute_force(s, overlap):
    assert len(lz77(s, allow_overlap=overlap)) == brute_lz_count(s, overlap)


@given(small, st.booleans())
@settings(max_examples=300)
def test_factorization_decodes_to_input(s, overlap):
    fact = lz77(s, allow_overlap=overlap)
    assert fact.decode() == s
    for phrase in fact.phrases:
        if phrase.source is None:
            assert phrase.length == 1 and phrase.symbol is not None
        else:
            assert phrase.source >= 0


@given(small)
@settings(max_examples=300)
def test_sources_occur_earlier(s):
    for overlap in (True, False):
        pos = 0
        for phrase in lz77(s, allow_overlap=overlap).phrases:
            if phrase.source is not None:
                assert phrase.source < pos
                if not overlap:
                    assert phrase.source + phrase.length <= pos
                assert s[phrase.source : phrase.source + phrase.length] == \
                    s[pos : pos + phrase.length]
            pos += phrase.length


@given(small)
@settings(max_examples=300)
def test_measure_relations(s):
    rep = measure(s)
    # z <= z_no always; z_no <= rle does NOT hold in general ("aa" already
    # violates it), so only the provable relations are checked, among them
    # the per-run bound: at most 2 + floor(log2 k) no-overlap phrases start
    # inside a run of length k
    assert rep.z <= rep.z_no <= rep.n
    assert rep.rle <= rep.n
    assert rep.z <= 2 * rep.rle
    assert rep.z_no <= sum(
        1 + len(list(run)).bit_length() for _, run in itertools.groupby(s)
    )


def test_grammar_bound_shape():
    import math

    for rep in (measure(from_letters("abbabba")), measure(Text(b"\x01" * 64, 1))):
        expect = rep.z_no * max(1.0, math.log2(rep.n / rep.z_no))
        assert grammar_size_bound(rep) == expect > 0
