"""Candidate sets, splitters, compressor-driven reconstruction, and the
reconstruction-algorithm-as-compressor adapter."""
from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from strrecon import (
    CandidateSet,
    IdentityBits,
    Oracle,
    RunLengthBits,
    Text,
    compressor_from_reconstructor,
    enumerate_candidates,
    find_splitter,
    from_bits,
    reconstruct_naive,
    reconstruct_rle,
    reconstruct_universal,
)
from strrecon.universal import DEFAULT_CAP, elias_gamma, elias_gamma_decode


def all_binary(n: int):
    for tup in itertools.product((1, 2), repeat=n):
        yield Text(bytes(tup), 2)


# ---------------------------------------------------------------- compressors

def test_identity_round_trip_and_length():
    for n in range(1, 9):
        for t in all_binary(n):
            code = IdentityBits().compress(t)
            assert len(code) == n
            assert IdentityBits().decompress(code) == t


def test_rle_bits_round_trip():
    comp = RunLengthBits()
    for n in range(1, 11):
        for t in all_binary(n):
            assert comp.decompress(comp.compress(t)) == t


def test_rle_bits_compresses_runs():
    comp = RunLengthBits()
    unary = Text(b"\x01" * 64, 2)
    assert len(comp.compress(unary)) < 64 // 3
    alternating = from_bits("01" * 32)
    assert len(comp.compress(alternating)) >= 64


@pytest.mark.parametrize("comp", [IdentityBits(), RunLengthBits()], ids=["identity", "rle-bits"])
def test_compressors_are_injective(comp):
    for n in range(1, 13):
        codes = {comp.compress(t) for t in all_binary(n)}
        assert len(codes) == 1 << n


def test_compressor_input_validation():
    with pytest.raises(ValueError):
        IdentityBits().compress(Text(b"\x03", 3))
    with pytest.raises(ValueError):
        IdentityBits().decompress(())
    with pytest.raises(ValueError):
        RunLengthBits().decompress(())
    with pytest.raises(ValueError):
        RunLengthBits().decompress((1,))


def test_elias_gamma_round_trip():
    stream: list[int] = []
    values = list(range(1, 200))
    for v in values:
        stream.extend(elias_gamma(v))
    pos = 0
    for v in values:
        got, pos = elias_gamma_decode(stream, pos)
        assert got == v
    assert pos == len(stream)
    assert elias_gamma(1) == (1,)
    assert elias_gamma(2) == (0, 1, 0)
    with pytest.raises(ValueError):
        elias_gamma(0)
    with pytest.raises(ValueError):
        elias_gamma_decode((0, 0, 1), 0)


# ------------------------------------------------------------- candidate sets

def test_candidate_counts_for_identity():
    # with one bit per symbol, budget k admits exactly the strings of length
    # n when k >= n and none otherwise
    for n in range(1, 7):
        assert len(enumerate_candidates(n, n, IdentityBits())) == 1 << n
        assert len(enumerate_candidates(n, n - 1, IdentityBits())) == 0


def test_candidate_set_size_cap():
    for n in range(1, 9):
        for k in range(1, 2 * n):
            m = enumerate_candidates(n, k, RunLengthBits())
            assert len(m) <= 2 ** (k + 1) - 2


def test_candidate_set_validation():
    with pytest.raises(ValueError):
        enumerate_candidates(0, 3, IdentityBits())
    with pytest.raises(ValueError):
        enumerate_candidates(40, 3, IdentityBits())
    with pytest.raises(ValueError):
        CandidateSet(3, frozenset({from_bits("01")}), 5)
    with pytest.raises(AssertionError):
        CandidateSet(2, frozenset(all_binary(2)), 1)


def test_rle_budget_keeps_only_compressible_strings():
    for comp in (IdentityBits(), RunLengthBits()):
        for n in range(1, 11):
            strings = list(all_binary(n))
            lengths = [len(comp.compress(t)) for t in strings]
            for k in range(2 * n + 3):
                m = enumerate_candidates(n, k, comp)
                assert m.members == frozenset(
                    t for t, l in zip(strings, lengths) if l <= k
                )
    m = enumerate_candidates(10, 8, RunLengthBits())
    # a single run of 10 costs 1 symbol bit + 7 gamma bits
    assert from_bits("0" * 10) in m.members
    assert from_bits("01" * 5) not in m.members


# ------------------------------------------------------------------ splitters

def test_splitter_on_all_length_three():
    m = CandidateSet(3, frozenset(all_binary(3)), 3)
    res = find_splitter(m)
    assert not res.flagged
    assert 2 <= res.count <= 6
    # deterministic: shortest conforming query, lexicographically first
    assert res.splitter.symbols == from_bits("00").symbols
    assert res.count == 3


def test_splitter_two_members():
    m = CandidateSet(2, frozenset({from_bits("00"), from_bits("11")}), 4)
    res = find_splitter(m)
    assert res.splitter.symbols == from_bits("0").symbols
    assert res.count == 1 and not res.flagged


def test_splitter_all_length_two():
    m = CandidateSet(2, frozenset(all_binary(2)), 4)
    res = find_splitter(m)
    assert res.splitter.symbols == from_bits("0").symbols
    assert res.count == 3 and not res.flagged


def test_splitter_needs_two_members():
    with pytest.raises(ValueError):
        find_splitter(CandidateSet(2, frozenset({from_bits("01")}), 4))
    # over the cap: rejected before any 2^n table is built
    n = DEFAULT_CAP + 1
    with pytest.raises(ValueError):
        find_splitter(CandidateSet(n, frozenset({from_bits("0" * n), from_bits("1" * n)}), 4))
    with pytest.raises(ValueError):
        find_splitter(CandidateSet(2, frozenset({from_bits("01"), Text(b"\x01\x01", 3)}), 4))


def brute_force_splitter(members):
    """Shortest-then-lexicographic search over the members' substrings: the
    first whose count lies in [ceil(m/5), floor(4m/5)], else the first one
    closest to an even split, flagged. Returns (query, count, flagged)."""
    syms = [t.symbols for t in members]
    subs = {s[i:j] for s in syms for i in range(len(s)) for j in range(i + 1, len(s) + 1)}
    msize = len(syms)
    best = None
    for q in sorted(subs, key=lambda s: (len(s), s)):
        cnt = sum(q in s for s in syms)
        if -(-msize // 5) <= cnt <= (4 * msize) // 5:
            return q, cnt, False
        if best is None or abs(2 * cnt - msize) < abs(2 * best[1] - msize):
            best = (q, cnt, True)
    return best


def test_splitter_contained_is_correct_and_fraction_holds():
    cases = []
    for n in range(1, 4):
        pool = list(all_binary(n))
        for size in range(2, len(pool) + 1):
            cases += [(n, frozenset(c)) for c in itertools.combinations(pool, size)]
    rng = random.Random(3)
    for n in range(4, 9):
        pool = list(all_binary(n))
        for _ in range(60):
            cases.append((n, frozenset(rng.sample(pool, rng.randint(2, min(40, len(pool)))))))
    for n, members in cases:
        res = find_splitter(CandidateSet(n, members, n + 1))
        q = res.splitter.symbols
        assert (q, res.count, res.flagged) == brute_force_splitter(members)
        assert res.contained == frozenset(t for t in members if q in t.symbols)
        msize = len(members)
        if not res.flagged:
            assert -(-msize // 5) <= res.count <= (4 * msize) // 5
        else:
            # the guarantee can only fail for tiny sets
            assert msize <= 4


# ------------------------------------------------- universal reconstruction

@pytest.mark.parametrize("comp", [IdentityBits(), RunLengthBits()], ids=["identity", "rle-bits"])
def test_universal_exhaustive_small(comp):
    for n in list(range(1, 8)) + [9]:
        for hidden in all_binary(n):
            o = Oracle(hidden)
            rep = reconstruct_universal(o, n, comp)
            assert rep.recovered == hidden
            k = len(comp.compress(hidden))
            assert o.stats().substring_queries <= 15 * k + 25
            assert rep.extras["code_length"] == k
            assert rep.stats.prefix_queries == 0


def test_universal_profits_from_compressible_strings():
    n = 14
    unary = Text(b"\x01" * n, 2)
    comp = RunLengthBits()
    o = Oracle(unary)
    rep = reconstruct_universal(o, n, comp)
    assert rep.recovered == unary
    # far fewer queries than the incompressible budget 15n + 25
    assert o.stats().substring_queries <= 15 * len(comp.compress(unary)) + 25 < 15 * n


def test_universal_validates_input():
    o = Oracle(from_bits("0101"))
    with pytest.raises(ValueError):
        reconstruct_universal(o, 0, IdentityBits())
    with pytest.raises(ValueError):
        reconstruct_universal(o, 40, IdentityBits())


def test_universal_detects_too_short_hidden_string():
    from strrecon import ReconstructionError

    # no length-4 query can succeed against a 2-symbol hidden string, so no
    # candidate ever verifies
    o = Oracle(from_bits("01"))
    with pytest.raises(ReconstructionError):
        reconstruct_universal(o, 4, IdentityBits())


# ------------------------------------- reconstruction algorithms as codecs

def test_codec_code_length_equals_query_count():
    codec = compressor_from_reconstructor(reconstruct_naive, 2)
    for hidden in all_binary(6):
        o = Oracle(hidden)
        reconstruct_naive(o, 2)
        code = codec.compress(hidden)
        assert len(code) == o.stats().total_queries
        assert codec.decompress(code) == hidden


def test_codec_round_trip_larger_alphabet():
    rng = random.Random(8)
    codec = compressor_from_reconstructor(reconstruct_rle, 4)
    for n in (1, 5, 50, 200, 500):
        hidden = Text(bytes(rng.randint(1, 4) for _ in range(n)), 4)
        assert codec.decompress(codec.compress(hidden)) == hidden


def test_codec_rejects_trailing_bits():
    codec = compressor_from_reconstructor(reconstruct_naive, 2)
    code = codec.compress(from_bits("0110"))
    with pytest.raises(ValueError):
        codec.decompress(code + (0,))
    with pytest.raises(ValueError):
        codec.decompress(code[:-1])


def test_codec_is_injective_on_binary_strings():
    codec = compressor_from_reconstructor(reconstruct_rle, 2)
    for n in range(1, 10):
        codes = {codec.compress(t) for t in all_binary(n)}
        assert len(codes) == 1 << n


def test_codec_drives_universal_reconstruction():
    # a reconstruction algorithm used as the compressor of the candidate-set
    # strategy: short on compressible strings, still exact
    codec = compressor_from_reconstructor(reconstruct_rle, 2)
    for bits in ("0000000000", "0101010101", "0010110001"):
        hidden = from_bits(bits)
        o = Oracle(hidden)
        rep = reconstruct_universal(o, len(bits), codec, cap=10)
        assert rep.recovered == hidden
        assert o.stats().substring_queries <= 15 * len(codec.compress(hidden)) + 25
