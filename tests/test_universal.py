"""Candidate sets, splitters, compressor-driven reconstruction, and the
reconstruction-algorithm-as-compressor adapter."""
from __future__ import annotations

import gc
import hashlib
import itertools
import os
import random
import subprocess
import sys
import textwrap
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from strrecon import (
    IdentityBits,
    Oracle,
    RunLengthBits,
    Text,
    compressor_from_reconstructor,
    from_bits,
    from_letters,
    reconstruct_lz_prefix,
    reconstruct_lz_substring,
    reconstruct_naive,
    reconstruct_rle,
    reconstruct_universal,
)
import strrecon
from strrecon import universal
from strrecon.bench import COMPRESSORS
from strrecon.universal import (
    DEFAULT_CAP,
    _code_table,
    _Step,
    _Universe,
    elias_gamma_decode,
)


def all_binary(n: int):
    for tup in itertools.product((1, 2), repeat=n):
        yield Text(bytes(tup), 2)


def index(t: Text) -> int:
    """Bit of t in a candidate mask: the bits of the index, MSB first, are
    the symbols 1/2 as 0/1."""
    return int(t.symbols.translate(bytes.maketrans(b"\x01\x02", b"01")), 2)


def mask_of(members) -> int:
    return sum(1 << index(t) for t in members)


def members_of(n: int, mask: int) -> frozenset[Text]:
    return frozenset(t for t in all_binary(n) if mask >> index(t) & 1)


def budget_mask(comp, n: int, k: int) -> int:
    """M_k as a mask: the length-n strings whose codes under comp fit in k bits."""
    return mask_of(t for t in all_binary(n) if len(comp.compress(t)) <= k)


class ConstantCode:
    """Not injective: every string gets the code (0,)."""

    name = "constant"

    def compress(self, t: Text) -> tuple[int, ...]:
        return (0,)

    def decompress(self, bits):
        raise ValueError("not injective")


def elias_gamma(r: int) -> tuple[int, ...]:
    """Reference gamma code for r >= 1: floor(log2 r) zeros, then r in binary."""
    body = tuple(int(c) for c in bin(r)[2:])
    return (0,) * (len(body) - 1) + body


# ---------------------------------------------------------------- compressors

def test_compressors_match_a_per_symbol_reference():
    for n in range(1, 13):
        for t in all_binary(n):
            syms = t.symbols
            assert IdentityBits().compress(t) == tuple(s - 1 for s in syms)
            code = [syms[0] - 1]
            for _, run in itertools.groupby(syms):
                code += elias_gamma(len(list(run)))
            assert RunLengthBits().compress(t) == tuple(code)
    for comp in (IdentityBits(), RunLengthBits()):
        for bad in (b"\x01\x03", b"\x03" * 40, b"\x02" * 39 + b"\x03"):
            with pytest.raises(ValueError, match="binary input required"):
                comp.compress(Text(bad, 3))
    assert IdentityBits().compress(Text(b"", 2)) == ()
    with pytest.raises(ValueError, match="empty input"):
        RunLengthBits().compress(Text(b"", 2))


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
    # (0, 2) is no code: 00 is (0, 0, 1, 0), and (0, 2) used to decode to it
    for comp in (IdentityBits(), RunLengthBits()):
        for bits in ((0, 2), (1, 0, 1, -1), (2,)):
            with pytest.raises(ValueError, match="only the bits 0 and 1"):
                comp.decompress(bits)


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
        elias_gamma_decode((0, 0, 1), 0)


# ------------------------------------------------------------- candidate sets

def test_candidate_counts_for_identity():
    # with one bit per symbol, budget k admits exactly the strings of length
    # n when k >= n and none otherwise
    for n in range(1, 7):
        assert budget_mask(IdentityBits(), n, n).bit_count() == 1 << n
        assert budget_mask(IdentityBits(), n, n - 1) == 0


def test_candidate_set_size_cap():
    for n in range(1, 9):
        for k in range(1, 2 * n):
            assert budget_mask(RunLengthBits(), n, k).bit_count() <= 2 ** (k + 1) - 2


def test_candidate_set_validation():
    # all 2^n strings share one 1-bit code: more candidates than the two
    # codes of at most one bit, so the table fails, and the run before any query
    with pytest.raises(ValueError, match="cannot be injective"):
        _code_table(ConstantCode(), 3)
    o = Oracle(from_bits("0110"))
    with pytest.raises(ValueError, match="cannot be injective"):
        reconstruct_universal(o, 4, ConstantCode())
    assert o.stats().total_queries == 0


def test_rle_budget_keeps_only_compressible_strings():
    for n in range(1, 11):
        # a budget admits every string a smaller one does
        masks = [budget_mask(RunLengthBits(), n, k) for k in range(2 * n + 3)]
        assert all(a & ~b == 0 for a, b in zip(masks, masks[1:]))
    m = budget_mask(RunLengthBits(), 10, 8)
    # a single run of 10 costs 1 symbol bit + 7 gamma bits
    assert m >> index(from_bits("0" * 10)) & 1
    assert not m >> index(from_bits("01" * 5)) & 1


@pytest.mark.parametrize(
    "comp",
    [IdentityBits(), RunLengthBits(), compressor_from_reconstructor(reconstruct_rle, 2)],
    ids=["identity", "rle-bits", "replay-rle"],
)
def test_code_table_budgets_follow_the_capped_doubling(comp):
    for n in range(1, 11):
        uni, lens, budgets = _code_table(comp, n)
        assert uni.n == n
        assert lens == [len(comp.compress(t)) for t in all_binary(n)]
        top = max(lens)
        ks = [1 << j for j in range(top.bit_length()) if 1 << j < top] + [top]
        assert budgets == [(k, budget_mask(comp, n, k)) for k in ks]


class OvercrowdedCode:
    """Length-3 codes of 1 bit for 000 and 111, 3 bits for 011 and 2 bits for
    the other five: the two 1-bit strings fit the budget of 1, but the seven
    strings of at most 2 bits outnumber the six such nonempty codes."""

    name = "overcrowded"

    def compress(self, t: Text) -> tuple[int, ...]:
        length = {b"\x01" * 3: 1, b"\x02" * 3: 1, b"\x01\x02\x02": 3}.get(t.symbols, 2)
        return (0,) * length

    def decompress(self, bits):
        raise ValueError("not injective")


def test_a_code_that_fails_a_later_budget_raises_before_any_query():
    # the hidden string fits the first budget, which passes its count
    hidden = from_bits("111")
    assert len(OvercrowdedCode().compress(hidden)) == 1
    o = Oracle(hidden)
    with pytest.raises(ValueError, match="7 length-3 strings have codes of at most 2 bits"):
        reconstruct_universal(o, 3, OvercrowdedCode())
    assert o.stats().total_queries == 0


# ------------------------------------------------------------ query order

def eager_queries(n: int) -> list[tuple[bytes, int]]:
    """Every substring of every length-n binary string with its membership
    mask, shortest first, then lexicographic: the table the universe used
    to build in full before any search."""
    sub_mask: dict[bytes, int] = {}
    for t in all_binary(n):
        s = t.symbols
        for q in {s[a:b] for a in range(n) for b in range(a + 1, n + 1)}:
            sub_mask[q] = sub_mask.get(q, 0) | 1 << index(t)
    return sorted(sub_mask.items(), key=lambda kv: (len(kv[0]), kv[0]))


def test_on_demand_queries_equal_the_eager_enumeration():
    rng = random.Random(5)
    for n in range(1, 11):
        eager = eager_queries(n)
        uni = _Universe(n)
        assert uni.strings == [t.symbols for t in all_binary(n)]
        everything = (1 << (1 << n)) - 1
        assert [(q, qmask, cnt) for q, qmask, cnt in uni.walk(everything)] == [
            (q, qmask, qmask.bit_count()) for q, qmask in eager
        ]
        # a smaller set skips exactly the queries none of its members holds
        for _ in range(5):
            m = rng.getrandbits(1 << n) & rng.getrandbits(1 << n)
            assert list(_Universe(n).walk(m)) == [
                (q, qmask, (qmask & m).bit_count()) for q, qmask in eager if qmask & m
            ]


# ------------------------------------------------------------------ splitters

def split(n: int, members) -> tuple[bytes, int, bool]:
    """(splitter, members it occurs in, flagged) for a set of members."""
    m = mask_of(members)
    q, qmask, flagged = _Universe(n).splitter(m)
    return q, (qmask & m).bit_count(), flagged


def test_splitter_on_all_length_three():
    q, count, flagged = split(3, all_binary(3))
    assert not flagged
    assert 2 <= count <= 6
    # deterministic: shortest conforming query, lexicographically first
    assert q == from_bits("00").symbols
    assert count == 3


def test_splitter_two_members():
    q, count, flagged = split(2, {from_bits("00"), from_bits("11")})
    assert q == from_bits("0").symbols
    assert count == 1 and not flagged


def test_splitter_all_length_two():
    q, count, flagged = split(2, all_binary(2))
    assert q == from_bits("0").symbols
    assert count == 3 and not flagged


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
        m = mask_of(members)
        q, qmask, flagged = _Universe(n).splitter(m)
        count = (qmask & m).bit_count()
        assert (q, count, flagged) == brute_force_splitter(members)
        assert members_of(n, qmask & m) == frozenset(t for t in members if q in t.symbols)
        msize = len(members)
        # every set of two or more members has a splitter within bounds
        assert not flagged
        assert -(-msize // 5) <= count <= (4 * msize) // 5


def test_only_a_single_candidate_gets_a_flagged_splitter():
    for n in range(1, 7):
        for t in all_binary(n):
            q, qmask, flagged = _Universe(n).splitter(mask_of([t]))
            # the first of its substrings, shortest then lexicographic
            assert flagged and q == bytes([min(t.symbols)]) and qmask >> index(t) & 1


# ------------------------------------------------------------- step table

def walk_steps(uni: _Universe, node, seen: set[int]) -> None:
    """Check every step below node against the pure splitter, filling both
    links; a base case lists its members in ascending index order."""
    if type(node) is not _Step:
        assert node == sorted(set(node))
        assert all(0 <= i < 1 << uni.n for i in node)
        assert len(node) <= universal._BASE_CASE
        return
    m = node.mask
    assert uni.steps[m] is node
    q, qmask, flagged = _Universe(uni.n).splitter(m)
    assert (node.query, node.qmask) == (q, qmask)
    assert node.entry == (m.bit_count(), (m & qmask).bit_count(), flagged)
    if m in seen:
        return
    seen.add(m)
    for yes, child_mask in ((True, m & qmask), (False, m & ~qmask)):
        child = uni.follow(node, yes)
        assert child is (node.yes if yes else node.no)
        if type(child) is _Step:
            assert child.mask == child_mask and child is uni.node(child_mask)
        else:
            assert sum(1 << i for i in child) == child_mask
        walk_steps(uni, child, seen)


def test_split_steps_equal_the_pure_splitter_and_its_children():
    rng = random.Random(11)
    for n in range(3, 9):
        uni = _Universe(n)
        seen: set[int] = set()
        for _ in range(25):
            m = rng.getrandbits(1 << n) & rng.getrandbits(1 << n)
            walk_steps(uni, uni.node(m), seen)
        # only sets that get split are keys: base cases never are
        assert all(k.bit_count() > universal._BASE_CASE for k in uni.steps)
        assert set(uni.steps) == seen


def test_a_base_case_lists_its_members_in_ascending_order():
    uni = _Universe(6)
    assert uni.node(0) == []
    for members in ([5], [63, 0, 17], [1, 2, 3, 40, 60]):
        assert uni.node(sum(1 << i for i in members)) == sorted(members)
    assert uni.steps == {}


def test_a_second_pass_reads_the_step_table_without_searching(monkeypatch):
    n = 8

    def run_all():
        return [(rep.recovered, rep.stats, rep.extras)
                for comp in COMPRESSORS.values() for hidden in all_binary(n)
                for rep in [reconstruct_universal(Oracle(hidden), n, comp)]]

    first = run_all()
    uni = universal._universes[n]
    steps, masks = dict(uni.steps), dict(uni.masks)
    searches = []
    pure = _Universe.splitter
    monkeypatch.setattr(_Universe, "splitter", lambda *a: searches.append(a) or pure(*a))
    assert run_all() == first
    assert searches == []
    assert uni.steps == steps and uni.masks == masks


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


def test_universal_tables_are_per_compressor_not_per_name():
    # two different codes under one name must not share code lengths
    class RunsNamedSame(RunLengthBits):
        name = "same"

    class IdentityNamedSame(IdentityBits):
        name = "same"

    hidden = from_bits("0000011111")
    for comp in (RunsNamedSame(), IdentityNamedSame()):
        rep = reconstruct_universal(Oracle(hidden), len(hidden), comp)
        assert rep.recovered == hidden
        assert rep.extras["code_length"] == len(comp.compress(hidden))


def test_universal_tables_are_freed_with_their_compressor():
    hidden = from_bits("0010110001")

    def run(comp):
        rep = reconstruct_universal(Oracle(hidden), len(hidden), comp)
        return rep.recovered, rep.stats, rep.extras

    gc.collect()
    tables = universal._code_tables
    before = len(tables)
    codec = compressor_from_reconstructor(reconstruct_rle, 2)
    first = run(codec)
    assert codec in tables
    gone = weakref.ref(codec)
    del codec
    gc.collect()
    assert gone() is None
    assert len(tables) == before
    assert run(compressor_from_reconstructor(reconstruct_rle, 2)) == first


def test_a_universe_is_freed_with_the_compressors_that_hold_it(monkeypatch):
    # an empty registry, so no compressor made before this test shares it
    monkeypatch.setattr(universal, "_universes", weakref.WeakValueDictionary())
    hidden = from_bits("0010110001")
    n = len(hidden)
    comps = [RunLengthBits(), IdentityBits()]
    for comp in comps:
        assert reconstruct_universal(Oracle(hidden), n, comp).recovered == hidden
    uni = universal._universes[n]
    assert all(universal._code_tables[c][n][0] is uni for c in comps)
    gone = weakref.ref(uni)
    del uni, comp
    comps.pop()
    gc.collect()
    assert gone() is not None  # the other compressor's table still holds it
    comps.pop()
    gc.collect()
    assert gone() is None and n not in universal._universes


class _HashingOracle(Oracle):
    """An oracle that also feeds (answer, length, query bytes) of every
    substring query to a hash, so the hash pins the whole transcript."""

    __slots__ = ("digest",)

    def __init__(self, hidden: Text, digest):
        super().__init__(hidden)
        self.digest = digest

    def contains_substring(self, q) -> bool:
        answer = super().contains_substring(q)
        self.digest.update(b"S%d %d:" % (answer, len(q)))
        self.digest.update(q)
        return answer


PINNED_UNIVERSAL_TRANSCRIPT = "e768c399de6a2a1c1d95b5365f5306f5fc0fc2c11c4d4dc6a313a4caba92b55a"


def test_universal_transcripts_match_pinned_digest():
    # every binary string of length n <= 10 and n = 12 under each compressor:
    # a change to the splitter order, the candidate sets or the budget
    # schedule changes this digest
    h = hashlib.sha256()
    for comp in COMPRESSORS.values():
        for n in [*range(1, 11), 12]:
            for hidden in all_binary(n):
                rep = reconstruct_universal(_HashingOracle(hidden, h), n, comp)
                assert rep.recovered == hidden
    assert h.hexdigest() == PINNED_UNIVERSAL_TRANSCRIPT


def peak_rss_mb(n: int) -> float:
    """Peak RSS of a fresh interpreter that reconstructs ten random
    length-n strings under each compressor, each checked exact. The
    child reads its own high-water mark (VmHWM, Linux): its ru_maxrss would
    start at the RSS of the process that spawned it."""
    script = textwrap.dedent(f"""
        import random
        from strrecon import Oracle, Text, reconstruct_universal
        from strrecon.bench import COMPRESSORS
        rng = random.Random(0)
        for comp in COMPRESSORS.values():
            for _ in range(10):
                hidden = Text(bytes(rng.randint(1, 2) for _ in range({n})), 2)
                rep = reconstruct_universal(Oracle(hidden), {n}, comp)
                assert rep.recovered == hidden
        with open("/proc/self/status") as fh:
            print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
    """)
    src = os.path.dirname(os.path.dirname(strrecon.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=600).stdout
    return int(out) / 1024  # VmHWM is in kB


def test_universal_memory_at_the_cap():
    # building every query mask up front took 44-51 MB at n = 13 and, by
    # extrapolation, about 1 GB at the cap
    assert peak_rss_mb(DEFAULT_CAP) < 128


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


@pytest.mark.parametrize(
    "hidden, n",
    [(from_bits("0110100111"), 9),   # one short: a substring would verify
     (from_letters("abcab"), 5)],    # the right length over three symbols
    ids=["one-short", "sigma-3"],
)
def test_universal_rejects_a_mismatched_oracle_before_any_query(hidden, n):
    from strrecon import ReconstructionError

    o = Oracle(hidden)
    with pytest.raises(ReconstructionError, match=f"not binary of length {n}$"):
        reconstruct_universal(o, n, IdentityBits())
    assert o.stats().total_queries == 0


# ------------------------------------- reconstruction algorithms as codecs

def test_codec_code_length_equals_query_count():
    codec = compressor_from_reconstructor(reconstruct_naive, 2)
    for hidden in all_binary(6):
        o = Oracle(hidden)
        reconstruct_naive(o, 2)
        code = codec.compress(hidden)
        assert len(code) == o.stats().total_queries
        assert codec.decompress(code) == hidden


class _TranscriptOracle:
    """An oracle that logs every (kind, query, answer) it serves."""

    def __init__(self, hidden: Text):
        self._o = Oracle(hidden)
        self.sigma = self._o.sigma
        self.log: list[tuple[str, bytes, bool]] = []

    def contains_substring(self, q) -> bool:
        a = self._o.contains_substring(q)
        self.log.append(("substring", bytes(q), a))
        return a

    def is_prefix(self, q) -> bool:
        a = self._o.is_prefix(q)
        self.log.append(("prefix", bytes(q), a))
        return a

    def stats(self):
        return self._o.stats()


hidden_texts = st.integers(min_value=1, max_value=6).flatmap(
    lambda sigma: st.lists(st.integers(min_value=1, max_value=sigma), min_size=1, max_size=200)
    .map(lambda syms: Text(bytes(syms), sigma))
)


@pytest.mark.parametrize(
    "algo",
    [reconstruct_naive, reconstruct_rle, reconstruct_lz_prefix, reconstruct_lz_substring],
    ids=["naive", "rle", "lz-prefix", "lz-substring"],
)
@given(hidden=hidden_texts)
@settings(max_examples=100, deadline=None)
def test_transcripts_are_deterministic_and_replay_as_codes(algo, hidden):
    first, second = _TranscriptOracle(hidden), _TranscriptOracle(hidden)
    assert algo(first, hidden.sigma).recovered == hidden
    algo(second, hidden.sigma)
    assert first.log == second.log
    codec = compressor_from_reconstructor(algo, hidden.sigma)
    code = codec.compress(hidden)
    assert len(code) == len(first.log) == first.stats().total_queries
    assert code == tuple(int(a) for _, _, a in first.log)
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


def test_codec_rejects_a_code_that_is_not_bits():
    # a 2 in place of each 1 once replayed as the same "yes" answers
    codec = compressor_from_reconstructor(reconstruct_naive, 2)
    code = codec.compress(from_bits("0110"))
    for bad in (tuple(2 * b for b in code), code[:-1] + (-1,)):
        with pytest.raises(ValueError, match="only the bits 0 and 1"):
            codec.decompress(bad)


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
        rep = reconstruct_universal(o, len(bits), codec)
        assert rep.recovered == hidden
        assert o.stats().substring_queries <= 15 * len(codec.compress(hidden)) + 25
