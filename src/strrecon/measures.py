"""Compressibility measures: run count, LZ77 phrase counts with and without
phrase/source overlap.

The greedy LZ77 parse takes, at each position, either a fresh symbol or the
longest string that also occurs starting strictly earlier; the no-overlap
variant further requires the source occurrence to end before the phrase
starts. Sources are the leftmost possible occurrence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .automaton import SuffixAutomaton
from .text import Text


@dataclass(frozen=True)
class LZPhrase:
    """One phrase: a fresh symbol (source is None) or a copy of length
    ``length`` from ``source`` (start position, 0-based)."""

    length: int
    source: int | None = None
    symbol: int | None = None


@dataclass(frozen=True)
class LZFactorization:
    phrases: tuple[LZPhrase, ...]
    overlap_allowed: bool

    def __len__(self) -> int:
        return len(self.phrases)

    def decode(self) -> bytes:
        out = bytearray()
        for ph in self.phrases:
            if ph.source is None:
                out.append(ph.symbol)
            else:
                src = ph.source
                for k in range(ph.length):  # symbol-wise: sources may overlap
                    out.append(out[src + k])
        return bytes(out)


@dataclass(frozen=True)
class MeasureReport:
    n: int
    sigma: int
    rle: int
    z: int
    z_no: int


def _symbols(s: Text | bytes) -> bytes:
    """The symbols of s; raises ValueError if s is empty or, given as raw
    bytes, holds the reserved symbol 0 (a Text already excludes it)."""
    syms = s.symbols if isinstance(s, Text) else bytes(s)
    if not syms:
        raise ValueError("empty input")
    if 0 in syms:
        raise ValueError("symbol 0 is reserved; symbols must lie in [1..255]")
    return syms


def rle_runs(s: Text | bytes) -> int:
    """Number of maximal equal-symbol runs."""
    syms = _symbols(s)
    runs = 1
    prev = syms[0]
    for c in syms:
        if c != prev:
            runs += 1
            prev = c
    return runs


def lz77(s: Text | bytes, allow_overlap: bool = True) -> LZFactorization:
    """Greedy left-to-right LZ77 parse."""
    syms = _symbols(s)
    phrases = _parse(syms, SuffixAutomaton(syms), allow_overlap)
    return LZFactorization(tuple(LZPhrase(*ph) for ph in phrases), allow_overlap)


def _parse(syms: bytes, sam: SuffixAutomaton, allow_overlap: bool) -> list[tuple]:
    """Greedy parse of syms with the suffix automaton of syms itself, as
    (length, source, symbol) tuples in the field order of LZPhrase."""
    min_end = sam.finalize_min_end()
    nxt = sam.next
    phrases = []
    n = len(syms)
    i = 0
    while i < n:
        state = 0
        l = 0
        j = i
        while j < n:
            cand = nxt[state][syms[j]]
            if not cand:
                break
            if allow_overlap:
                # some occurrence of syms[i:j+1] must start before i
                if min_end[cand] > i + l - 1:
                    break
            else:
                # some occurrence must end before i
                if min_end[cand] > i - 1:
                    break
            state = cand
            l += 1
            j += 1
        if l == 0:
            phrases.append((1, None, syms[i]))
            i += 1
        else:
            phrases.append((l, min_end[state] - l + 1, None))
            i += l
    return phrases


def measure(s: Text | bytes) -> MeasureReport:
    """All measures at once, with provable relations asserted.

    Always true: z <= z_no <= n, rle <= n, and z <= 2*rle (at most two
    phrases can start inside any single run). Note z_no <= rle does NOT
    hold in general; a long run costs one rle unit but ~log2(run) phrases
    ("aa" is the shortest counterexample: z = 2, rle = 1). What does hold
    is a per-run bound: z_no <= sum over the maximal runs, of lengths k, of
    2 + floor(log2 k) (a no-overlap phrase at offset t >= 1 of a run copies
    a^min(t, k-t) from the run itself, so it reaches the run's end or the
    next phrase starts at offset >= 2t). By Jensen's inequality this gives
    z_no <= rle*(2 + log2(n/rle)).
    """
    syms = _symbols(s)
    sigma = s.sigma if isinstance(s, Text) else max(syms)
    rle = rle_runs(syms)
    sam = SuffixAutomaton(syms)
    z = len(_parse(syms, sam, allow_overlap=True))
    z_no = len(_parse(syms, sam, allow_overlap=False))
    n = len(syms)
    if not (z <= z_no <= n and rle <= n and z <= 2 * rle):
        raise AssertionError(
            f"measure relations violated: z={z} z_no={z_no} rle={rle} n={n}"
        )
    return MeasureReport(n=n, sigma=sigma, rle=rle, z=z, z_no=z_no)


def grammar_size_bound(rep: MeasureReport) -> float:
    """Reference value z_no * log2(n / z_no): the shape of the smallest-SLP
    upper bound. Reported for context only; the smallest grammar itself is
    not computed."""
    if rep.z_no == 0:
        return 0.0
    return rep.z_no * max(1.0, math.log2(rep.n / rep.z_no))
