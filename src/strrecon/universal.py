"""Compressor-driven universal reconstruction over binary alphabets.

Any injective compressor C induces, for each bit budget k, a candidate set
M_k of length-n strings whose codes fit in k bits (at most 2^(k+1) - 2 of
them). A single well-chosen substring query splits a candidate set into
fractions between 1/5 and 4/5, so the hidden string is found with O(|C(S)|)
queries by running the halving strategy under an exponentially growing
budget. The machinery is exponential in n and capped accordingly.

The reverse direction also holds: any deterministic reconstruction
algorithm is a compressor, its code being the sequence of oracle answers it
observes; replaying those answers reproduces the string.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Protocol, Sequence

from .oracle import Oracle, QueryStats
from .reconstruct import Phase, ReconstructionError, ReconstructionReport
from .text import Text

DEFAULT_CAP = 16
_BASE_CASE = 5  # below this, candidates are cheaper to query in full
_TO_BITS = bytes.maketrans(b"\x01\x02", b"01")  # symbols 1/2 as bits 0/1


class Compressor(Protocol):
    name: str

    def compress(self, t: Text) -> tuple[int, ...]: ...

    def decompress(self, bits: Sequence[int]) -> Text: ...


class IdentityBits:
    """One bit per symbol; the incompressible baseline (binary only)."""

    name = "identity"

    def compress(self, t: Text) -> tuple[int, ...]:
        if any(s > 2 for s in t.symbols):
            raise ValueError("binary input required")
        return tuple(s - 1 for s in t.symbols)

    def decompress(self, bits: Sequence[int]) -> Text:
        if not bits:
            raise ValueError("empty code")
        return Text(bytes(b + 1 for b in bits), 2)


def elias_gamma(r: int) -> tuple[int, ...]:
    """Prefix-free code for r >= 1: floor(log2 r) zeros, then r in binary."""
    if r < 1:
        raise ValueError("gamma codes start at 1")
    body = tuple(int(c) for c in bin(r)[2:])
    return (0,) * (len(body) - 1) + body


def elias_gamma_decode(bits: Sequence[int], pos: int) -> tuple[int, int]:
    """(value, next position) for the gamma code starting at pos."""
    z = 0
    while pos + z < len(bits) and bits[pos + z] == 0:
        z += 1
    end = pos + 2 * z + 1
    if end > len(bits):
        raise ValueError("truncated gamma code")
    r = 0
    for b in bits[pos + z : end]:
        r = (r << 1) | b
    return r, end


class RunLengthBits:
    """Leading symbol bit plus gamma-coded lengths of the maximal runs
    (binary only). Highly repetitive strings get very short codes."""

    name = "rle-bits"

    def compress(self, t: Text) -> tuple[int, ...]:
        syms = t.symbols
        if not syms:
            raise ValueError("empty input")
        if any(s > 2 for s in syms):
            raise ValueError("binary input required")
        bits = [syms[0] - 1]
        run = 1
        for prev, cur in itertools.pairwise(syms):
            if cur == prev:
                run += 1
            else:
                bits.extend(elias_gamma(run))
                run = 1
        bits.extend(elias_gamma(run))
        return tuple(bits)

    def decompress(self, bits: Sequence[int]) -> Text:
        if not bits:
            raise ValueError("empty code")
        sym = bits[0] + 1
        pos = 1
        out = bytearray()
        while pos < len(bits):
            run, pos = elias_gamma_decode(bits, pos)
            out.extend(bytes((sym,)) * run)
            sym = 3 - sym
        if not out:
            raise ValueError("code has no runs")
        return Text(bytes(out), 2)


@dataclass(frozen=True)
class CandidateSet:
    """Length-n binary strings whose codes fit in k bits."""

    n: int
    members: frozenset[Text]
    k: int

    def __post_init__(self) -> None:
        if any(len(t) != self.n for t in self.members):
            raise ValueError("members must all have length n")
        if len(self.members) > 2 ** (self.k + 1) - 2:
            raise AssertionError(
                "more members than distinct codes of <= k bits; "
                "the compressor cannot be injective"
            )

    def __len__(self) -> int:
        return len(self.members)


def _check_n(n: int, cap: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > cap:
        raise ValueError(
            f"n={n} exceeds the enumeration cap {cap}; this walks all 2^n "
            f"strings, so raise cap= only if that cost is acceptable"
        )


def enumerate_candidates(n: int, k: int, c: Compressor, cap: int = DEFAULT_CAP) -> CandidateSet:
    """Exact candidate set by enumerating all 2^n strings (hence the cap)."""
    _check_n(n, cap)
    strings = _universe(n).strings
    bits = f"{_candidate_mask(c, n, k):b}"[::-1]  # bit i set: string i fits
    members = frozenset(Text(strings[i], 2) for i, b in enumerate(bits) if b == "1")
    return CandidateSet(n, members, k)


@dataclass(frozen=True)
class SplitterResult:
    splitter: Text
    contained: frozenset[Text]  # members the splitter occurs in
    flagged: bool               # true when the 1/5 guarantee was unattainable

    @property
    def count(self) -> int:
        return len(self.contained)


def find_splitter(m: CandidateSet) -> SplitterResult:
    """A substring of some member occurring in between 1/5 and 4/5 of the
    members, searched shortest-then-lexicographic. When no substring
    conforms (possible only for tiny sets), the one closest to an even
    split is returned flagged."""
    if len(m.members) < 2:
        raise ValueError("need at least two candidates to split")
    _check_n(m.n, DEFAULT_CAP)
    if any(t.sigma != 2 for t in m.members):
        raise ValueError("members must be binary (sigma 2)")
    index = {int(t.symbols.translate(_TO_BITS), 2): t for t in m.members}
    q, qmask, flagged = _select_splitter(m.n, sum(1 << i for i in index))
    contained = frozenset(t for i, t in index.items() if qmask >> i & 1)
    return SplitterResult(Text(q, 2), contained, flagged)


class _Universe:
    """Per-n tables: string i has bits of i (MSB first) as symbols 1/2;
    sub_list enumerates every possible nonempty query shortest-then-lex with
    its membership bitmask over the 2^n strings."""

    __slots__ = ("strings", "sub_list")

    def __init__(self, n: int):
        count = 1 << n
        strings = [
            bytes(((i >> (n - 1 - b)) & 1) + 1 for b in range(n))
            for i in range(count)
        ]
        sub_mask: dict[bytes, int] = {}
        for i, s in enumerate(strings):
            bit = 1 << i
            seen = set()
            for a in range(n):
                for b in range(a + 1, n + 1):
                    seen.add(s[a:b])
            for q in seen:
                sub_mask[q] = sub_mask.get(q, 0) | bit
        self.strings = strings
        self.sub_list = sorted(sub_mask.items(), key=lambda kv: (len(kv[0]), kv[0]))


_universe_cache: dict[int, _Universe] = {}
_code_len_cache: dict[tuple[str, int], list[int]] = {}
_candidate_mask_cache: dict[tuple[str, int, int], int] = {}
_splitter_memo: dict[int, dict[int, tuple[bytes, int, bool]]] = {}


def _universe(n: int) -> _Universe:
    u = _universe_cache.get(n)
    if u is None:
        u = _universe_cache[n] = _Universe(n)
    return u


def _code_lengths(c: Compressor, n: int) -> list[int]:
    key = (c.name, n)
    lens = _code_len_cache.get(key)
    if lens is None:
        uni = _universe(n)
        lens = [len(c.compress(Text(s, 2))) for s in uni.strings]
        _code_len_cache[key] = lens
    return lens


def _candidate_mask(c: Compressor, n: int, k: int) -> int:
    key = (c.name, n, k)
    mask = _candidate_mask_cache.get(key)
    if mask is None:
        mask = 0
        for i, l in enumerate(_code_lengths(c, n)):
            if l <= k:
                mask |= 1 << i
        _candidate_mask_cache[key] = mask
    return mask


def _select_splitter(n: int, m_mask: int) -> tuple[bytes, int, bool]:
    """find_splitter over the bitmask m_mask of candidate indices, memoized
    per candidate set so the decision tree is shared across hidden strings."""
    memo = _splitter_memo.setdefault(n, {})
    hit = memo.get(m_mask)
    if hit is not None:
        return hit
    msize = m_mask.bit_count()
    lo = -(-msize // 5)
    hi = (4 * msize) // 5
    best = None
    best_score = None
    for q, qmask in _universe(n).sub_list:
        inter = qmask & m_mask
        cnt = inter.bit_count()
        if cnt == 0:
            continue
        if lo <= cnt <= hi:
            res = (q, qmask, False)
            memo[m_mask] = res
            return res
        score = abs(2 * cnt - msize)
        if best_score is None or score < best_score:
            best = (q, qmask, True)
            best_score = score
    assert best is not None
    memo[m_mask] = best
    return best


def reconstruct_universal(o, n: int, c: Compressor, cap: int = DEFAULT_CAP) -> ReconstructionReport:
    """Reconstruct a binary hidden string of known length n by halving
    candidate sets under an exponentially growing code budget. Every answer
    is verified with a full-length query (an equality test) before being
    returned."""
    _check_n(n, cap)
    uni = _universe(n)
    code_len = _code_lengths(c, n)
    max_k = max(code_len)
    contains = o.contains_substring
    split_log: list[tuple[int, int, bool]] = []
    rounds = 0
    tau = 1
    while True:
        rounds += 1
        m = _candidate_mask(c, n, tau)
        while m and m.bit_count() > _BASE_CASE:
            q, qmask, flagged = _select_splitter(n, m)
            kept = m & qmask
            split_log.append((m.bit_count(), kept.bit_count(), flagged))
            m = kept if contains(q) else m & ~qmask
        found = None
        while m:
            i = (m & -m).bit_length() - 1
            cand = uni.strings[i]
            if contains(cand):  # length-n substring query == equality test
                found = cand
                break
            m &= m - 1
        if found is not None:
            return ReconstructionReport(
                recovered=Text(found, 2),
                stats=o.stats(),
                phases=[Phase("forward", len(split_log), "splits")],
                algorithm=f"universal-{c.name}",
                extras={
                    "tau": tau,
                    "rounds": rounds,
                    "code_length": code_len[(m & -m).bit_length() - 1],
                    "split_log": split_log,
                },
            )
        if tau >= max_k:
            raise ReconstructionError(
                f"no length-{n} candidate verified even with the full code "
                f"budget {max_k}; the hidden string is not binary of length {n}"
            )
        tau = min(tau * 2, max_k)


class _RecordingOracle:
    """Passes queries through to a real oracle, recording each answer bit."""

    __slots__ = ("_o", "bits", "sigma")

    def __init__(self, o: Oracle):
        self._o = o
        self.bits: list[int] = []
        self.sigma = o.sigma

    def contains_substring(self, q) -> bool:
        a = self._o.contains_substring(q)
        self.bits.append(1 if a else 0)
        return a

    def is_prefix(self, q) -> bool:
        a = self._o.is_prefix(q)
        self.bits.append(1 if a else 0)
        return a

    def stats(self) -> QueryStats:
        return self._o.stats()


class _ReplayOracle:
    """Answers queries from a prerecorded bit list, in order. It keeps no
    query accounting: decompress discards the report."""

    __slots__ = ("_bits", "pos", "sigma")

    def __init__(self, bits: Sequence[int], sigma: int):
        self._bits = bits
        self.sigma = sigma
        self.pos = 0

    def contains_substring(self, q) -> bool:
        if self.pos >= len(self._bits):
            raise ValueError("code exhausted before the algorithm finished")
        self.pos += 1
        return bool(self._bits[self.pos - 1])

    is_prefix = contains_substring

    def stats(self) -> QueryStats:
        return QueryStats()


class ReconstructorCodec:
    """A compressor wrapping a deterministic reconstruction algorithm: the
    code of S is the bit sequence of oracle answers the algorithm sees while
    reconstructing S, so |code| equals its query count exactly."""

    __slots__ = ("algo", "sigma", "name")

    def __init__(self, algo, sigma: int, name: str | None = None):
        self.algo = algo
        self.sigma = sigma
        self.name = name or f"replay-{getattr(algo, '__name__', 'algo')}"

    def compress(self, t: Text) -> tuple[int, ...]:
        rec = _RecordingOracle(Oracle(Text(t.symbols, self.sigma)))
        report = self.algo(rec, self.sigma)
        if report.recovered.symbols != t.symbols:
            raise ReconstructionError(
                "wrapped algorithm failed to reconstruct its own input"
            )
        return tuple(rec.bits)

    def decompress(self, bits: Sequence[int]) -> Text:
        replay = _ReplayOracle(bits, self.sigma)
        report = self.algo(replay, self.sigma)
        if replay.pos != len(bits):
            raise ValueError("trailing bits after reconstruction finished")
        return Text(report.recovered.symbols, self.sigma)


def compressor_from_reconstructor(algo, sigma: int) -> ReconstructorCodec:
    return ReconstructorCodec(algo, sigma)
