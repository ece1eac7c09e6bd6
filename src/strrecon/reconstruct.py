"""Reconstruction of a hidden string from substring/prefix membership queries.

Four strategies, all exact:

- naive: one symbol at a time, forward until stuck, then backward.
- rle: one maximal run at a time; run lengths found by exponential search.
- lz-prefix: one LZ77-style phrase at a time against a prefix oracle; each
  phrase is the longest known substring that still extends the prefix, found
  by searching the centroid decomposition of the suffix tree built (online)
  over everything reconstructed so far.
- lz-substring: the same phrase machinery against a plain substring oracle,
  forward until the known string becomes a suffix, then backward over the
  reversed string.

Forward-stuck soundness (used by naive, rle and lz-substring): if R occurs
in the hidden string S and no single-symbol right extension of R occurs,
then every occurrence of R is a suffix occurrence, hence R occurs exactly
once, as a suffix. Symmetrically, when no left extension exists the known
string is a prefix, so both phases together pin down S exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .centroid import CentroidTree, decompose_snapshot
from .oracle import QueryStats
from .suffix_tree import SuffixTree, TreeSnapshot
from .text import Text

# Snapshots of the phrase-search structures are refreshed only after the
# known string grows by this factor; between refreshes the search runs on a
# slightly stale tree, which can only shorten phrases, never break them.
_REBUILD_FACTOR = 2


class ReconstructionError(RuntimeError):
    pass


@dataclass(frozen=True)
class Phase:
    direction: str  # "forward" | "backward"
    units: int      # how many steps this phase completed
    unit: str       # "characters" | "runs" | "phrases"


@dataclass
class ReconstructionReport:
    recovered: Text
    stats: QueryStats
    phases: list[Phase]
    algorithm: str
    phrases_emitted: int = 0
    extras: dict = field(default_factory=dict)


def _check_sigma(o, sigma: int) -> None:
    """Fail before any query when symbols of the hidden string lie above sigma
    (the reconstructors would never probe them and return a wrong string)."""
    if sigma < o.sigma:
        raise ValueError(f"sigma {sigma} is below the oracle's alphabet size {o.sigma}")


def _max_true(pred, known: int = 1, cap: int | None = None) -> int:
    """Largest l with pred(l) true, for monotone pred with pred(known) true.

    Doubles from `known` until failure (or past `cap`), then bisects:
    at most 2*ceil(log2(answer)) + 2 calls.
    """
    if cap is not None and known >= cap:
        return known
    lo = known
    hi = known * 2
    while (cap is None or hi <= cap) and pred(hi):
        lo = hi
        hi *= 2
    if cap is not None and hi > cap:
        hi = cap + 1  # pred is unknown on (lo, cap]; treat cap+1 as false
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo


def reconstruct_naive(o, sigma: int) -> ReconstructionReport:
    """Symbol-by-symbol reconstruction: at most sigma*(n+2) substring queries
    (each recovered symbol costs <= sigma probes, plus one full round of
    failures per direction)."""
    _check_sigma(o, sigma)
    contains = o.contains_substring
    buf = bytearray()
    fwd = 0
    while True:
        got = False
        for c in range(1, sigma + 1):
            buf.append(c)
            if contains(buf):
                got = True
                break
            buf.pop()
        if not got:
            break
        fwd += 1
    known = bytes(buf)
    bwd = 0
    while True:
        probe = bytearray(len(known) + 1)
        probe[1:] = known
        got = False
        for c in range(1, sigma + 1):
            probe[0] = c
            if contains(probe):
                got = True
                break
        if not got:
            break
        known = bytes(probe)
        bwd += 1
    return ReconstructionReport(
        recovered=Text(known, sigma),
        stats=o.stats(),
        phases=[Phase("forward", fwd, "characters"), Phase("backward", bwd, "characters")],
        algorithm="naive",
    )


def reconstruct_rle(o, sigma: int) -> ReconstructionReport:
    """Run-by-run reconstruction: each maximal run costs <= sigma symbol
    probes plus an exponential search on the run length.

    Each accepted run is maximal at its (unique, by the suffix invariant)
    occurrence, so the same symbol cannot start the next run and is skipped.
    """
    _check_sigma(o, sigma)
    contains = o.contains_substring
    known = bytearray()
    skip = 0
    fwd = 0
    while True:
        got = 0
        for c in range(1, sigma + 1):
            if c == skip:
                continue
            known.append(c)
            if contains(known):
                got = c
                break
            known.pop()
        if not got:
            break
        base = bytes(known[:-1])
        unit = bytes((got,))
        r = _max_true(lambda l: contains(base + unit * l))
        known = bytearray(base + unit * r)
        skip = got
        fwd += 1
    tail = bytes(known)
    # the first run of `tail` is maximal (it was found as the longest run of
    # its symbol anywhere, or accepted by a failed longer probe), so its
    # symbol cannot be prepended either
    skip = tail[0]
    bwd = 0
    while True:
        got = 0
        for c in range(1, sigma + 1):
            if c == skip:
                continue
            if contains(bytes((c,)) + tail):
                got = c
                break
        if not got:
            break
        unit = bytes((got,))
        r = _max_true(lambda l: contains(unit * l + tail))
        tail = unit * r + tail
        skip = got
        bwd += 1
    return ReconstructionReport(
        recovered=Text(tail, sigma),
        stats=o.stats(),
        phases=[Phase("forward", fwd, "runs"), Phase("backward", bwd, "runs")],
        algorithm="rle",
        extras={"run_steps": fwd + bwd},
    )


def _memoized(query):
    """query(t), asked at most once per distinct candidate t."""
    memo: dict[bytes, bool] = {}

    def ext(t: bytes) -> bool:
        a = memo.get(t)
        if a is None:
            a = memo[t] = bool(query(t))
        return a

    return ext


def _phrase_search(snap: TreeSnapshot, ct: CentroidTree, ext) -> bytes:
    """Longest t spelled by a root path of the (snapshotted) suffix tree
    such that ext(t) holds; b"" when not even one symbol extends.

    Walks the centroid tree: at each visited node u, one query verifies
    locus(u); a verified node is left through the suffix-tree child whose
    first edge symbol still extends (<= sigma probes, ascending), an
    unverified one through its suffix-tree parent's component. The deepest
    verified node is then extended along at most one partial edge with an
    exponential search. All ext calls are assumed memoized by the caller, so
    revisiting a probe is free.
    """
    depth = snap.depth
    children = snap.children
    locus = snap.locus
    best = 0
    best_depth = 0
    u: int | None = ct.root
    while u is not None:
        loc = locus(u)
        if u == 0 or ext(loc):
            if depth[u] > best_depth:
                best = u
                best_depth = depth[u]
            toward = -1
            for sym, ch in children[u]:
                if ext(loc + bytes((sym,))):
                    toward = ch
                    break
            if toward < 0:
                break
            u = ct.component_of(u, toward)
        else:
            p = snap.parent[u]
            if p < 0:
                break
            u = ct.component_of(u, p)
    cur = best
    result = locus(cur) if cur else b""
    while True:
        nxt = -1
        for sym, ch in children[cur]:
            if ext(result + bytes((sym,))):
                nxt = ch
                break
        if nxt < 0:
            return result
        edge = locus(nxt)[depth[cur]:]
        base = result
        k = _max_true(lambda l: ext(base + edge[:l]), known=1, cap=len(edge))
        result = base + edge[:k]
        if k < len(edge):
            return result
        cur = nxt


def lz_phrase_search(r: Text, st: SuffixTree, ct: CentroidTree, extend) -> Text:
    """One phrase step: the longest substring t of r (a path in st) for
    which extend(t) answers true. extend receives the candidate extension as
    bytes; results are memoized for the duration of the call."""
    return Text(_phrase_search(st.snapshot(), ct, _memoized(extend)), r.sigma)


class _ForwardSubstring:
    """Right extension by substring queries; the growing buffer is reused so
    each probe costs O(|t|) construction."""

    __slots__ = ("_query", "buf", "base")

    def __init__(self, o, seed: bytes):
        self._query = o.contains_substring
        self.buf = bytearray(seed)
        self.base = len(seed)

    def query(self, t: bytes) -> bool:
        buf = self.buf
        del buf[self.base:]
        buf += t
        return self._query(buf)

    def advance(self, phrase: bytes) -> None:
        buf = self.buf
        del buf[self.base:]
        buf += phrase
        self.base = len(buf)

    def result(self) -> bytes:
        del self.buf[self.base:]
        return bytes(self.buf)


class _ForwardPrefix(_ForwardSubstring):
    __slots__ = ()

    def __init__(self, o, seed: bytes):
        super().__init__(o, seed)
        self._query = o.is_prefix


class _BackwardSubstring:
    """Left extension driven in reversed orientation: the grow loop works on
    reverse(known) while queries are flipped back to text order."""

    __slots__ = ("_query", "known")

    def __init__(self, o, seed_reversed: bytes):
        self._query = o.contains_substring
        self.known = seed_reversed[::-1]

    def query(self, t: bytes) -> bool:
        return self._query(t[::-1] + self.known)

    def advance(self, phrase: bytes) -> None:
        self.known = phrase[::-1] + self.known

    def result(self) -> bytes:
        return self.known


def _lz_grow(sigma: int, model, seed: bytes, records: list) -> int:
    """Phrase-at-a-time growth loop shared by the LZ reconstructors.

    Returns the number of phrases emitted; the grown string lives in the
    model. `records` collects (size, height, balanced) per decomposition
    built, for diagnostics.
    """
    st = SuffixTree(sigma)
    st.extend(seed)
    snap = st.snapshot()
    ct = decompose_snapshot(snap)
    records.append((ct.size, ct.height, ct.balanced))
    snap_len = len(seed)
    phrases = 0
    while True:
        ext = _memoized(model.query)
        phrase = _phrase_search(snap, ct, ext)
        if not phrase:
            for c in range(1, sigma + 1):
                probe = bytes((c,))
                if ext(probe):
                    phrase = probe
                    break
        if not phrase:
            return phrases
        model.advance(phrase)
        st.extend(phrase)
        phrases += 1
        if len(st.text) >= max(1, snap_len * _REBUILD_FACTOR):
            snap = st.snapshot()
            ct = decompose_snapshot(snap)
            records.append((ct.size, ct.height, ct.balanced))
            snap_len = len(st.text)


def reconstruct_lz_prefix(o, sigma: int) -> ReconstructionReport:
    """Phrase-at-a-time reconstruction against a prefix oracle. When neither
    a phrase nor any fresh symbol extends the known prefix, it is the whole
    string."""
    _check_sigma(o, sigma)
    records: list = []
    model = _ForwardPrefix(o, b"")
    phrases = _lz_grow(sigma, model, b"", records)
    return ReconstructionReport(
        recovered=Text(model.result(), sigma),
        stats=o.stats(),
        phases=[Phase("forward", phrases, "phrases")],
        algorithm="lz-prefix",
        phrases_emitted=phrases,
        extras={"decompositions": records},
    )


def reconstruct_lz_substring(o, sigma: int) -> ReconstructionReport:
    """Phrase-at-a-time reconstruction with substring queries only: forward
    until the known string is (provably) a suffix, then the same machinery
    on the reversed string until it is also a prefix."""
    _check_sigma(o, sigma)
    records: list = []
    fwd_model = _ForwardSubstring(o, b"")
    pf = _lz_grow(sigma, fwd_model, b"", records)
    suffix = fwd_model.result()
    bwd_model = _BackwardSubstring(o, suffix[::-1])
    pb = _lz_grow(sigma, bwd_model, suffix[::-1], records)
    return ReconstructionReport(
        recovered=Text(bwd_model.result(), sigma),
        stats=o.stats(),
        phases=[Phase("forward", pf, "phrases"), Phase("backward", pb, "phrases")],
        algorithm="lz-substring",
        phrases_emitted=pf + pb,
        extras={"decompositions": records},
    )
