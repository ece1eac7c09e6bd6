"""Reconstruction of a hidden string from substring/prefix membership queries.

Every strategy is a grow loop that asks only through oracle cursors
(`oracle.cursor`), run by `_drive` once per cursor side.

Forward-stuck soundness: if R occurs in the hidden string S and no
single-symbol right extension of R occurs, then every occurrence of R is a
suffix occurrence, hence R occurs exactly once, as a suffix. Symmetrically,
when no left extension exists the known string is a prefix, so both phases
together pin down S exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import count

from .centroid import CentroidTree
from .oracle import QueryStats, cursor
from .suffix_tree import SuffixTree, TreeSnapshot
from .text import Text

# Snapshots of the phrase-search structures are refreshed only after the
# known string grows by this factor; between refreshes the search runs on a
# slightly stale tree, which can only shorten phrases, never break them.
_REBUILD_FACTOR = 2

# Single-symbol extensions, built once: _SYMBOLS[c] == bytes((c,)).
_SYMBOLS = tuple(bytes((c,)) for c in range(256))


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


def _max_true(pred, cap: int | None = None) -> int:
    """Largest l with pred(l) true, for monotone pred with pred(1) true.

    Doubles from 1 until failure (or past `cap`), then bisects:
    at most 2*ceil(log2(answer)) + 2 calls.
    """
    lo, hi = 1, 2
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


def decompose_snapshot(snap: TreeSnapshot) -> CentroidTree:
    """The centroid decomposition of one snapshot, as the LZ loop rebuilds
    it: validated and sized, with only its root placed; `_phrase_search`
    places the rest as it enters it (perfbench times this layer through this
    name)."""
    return CentroidTree.of(snap.children)


def _phrase_search(snap: TreeSnapshot, ct: CentroidTree, probe) -> bytes:
    """Longest t spelled by a root path of the (snapshotted) suffix tree
    such that probe(t) holds; b"" when not even one symbol extends.

    Walks the centroid tree: at each visited node u, one query verifies
    locus(u); a verified node is left through the suffix-tree child whose
    first edge symbol still extends (<= sigma probes, ascending), an
    unverified one through its suffix-tree parent's component;
    `ct.component_of` places a component's centroid the first time any
    search enters it. The deepest verified node is then extended along at
    most one partial edge with an exponential search. Each distinct t is
    asked at most once (one memo per call); an empty result means every
    symbol in the snapshot was asked.
    """
    memo: dict[bytes, bool] = {}

    def ext(t: bytes) -> bool:
        a = memo.get(t)
        if a is None:
            a = memo[t] = probe(t)
        return a

    text = snap.text
    depth = snap.depth
    first_occ = snap.first_occ
    by_symbol = snap.children_by_symbol
    locus = snap.locus

    def extending_child(u: int) -> int:
        """The child of u with the smallest first edge symbol that extends,
        probed in ascending symbol order; -1 when none does."""
        d = depth[u] + 1
        for ch in by_symbol(u):
            f = first_occ[ch]
            t = text[f : f + d]  # locus(u) plus the edge's first symbol
            a = memo.get(t)
            if a is None:
                a = memo[t] = probe(t)
            if a:
                return ch
        return -1

    best = 0
    best_depth = 0
    u: int | None = ct.root
    while u is not None:
        if u == 0 or ext(locus(u)):
            if depth[u] > best_depth:
                best = u
                best_depth = depth[u]
            toward = extending_child(u)
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
        nxt = extending_child(cur)
        if nxt < 0:
            return result
        edge = locus(nxt)[depth[cur]:]
        base = result
        k = _max_true(lambda l: ext(base + edge[:l]), cap=len(edge))
        result = base + edge[:k]
        if k < len(edge):
            return result
        cur = nxt


def _grow_symbols(sigma: int, model, seed: bytes) -> int:
    """Naive: one symbol per step, the smallest that extends, found by one
    `first` call over 1..sigma that charges one query per symbol tried; at
    most sigma queries per step plus one full round of failures."""
    first, advance = model.first, model.advance
    symbols = bytes(range(1, sigma + 1))
    for steps in count():
        i = first(symbols)
        if i < 0:
            return steps
        advance(_SYMBOLS[i + 1])


def _grow_runs(sigma: int, model, seed: bytes) -> int:
    """rle: one maximal run per step; its symbol is found by one `first` call
    over 1..sigma without the skipped symbol (at most sigma queries),
    then its length by an exponential search.

    Each accepted run is maximal at its (unique, by the suffix invariant)
    occurrence, so the same symbol cannot start the next run and is skipped.
    The last run of the seed is maximal as well (it was found as the longest
    run of its symbol anywhere, or accepted by a failed longer probe).
    """
    first, probe = model.first, model.probe
    symbols = bytes(range(1, sigma + 1))
    without = [symbols.replace(_SYMBOLS[c], b"") for c in range(sigma + 1)]
    skip = seed[-1] if seed else 0
    for steps in count():
        rest = without[skip]
        i = first(rest)
        if i < 0:
            return steps
        skip = rest[i]
        unit = _SYMBOLS[skip]
        model.advance(unit * _max_true(lambda l: probe(unit * l)))


def _lz_grow(sigma: int, model, seed: bytes, records: list) -> int:
    """Phrase-at-a-time growth loop shared by the LZ reconstructors.

    Each step takes the phrase search's answer or, when it is empty, the
    smallest fresh symbol that extends, by one `first` call over the symbols
    absent from the snapshot's text (the search asked all the others).

    The suffix tree is read only through snapshots, so it is extended to
    the grown string only when a snapshot is due, with everything grown
    since the last one (Ukkonen's algorithm gives the same tree and node ids
    however its input is chunked). Each snapshot's centroid decomposition
    is placed only where the phrase searches enter it. Returns the number of
    phrases emitted; the model holds the result. `records` collects
    (size, placed) per decomposition, for diagnostics: the snapshot's node
    count and the centroids placed in it, appended once the next snapshot
    replaces it or the phase ends.
    """
    st = SuffixTree(sigma)
    grown = bytearray(seed)  # the known string in model orientation
    symbols = bytes(range(1, sigma + 1))
    rebuild_at = 0  # the first pass always takes a snapshot
    for phrases in count():
        if len(grown) >= rebuild_at:
            if phrases:  # record the previous decomposition; free it before the next snapshot
                records.append((ct.size, ct.placed))
                snap = ct = None
            st.extend(grown[len(st.text):])
            snap = st.snapshot()
            ct = decompose_snapshot(snap)
            rebuild_at = max(1, len(grown) * _REBUILD_FACTOR)
            fresh = symbols.translate(None, snap.text)
        phrase = _phrase_search(snap, ct, model.probe)
        if not phrase:
            i = model.first(fresh)
            if i < 0:
                records.append((ct.size, ct.placed))
                return phrases
            phrase = _SYMBOLS[fresh[i]]
        model.advance(phrase)
        grown += phrase


def _drive(o, sigma: int, sides: tuple[str, ...], grow, algorithm: str, unit: str,
           **extras) -> ReconstructionReport:
    """Run one grow phase per cursor side in `sides`, each side's cursor
    starting from the string the previous phase left.

    grow(sigma, model, seed) -> steps extends the model until nothing
    extends it; `seed` is the model's known string in model orientation.
    """
    # symbols above sigma are never probed: fail before any query rather than
    # return a wrong string
    if sigma < o.sigma:
        raise ValueError(f"sigma {sigma} is below the oracle's alphabet size {o.sigma}")
    known = b""
    phases = []
    for side in sides:
        model = cursor(o, side, known)
        steps = grow(sigma, model, known[::-1] if side == "left" else known)
        phases.append(Phase("backward" if side == "left" else "forward", steps, unit))
        known = model.result()
    return ReconstructionReport(
        recovered=Text(known, sigma),
        stats=o.stats(),
        phases=phases,
        algorithm=algorithm,
        phrases_emitted=sum(p.units for p in phases) if unit == "phrases" else 0,
        extras=extras,
    )


def reconstruct_naive(o, sigma: int) -> ReconstructionReport:
    """Symbol-by-symbol reconstruction: at most sigma*(n+2) substring queries
    (each recovered symbol costs <= sigma probes, plus one full round of
    failures per direction)."""
    return _drive(o, sigma, ("right", "left"), _grow_symbols, "naive", "characters")


def reconstruct_rle(o, sigma: int) -> ReconstructionReport:
    """Run-by-run reconstruction: each maximal run costs <= sigma symbol
    probes plus an exponential search on the run length."""
    return _drive(o, sigma, ("right", "left"), _grow_runs, "rle", "runs")


def reconstruct_lz_prefix(o, sigma: int) -> ReconstructionReport:
    """Phrase-at-a-time reconstruction against a prefix oracle. When neither
    a phrase nor any fresh symbol extends the known prefix, it is the whole
    string."""
    records: list = []
    grow = partial(_lz_grow, records=records)
    return _drive(o, sigma, ("prefix",), grow, "lz-prefix", "phrases", decompositions=records)


def reconstruct_lz_substring(o, sigma: int) -> ReconstructionReport:
    """Phrase-at-a-time reconstruction with substring queries only: forward
    until the known string is (provably) a suffix, then the same machinery
    on the reversed string until it is also a prefix."""
    records: list = []
    grow = partial(_lz_grow, records=records)
    return _drive(o, sigma, ("right", "left"), grow, "lz-substring", "phrases",
                  decompositions=records)
