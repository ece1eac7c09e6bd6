"""Reconstruction of a hidden string from substring/prefix membership queries.

Every strategy is a grow loop that asks only through oracle cursors
(`oracle.cursor`), run by `_drive` once per cursor side.

Forward-stuck soundness: if R occurs in the hidden string S and no
single-symbol right extension of R occurs, then every occurrence of R is a
suffix occurrence, hence R occurs exactly once, as a suffix. Symmetrically,
when no left extension exists the known string is a prefix, so both phases
together pin down S exactly. The left cursor relies on it: every backward
query reverse(t) + R is then a prefix query on reverse(S).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import count

from .centroid import CentroidTree
from .oracle import QueryStats, cursor
from .suffix_tree import SuffixTree, TreeSnapshot
from .text import MAX_SIGMA, Text

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


def decompose_snapshot(snap: TreeSnapshot) -> CentroidTree:
    """The centroid decomposition of one snapshot's child maps, as the LZ
    loop rebuilds it: validated and sized, with only its root placed.
    `_phrase_search` steps through its map of entered components itself and
    places a pending component the first time it enters it (perfbench times
    this layer through this name)."""
    return CentroidTree.of(snap.children)


def _phrase_search(snap: TreeSnapshot, ct: CentroidTree, model) -> bytes:
    """Longest t spelled by a root path of the (snapshotted) suffix tree
    such that model.probe(t) holds; b"" when not even one symbol extends.

    One loop in one frame walks the centroid tree and then the last partial
    edge. At each visited node u, one query verifies locus(u). A verified
    node is left through the suffix-tree child whose first edge symbol still
    extends, found by one model.first(symbols, locus(u)) call (<= sigma
    queries, ascending); an unverified one is left through its suffix-tree
    parent `ct.tree_parent[u]`. Each step to the next centroid is made
    inline, as `ct.component_of` would answer it, from `ct.depth` and the map
    `ct.entered`; the search calls `ct.place(key)` only to place a pending
    component the first time any search enters it. A walk that fails at
    every node climbs to node 0, whose locus b"" holds, so it always
    verifies one. Once it leaves the decomposition, the deepest verified node
    is extended from the child picked for it, one edge at a time, each by an
    exponential search (doubling, then bisection), asked inline.

    Each distinct t is asked at most once, with no memo of query strings.
    Every t is a point on a root path of the snapshot, and:
    - loci are distinct, so locus answers are kept by node id;
    - a child's extension probe is one symbol into its edge, so it equals
      locus(child) only when that edge has one symbol;
    - a point inside an edge is asked at most once: after leaving u through
      a child, the walk stays below that child, and an edge search stops
      short of a locus the walk found false.
    So a node's extensions are one `first` call over its children, less the
    one-symbol children whose loci the walk asked first: those answers were
    false, since a true locus sends the walk below it for good. An empty
    result means every symbol in the snapshot was asked.
    """
    probe, first = model.probe, model.first
    text, depth, first_occ, parent = snap.text, snap.depth, snap.first_occ, ct.tree_parent
    by_symbol, children_by_symbol = snap.by_symbol, snap.children_by_symbol
    cdepth, entered, place = ct.depth, ct.entered, ct.place
    seen: dict[int, bool] = {0: True}  # node -> the answer for locus(node)
    failed: dict[int, list[int]] = {}  # node -> its one-symbol children whose loci were false
    u: int | None = ct.root  # the next centroid to visit; None once the walk leaves
    best, found, nxt = 0, b"", -1  # the deepest verified node, its locus, its extending child
    while True:
        if u is not None:
            f = first_occ[u]
            loc = text[f : f + depth[u]]  # locus(u)
            ok = seen.get(u)
            if ok is None:
                ok = seen[u] = probe(loc)
            if ok:
                best, found = u, loc
            else:  # step towards the tree parent v, in the component keyed ~u
                v = parent[u]
                key = ~u
                if depth[u] == depth[v] + 1:
                    failed.setdefault(v, []).append(u)
        else:  # extend best into nxt's edge: lengths lo (verified) < hi (not, or past the edge)
            f, d, e = first_occ[nxt], depth[best], depth[nxt]
            g = f + d
            # lengths from stop on are false unasked: past the edge, or locus(nxt) found false
            stop = e - d + (seen.get(nxt) is not False)
            lo, hi = 1, 2
            while hi < stop and probe(text[f : g + hi]):
                lo, hi = hi, 2 * hi
            hi = min(hi, e - d + 1)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if mid < stop and probe(text[f : g + mid]):
                    lo = mid
                else:
                    hi = mid
            if d + lo < e:
                return text[f : g + lo]
            best, found, ok = nxt, text[f : f + e], True
        if ok:  # pick best's extending child: the smallest symbol that extends
            kids, syms = by_symbol.get(best) or children_by_symbol(best)
            gone = failed.get(best)
            if gone:
                kids = [w for w in kids if w not in gone]
                syms = bytes(text[first_occ[w] + depth[best]] for w in kids)
            i = first(syms, found) if kids else -1
            if i < 0:
                return found
            nxt = v = key = kids[i]
            if depth[nxt] == depth[best] + 1:
                seen[nxt] = True  # its locus was the query that found it
        if u is not None:  # the centroid of u's component on v's side, if placed deeper
            dv = cdepth[v]
            if 0 <= dv <= cdepth[u]:
                u = None
            elif key in entered:
                u = entered[key]
            elif dv >= 0:  # a one-node component, placed with its parent centroid
                u = v
            else:
                u = place(key)


def _grow_symbols(sigma: int, model, seed: bytes) -> int:
    """Naive: one symbol per step, the smallest that extends, found and taken
    by one `step` call over 1..sigma that charges one query per symbol tried;
    at most sigma queries per step plus one full round of failures."""
    step = model.step
    symbols = bytes(range(1, sigma + 1))
    for steps in count():
        if step(symbols) < 0:
            return steps


def _grow_runs(sigma: int, model, seed: bytes) -> int:
    """rle: one maximal run per step; its symbol is found and its first copy
    taken by one `step` call over 1..sigma without the skipped symbol (at
    most sigma queries), then the rest of the run is found by an exponential
    search (<= 2 * bit_length(run) + 2 probes) and taken by one `advance`.

    Each accepted run is maximal at its (unique, by the suffix invariant)
    occurrence, so the same symbol cannot start the next run and is skipped.
    The last run of the seed is maximal as well (it was found as the longest
    run of its symbol anywhere, or accepted by a failed longer probe).
    """
    step, probe, advance = model.step, model.probe, model.advance
    symbols = bytes(range(1, sigma + 1))
    without = [symbols.replace(_SYMBOLS[c], b"") for c in range(sigma + 1)]
    skip = seed[-1] if seed else 0
    for steps in count():
        rest = without[skip]
        i = step(rest)
        if i < 0:
            return steps
        skip = rest[i]
        unit = _SYMBOLS[skip]
        lo, hi = 0, 1  # copies beyond the first: lo verified, hi not
        while probe(unit * hi):
            lo, hi = hi, 2 * hi + 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if probe(unit * mid):
                lo = mid
            else:
                hi = mid
        if lo:
            advance(unit * lo)


def _lz_grow(sigma: int, model, seed: bytes, records: list) -> int:
    """Phrase-at-a-time growth loop shared by the LZ reconstructors.

    Each step takes the phrase search's answer by one `advance` or, when it
    is empty, the smallest fresh symbol that extends, found and taken by one
    `step` call over the symbols absent from the snapshot's text (the search
    asked all the others).

    The suffix tree is read only through snapshots: the first once the
    known string holds a symbol (the empty string's tree has nothing to
    search), then one each time it has doubled. So the tree is extended only
    when a snapshot is due, with all grown since the last one (Ukkonen's
    algorithm gives the same tree and node ids however its input is
    chunked). A snapshot is a view of the live tree, valid until its next
    `extend`, and its decomposition reads the tree's child maps until
    complete, so both are dropped first; each is placed only where the
    searches enter it. Returns the number of phrases emitted; the model holds
    the result. `records` collects (size, placed) per decomposition: the
    snapshot's node count and the centroids placed in it, appended once the
    next snapshot replaces it or the phase ends.
    """
    st = SuffixTree(sigma)
    grown = bytearray(seed)  # the known string in model orientation
    fresh = symbols = bytes(range(1, sigma + 1))
    rebuild_at = 1  # the first snapshot holds at least one symbol
    ct = None
    for phrases in count():
        if len(grown) >= rebuild_at:
            if ct is not None:  # record the previous decomposition; free it before the next snapshot
                records.append((ct.size, ct.placed))
                snap = ct = None
            st.extend(grown[len(st.text):])
            snap = st.snapshot()
            ct = decompose_snapshot(snap)
            rebuild_at = len(grown) * _REBUILD_FACTOR
            fresh = symbols.translate(None, snap.text)
        phrase = _phrase_search(snap, ct, model) if ct is not None else b""
        if phrase:
            model.advance(phrase)
        else:
            i = model.step(fresh)
            if i < 0:
                if ct is not None:
                    records.append((ct.size, ct.placed))
                return phrases
            phrase = _SYMBOLS[fresh[i]]
        grown += phrase


def _drive(o, sigma: int, sides: tuple[str, ...], grow, algorithm: str, unit: str,
           **extras) -> ReconstructionReport:
    """Run one grow phase per cursor side in `sides`, each side's cursor
    starting from the string the previous phase left.

    grow(sigma, model, seed) -> steps extends the model until nothing
    extends it; `seed` is the model's known string in model orientation.
    """
    # symbols above sigma are never probed, and no symbol lies above
    # MAX_SIGMA: fail before any query rather than return a wrong string
    if not o.sigma <= sigma <= MAX_SIGMA:
        raise ValueError(f"sigma {sigma} is outside [{o.sigma}, {MAX_SIGMA}], from the "
                         "oracle's alphabet size to the largest symbol")
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
    string. extras["decompositions"] holds `_lz_grow`'s records: none for
    the empty string, whose tree is never searched."""
    records: list = []
    grow = partial(_lz_grow, records=records)
    return _drive(o, sigma, ("prefix",), grow, "lz-prefix", "phrases", decompositions=records)


def reconstruct_lz_substring(o, sigma: int) -> ReconstructionReport:
    """Phrase-at-a-time reconstruction with substring queries only: forward
    until the known string is (provably) a suffix, then the same machinery
    on the reversed string until it is also a prefix. extras holds the
    decomposition records of both phases, as in reconstruct_lz_prefix."""
    records: list = []
    grow = partial(_lz_grow, records=records)
    return _drive(o, sigma, ("right", "left"), grow, "lz-substring", "phrases",
                  decompositions=records)
