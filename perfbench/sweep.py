"""One pass over a workload: measure, reconstruct and check every case.

A pass is plain (no wrappers), traced (timing wrappers around each layer's
public entry points) or digest (a hash of every query and answer). Run as a
script it makes one pass in a fresh process, so the universal tables start
cold as in a CLI call, and prints its result as one JSON line:

    python3 perfbench/sweep.py plain|traced|digest <workload> <seed>
"""
from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import workloads
from strrecon import Oracle, measure, measures, reconstruct, reconstruct_universal
from strrecon.automaton import SuffixAutomaton
from strrecon.bench import ALGORITHMS, COMPRESSORS, bound_holds

perf_counter = time.perf_counter

# Counters and seconds a traced pass reports, per layer.
LAYER_KEYS = (
    "oracle.s", "oracle.calls", "oracle.symbols", "oracle.yes",
    "suffix_tree.extend_s", "suffix_tree.extend_calls",
    "suffix_tree.snapshot_s", "suffix_tree.snapshots", "suffix_tree.snapshot_nodes",
    "centroid.s", "centroid.calls", "centroid.nodes",
    "reconstruct.s", "reconstruct.inner_s", "reconstruct.phrases",
    "reconstruct.lz_queries", "reconstruct.lz_budget",
    "measures.s", "measures.calls", "automaton.s", "automaton.states",
    "universal.cold_s", "universal.warm_s", "universal.calls",
    "universal.splits", "universal.flagged",
)
# Layer time spent inside a reconstructor call, subtracted for its self time.
_INNER_KEYS = ("oracle.s", "suffix_tree.extend_s", "suffix_tree.snapshot_s", "centroid.s")

# The bindings a traced pass replaces, as (owner, attribute); a plain pass
# checks that each one holds its original again.
_BINDINGS = (
    (reconstruct.SuffixTree, "extend"),
    (reconstruct.SuffixTree, "snapshot"),
    (reconstruct, "decompose_snapshot"),
    (measures, "SuffixAutomaton"),
    (SuffixAutomaton, "finalize_min_end"),
)
_ORIGINALS = tuple(getattr(owner, name) for owner, name in _BINDINGS)


@dataclass
class SweepResult:
    runs: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    symbols: int = 0      # symbols of the exactly recovered runs
    queries: int = 0      # substring plus prefix queries, all runs
    sweep_s: float = 0.0  # measure, reconstruct and check, all cases
    recon_s: float = 0.0  # reconstructor calls alone
    scale: float = 1.0    # factor from measured to reference seconds
    layers: dict = field(default_factory=lambda: dict.fromkeys(LAYER_KEYS, 0))


class _TracedOracle:
    """Times and counts every query on its way to the real oracle."""

    __slots__ = ("_o", "_lay", "sigma")

    def __init__(self, o: Oracle, lay: dict):
        self._o = o
        self._lay = lay
        self.sigma = o.sigma

    def __len__(self) -> int:
        return len(self._o)

    def _count(self, q, answer: bool, seconds: float) -> bool:
        lay = self._lay
        lay["oracle.s"] += seconds
        lay["oracle.calls"] += 1
        lay["oracle.symbols"] += len(q)
        lay["oracle.yes"] += answer
        return answer

    def contains_substring(self, q) -> bool:
        t0 = perf_counter()
        a = self._o.contains_substring(q)
        return self._count(q, a, perf_counter() - t0)

    def is_prefix(self, q) -> bool:
        t0 = perf_counter()
        a = self._o.is_prefix(q)
        return self._count(q, a, perf_counter() - t0)

    def stats(self):
        return self._o.stats()


class _DigestOracle:
    """Feeds (kind, answer, length, query bytes) of every query to a hash."""

    __slots__ = ("_o", "_h", "sigma")

    def __init__(self, o: Oracle, h):
        self._o = o
        self._h = h
        self.sigma = o.sigma

    def __len__(self) -> int:
        return len(self._o)

    def contains_substring(self, q) -> bool:
        a = self._o.contains_substring(q)
        self._h.update(b"S%d %d:" % (a, len(q)))
        self._h.update(q)
        return a

    def is_prefix(self, q) -> bool:
        a = self._o.is_prefix(q)
        self._h.update(b"P%d %d:" % (a, len(q)))
        self._h.update(q)
        return a

    def stats(self):
        return self._o.stats()


def _timed(fn, lay: dict, seconds: str, count: str | None = None, size=None, size_key: str = ""):
    def wrapper(*args):
        t0 = perf_counter()
        out = fn(*args)
        lay[seconds] += perf_counter() - t0
        if count:
            lay[count] += 1
        if size_key:
            lay[size_key] += size(out)
        return out
    return wrapper


@contextmanager
def traced_layers(lay: dict):
    """Wrap the suffix tree, centroid and automaton entry points as bound in
    the modules that call them; restore the originals on exit."""
    wrappers = (
        _timed(_ORIGINALS[0], lay, "suffix_tree.extend_s", "suffix_tree.extend_calls"),
        _timed(_ORIGINALS[1], lay, "suffix_tree.snapshot_s", "suffix_tree.snapshots",
               lambda snap: snap.size, "suffix_tree.snapshot_nodes"),
        _timed(_ORIGINALS[2], lay, "centroid.s", "centroid.calls",
               lambda ct: ct.size, "centroid.nodes"),
        _timed(_ORIGINALS[3], lay, "automaton.s", None,
               lambda sam: len(sam.next), "automaton.states"),
        _timed(_ORIGINALS[4], lay, "automaton.s"),
    )
    try:
        for (owner, name), w in zip(_BINDINGS, wrappers):
            setattr(owner, name, w)
        yield
    finally:
        for (owner, name), orig in zip(_BINDINGS, _ORIGINALS):
            setattr(owner, name, orig)


def check_unwrapped() -> None:
    """Raise unless every binding a traced pass wraps holds its original."""
    for (owner, name), orig in zip(_BINDINGS, _ORIGINALS):
        if getattr(owner, name) is not orig:
            raise RuntimeError(f"{getattr(owner, '__name__', owner)}.{name} is still wrapped")


# The host's speed drifts by tens of percent within seconds, and a pass's
# times drift with it. A pass therefore probes the speed between runs, at
# least every PROBE_EVERY_S seconds, and scales each stretch of work between
# two probes to reference seconds: the seconds it would have taken on a host
# where host_speed_probe() takes REFERENCE_PROBE_S (about its median on a
# 2-core Xeon VM under Python 3.11).
PROBE_EVERY_S = 0.25
REFERENCE_PROBE_S = 0.02


def host_speed_probe() -> float:
    """Seconds a fixed interpreter-bound loop takes now."""
    t0 = perf_counter()
    s = 0
    d = {}
    for i in range(100_000):
        s += i * i % 7
        d[i & 1023] = s
    return perf_counter() - t0


class HostClock:
    """Measured seconds of a pass, with probes in between and the factor
    that scales them to reference seconds. Probe time is not counted."""

    def __init__(self):
        self.probe_s = 0.0
        self.measured_s = 0.0
        self.reference_s = 0.0
        self._last = host_speed_probe()
        self._mark = perf_counter()

    def tick(self, force: bool = False) -> None:
        now = perf_counter()
        if not force and now - self._mark < PROBE_EVERY_S:
            return
        probe = host_speed_probe()
        stretch = now - self._mark
        self.measured_s += stretch
        self.reference_s += stretch * REFERENCE_PROBE_S / ((self._last + probe) / 2)
        self._last = probe
        self._mark = perf_counter()
        self.probe_s += self._mark - now

    @property
    def scale(self) -> float:
        return self.reference_s / self.measured_s if self.measured_s else 1.0


def run_sweep(cases, wrap=None, algorithms=ALGORITHMS, res: SweepResult | None = None) -> SweepResult:
    """Measure each case's string once, then reconstruct it with each of its
    algorithms on a fresh oracle (passed through `wrap` when given) and check
    the result for exactness and for the algorithm's query bound. A run that
    is inexact, breaks its bound or raises is counted as failed. Results are
    added to `res` when given, so that wrappers can count into its layers."""
    res = SweepResult() if res is None else res
    lay = res.layers
    cold = set()
    clock = HostClock()
    start = perf_counter()
    for hidden, algos in cases:
        t0 = perf_counter()
        m = measure(hidden)
        lay["measures.s"] += perf_counter() - t0
        lay["measures.calls"] += 1
        for algo in algos:
            res.runs += 1
            oracle = Oracle(hidden)
            o = wrap(oracle) if wrap else oracle
            universal = algo not in algorithms
            inner0 = sum(lay[k] for k in _INNER_KEYS)
            rep = None
            t0 = perf_counter()
            try:
                if universal:
                    comp = COMPRESSORS[algo.removeprefix("universal-")]
                    rep = reconstruct_universal(o, len(hidden), comp)
                else:
                    rep = algorithms[algo](o, hidden.sigma)
                error = None
            except Exception as exc:  # a raising run is a failed run, never a crash
                error = f"{type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
            res.recon_s += dt
            res.queries += oracle.stats().total_queries
            if universal:
                key = "universal.warm_s" if len(hidden) in cold else "universal.cold_s"
                cold.add(len(hidden))
                lay[key] += dt
                lay["universal.calls"] += 1
            else:
                lay["reconstruct.s"] += dt
                lay["reconstruct.inner_s"] += sum(lay[k] for k in _INNER_KEYS) - inner0
            if error is None:
                error = _check(algo, hidden, m, rep, res)
            if error is not None:
                res.failed += 1
                if len(res.failures) < 5:
                    res.failures.append(f"{algo} n={len(hidden)} sigma={hidden.sigma}: {error}")
            clock.tick()
    clock.tick(force=True)
    res.sweep_s = perf_counter() - start - clock.probe_s
    res.scale = clock.scale
    return res


def _check(algo, hidden, m, rep, res: SweepResult) -> str | None:
    """None when the run is exact and within its bound, else the reason;
    also adds the run's report counts to res."""
    lay = res.layers
    try:
        if rep.recovered.symbols != hidden.symbols:
            return f"recovered {len(rep.recovered)} symbols that differ from the input"
        if not bound_holds(algo, rep, m):
            return f"{rep.stats.total_queries} queries break the bound"
        if algo.startswith("universal-"):
            log = rep.extras["split_log"]
            lay["universal.splits"] += len(log)
            lay["universal.flagged"] += sum(flag for _, _, flag in log)
        else:
            lay["reconstruct.phrases"] += rep.phrases_emitted
            if algo.startswith("lz-"):
                lay["reconstruct.lz_queries"] += rep.stats.total_queries
                lay["reconstruct.lz_budget"] += m.sigma * rep.phrases_emitted * math.log2(m.n)
    except Exception as exc:  # a malformed report fails the run
        return f"{type(exc).__name__}: {exc}"
    res.symbols += len(hidden)
    return None


def plain_pass(cases, algorithms=ALGORITHMS) -> SweepResult:
    check_unwrapped()
    return run_sweep(cases, algorithms=algorithms)


def traced_pass(cases, algorithms=ALGORITHMS) -> SweepResult:
    res = SweepResult()
    lay = res.layers
    with traced_layers(lay):
        return run_sweep(cases, lambda o: _TracedOracle(o, lay), algorithms, res)


def digest_pass(cases, algorithms=ALGORITHMS) -> tuple[SweepResult, str]:
    """The sha256 of the whole workload's transcript, runs in order."""
    h = hashlib.sha256()
    res = run_sweep(cases, wrap=lambda o: _DigestOracle(o, h), algorithms=algorithms)
    return res, h.hexdigest()


def main(argv: list[str]) -> int:
    mode, workload, seed = argv
    inputs = workloads.cases(workload, int(seed))
    ready = time.monotonic()
    digest = None
    if mode == "plain":
        res = plain_pass(inputs)
    elif mode == "traced":
        res = traced_pass(inputs)
    elif mode == "digest":
        res, digest = digest_pass(inputs)
    else:
        raise SystemExit(f"unknown pass {mode!r}")
    out = asdict(res)
    out["ready"] = ready
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["digest"] = digest
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
