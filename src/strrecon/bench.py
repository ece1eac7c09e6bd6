"""Experiment runner: reconstruct generated strings, check the per-run query
bounds, and emit CSV rows.

`TABLE` holds, per algorithm name, how to run it, the query counter its
bound limits, the bound itself and, for the universal algorithms, which
inputs it takes. Known information-theoretic reference floors
(sigma*n/4 and sigma*z_no*log_sigma(n)) are printed as diagnostics only,
never asserted.
"""
from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, fields
from itertools import product
from typing import Callable, NamedTuple

from .families import check_args, generate
from .measures import MeasureReport, measure
from .oracle import Oracle
from .reconstruct import (
    ReconstructionReport,
    reconstruct_lz_prefix,
    reconstruct_lz_substring,
    reconstruct_naive,
    reconstruct_rle,
)
from .text import Text
from .universal import DEFAULT_CAP, IdentityBits, RunLengthBits, reconstruct_universal

ALGORITHMS = {
    "naive": reconstruct_naive,
    "rle": reconstruct_rle,
    "lz-prefix": reconstruct_lz_prefix,
    "lz-substring": reconstruct_lz_substring,
}

COMPRESSORS = {
    "identity": IdentityBits(),
    "rle-bits": RunLengthBits(),
}


@dataclass(frozen=True)
class ExperimentRow:
    algo: str
    family: str
    n: int
    sigma: int
    rle: int
    z: int
    z_no: int
    phrases: int
    sub_q: int
    pre_q: int
    sym_total: int
    ms: int
    exact: bool
    bound_ok: bool


CSV_HEADER = ",".join(f.name for f in fields(ExperimentRow))


class Algorithm(NamedTuple):
    """One row of TABLE: run(oracle, hidden) reconstructs hidden through
    oracle; bound(report, measures) limits the report's QueryStats field
    `counter`; check(name, n, sigma), if set, raises ValueError when the
    algorithm cannot take a length-n string over sigma symbols."""

    run: Callable[[Oracle, Text], ReconstructionReport]
    counter: str
    bound: Callable[[ReconstructionReport, MeasureReport], float]
    check: Callable[[str, int, int], None] | None = None


def _lz_bound(rep: ReconstructionReport, m: MeasureReport) -> float:
    return 8 * m.sigma * rep.phrases_emitted * (math.log2(m.n) + 2) if m.n > 0 else 0.0


def _query_row(name: str, counter: str, bound) -> tuple[str, Algorithm]:
    algo = ALGORITHMS[name]
    return name, Algorithm(lambda o, hidden: algo(o, hidden.sigma), counter, bound)


def _universal_input(name: str, n: int, sigma: int) -> None:
    if n > DEFAULT_CAP:
        raise ValueError(f"{name} needs n <= {DEFAULT_CAP}, got n={n}")
    if sigma > 2:
        raise ValueError("universal reconstruction handles binary strings only")


def _universal_row(name: str, comp) -> tuple[str, Algorithm]:
    return f"universal-{name}", Algorithm(
        lambda o, hidden: reconstruct_universal(o, len(hidden), comp),
        "substring_queries",
        lambda rep, m: 15 * rep.extras["code_length"] + 25,
        _universal_input,
    )


TABLE: dict[str, Algorithm] = dict((
    _query_row("naive", "substring_queries", lambda rep, m: m.sigma * (m.n + 2)),
    _query_row("rle", "substring_queries",
               lambda rep, m: 4 * m.rle * (m.sigma + max(0.0, math.log2(m.n / m.rle)) + 2)),
    _query_row("lz-prefix", "prefix_queries", _lz_bound),
    _query_row("lz-substring", "substring_queries", _lz_bound),
    *(_universal_row(name, comp) for name, comp in COMPRESSORS.items()),
))


def _row(algo: str) -> Algorithm:
    spec = TABLE.get(algo)
    if spec is None:
        raise ValueError(f"unknown algo {algo!r}")
    return spec


def check_input(algo: str, n: int, sigma: int) -> Algorithm:
    """The TABLE row of algo; raises ValueError when algo is unknown or
    cannot take a length-n string over sigma symbols."""
    spec = _row(algo)
    if spec.check is not None:
        spec.check(algo, n, sigma)
    return spec


def bound_holds(algo: str, rep: ReconstructionReport, m: MeasureReport) -> bool:
    spec = _row(algo)
    return getattr(rep.stats, spec.counter) <= spec.bound(rep, m)


def run_one(algo: str, hidden: Text, family: str = "-",
            report: MeasureReport | None = None) -> ExperimentRow:
    """One experiment on a fresh oracle; raises ValueError if algo cannot
    take hidden, and AssertionError if reconstruction is inexact."""
    spec = check_input(algo, len(hidden), hidden.sigma)
    if report is None:
        report = measure(hidden)
    oracle = Oracle(hidden)
    start = time.perf_counter()
    rep = spec.run(oracle, hidden)
    ms = round((time.perf_counter() - start) * 1000)
    exact = rep.recovered.symbols == hidden.symbols
    if not exact:
        raise AssertionError(
            f"{algo} reconstructed {len(rep.recovered)} symbols that do not "
            f"match the {len(hidden)}-symbol input"
        )
    st = rep.stats
    return ExperimentRow(
        algo=algo,
        family=family,
        n=report.n,
        sigma=report.sigma,
        rle=report.rle,
        z=report.z,
        z_no=report.z_no,
        phrases=rep.phrases_emitted,
        sub_q=st.substring_queries,
        pre_q=st.prefix_queries,
        sym_total=st.total_queried_symbols,
        ms=ms,
        exact=exact,
        bound_ok=bound_holds(algo, rep, report),
    )


def reference_floors(m: MeasureReport) -> dict[str, float]:
    """Lower-bound reference values, for printing only."""
    floors = {"floor_sigma_n_over_4": m.sigma * m.n / 4}
    if m.sigma >= 2 and m.n >= 2:
        floors["floor_sigma_zno_log"] = m.sigma * m.z_no * math.log(m.n, m.sigma)
    return floors


def parse_sweep(textio) -> list[dict]:
    """Line-oriented sweep format: one experiment group per line, made of
    space-separated key=value tokens; values may be comma lists, expanded as
    a cartesian product. '#' starts a comment.

    Keys: algo, family, n, sigma (default 2), seed (default 0), repeat (one
    integer >= 1, default 1: that many consecutive seeds). Groups that
    `generate` would reject (families.check_args) or that name an algorithm
    unknown to TABLE, or one that cannot take the group's strings
    (check_input), are rejected before anything runs.
    """
    groups: list[dict] = []
    for lineno, raw in enumerate(textio, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        opts: dict[str, list[str]] = {}
        for token in line.split():
            if "=" not in token:
                raise ValueError(f"sweep line {lineno}: expected key=value, got {token!r}")
            key, value = token.split("=", 1)
            if key not in ("algo", "family", "n", "sigma", "seed", "repeat"):
                raise ValueError(f"sweep line {lineno}: unknown key {key!r}")
            if key in opts:
                raise ValueError(f"sweep line {lineno}: repeated key {key!r}")
            opts[key] = value.split(",")
        for missing in ("algo", "family", "n"):
            if missing not in opts:
                raise ValueError(f"sweep line {lineno}: missing {missing}=")
        opts.setdefault("sigma", ["2"])
        opts.setdefault("seed", ["0"])
        value = ",".join(opts.pop("repeat", ["1"]))
        repeat = int(value) if value.isdecimal() else 0
        if repeat < 1:
            raise ValueError(f"sweep line {lineno}: repeat must be one integer >= 1, got {value!r}")
        for algo, family, n, sigma, seed in product(
                opts["algo"], opts["family"], opts["n"], opts["sigma"], opts["seed"]):
            try:
                n, sigma, seed = int(n), int(sigma), int(seed)
                check_input(algo, n, sigma)
                check_args(family, n, sigma)
            except ValueError as e:
                raise ValueError(f"sweep line {lineno}: {e}") from None
            groups.extend({"algo": algo, "family": family, "n": n, "sigma": sigma,
                           "seed": seed + extra} for extra in range(repeat))
    return groups


def run_experiments(sweep: list[dict], log=sys.stderr) -> list[ExperimentRow]:
    """Rows and stderr lines in the sweep's order; each string's experiments run
    right after its measure(), so right cursors reuse its suffix automaton."""
    by_string: dict[tuple, list[int]] = {}
    for i, exp in enumerate(sweep):
        by_string.setdefault((exp["family"], exp["n"], exp["sigma"], exp["seed"]), []).append(i)
    done: dict[int, tuple[ExperimentRow, str]] = {}
    for (family, n, sigma, seed), runs in by_string.items():
        hidden = generate(family, n, sigma, seed)
        rep = measure(hidden)
        floors = " ".join(f"{k}={v:.0f}" for k, v in reference_floors(rep).items())
        for i in runs:
            row = run_one(sweep[i]["algo"], hidden, family=family, report=rep)
            done[i] = row, f"# {row.algo} {row.family} n={row.n} sigma={row.sigma} {floors}"
    ordered = [done[i] for i in range(len(sweep))]
    if log is not None:
        for _, note in ordered:
            print(note, file=log)
    return [row for row, _ in ordered]


def _cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def emit_csv(rows: list[ExperimentRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(_cell(getattr(row, f.name)) for f in fields(ExperimentRow)))
    return "\n".join(lines) + "\n"

