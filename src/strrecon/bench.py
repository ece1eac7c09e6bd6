"""Experiment runner: reconstruct generated strings, check the per-run query
bounds, and emit CSV rows.

Bounds asserted per algorithm (q = the relevant query counter, p = phrases
the run emitted):

- naive:         substring queries <= sigma * (n + 2)
- rle:           substring queries <= 4 * rle * (sigma + log2(n / rle) + 2)
- lz-prefix:     prefix queries    <= 8 * sigma * p * (log2 n + 2)
- lz-substring:  substring queries <= 8 * sigma * p * (log2 n + 2)
- universal-*:   substring queries <= 15 * |code| + 25

Known information-theoretic reference floors (sigma*n/4 and
sigma*z_no*log_sigma(n)) are printed as diagnostics only, never asserted.
"""
from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, fields
from itertools import product

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

CSV_HEADER = "algo,family,n,sigma,rle,z,z_no,phrases,sub_q,pre_q,sym_total,ms,exact,bound_ok"

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


def _lz_bound(rep: ReconstructionReport, m: MeasureReport) -> float:
    return 8 * m.sigma * rep.phrases_emitted * (math.log2(m.n) + 2) if m.n > 0 else 0.0


# algorithm name -> (the QueryStats counter it is charged on, its bound)
_BOUNDS = {
    "naive": ("substring_queries", lambda rep, m: m.sigma * (m.n + 2)),
    "rle": ("substring_queries",
            lambda rep, m: 4 * m.rle * (m.sigma + max(0.0, math.log2(m.n / m.rle)) + 2)),
    "lz-prefix": ("prefix_queries", _lz_bound),
    "lz-substring": ("substring_queries", _lz_bound),
    **{f"universal-{name}": ("substring_queries",
                             lambda rep, m: 15 * rep.extras["code_length"] + 25)
       for name in COMPRESSORS},
}


def bound_holds(algo: str, rep: ReconstructionReport, m: MeasureReport) -> bool:
    if algo not in _BOUNDS:
        raise ValueError(f"unknown algorithm {algo!r}")
    counter, bound = _BOUNDS[algo]
    return getattr(rep.stats, counter) <= bound(rep, m)


def run_one(algo: str, hidden: Text, family: str = "-",
            report: MeasureReport | None = None) -> ExperimentRow:
    """One experiment on a fresh oracle; raises if reconstruction is inexact."""
    if algo not in _BOUNDS:
        raise ValueError(f"unknown algorithm {algo!r}")
    if report is None:
        report = measure(hidden)
    oracle = Oracle(hidden)
    start = time.perf_counter()
    if algo in ALGORITHMS:
        rep = ALGORITHMS[algo](oracle, hidden.sigma)
    else:
        comp = COMPRESSORS[algo.removeprefix("universal-")]
        rep = reconstruct_universal(oracle, len(hidden), comp)
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

    Keys: algo, family, n, sigma (default 2), seed (default 0),
    repeat (default 1, distinct seeds). Unknown algorithms, groups that
    `generate` would reject (families.check_args) and universal groups longer
    than the enumeration cap are rejected before anything runs.
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
            opts[key] = value.split(",")
        for missing in ("algo", "family", "n"):
            if missing not in opts:
                raise ValueError(f"sweep line {lineno}: missing {missing}=")
        for algo in opts["algo"]:
            if algo not in _BOUNDS:
                raise ValueError(f"sweep line {lineno}: unknown algo {algo!r}")
            if algo.startswith("universal-") and max(map(int, opts["n"])) > DEFAULT_CAP:
                raise ValueError(f"sweep line {lineno}: {algo} needs n <= {DEFAULT_CAP}")
        opts.setdefault("sigma", ["2"])
        for family, n, sigma in product(opts["family"], opts["n"], opts["sigma"]):
            try:
                check_args(family, int(n), int(sigma))
            except ValueError as e:
                raise ValueError(f"sweep line {lineno}: {e}") from None
        opts.setdefault("seed", ["0"])
        repeat = int(opts.pop("repeat", ["1"])[0])
        for algo in opts["algo"]:
            for family in opts["family"]:
                for n in opts["n"]:
                    for sigma in opts["sigma"]:
                        for seed in opts["seed"]:
                            for extra in range(repeat):
                                groups.append({
                                    "algo": algo,
                                    "family": family,
                                    "n": int(n),
                                    "sigma": int(sigma),
                                    "seed": int(seed) + extra,
                                })
    return groups


def run_experiments(sweep: list[dict], log=sys.stderr) -> list[ExperimentRow]:
    rows: list[ExperimentRow] = []
    cache: dict[tuple, tuple[Text, MeasureReport]] = {}
    for exp in sweep:
        key = (exp["family"], exp["n"], exp["sigma"], exp["seed"])
        if key in cache:
            hidden, rep = cache[key]
        else:
            hidden = generate(exp["family"], exp["n"], exp["sigma"], exp["seed"])
            rep = measure(hidden)
            cache[key] = (hidden, rep)
        row = run_one(exp["algo"], hidden, family=exp["family"], report=rep)
        if log is not None:
            floors = " ".join(f"{k}={v:.0f}" for k, v in reference_floors(rep).items())
            print(f"# {row.algo} {row.family} n={row.n} sigma={row.sigma} {floors}", file=log)
        rows.append(row)
    return rows


def _cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def emit_csv(rows: list[ExperimentRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(_cell(getattr(row, f.name)) for f in fields(ExperimentRow)))
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> list[ExperimentRow]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or unexpected header")
    rows = []
    specs = fields(ExperimentRow)
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(specs):
            raise ValueError(f"expected {len(specs)} cells, got {len(cells)}")
        kwargs = {}
        for f, cell in zip(specs, cells):
            if f.type == "bool":
                kwargs[f.name] = cell == "1"
            elif f.type == "int":
                kwargs[f.name] = int(cell)
            else:
                kwargs[f.name] = cell
        rows.append(ExperimentRow(**kwargs))
    return rows
