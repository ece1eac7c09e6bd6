"""strrecon benchmark: reconstruction sweeps timed end to end, or traced per
layer, on one workload.

    python3 perfbench/run.py --workload lz-lowent --seed 0 --seconds 20 --trace 0

Each pass over the workload runs in a fresh interpreter (perfbench/sweep.py),
so the universal tables start cold and the pass's peak RSS is its own.
Every time is reported in reference seconds: each pass probes the host's
speed between its runs and scales its measured seconds by that speed
relative to a fixed reference (sweep.HostClock, and README.md). With
--trace 0 the benchmark repeats plain passes for --seconds and reports the
end-to-end metrics as medians over them. With --trace 1 it alternates plain
and traced passes for --seconds, reports the per-layer metrics as medians
over the traced ones, then makes one digest pass and prints the transcript
digest on the line before the result. The last line of standard output is
always the JSON result.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from sweep import LAYER_KEYS

HERE = Path(__file__).resolve().parent
SWEEP = HERE / "sweep.py"
MIN_PASSES = 3
PASS_TIMEOUT_S = 120

E2E_UNITS = {
    "sweep_s": "s",
    "recon_sym_per_s": "symbols/s",
    "queries": "count",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Traced-pass keys that only feed a derived metric; the other keys are
# reported as they are, in seconds or as counts.
DERIVED_FROM = {"oracle.yes", "reconstruct.inner_s", "reconstruct.lz_queries", "reconstruct.lz_budget"}
TIME_KEYS = [k for k in LAYER_KEYS if k.endswith((".s", "_s"))]
COUNT_KEYS = [k for k in LAYER_KEYS if k not in TIME_KEYS and k not in DERIVED_FROM]


def one_pass(mode: str, workload: str, seed: int) -> dict:
    """Run one pass in a child interpreter and return its result, with the
    child's set-up time (interpreter start, imports, input generation) and
    the factor that scales its times to reference seconds."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(SWEEP), mode, workload, str(seed)],
        capture_output=True, text=True, timeout=PASS_TIMEOUT_S, cwd=HERE.parent,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} pass of {workload} exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["setup_s"] = out["ready"] - spawned
    return out


def repeat_passes(modes: tuple[str, ...], workload: str, seed: int, seconds: float) -> dict[str, list[dict]]:
    """Cycle through `modes` until the next cycle would end after `seconds`,
    and at least MIN_PASSES times."""
    passes: dict[str, list[dict]] = {m: [] for m in modes}
    start = time.monotonic()
    cycles: list[float] = []
    while len(cycles) < MIN_PASSES or time.monotonic() - start + statistics.median(cycles) <= seconds:
        t0 = time.monotonic()
        for m in modes:
            passes[m].append(one_pass(m, workload, seed))
        cycles.append(time.monotonic() - t0)
    return passes


def end_to_end(plain: list[dict]) -> dict[str, float]:
    med = statistics.median
    return {
        "sweep_s": med(p["sweep_s"] * p["scale"] for p in plain),
        "recon_sym_per_s": med(p["symbols"] / (p["recon_s"] * p["scale"]) for p in plain),
        "queries": plain[0]["queries"],
        "peak_rss_mb": med(p["peak_rss_mb"] for p in plain),
        "setup_s": med(p["setup_s"] * p["scale"] for p in plain),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, tuple[float, str]]:
    med = statistics.median
    lay = {k: med(p["layers"][k] * p["scale"] for p in traced) for k in TIME_KEYS}
    first = traced[0]["layers"]
    lay.update((k, first[k]) for k in COUNT_KEYS)
    traced_sweep = med(p["sweep_s"] * p["scale"] for p in traced)
    out = {k: (v, "s" if k in TIME_KEYS else "count") for k, v in lay.items() if k not in DERIVED_FROM}
    out["oracle.yes_ratio"] = (first["oracle.yes"] / first["oracle.calls"], "ratio")
    out["reconstruct.self_s"] = (lay["reconstruct.s"] - lay["reconstruct.inner_s"], "s")
    budget = first["reconstruct.lz_budget"]
    out["reconstruct.phrase_budget_ratio"] = (first["reconstruct.lz_queries"] / budget if budget else 0.0, "ratio")
    out["trace.sweep_s"] = (traced_sweep, "s")
    out["trace.overhead"] = (traced_sweep / med(p["sweep_s"] * p["scale"] for p in plain), "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.trace:
        passes = repeat_passes(("plain", "traced"), args.workload, args.seed, args.seconds)
        passes["digest"] = [one_pass("digest", args.workload, args.seed)]
    else:
        passes = repeat_passes(("plain",), args.workload, args.seed, args.seconds)
    every = [p for ps in passes.values() for p in ps]
    attempted = sum(p["runs"] for p in every)
    failed = sum(p["failed"] for p in every)
    for p in every:
        for msg in p["failures"]:
            print(f"failed run: {msg}", file=sys.stderr)
    # queries are deterministic: every pass, traced or not, must ask the same
    queries = {p["queries"] for p in every}
    if args.trace:
        queries.update(p["layers"]["oracle.calls"] for p in passes["traced"])
    correct = failed == 0 and len(queries) == 1
    if len(queries) != 1:
        print(f"query totals differ between passes: {sorted(queries)}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(passes["plain"], passes["traced"])
        traced_sweep = metrics["trace.sweep_s"][0]
        shares = {k: round(v / traced_sweep, 4) for k, (v, unit) in metrics.items()
                  if unit == "s" and k != "trace.sweep_s"}
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "digest": passes["digest"][0]["digest"], "shares": shares}))
        result = {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()}
    else:
        result = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in end_to_end(passes["plain"]).items()}
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "wall_sweep_s": [p["sweep_s"] for p in passes["plain"]],
                          "scale": [p["scale"] for p in passes["plain"]]}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
