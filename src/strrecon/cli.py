"""Command-line front end.

Subcommands:
  measure      print compressibility measures of a string
  reconstruct  run one reconstruction algorithm and emit a CSV row
  universal    run the candidate-set algorithm under a chosen compressor
  bench        run a sweep file and emit one CSV row per experiment

CSV goes to stdout, diagnostics to stderr. Exit status is 0 only when every
emitted row is exact and within its query bound; a rejected input exits 1
with one line on stderr.
"""
from __future__ import annotations

import argparse
import sys

from . import bench
from .families import generate
from .measures import grammar_size_bound, measure
from .text import Text, from_raw_bytes


def _load_text(args) -> tuple[Text, str]:
    """(string, family tag) from a file or from the --family options."""
    if args.file and args.family:
        raise ValueError("give either a file or --family, not both")
    if args.file:
        with open(args.file, "rb") as fh:
            data = fh.read()
        if not data:
            raise ValueError(f"{args.file}: empty input")
        return from_raw_bytes(data), "file"
    if args.family:
        return generate(args.family, args.n, args.sigma, args.seed), args.family
    raise ValueError("need either a file argument or --family")


def _add_input_options(sub, positional_file: bool = False) -> None:
    if positional_file:
        sub.add_argument("file", nargs="?", help="raw byte file (dense-remapped alphabet)")
    else:
        sub.add_argument("--file", help="raw byte file (dense-remapped alphabet)")
    sub.add_argument("--family", help="generated family, e.g. random, unary, runs(3)")
    sub.add_argument("--n", type=int, default=100, help="generated length (default 100)")
    sub.add_argument("--sigma", type=int, default=2, help="generated alphabet size (default 2)")
    sub.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")


def _cmd_measure(args) -> int:
    hidden, _ = _load_text(args)
    rep = measure(hidden)
    print(f"n={rep.n}")
    print(f"sigma={rep.sigma}")
    print(f"rle={rep.rle}")
    print(f"z={rep.z}")
    print(f"z_no={rep.z_no}")
    print(f"grammar_bound_reference={grammar_size_bound(rep):.1f}")
    for key, value in bench.reference_floors(rep).items():
        print(f"{key}={value:.1f}", file=sys.stderr)
    return 0


def _emit(rows) -> int:
    sys.stdout.write(bench.emit_csv(rows))
    bad = [r for r in rows if not (r.exact and r.bound_ok)]
    for r in bad:
        print(f"FAIL: {r.algo} on {r.family} n={r.n}: exact={int(r.exact)} "
              f"bound_ok={int(r.bound_ok)}", file=sys.stderr)
    return 1 if bad else 0


def _cmd_run(args) -> int:
    """reconstruct and universal: one run of one algorithm, one CSV row."""
    algo = args.algo if args.command == "reconstruct" else f"universal-{args.compressor}"
    if not args.file:
        bench.check_input(algo, args.n, args.sigma)  # before generating anything
    hidden, family = _load_text(args)
    return _emit([bench.run_one(algo, hidden, family=family)])


def _cmd_bench(args) -> int:
    with open(args.sweep, encoding="utf-8") as fh:
        sweep = bench.parse_sweep(fh)
    rows = bench.run_experiments(sweep, log=sys.stderr)
    return _emit(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="strrecon",
        description="reconstruct hidden strings from substring/prefix queries",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("measure", help="compressibility measures of a string")
    _add_input_options(p, positional_file=True)
    p.set_defaults(func=_cmd_measure)

    p = subs.add_parser("reconstruct", help="run one reconstruction algorithm")
    p.add_argument("--algo", required=True, choices=sorted(bench.ALGORITHMS))
    _add_input_options(p)
    p.set_defaults(func=_cmd_run)

    p = subs.add_parser("universal", help="candidate-set reconstruction (binary)")
    p.add_argument("--compressor", required=True, choices=sorted(bench.COMPRESSORS))
    _add_input_options(p)
    p.set_defaults(func=_cmd_run)

    p = subs.add_parser("bench", help="run a sweep file")
    p.add_argument("--sweep", required=True, help="line-oriented key=value sweep file")
    p.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:  # a rejected input: one line on stderr, exit 1
        raise SystemExit(str(e)) from None


if __name__ == "__main__":
    raise SystemExit(main())
