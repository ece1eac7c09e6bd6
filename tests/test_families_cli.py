"""String family generators, the CSV/sweep formats, and the CLI."""
from __future__ import annotations

import csv
import io
import math
import re
from pathlib import Path

import pytest

from strrecon import (
    MeasureReport,
    QueryStats,
    ReconstructionReport,
    Text,
    generate,
    measure,
    parse_sweep,
    to_letters,
)
from strrecon.bench import CSV_HEADER, TABLE, emit_csv, run_experiments, run_one
from strrecon.cli import main
from strrecon.families import FAMILIES


# ------------------------------------------------------------------ families

def test_families_are_deterministic_and_sized():
    for family in ("random", "unary", "periodic", "fibonacci", "thue-morse",
                   "runs(3)", "copy-paste(2)"):
        sigma = 2 if family in ("fibonacci", "thue-morse") else 3
        a = generate(family, 37, sigma, seed=5)
        b = generate(family, 37, sigma, seed=5)
        assert a == b
        assert len(a) == 37 and a.sigma == sigma
        assert all(1 <= s <= sigma for s in a.symbols)


def test_random_seeds_differ():
    assert generate("random", 50, 2, seed=0) != generate("random", 50, 2, seed=1)


def test_fibonacci_prefix():
    assert to_letters(generate("fibonacci", 8, 2)) == "abaababa"
    with pytest.raises(ValueError):
        generate("fibonacci", 8, 3)


def test_thue_morse_prefix():
    assert to_letters(generate("thue-morse", 8, 2)) == "abbabaab"
    with pytest.raises(ValueError):
        generate("thue-morse", 8, 3)


def test_unary_and_periodic():
    u = generate("unary", 6, 4)
    assert u.symbols == b"\x01" * 6
    assert measure(u).rle == 1
    p = generate("periodic", 7, 3)
    assert to_letters(p) == "abcabca"


def test_runs_family():
    t = generate("runs(3)", 10, 2)
    assert to_letters(t) == "aaabbbaaab"
    with pytest.raises(ValueError):
        generate("runs(0)", 10, 2)


def test_copy_paste_is_compressible():
    t = generate("copy-paste(8)", 400, 4, seed=1)
    rnd = generate("random", 400, 4, seed=1)
    assert measure(t).z < measure(rnd).z
    with pytest.raises(ValueError):
        generate("copy-paste(0)", 10, 2)


def test_unknown_family_and_bad_n():
    with pytest.raises(ValueError):
        generate("nope", 10, 2)
    with pytest.raises(ValueError):
        generate("random", 0, 2)
    assert "runs(k)" in FAMILIES


# ----------------------------------------------------------------- csv/sweep

def read_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def test_csv_round_trip():
    rows = [
        run_one("naive", generate("random", 30, 2, seed=0), family="random"),
        run_one("rle", generate("unary", 30, 2, seed=0), family="unary"),
    ]
    text = emit_csv(rows)
    assert text.splitlines()[0] == CSV_HEADER == (
        "algo,family,n,sigma,rle,z,z_no,phrases,sub_q,pre_q,sym_total,ms,exact,bound_ok")
    read = read_csv(text)
    assert len(read) == len(rows)
    for row, cells in zip(rows, read):
        for name, cell in cells.items():
            value = getattr(row, name)
            if isinstance(value, bool):
                assert cell == ("1" if value else "0"), name
            else:
                assert cell == str(value), name


def test_parse_sweep_cartesian_product():
    sweep = parse_sweep(io.StringIO(
        "# comment line\n"
        "algo=naive,rle family=random n=10,20 sigma=2 seed=3 # trailing\n"
        "algo=naive family=unary n=5 repeat=2\n"
    ))
    assert len(sweep) == 2 * 1 * 2 * 1 + 2
    assert sweep[0] == {"algo": "naive", "family": "random", "n": 10, "sigma": 2, "seed": 3}
    seeds = [e["seed"] for e in sweep if e["family"] == "unary"]
    assert seeds == [0, 1]


def test_parse_sweep_errors():
    with pytest.raises(ValueError):
        parse_sweep(io.StringIO("algo=naive n=10\n"))  # missing family
    with pytest.raises(ValueError):
        parse_sweep(io.StringIO("algo naive family=x n=1\n"))
    with pytest.raises(ValueError):
        parse_sweep(io.StringIO("algo=naive family=random n=10 bogus=1\n"))


@pytest.mark.parametrize(
    "bad, message",
    [("algo=naive,nope family=random n=10", "line 2: unknown algo 'nope'"),
     ("algo=universal-identity family=random n=8,17", "line 2: universal-identity needs n <= 16"),
     ("algo=universal-identity family=random n=8 sigma=3",
      "line 2: universal reconstruction handles binary strings only"),
     ("algo=naive family=random,nope n=10", "line 2: unknown family 'nope'"),
     ("algo=naive family=fibonacci n=10 sigma=3", "line 2: fibonacci strings are binary"),
     ("algo=naive family=random,thue-morse n=10 sigma=2,4", "line 2: thue-morse strings are binary"),
     ("algo=naive family=random n=10,0", "line 2: n must be >= 1"),
     ("algo=naive family=random n=10 seed=x", "line 2: invalid literal for int()"),
     ("algo=naive family=random n=10 repeat=0",
      "line 2: repeat must be one integer >= 1, got '0'"),
     ("algo=naive family=random n=10 repeat=x",
      "line 2: repeat must be one integer >= 1, got 'x'"),
     ("algo=naive family=random n=10 repeat=2,3",
      "line 2: repeat must be one integer >= 1, got '2,3'"),
     ("algo=naive family=random n=10 sigma=0", "line 2: sigma must be in [1, 255], got 0"),
     ("algo=naive family=unary n=10 sigma=256", "line 2: sigma must be in [1, 255], got 256"),
     ("algo=naive family=random n=10 n=20", "line 2: repeated key 'n'")],
    ids=["unknown-algo", "universal-over-cap", "universal-nonbinary", "unknown-family",
         "fibonacci-sigma", "thue-morse-sigma", "n-zero", "seed-not-int", "repeat-zero",
         "repeat-not-int", "repeat-list", "sigma-zero", "sigma-over-cap", "repeated-key"],
)
def test_parse_sweep_rejects_a_bad_group_before_running(bad, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_sweep(io.StringIO("algo=naive family=random n=10\n" + bad + "\n"))


def test_cli_bench_rejects_a_bad_group_before_running(tmp_path, capsys):
    sweep = tmp_path / "sweep.txt"
    for bad, message in [("algo=nope family=random n=25", "unknown algo 'nope'"),
                         ("algo=naive family=bogus n=25", "unknown family 'bogus'"),
                         ("algo=naive family=random n=25 repeat=0", "repeat must be"),
                         ("algo=naive family=random n=25 sigma=0", "sigma must be in"),
                         ("algo=naive family=random n=25 sigma=256", "sigma must be in"),
                         ("algo=naive family=random n=25 n=30", "repeated key 'n'")]:
        sweep.write_text("algo=naive family=random n=25\n" + bad + "\n")
        with pytest.raises(SystemExit, match=f"^sweep line 2: {re.escape(message)}"):
            main(["bench", "--sweep", str(sweep)])
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""
    with pytest.raises(SystemExit, match="No such file"):
        main(["bench", "--sweep", str(tmp_path / "missing.txt")])


def test_readme_algorithm_table_matches_the_bounds():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Algorithms", 1)[1].split("\n\n", 2)[1]
    # each row's names, its "queries used" cell, which must name the
    # QueryStats field its bound limits, and its bound cell (the row's last
    # code span; it may hold the pipes of |code|)
    counters, bounds = {}, {}
    for row in table.splitlines()[2:]:
        cells = row.split("|")
        for name in re.findall(r"`([^`]+)`", cells[1]):
            counters[name] = cells[2].strip()
            bounds[name] = re.findall(r"`([^`]+)`", row)[-1]
    assert counters == {name: row.counter.removesuffix("_queries") for name, row in TABLE.items()}
    assert bounds.keys() == TABLE.keys()
    # each bound cell, read over sigma, n, rle, p and |code|, is TABLE's bound
    samples = [  # (measures, phrases emitted, code length)
        (MeasureReport(n=16, sigma=2, rle=5, z=4, z_no=5), 4, 9),
        (MeasureReport(n=1000, sigma=26, rle=1000, z=400, z_no=420), 380, 1000),
        (MeasureReport(n=4096, sigma=4, rle=1500, z=300, z_no=310), 290, 2047),
    ]
    for name, cell in bounds.items():
        expr = re.sub(r"log2 (\w+)", r"log2(\1)", cell.replace("|code|", "code"))
        for m, p, code in samples:
            rep = ReconstructionReport(Text(b"\x01", 1), QueryStats(), [], name,
                                       phrases_emitted=p, extras={"code_length": code})
            names = {"sigma": m.sigma, "n": m.n, "rle": m.rle, "p": p, "code": code}
            value = eval(expr, {"__builtins__": {}, "log2": math.log2}, names)
            assert value == pytest.approx(TABLE[name].bound(rep, m)), (name, cell, m)


def test_run_experiments_all_algorithms():
    sweep = parse_sweep(io.StringIO(
        "algo=naive,rle,lz-prefix,lz-substring family=random,periodic n=40 sigma=3\n"
        "algo=universal-identity,universal-rle-bits family=random n=10\n"
    ))
    rows = run_experiments(sweep, log=None)
    assert len(rows) == 10
    assert all(r.exact and r.bound_ok for r in rows)


# ----------------------------------------------------------------------- cli

def test_cli_measure(capsys):
    assert main(["measure", "--family", "unary", "--n", "16", "--sigma", "2"]) == 0
    out = capsys.readouterr().out
    assert "n=16" in out and "rle=1" in out and "z=2" in out and "z_no=5" in out


def test_cli_measure_file(tmp_path, capsys):
    p = tmp_path / "input.bin"
    p.write_bytes(b"abbabba")
    assert main(["measure", str(p)]) == 0
    out = capsys.readouterr().out
    assert "z=4" in out and "z_no=5" in out and "sigma=2" in out


def test_cli_measure_empty_file(tmp_path):
    p = tmp_path / "empty.bin"
    p.write_bytes(b"")
    with pytest.raises(SystemExit):
        main(["measure", str(p)])


def test_cli_measure_rejects_bad_input(tmp_path):
    with pytest.raises(SystemExit, match="^unknown family 'bogus'"):
        main(["measure", "--family", "bogus", "--n", "5"])
    for family in ("random", "periodic"):
        with pytest.raises(SystemExit, match=r"^sigma must be in \[1, 255\], got 0$"):
            main(["measure", "--family", family, "--n", "5", "--sigma", "0"])
    with pytest.raises(SystemExit, match="No such file"):
        main(["measure", str(tmp_path / "missing.bin")])
    path = tmp_path / "input.bin"
    path.write_bytes(b"abbabba")
    with pytest.raises(SystemExit, match=r"^give either a file or --family, not both$"):
        main(["measure", str(path), "--family", "fibonacci", "--n", "50"])


def test_cli_reconstruct(capsys):
    rc = main(["reconstruct", "--algo", "rle", "--family", "periodic",
               "--n", "50", "--sigma", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = read_csv(out)
    assert len(rows) == 1
    assert rows[0]["algo"] == "rle" and rows[0]["exact"] == rows[0]["bound_ok"] == "1"


def test_cli_reconstruct_rejects_a_file_with_a_family(tmp_path, capsys):
    path = tmp_path / "input.bin"
    path.write_bytes(b"abbabba")
    with pytest.raises(SystemExit, match=r"^give either a file or --family, not both$"):
        main(["reconstruct", "--algo", "naive", "--file", str(path), "--family", "unary"])
    assert capsys.readouterr().out == ""


def test_cli_universal(capsys):
    rc = main(["universal", "--compressor", "rle-bits", "--family", "unary",
               "--n", "12", "--sigma", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = read_csv(out)
    assert len(rows) == 1
    assert rows[0]["algo"] == "universal-rle-bits" and rows[0]["exact"] == "1"


def test_cli_universal_rejects_nonbinary():
    with pytest.raises(SystemExit):
        main(["universal", "--compressor", "identity", "--family", "random",
              "--n", "8", "--sigma", "3"])


def test_cli_universal_rejects_n_above_the_cap_before_generating(tmp_path, monkeypatch):
    def no_generate(*args):
        raise AssertionError("generated a string above the cap")

    monkeypatch.setattr("strrecon.cli.generate", no_generate)
    with pytest.raises(SystemExit, match=r"^universal-identity needs n <= 16, got n=20$"):
        main(["universal", "--compressor", "identity", "--family", "random", "--n", "20"])
    path = tmp_path / "long.bin"
    path.write_bytes(b"ab" * 10)
    with pytest.raises(SystemExit, match=r"^universal-rle-bits needs n <= 16, got n=20$"):
        main(["universal", "--compressor", "rle-bits", "--file", str(path)])


def test_cli_bench(tmp_path, capsys):
    sweep = tmp_path / "sweep.txt"
    sweep.write_text("algo=naive,rle family=random n=25 sigma=2 repeat=2\n")
    rc = main(["bench", "--sweep", str(sweep)])
    captured = capsys.readouterr()
    assert rc == 0
    rows = read_csv(captured.out)
    assert len(rows) == 4
    assert [r["algo"] for r in rows] == ["naive", "naive", "rle", "rle"]
    assert all(r["exact"] == r["bound_ok"] == "1" for r in rows)


def test_cli_requires_input():
    with pytest.raises(SystemExit):
        main(["reconstruct", "--algo", "naive"])


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
