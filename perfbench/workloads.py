"""The benchmark's workloads: which hidden strings each one reconstructs and
with which algorithms, generated from a seed.

Importing this module puts the checkout's ``src`` first on ``sys.path`` and
refuses any other copy of ``strrecon``, so the benchmark always measures the
code next to it.
"""
from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import strrecon  # noqa: E402
from strrecon import Text, generate  # noqa: E402

if not Path(strrecon.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"strrecon imported from {strrecon.__file__}, not from {SRC}")

QUERY_ALGOS = ("naive", "rle", "lz-prefix", "lz-substring")
LZ_ALGOS = ("lz-substring", "lz-prefix")
SCAN_ALGOS = ("naive", "rle")
UNIVERSAL_ALGOS = ("universal-identity", "universal-rle-bits")

# A case is one hidden string and the algorithms run on it; measure() runs
# once per case.
Case = tuple[Text, tuple[str, ...]]


def _relabel(t: Text, rng: random.Random) -> Text:
    perm = list(range(1, t.sigma + 1))
    rng.shuffle(perm)
    table = bytearray(range(256))
    table[1 : t.sigma + 1] = perm
    return Text(t.symbols.translate(table), t.sigma)


def hidden_string(family: str, n: int, sigma: int, rng: random.Random) -> Text:
    """One length-n string of `family`. The seeded families get a seed drawn
    from rng. The deterministic ones (periodic, fibonacci, thue-morse) ignore
    the seed, so they are cut at a drawn offset and their alphabet relabelled
    by a drawn permutation: another seed gives another string of the same
    structure."""
    if family == "random" or family.startswith("copy-paste("):
        return generate(family, n, sigma, rng.randrange(1 << 32))
    offset = rng.randrange(n)
    t = generate(family, n + offset, sigma)
    return _relabel(Text(t.symbols[offset:], sigma), rng)


def _lz_lowent(rng: random.Random) -> list[Case]:
    # Few LZ phrases over small alphabets: the suffix tree, snapshots and
    # centroid decompositions do most of the work, the oracle little.
    specs = ([("random", 2)] * 4 + [("random", 4)] * 2
             + [("fibonacci", 2), ("thue-morse", 2)] + [("copy-paste(8)", 4)] * 2)
    return [(hidden_string(f, 5_000, s, rng), LZ_ALGOS) for f, s in specs]


def _scan_random(rng: random.Random) -> list[Case]:
    # Large alphabets on random text: long, ever-extending substring queries
    # that the oracle's anchor cache answers.
    return [(hidden_string("random", 5_000, s, rng), QUERY_ALGOS) for s in (16, 16, 26, 26)]


def _scan_periodic(rng: random.Random) -> list[Case]:
    # Periodic text: bytes.find inside the oracle is nearly all the work and
    # the phrase machinery is never reached.
    return [(hidden_string("periodic", 6_000, 26, rng), SCAN_ALGOS)]


def _binary_exhaustive(rng: random.Random) -> list[Case]:
    # Every binary string of a few small lengths: no seed enters, thousands
    # of tiny runs, and the only workload that reaches the universal tables.
    del rng
    small = [Text(bytes(t), 2) for n in range(1, 11) for t in itertools.product((1, 2), repeat=n)]
    big = [Text(bytes(t), 2) for t in itertools.product((1, 2), repeat=12)]
    return [(t, QUERY_ALGOS) for t in small] + [(t, UNIVERSAL_ALGOS) for t in big]


WORKLOADS = {
    "lz-lowent": _lz_lowent,
    "scan-random": _scan_random,
    "scan-periodic": _scan_periodic,
    "binary-exhaustive": _binary_exhaustive,
}


def cases(workload: str, seed: int) -> list[Case]:
    """The workload's inputs; pure in (workload, seed)."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
