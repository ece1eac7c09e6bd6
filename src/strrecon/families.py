"""Deterministic generators for benchmark string families.

Families span the compressibility spectrum: random (incompressible), unary
and periodic (tiny run/phrase counts), fibonacci and thue-morse (classic
low-complexity words), runs(k) (fixed-length runs), and copy-paste(r)
(random seed grown by r copy operations, so few LZ phrases).
"""
from __future__ import annotations

import random
import re

from .text import MAX_SIGMA, Text

_PLAIN = ("random", "unary", "periodic", "fibonacci", "thue-morse")
FAMILIES = _PLAIN + ("runs(k)", "copy-paste(r)")

_PARAMETRIC_RE = re.compile(r"(runs|copy-paste)\((\d+)\)\Z")


def check_args(family: str, n: int, sigma: int) -> tuple[str, int]:
    """(kind, parameter) of a family name: ("runs", k) for runs(k),
    ("copy-paste", r) for copy-paste(r), (family, 0) for the others.
    Raises ValueError for arguments `generate` cannot serve: n below 1, sigma
    outside [1, MAX_SIGMA], an unknown name, a parameter below 1, or a binary
    family with sigma != 2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 1 <= sigma <= MAX_SIGMA:
        raise ValueError(f"sigma must be in [1, {MAX_SIGMA}], got {sigma}")
    m = _PARAMETRIC_RE.match(family)
    if m and int(m.group(2)) >= 1:
        return m.group(1), int(m.group(2))
    if family not in _PLAIN:
        raise ValueError(f"unknown family {family!r}; known: {', '.join(FAMILIES)} with k, r >= 1")
    if family in ("fibonacci", "thue-morse") and sigma != 2:
        raise ValueError(f"{family} strings are binary")
    return family, 0


def generate(family: str, n: int, sigma: int, seed: int = 0) -> Text:
    """A length-n string of the given family; pure in all four arguments."""
    kind, k = check_args(family, n, sigma)
    if kind == "random":
        rng = random.Random(seed)
        return Text(bytes(rng.choices(range(1, sigma + 1), k=n)), sigma)
    if kind == "unary":
        return Text(b"\x01" * n, sigma)
    if kind == "periodic":
        block = bytes((i % sigma) + 1 for i in range(max(2, sigma)))
        reps = -(-n // len(block))
        return Text((block * reps)[:n], sigma)
    if kind == "fibonacci":
        a, b = b"\x01", b"\x01\x02"
        while len(b) < n:
            a, b = b, b + a
        return Text(b[:n], 2)
    if kind == "thue-morse":
        return Text(bytes((i.bit_count() & 1) + 1 for i in range(n)), 2)
    if kind == "runs":  # runs of length k
        out = bytearray()
        sym = 0
        while len(out) < n:
            out.extend(bytes(((sym % sigma) + 1,)) * k)
            sym += 1
        return Text(bytes(out[:n]), sigma)
    # copy-paste: a random seed grown by k copy operations
    rng = random.Random(seed)
    seed_len = max(1, n // (k + 1))
    out = bytearray(rng.choices(range(1, sigma + 1), k=min(n, seed_len)))
    while len(out) < n:
        take = max(1, min(len(out), -(-(n - len(out)) // k)))
        start = rng.randrange(0, len(out) - take + 1)
        out.extend(out[start : start + take])
    return Text(bytes(out[:n]), sigma)
