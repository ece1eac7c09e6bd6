"""Symbol sequences over dense integer alphabets.

Strings are stored as ``bytes`` whose values are symbols in ``[1..sigma]``.
Value 0 is reserved and never appears in user alphabets.
"""
from __future__ import annotations

from dataclasses import dataclass

MAX_SIGMA = 255


@dataclass(frozen=True)
class Text:
    """An immutable string over the integer alphabet ``[1..sigma]``."""

    symbols: bytes
    sigma: int

    def __post_init__(self) -> None:
        if not 1 <= self.sigma <= MAX_SIGMA:
            raise ValueError(f"sigma must be in [1, {MAX_SIGMA}], got {self.sigma}")
        if self.symbols and not 1 <= min(self.symbols) <= max(self.symbols) <= self.sigma:
            raise ValueError("symbols must lie in [1..sigma]")

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)


def from_letters(s: str, sigma: int | None = None) -> Text:
    """Build a Text from letters, case-insensitively: a/A -> 1, b/B -> 2, ..."""
    syms = bytearray()
    for ch in s:
        v = ord(ch.lower()) - ord("a") + 1
        if not 1 <= v <= 26:
            raise ValueError(f"not a letter: {ch!r}")
        syms.append(v)
    if sigma is None:
        sigma = max(syms) if syms else 1
    return Text(bytes(syms), sigma)


def _spell(t: Text | bytes, digits: str) -> str:
    """t with symbol s as digits[s - 1]; ValueError if digits lacks one."""
    syms = t.symbols if isinstance(t, Text) else t
    if syms and not 1 <= min(syms) <= max(syms) <= len(digits):
        raise ValueError(f"only the symbols 1..{len(digits)} spell as {digits[0]}..{digits[-1]}")
    return "".join(digits[s - 1] for s in syms)


def to_letters(t: Text | bytes) -> str:
    return _spell(t, "abcdefghijklmnopqrstuvwxyz")


def from_bits(bits: str) -> Text:
    """Build a binary Text from a 0/1 string ('0' -> symbol 1, '1' -> symbol 2)."""
    if any(c not in "01" for c in bits):
        raise ValueError("expected a string of 0s and 1s")
    return Text(bytes(int(c) + 1 for c in bits), 2)


def to_bits(t: Text | bytes) -> str:
    return _spell(t, "01")


def from_raw_bytes(data: bytes) -> Text:
    """Map raw bytes to a dense alphabet by first occurrence (1, 2, ...)."""
    if not data:
        raise ValueError("empty input")
    remap: dict[int, int] = {}
    out = bytearray()
    for b in data:
        v = remap.get(b)
        if v is None:
            v = len(remap) + 1
            if v > MAX_SIGMA:
                raise ValueError(f"more than {MAX_SIGMA} distinct byte values")
            remap[b] = v
        out.append(v)
    return Text(bytes(out), len(remap))
