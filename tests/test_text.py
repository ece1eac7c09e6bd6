"""Alphabet handling and conversions."""
from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from strrecon import Text, from_bits, from_letters, from_raw_bytes, to_bits, to_letters
from strrecon.text import MAX_SIGMA


def test_validation():
    with pytest.raises(ValueError):
        Text(b"\x01", 0)
    with pytest.raises(ValueError):
        Text(b"\x01", MAX_SIGMA + 1)
    with pytest.raises(ValueError):
        Text(b"\x03", 2)
    with pytest.raises(ValueError):
        Text(b"\x00", 2)  # 0 is reserved
    assert len(Text(b"", 1)) == 0


@pytest.mark.parametrize("sigma", [1, 2, 26, MAX_SIGMA])
def test_validation_reads_every_symbol(sigma):
    # a long valid run of every symbol, then one bad symbol at the very end
    body = bytes(range(1, sigma + 1)) * (5000 // sigma + 1)
    assert Text(body, sigma).symbols == body
    for bad in (0, sigma + 1):
        if bad <= 255:
            with pytest.raises(ValueError, match=r"symbols must lie in \[1\.\.sigma\]"):
                Text(body + bytes([bad]), sigma)


def test_letters_round_trip():
    t = from_letters("aZb")
    assert t.symbols == b"\x01\x1a\x02" and t.sigma == 26
    assert to_letters(t) == "azb"
    assert from_letters("abc", sigma=5).sigma == 5
    with pytest.raises(ValueError):
        from_letters("a b")
    # symbols past z, and the reserved 0, have no letter
    for syms in (b"\x1b\x1c", b"\x01\x1b", b"\x00", Text(b"\x01\x1b", 27)):
        with pytest.raises(ValueError, match=r"only the symbols 1\.\.26"):
            to_letters(syms)


def test_bits_round_trip():
    t = from_bits("0110")
    assert t.symbols == b"\x01\x02\x02\x01" and t.sigma == 2
    assert to_bits(t) == "0110"
    with pytest.raises(ValueError):
        from_bits("012")
    for syms in (b"\x03", b"\x01\x02\x03", b"\x00", from_letters("abc")):
        with pytest.raises(ValueError, match=r"only the symbols 1\.\.2"):
            to_bits(syms)


def test_raw_bytes_dense_remap():
    t = from_raw_bytes(b"banana")
    assert t.sigma == 3
    assert t.symbols == b"\x01\x02\x03\x02\x03\x02"
    with pytest.raises(ValueError):
        from_raw_bytes(b"")


def test_raw_bytes_full_range():
    t = from_raw_bytes(bytes(range(255)))
    assert t.sigma == 255
    with pytest.raises(ValueError):
        from_raw_bytes(bytes(range(256)))


@given(st.text(alphabet="abcdefgh", min_size=0, max_size=40))
def test_letters_are_inverse(s):
    assert to_letters(from_letters(s)) == s


@given(st.text(alphabet="01", min_size=1, max_size=40))
def test_bits_are_inverse(s):
    assert to_bits(from_bits(s)) == s
