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


def test_letters_round_trip():
    t = from_letters("aZb")
    assert t.symbols == b"\x01\x1a\x02" and t.sigma == 26
    assert to_letters(t) == "azb"
    assert from_letters("abc", sigma=5).sigma == 5
    with pytest.raises(ValueError):
        from_letters("a b")


def test_bits_round_trip():
    t = from_bits("0110")
    assert t.symbols == b"\x01\x02\x02\x01" and t.sigma == 2
    assert to_bits(t) == "0110"
    with pytest.raises(ValueError):
        from_bits("012")


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
