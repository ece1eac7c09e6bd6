"""Oracle behavior checked against brute-force scans."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from strrecon import Oracle, Text


def mk(symbols: bytes, sigma: int | None = None) -> Text:
    return Text(symbols, sigma or max(symbols))


symbols = st.integers(min_value=1, max_value=3)
strings = st.binary(min_size=1, max_size=60).map(
    lambda b: bytes((x % 3) + 1 for x in b)
)
queries = st.binary(min_size=0, max_size=20).map(
    lambda b: bytes((x % 3) + 1 for x in b)
)


def test_rejects_empty_hidden():
    with pytest.raises(ValueError):
        Oracle(Text(b"", 1))


@given(strings, queries)
@settings(max_examples=400)
def test_matches_brute_force_scan(s, q):
    o = Oracle(mk(s, 3))
    expected_sub = any(s[i : i + len(q)] == q for i in range(len(s) - len(q) + 1))
    assert o.contains_substring(q) == expected_sub
    assert o.is_prefix(q) == (s[: len(q)] == q)


@given(strings, queries)
@settings(max_examples=200)
def test_prefix_implies_substring(s, q):
    o = Oracle(mk(s, 3))
    if o.is_prefix(q):
        assert o.contains_substring(q)


def test_empty_query_is_true_and_counted():
    o = Oracle(mk(b"\x01\x02"))
    assert o.contains_substring(b"")
    assert o.is_prefix(b"")
    st_ = o.stats()
    assert st_.substring_queries == 1
    assert st_.prefix_queries == 1
    assert st_.total_queried_symbols == 0
    assert st_.max_query_length == 0


def test_counters_are_exact_and_count_repeats():
    o = Oracle(mk(b"\x01\x02\x01"))
    o.contains_substring(b"\x01\x02")
    o.contains_substring(b"\x01\x02")
    o.is_prefix(b"\x01\x02\x01\x01")
    st_ = o.stats()
    assert st_.substring_queries == 2
    assert st_.prefix_queries == 1
    assert st_.total_queried_symbols == 2 + 2 + 4
    assert st_.max_query_length == 4
    assert st_.total_queries == 3


def test_stats_returns_a_snapshot():
    o = Oracle(mk(b"\x01"))
    before = o.stats()
    o.contains_substring(b"\x01")
    assert before.substring_queries == 0
    assert o.stats().substring_queries == 1


def test_bytearray_and_text_queries_accepted():
    o = Oracle(mk(b"\x01\x02\x01"))
    assert o.contains_substring(bytearray(b"\x02\x01"))
    assert o.is_prefix(bytearray(b"\x01\x02"))
    assert o.contains_substring(Text(b"\x01\x02", 2))
    assert o.is_prefix(Text(b"\x01", 1))


def test_long_extension_sequences_match_brute_force():
    # stresses the answer cache: long anchors extended on both sides,
    # interleaved with unrelated probes
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(30, 300)
        s = bytes(rng.randint(1, 2) for _ in range(n))
        o = Oracle(Text(s, 2))
        i = rng.randrange(0, n - 15)
        core = s[i : i + 14]
        for _ in range(80):
            roll = rng.random()
            if roll < 0.4:
                q = core + bytes(rng.randint(1, 2) for _ in range(rng.randint(0, 6)))
            elif roll < 0.8:
                q = bytes(rng.randint(1, 2) for _ in range(rng.randint(0, 4))) + core
            else:
                q = bytes(rng.randint(1, 2) for _ in range(rng.randint(1, 20)))
            assert o.contains_substring(q) == (q in s), (s, q)
