"""The suffix automaton against brute-force substring sets."""
from __future__ import annotations

import itertools
import random

import pytest

from strrecon.automaton import SuffixAutomaton


def walk(sam: SuffixAutomaton, t) -> int | None:
    """The state reached from the root by reading t, or None."""
    s = 0
    for c in t:
        if c >= len(sam.next[s]):
            return None
        s = sam.next[s][c]
        if not s:
            return None
    return s


def endpos(s: bytes, u: bytes) -> frozenset[int]:
    return frozenset(i + len(u) - 1 for i in range(len(s) - len(u) + 1)
                     if s.startswith(u, i))


def check_against_brute_force(s: bytes) -> None:
    """State count, row width, walks of every string of length <= 4 over the
    symbols of s plus 0 and max(s) + 1, and one state per endpos class."""
    sam = SuffixAutomaton(s)
    states = len(sam.length)
    assert len(sam.next) == len(sam.link) == states <= 2 * len(s) - 1
    assert {len(row) for row in sam.next} == {max(s) + 1}
    substrings = {s[i:j] for i in range(len(s)) for j in range(i + 1, len(s) + 1)}
    # one state per endpos class, plus the root
    assert states == 1 + len({endpos(s, u) for u in substrings})
    min_end = sam.finalize_min_end()
    probe_symbols = sorted(set(s) | {0, max(s) + 1})
    for k in range(1, 5):
        for t in map(bytes, itertools.product(probe_symbols, repeat=k)):
            state = walk(sam, t)
            if t in substrings:
                assert state is not None and min_end[state] == min(endpos(s, t))
            else:
                assert state is None
    classes: dict[int, frozenset[int]] = {}
    for u in substrings:
        state = walk(sam, u)
        assert state is not None and classes.setdefault(state, endpos(s, u)) == endpos(s, u)


@pytest.mark.parametrize("alphabet", [(1, 3), (2, 5, 9), (1,), (4, 254)], ids=str)
def test_automaton_matches_brute_force(alphabet):
    """Random strings whose symbols leave gaps in the alphabet."""
    rng = random.Random(5)
    for n in (2, 3, 7, 12, 30):
        for _ in range(6):
            check_against_brute_force(bytes(rng.choice(alphabet) for _ in range(n)))


def test_empty_and_single_symbol():
    sam = SuffixAutomaton(b"")
    assert len(sam.next) == 1 and walk(sam, b"\x01") is None
    sam = SuffixAutomaton(b"\x03")
    assert len(sam.next) == 2 and walk(sam, b"\x03") == 1
    assert walk(sam, b"\x03\x03") is None and walk(sam, b"\x02") is None
