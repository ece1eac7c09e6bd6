"""The suffix automaton against brute-force substring sets, and the one
build that measure() and the oracle's right cursors share."""
from __future__ import annotations

import gc
import io
import itertools
import random
import tracemalloc

import pytest

from strrecon import (
    Oracle,
    generate,
    measure,
    parse_sweep,
    reconstruct_lz_substring,
    reconstruct_naive,
    reconstruct_rle,
)
from strrecon.automaton import SuffixAutomaton
from strrecon.bench import run_experiments

RIGHT_CURSOR_ALGOS = (reconstruct_naive, reconstruct_rle, reconstruct_lz_substring)


def walk(sam: SuffixAutomaton, t) -> int | None:
    """The state reached from the root by reading t, or None."""
    s = 0
    for c in t:
        s = sam.next[s].get(c)
        if s is None:
            return None
    return s


def endpos(s: bytes, u: bytes) -> frozenset[int]:
    return frozenset(i + len(u) - 1 for i in range(len(s) - len(u) + 1)
                     if s.startswith(u, i))


def check_against_brute_force(s: bytes) -> None:
    """State and transition counts, untracked transition dicts, walks of
    every string of length <= 4 over the symbols of s plus 0 and max(s) + 1,
    one state per endpos class, and the first-occurrence end of every
    state."""
    sam = SuffixAutomaton(s)
    states = len(sam.next)
    assert states <= 2 * len(s) - 1
    if len(s) >= 3:
        assert sum(map(len, sam.next)) <= 3 * len(s) - 4
    assert not any(map(gc.is_tracked, sam.next))
    substrings = {s[i:j] for i in range(len(s)) for j in range(i + 1, len(s) + 1)}
    # one state per endpos class, plus the root
    assert states == 1 + len({endpos(s, u) for u in substrings})
    probe_symbols = sorted(set(s) | {0, max(s) + 1})
    for k in range(1, 5):
        for t in map(bytes, itertools.product(probe_symbols, repeat=k)):
            state = walk(sam, t)
            assert (state is not None) == (t in substrings)
    min_end = sam.finalize_min_end()
    classes: dict[int, frozenset[int]] = {}
    for u in substrings:
        state = walk(sam, u)
        assert state is not None and classes.setdefault(state, endpos(s, u)) == endpos(s, u)
        assert min_end[state] == min(endpos(s, u))


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


@pytest.mark.parametrize("sigma", [2, 26, 255])
def test_build_memory_follows_the_transitions(sigma):
    """A build over random text holds at most 700 traced bytes per symbol,
    whatever the alphabet: its transition dicts grow with the transitions,
    not with sigma."""
    n = 10**4
    rng = random.Random(sigma)
    s = bytes(rng.randint(1, sigma) for _ in range(n))
    tracemalloc.start()
    try:
        sam = SuffixAutomaton(s)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(sam.next) > n
    assert held <= 700 * n, f"{held / n:.0f} bytes per symbol"


# ------------------------------------------------------------- shared build

@pytest.fixture
def builds(monkeypatch) -> list[bytes]:
    """The string of every SuffixAutomaton built from now on, in order, with
    no build remembered at the start."""
    built: list[bytes] = []
    init = SuffixAutomaton.__init__

    def counting_init(self, data):
        built.append(bytes(data))
        init(self, data)

    monkeypatch.setattr(SuffixAutomaton, "__init__", counting_init)
    monkeypatch.setattr(SuffixAutomaton, "_last", None)
    return built


def test_measure_then_right_cursors_build_once(builds):
    t = generate("random", 300, 4, 1)
    measure(t)
    for algo in RIGHT_CURSOR_ALGOS:
        assert algo(Oracle(t), t.sigma).recovered.symbols == t.symbols
    assert builds == [t.symbols]


def test_a_cli_sweep_builds_once_per_string(builds):
    # the sweep lists algo outermost; every right cursor must still reuse
    # the build measure() made of its string
    sweep = parse_sweep(io.StringIO(
        "algo=naive,rle,lz-substring,lz-prefix family=random n=200 sigma=16 repeat=3\n"))
    log = io.StringIO()
    rows = run_experiments(sweep, log=log)
    assert builds == [generate("random", 200, 16, seed).symbols for seed in range(3)]
    assert [r.algo for r in rows] == [exp["algo"] for exp in sweep]
    assert all(r.exact and r.bound_ok for r in rows)
    assert [line.split()[1] for line in log.getvalue().splitlines()] == [r.algo for r in rows]


def test_a_different_string_builds_again(builds):
    t = generate("random", 300, 4, 1)
    other = generate("random", 300, 4, 2)
    measure(t)
    assert reconstruct_naive(Oracle(other), other.sigma).recovered.symbols == other.symbols
    assert reconstruct_rle(Oracle(t), t.sigma).recovered.symbols == t.symbols
    assert builds == [t.symbols, other.symbols, t.symbols]


def test_an_equal_distinct_string_reuses_the_build(builds):
    a = bytes(range(1, 40)) * 3
    b = bytes(bytearray(a))
    assert a == b and a is not b
    sam = SuffixAutomaton(a)
    assert SuffixAutomaton.of(b) is sam
    assert builds == [a]


def test_a_mutated_bytearray_cannot_poison_a_lookup(builds):
    buf = bytearray(b"\x01\x02\x01\x02")
    sam = SuffixAutomaton(buf)
    buf[0] = 3
    assert sam.data == b"\x01\x02\x01\x02" and isinstance(sam.data, bytes)
    for key in (buf, bytes(buf)):
        fresh = SuffixAutomaton.of(key)
        assert fresh is not sam and fresh.data == bytes(buf)
        assert walk(fresh, b"\x03\x02") is not None and walk(fresh, b"\x01\x02\x01") is None
    assert builds == [b"\x01\x02\x01\x02", bytes(buf)]


@pytest.mark.parametrize("algo", RIGHT_CURSOR_ALGOS, ids=lambda f: f.__name__)
def test_a_reused_build_gives_the_same_report(builds, algo):
    t = generate("copy-paste(4)", 400, 3, 7)
    fresh = algo(Oracle(t), t.sigma)  # its right cursor builds
    SuffixAutomaton._last = None
    measure(t)
    reused = algo(Oracle(t), t.sigma)  # its right cursor reuses measure's build
    assert builds == [t.symbols, t.symbols]
    assert reused.stats == fresh.stats
    assert reused.recovered.symbols == fresh.recovered.symbols == t.symbols
    assert reused.phrases_emitted == fresh.phrases_emitted
