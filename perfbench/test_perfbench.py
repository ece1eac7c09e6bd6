"""Tests of the benchmark itself: seeded inputs, failure counting, and the
traced pass's agreement with an untraced one.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import random

import pytest

import sweep
import workloads
from strrecon import Oracle, Text, generate
from strrecon.bench import ALGORITHMS
from strrecon.reconstruct import ReconstructionReport


def _small_cases() -> list[workloads.Case]:
    rng = random.Random(7)
    strings = [workloads.hidden_string(f, 300, s, rng)
               for f, s in (("random", 2), ("random", 16), ("periodic", 5), ("fibonacci", 2))]
    six = [Text(bytes(rng.choices((1, 2), k=6)), 2) for _ in range(3)]
    return [(t, workloads.QUERY_ALGOS) for t in strings] + [(t, workloads.UNIVERSAL_ALGOS) for t in six]


@pytest.mark.parametrize("name", ["lz-lowent", "scan-random", "scan-periodic"])
def test_workload_inputs_are_pure_in_the_seed(name):
    first = workloads.cases(name, 3)
    assert first == workloads.cases(name, 3)
    assert [t for t, _ in first] != [t for t, _ in workloads.cases(name, 4)]


def test_binary_exhaustive_ignores_the_seed():
    assert workloads.cases("binary-exhaustive", 0) == workloads.cases("binary-exhaustive", 1)


@pytest.mark.parametrize("family,sigma", [("periodic", 26), ("fibonacci", 2), ("thue-morse", 2)])
def test_deterministic_families_vary_by_seed_but_keep_their_structure(family, sigma):
    base = generate(family, 3000, sigma)
    seen = set()
    for seed in range(6):
        t = workloads.hidden_string(family, 1000, sigma, random.Random(seed))
        assert len(t) == 1000 and t.sigma == sigma
        # an offset and a relabelling: some window of the base string maps
        # onto t symbol for symbol
        assert any(_maps_onto(base.symbols[i : i + 1000], t.symbols) for i in range(2000))
        seen.add(t.symbols)
    assert len(seen) > 1


def _maps_onto(a: bytes, b: bytes) -> bool:
    pairs = set(zip(a, b))
    return len({x for x, _ in pairs}) == len(pairs) == len({y for _, y in pairs})


def _truncating(o, sigma):
    rep = ALGORITHMS["naive"](o, sigma)
    return ReconstructionReport(Text(rep.recovered.symbols[:-1] or b"\x01\x01", sigma),
                                rep.stats, rep.phases, "naive")


def _raising(o, sigma):
    o.contains_substring(b"\x01")
    raise RuntimeError("deliberate")


def _over_budget(o, sigma):
    for _ in range(sigma * (len(o) + 3)):
        o.contains_substring(b"\x01")
    return ALGORITHMS["naive"](o, sigma)


@pytest.mark.parametrize("wrong", [_truncating, _raising, _over_budget])
def test_a_wrong_reconstructor_counts_as_failed(wrong):
    cases = [(t, ("naive", "rle")) for t, _ in _small_cases()[:4]]
    algorithms = dict(ALGORITHMS, naive=wrong)
    for res in (sweep.plain_pass(cases, algorithms), sweep.traced_pass(cases, algorithms)):
        assert res.runs == 8
        assert res.failed == 4
        assert res.symbols == sum(len(t) for t, _ in cases)
        assert len(res.failures) == 4 and all(f.startswith("naive") for f in res.failures)
    sweep.check_unwrapped()


def test_traced_counts_match_oracle_stats_and_reports():
    cases = _small_cases()
    queries = phrases = 0
    for t, algos in cases:
        for algo in algos:
            if algo in ALGORITHMS:
                o = Oracle(t)
                phrases += ALGORITHMS[algo](o, t.sigma).phrases_emitted
                queries += o.stats().total_queries
    plain = sweep.plain_pass(cases)
    traced = sweep.traced_pass(cases)
    sweep.check_unwrapped()
    assert plain.failed == traced.failed == 0
    assert traced.queries == plain.queries
    assert traced.layers["oracle.calls"] == plain.queries
    assert traced.layers["reconstruct.phrases"] == plain.layers["reconstruct.phrases"] == phrases
    universal_queries = plain.queries - queries
    assert universal_queries > 0
    assert traced.layers["universal.calls"] == 6
    assert traced.layers["measures.calls"] == len(cases)
    assert traced.layers["suffix_tree.snapshots"] == traced.layers["centroid.calls"] > 0
    assert traced.layers["automaton.states"] > 0


def test_wrappers_are_restored_when_a_traced_pass_raises():
    with pytest.raises(ValueError):
        sweep.traced_pass([(b"", ("naive",))])  # measure() rejects the empty string
    sweep.check_unwrapped()


def test_check_unwrapped_detects_a_leftover_wrapper():
    lay = dict.fromkeys(sweep.LAYER_KEYS, 0)
    with sweep.traced_layers(lay):
        with pytest.raises(RuntimeError):
            sweep.check_unwrapped()
    sweep.check_unwrapped()


def test_digest_is_deterministic_and_sees_the_transcript():
    cases = _small_cases()
    res, first = sweep.digest_pass(cases)
    assert res.failed == 0
    assert sweep.digest_pass(cases)[1] == first
    assert sweep.digest_pass(cases[::-1])[1] != first
