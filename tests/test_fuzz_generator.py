"""Properties of the fuzzed-scenario generator (repro.scenarios.fuzz).

Reproducibility is the load-bearing half of the fuzzer: a frontier
entry is only evidence if its ``fuzz-<root_seed>-<index>`` name
rebuilds the exact timeline in any process.  These tests pin that —
golden blake2b digests of the canonical event serialization (computed
once; every pytest run is a fresh interpreter, so matching them *is*
the cross-invocation check, same style as test_scenario_golden.py) —
plus the structural properties every generated timeline must hold:
picklable, composable via ``+``, registry-resolvable, and honouring
the WorkloadPhaseShift disjointness contract.
"""

import hashlib
import json
import math
import pickle

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.scenarios import (
    Scenario,
    ScenarioEvent,
    WorkloadPhaseShift,
    event_from_dict,
    event_to_dict,
    has_scenario,
    make_scenario,
    sample_scenario,
    sample_timeline,
    scenario_names,
)
from repro.scenarios.fuzz import (
    DEFAULT_HORIZON,
    SEEDED_BURSTY_NAME,
    repair_timeline,
    seeded_bursty_events,
)
from repro.util.rng import derive_rng, ensure_rng

import fuzz_strategies as fuzz_st

#: blake2b-128 over the canonical (sort_keys) JSON serialization of
#: ``sample_scenario(root_seed, index).events``.  Computed once and
#: pinned: drift means fuzzed frontier entries stopped being one-line
#: repros across invocations — a regression, not a constant to refresh.
GOLDEN_TIMELINE_DIGESTS = {
    (17, 0): "0fadeb2e81ebc16be06a76f0a4ef253e",
    (17, 1): "208e933265aa56803de2d422bbd6bba0",
    (17, 2): "537689051cecf406d1d3e9868e8969c7",
    (42, 0): "39f5d910e47b96bc6ea52cb9025a2702",
    (42, 7): "e44f86ac724171ae174dfa7507dffe00",
}


def timeline_digest(events) -> str:
    """Canonical digest of an event tuple (JSON, sorted keys)."""
    canon = json.dumps([event_to_dict(e) for e in events], sort_keys=True)
    return hashlib.blake2b(canon.encode(), digest_size=16).hexdigest()


class TestNameDerivation:
    @pytest.mark.parametrize(
        "root_seed,index", sorted(GOLDEN_TIMELINE_DIGESTS)
    )
    def test_pinned_timeline_digest(self, root_seed, index):
        sc = sample_scenario(root_seed, index)
        assert timeline_digest(sc.events) == GOLDEN_TIMELINE_DIGESTS[
            (root_seed, index)
        ], (
            f"fuzz-{root_seed}-{index} drifted: fuzzed timelines are no "
            f"longer byte-identically re-derivable across invocations"
        )

    def test_sampling_is_pure_in_root_seed_and_index(self):
        # derive_rng consumes parent state, so purity here means the
        # generator builds a fresh root every call — earlier draws of
        # other indices must not shift later ones.
        a = sample_scenario(99, 3)
        for i in range(3):
            sample_scenario(99, i)
        assert sample_scenario(99, 3) == a

    def test_registry_resolves_fuzz_names(self):
        sc = sample_scenario(42, 7)
        assert has_scenario("fuzz-42-7")
        assert make_scenario("fuzz-42-7") == sc
        # The family is unbounded, so it stays out of the exact-name
        # enumeration the benchmarks iterate exhaustively.
        assert "fuzz-42-7" not in scenario_names()
        assert not has_scenario("fuzz-42-")
        assert not has_scenario("fuzz-x-7")

    def test_seeded_bursty_resolves(self):
        sc = make_scenario(SEEDED_BURSTY_NAME)
        assert sc.events == seeded_bursty_events()
        assert len(sc.events) > 0

    def test_fuzzed_factory_round_trips_serialized_events(self):
        sc = sample_scenario(42, 0)
        wire = json.loads(
            json.dumps([event_to_dict(e) for e in sc.events])
        )
        rebuilt = make_scenario("fuzzed", name="anything", events=wire)
        assert rebuilt.events == sc.events


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(events=fuzz_st.timelines())
def test_generated_timelines_hold_structural_invariants(events):
    assert 1 <= len(events)
    for ev in events:
        assert isinstance(ev, ScenarioEvent)
        assert 1 <= ev.at_tick <= DEFAULT_HORIZON
        assert ev.duration_ticks is None or ev.duration_ticks >= 0
    # Picklable (specs carry timelines across process boundaries).
    assert pickle.loads(pickle.dumps(events)) == events
    # Composable via + (merged timeline preserves both event tuples).
    merged = Scenario("a", events) + Scenario("b", events)
    assert merged.events == events + events
    # Serialization round-trips exactly (floats are repr-exact).
    wire = json.loads(json.dumps([event_to_dict(e) for e in events]))
    assert tuple(event_from_dict(d) for d in wire) == events
    # Registry-resolvable through the "fuzzed" factory.
    assert make_scenario("fuzzed", events=wire).events == events
    # Repair is a fixpoint: generated timelines are already repaired.
    assert repair_timeline(events) == events


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(events=fuzz_st.timelines())
def test_phase_shift_windows_are_knob_disjoint(events):
    # WorkloadPhaseShift sets absolutes (set/restore does not compose),
    # so the generator must keep same-knob windows disjoint.
    occupied = {"read_fraction": [], "think_time": []}
    for ev in events:
        if not isinstance(ev, WorkloadPhaseShift) or ev.duration_ticks == 0:
            continue
        start = float(ev.at_tick)
        end = (
            math.inf
            if ev.duration_ticks is None
            else float(ev.at_tick + ev.duration_ticks)
        )
        for knob in ("read_fraction", "think_time"):
            if getattr(ev, knob) is None:
                continue
            assert not any(
                start < e and s < end for s, e in occupied[knob]
            ), f"overlapping {knob} phase-shift windows in {events}"
            occupied[knob].append((start, end))


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    root_seed=st.integers(min_value=0, max_value=2**31 - 1),
    index=st.integers(min_value=0, max_value=63),
)
def test_sampled_scenarios_rebuild_from_their_name(root_seed, index):
    sc = sample_scenario(root_seed, index)
    assert sc.name == f"fuzz-{root_seed}-{index}"
    rebuilt = make_scenario(sc.name)
    assert rebuilt == sc
    assert timeline_digest(rebuilt.events) == timeline_digest(sc.events)


def test_sample_timeline_is_a_pure_function_of_the_stream():
    rng1 = derive_rng(ensure_rng(5), "x")
    rng2 = derive_rng(ensure_rng(5), "x")
    assert sample_timeline(rng1) == sample_timeline(rng2)
