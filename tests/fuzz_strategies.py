"""Hypothesis strategies over the fuzzed-scenario space.

The fuzz property suites draw from these.  They are kept in lockstep
with the plain :mod:`repro.scenarios.fuzz` sampler: both generate the
same five event kinds over the same magnitude ranges, and both funnel
raw timelines through :func:`repro.scenarios.fuzz.repair_timeline` so
the WorkloadPhaseShift disjointness contract holds for every generated
timeline.

This module imports :mod:`hypothesis` at import time — a *test*
dependency — so it lives beside the suites, outside the package.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.scenarios.events import (
    ClientChurn,
    DiskDegradation,
    LoadSpike,
    NetworkCongestionWindow,
    WorkloadPhaseShift,
)
from repro.scenarios.fuzz import (
    DEFAULT_HORIZON,
    DEFAULT_MAX_EVENTS,
    repair_timeline,
)
from repro.scenarios.scenario import Scenario


def _factors(low: float, high: float) -> st.SearchStrategy:
    return st.floats(
        min_value=low, max_value=high, allow_nan=False, allow_infinity=False
    )


def at_ticks(horizon: int = DEFAULT_HORIZON) -> st.SearchStrategy:
    """Event fire ticks: ``[1, horizon]``."""
    return st.integers(min_value=1, max_value=horizon)


def durations(
    horizon: int = DEFAULT_HORIZON, allow_permanent: bool = True
) -> st.SearchStrategy:
    """Window lengths: zero-length no-ops through ``horizon // 2``
    ticks, plus ``None`` (permanent) when allowed."""
    windows = st.integers(min_value=0, max_value=max(1, horizon // 2))
    return st.none() | windows if allow_permanent else windows


def disk_degradations(horizon: int = DEFAULT_HORIZON) -> st.SearchStrategy:
    """Randomized :class:`~repro.scenarios.events.DiskDegradation`."""
    return st.builds(
        DiskDegradation,
        at_tick=at_ticks(horizon),
        duration_ticks=durations(horizon),
        server_index=st.integers(min_value=0, max_value=3),
        throughput_factor=_factors(0.05, 0.99),
        seek_factor=_factors(1.0, 8.0),
    )


def congestion_windows(horizon: int = DEFAULT_HORIZON) -> st.SearchStrategy:
    """Randomized :class:`~repro.scenarios.events.NetworkCongestionWindow`."""
    return st.builds(
        NetworkCongestionWindow,
        at_tick=at_ticks(horizon),
        duration_ticks=durations(horizon, allow_permanent=False),
        bandwidth_factor=_factors(0.01, 0.95),
        latency_factor=_factors(1.0, 10.0),
    )


def client_churns(horizon: int = DEFAULT_HORIZON) -> st.SearchStrategy:
    """Randomized :class:`~repro.scenarios.events.ClientChurn`."""
    return st.builds(
        ClientChurn,
        at_tick=at_ticks(horizon),
        duration_ticks=durations(horizon),
        client_index=st.integers(min_value=0, max_value=5),
    )


def phase_shifts(horizon: int = DEFAULT_HORIZON) -> st.SearchStrategy:
    """Randomized :class:`~repro.scenarios.events.WorkloadPhaseShift`
    (at least one knob always set, as validation requires)."""
    rf = _factors(0.0, 1.0)
    think = _factors(0.0, 0.5)
    knobs = st.one_of(
        st.tuples(rf, st.none()),
        st.tuples(st.none(), think),
        st.tuples(rf, think),
    )
    return st.builds(
        lambda at_tick, duration_ticks, pair: WorkloadPhaseShift(
            at_tick=at_tick,
            duration_ticks=duration_ticks,
            read_fraction=pair[0],
            think_time=pair[1],
        ),
        at_tick=at_ticks(horizon),
        duration_ticks=durations(horizon),
        pair=knobs,
    )


def load_spikes(horizon: int = DEFAULT_HORIZON) -> st.SearchStrategy:
    """Randomized :class:`~repro.scenarios.events.LoadSpike`."""
    return st.builds(
        LoadSpike,
        at_tick=at_ticks(horizon),
        duration_ticks=durations(horizon, allow_permanent=False),
        extra_instances_per_client=st.integers(min_value=1, max_value=4),
    )


def events(horizon: int = DEFAULT_HORIZON) -> st.SearchStrategy:
    """Any one of the five randomized event kinds."""
    return st.one_of(
        disk_degradations(horizon),
        congestion_windows(horizon),
        client_churns(horizon),
        phase_shifts(horizon),
        load_spikes(horizon),
    )


def timelines(
    horizon: int = DEFAULT_HORIZON, max_events: int = DEFAULT_MAX_EVENTS
) -> st.SearchStrategy:
    """Repaired event tuples of 1..``max_events`` events (overlap
    allowed except where :func:`repair_timeline` forbids it)."""
    return st.lists(
        events(horizon), min_size=1, max_size=max_events
    ).map(lambda evs: repair_timeline(tuple(evs)))


def scenarios(
    horizon: int = DEFAULT_HORIZON, max_events: int = DEFAULT_MAX_EVENTS
) -> st.SearchStrategy:
    """Whole :class:`~repro.scenarios.scenario.Scenario` objects over
    :func:`timelines` (named ``fuzz-strategy`` — these are drawn by
    hypothesis, not derivable from a registry name)."""
    return timelines(horizon, max_events).map(
        lambda evs: Scenario(name="fuzz-strategy", events=evs)
    )
