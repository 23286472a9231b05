"""Scenario subsystem: reproducible fault/perturbation timelines.

The ROADMAP's "as many scenarios as you can imagine" leg: a
:class:`~repro.scenarios.scenario.Scenario` turns the simulated
cluster into a generator of hard, *reproducible* workloads — degraded
disks, congestion bursts, client churn — scheduled on the environment
tick timeline and seeded through :func:`~repro.util.rng.derive_rng` so
a scenario run is as bit-replayable as a steady-state one.

Attach a scenario three ways:

- ``EnvConfig(scenario=make_scenario("sim-lustre-bursty"))``;
- ``make_env("sim-lustre", scenario="sim-lustre-bursty", ...)`` or the
  pre-registered ``make_env("sim-lustre-bursty", seed=S)``;
- ``ExperimentSpec(scenario="sim-lustre-bursty")`` /
  ``repro sweep --scenario sim-lustre-bursty``.
"""

from repro.scenarios.events import (
    ClientChurn,
    DiskDegradation,
    LoadSpike,
    NetworkCongestionWindow,
    ScenarioError,
    ScenarioEvent,
    WorkloadPhaseShift,
    event_from_dict,
    event_to_dict,
)
from repro.scenarios.registry import (
    has_scenario,
    make_scenario,
    register_scenario,
    register_scenario_resolver,
    scenario_names,
)
from repro.scenarios.scenario import Scenario, ScenarioRuntime

# Importing the fuzzer installs its name resolver, so the
# fuzz-<root_seed>-<index> / "fuzzed" scenario families resolve in
# every process that can name a scenario at all (CLI, spec workers).
# The heavyweight scoring imports inside it are lazy.
from repro.scenarios.fuzz import (  # noqa: E402  (resolver side effect)
    ScenarioFuzzer,
    mutate_timeline,
    sample_scenario,
    sample_timeline,
)

__all__ = [
    "ClientChurn",
    "DiskDegradation",
    "LoadSpike",
    "NetworkCongestionWindow",
    "Scenario",
    "ScenarioError",
    "ScenarioEvent",
    "ScenarioFuzzer",
    "ScenarioRuntime",
    "WorkloadPhaseShift",
    "event_from_dict",
    "event_to_dict",
    "has_scenario",
    "make_scenario",
    "mutate_timeline",
    "register_scenario",
    "register_scenario_resolver",
    "sample_scenario",
    "sample_timeline",
    "scenario_names",
]
