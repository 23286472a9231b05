"""Scenario adaptation: the DQN tuner vs the static baseline under
fault/perturbation timelines.

The paper's pitch is that a DQN tuner *adapts* while a fixed
configuration goes stale.  For every registered scenario this bench
runs one compressed CAPES session and one static-default session
against the same perturbed cluster and records the tuned-throughput
delta into ``BENCH_scenarios.json`` at the repository root — the
scoreboard CI job (``pytest -m slow``) uploads it, so the adaptation
trajectory is tracked run over run.

Event timings are compressed so every scenario keeps perturbing
through the final measurement window; the assertion is on coverage and
sanity (every scenario measured, finite positive throughputs), not on
the delta's sign — compressed sessions are far too short to promise a
win per scenario, and that claim belongs to the figure benches.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.exp import ExperimentSpec, RunBudget, WorkloadSpec, execute_spec
from repro.rl import Hyperparameters
from repro.scenarios import scenario_names

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_scenarios.json"

BENCH_HP = Hyperparameters(
    hidden_layer_size=32,
    exploration_ticks=60,
    sampling_ticks_per_observation=3,
    adam_learning_rate=1e-3,
)

TRAIN_TICKS = 60
EVAL_TICKS = 30
EPOCH_TICKS = 15

#: One capes run spans ~3 (warm) + 60 (train) + 2×30 (eval) ticks;
#: these timings keep each timeline perturbing into the eval window.
SCENARIO_KW = {
    "sim-lustre-degraded": dict(start_tick=20),
    "sim-lustre-bursty": dict(
        first_tick=20, period=30, n_bursts=4, duration=10
    ),
    "sim-lustre-churn": dict(
        first_tick=20, period=30, absence_ticks=15, n_cycles=4
    ),
}


def _spec(
    scenario: str,
    tuner: str,
    train_ticks: int = TRAIN_TICKS,
    eval_ticks: int = EVAL_TICKS,
    epoch_ticks: int = EPOCH_TICKS,
) -> ExperimentSpec:
    return ExperimentSpec(
        tuner=tuner,
        seed=42,
        scenario=scenario,
        scenario_kwargs=SCENARIO_KW.get(scenario, {}),
        cluster=ClusterConfig(n_servers=2, n_clients=3),
        workload=WorkloadSpec(
            "random_rw", {"read_fraction": 0.1, "instances_per_client": 5}
        ),
        hp=BENCH_HP,
        budget=RunBudget(
            train_ticks=train_ticks,
            eval_ticks=eval_ticks,
            epoch_ticks=epoch_ticks,
        ),
    )


def scenario_row(scenario: str, **ticks) -> dict:
    """The capes/static spec pair for one scenario, as its JSON row;
    ``ticks`` overrides :func:`_spec`'s tick counts."""
    capes = execute_spec(_spec(scenario, "capes", **ticks)).final
    static = execute_spec(_spec(scenario, "static", **ticks)).final
    capes_tuned = float(np.mean(capes.tuned_rewards))
    static_tuned = float(np.mean(static.tuned_rewards))
    # Diagnose a dead system here, before the delta divides by it.
    assert static_tuned > 0, (scenario, static_tuned)
    return {
        "capes_tuned": round(capes_tuned, 5),
        "static_tuned": round(static_tuned, 5),
        "capes_baseline": round(float(np.mean(capes.baseline_rewards)), 5),
        "tuner_vs_static_pct": round(
            100.0 * (capes_tuned - static_tuned) / static_tuned, 2
        ),
    }


@pytest.mark.slow
def test_scenario_adaptation_records_bench_json():
    rows = {scenario: scenario_row(scenario) for scenario in scenario_names()}
    result = {
        "train_ticks": TRAIN_TICKS,
        "eval_ticks": EVAL_TICKS,
        "scenarios": rows,
    }
    OUT_PATH.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"\nscenario adaptation: {json.dumps(result)}")
    # Coverage: a delta for every registered scenario, and sane numbers.
    assert set(rows) == set(scenario_names())
    for scenario, row in rows.items():
        assert np.isfinite(row["tuner_vs_static_pct"]), (scenario, row)
        assert row["capes_tuned"] > 0, (scenario, row)
        assert row["static_tuned"] > 0, (scenario, row)
