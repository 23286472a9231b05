"""Tests for the experiment orchestration layer (repro.exp).

The layer's contract: a run is a pure function of its spec.  The same
grid executed serially and with worker processes must yield
byte-identical per-seed results, the tuner registry must round-trip
every name, and JSONL artifacts must rehydrate.
"""

import json

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.exp import (
    ExperimentRunner,
    ExperimentSpec,
    RunBudget,
    RunResult,
    WorkloadSpec,
    execute_spec,
    grid,
    load_artifacts,
    make_tuner,
    tuner_names,
    workload_names,
)
from repro.rl import Hyperparameters

TINY_HP = Hyperparameters(
    hidden_layer_size=8,
    exploration_ticks=20,
    sampling_ticks_per_observation=3,
)


def tiny_spec(**overrides) -> ExperimentSpec:
    defaults = dict(
        cluster=ClusterConfig(n_servers=2, n_clients=2),
        workload=WorkloadSpec(
            "random_rw", {"read_fraction": 0.1, "instances_per_client": 2}
        ),
        hp=TINY_HP,
        budget=RunBudget(train_ticks=6, eval_ticks=4, epoch_ticks=3),
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestRegistry:
    def test_expected_tuners_registered(self):
        assert tuner_names() == [
            "capes",
            "evolution",
            "hill_climb",
            "random",
            "static",
        ]

    def test_round_trips_every_name(self):
        for name in tuner_names():
            tuner = make_tuner(name, seed=0)
            assert tuner.name == name
            assert callable(tuner.run)

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="unknown tuner"):
            make_tuner("annealing")

    def test_workload_registry(self):
        assert set(workload_names()) >= {"random_rw", "fileserver", "seqwrite"}
        with pytest.raises(KeyError, match="unknown workload"):
            WorkloadSpec("bonnie")


class TestSpec:
    def test_grid_expansion_order_and_ids(self):
        specs = grid(tiny_spec(), tuners=["capes", "static"], seeds=[0, 1, 2])
        assert len(specs) == 6
        assert [s.spec_id for s in specs[:3]] == [
            "random_rw/capes/seed0",
            "random_rw/capes/seed1",
            "random_rw/capes/seed2",
        ]
        assert specs[3].tuner == "static"

    def test_grid_per_tuner_kwargs_overlay(self):
        specs = grid(
            tiny_spec(tuner_kwargs={"seed": 5}),
            tuners=["capes", "static"],
            seeds=[0],
            tuner_kwargs={"capes": {"loss": "huber"}},
        )
        assert specs[0].tuner_kwargs == {"seed": 5, "loss": "huber"}
        assert specs[1].tuner_kwargs == {"seed": 5}
        # Grids must not share mutable kwargs dicts.
        specs[0].tuner_kwargs["loss"] = "mse"
        assert specs[1].tuner_kwargs == {"seed": 5}

    def test_spec_is_picklable(self):
        import pickle

        spec = tiny_spec()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.workload == spec.workload
        assert clone.budget == spec.budget

    def test_to_dict_is_json_able(self):
        d = tiny_spec(tuner="random").to_dict()
        json.dumps(d)
        assert d["spec_id"] == "random_rw/random/seed0"

    def test_budget_normalizes_int(self):
        assert RunBudget(train_ticks=10).segments == (10,)
        assert RunBudget(train_ticks=(5, 5)).total_train_ticks == 10
        with pytest.raises(ValueError):
            RunBudget(train_ticks=0)


class TestExecution:
    def test_every_tuner_runs_end_to_end(self):
        for name in tuner_names():
            result = execute_spec(tiny_spec(tuner=name))
            assert result.tuner == name
            assert len(result.phases) == 1
            final = result.final
            assert final.baseline_rewards.shape == (4,)
            assert final.tuned_rewards.shape == (4,)
            assert final.final_params

    def test_multi_checkpoint_budget(self):
        spec = tiny_spec(budget=RunBudget(train_ticks=(6, 4), eval_ticks=4))
        result = execute_spec(spec)
        assert [p.trained_ticks for p in result.phases] == [6, 10]

    def test_result_dict_round_trip(self):
        result = execute_spec(tiny_spec(tuner="static"))
        clone = RunResult.from_dict(result.to_dict())
        assert json.dumps(clone.to_dict(), sort_keys=True) == json.dumps(
            result.to_dict(), sort_keys=True
        )


class TestRunnerDeterminism:
    def _grid(self):
        return grid(tiny_spec(), tuners=["capes", "static"], seeds=[0, 1, 2])

    def test_serial_and_parallel_results_byte_identical(self, tmp_path):
        specs = self._grid()
        serial = ExperimentRunner(jobs=1, artifacts_dir=tmp_path / "s").run(
            specs
        )
        parallel = ExperimentRunner(jobs=2, artifacts_dir=tmp_path / "p").run(
            specs
        )
        assert len(serial) == len(parallel) == len(specs)
        for a, b in zip(serial.results, parallel.results):
            assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
                b.to_dict(), sort_keys=True
            )

    def test_rerun_is_deterministic(self):
        spec = tiny_spec(tuner="capes", seed=7)
        a, b = execute_spec(spec), execute_spec(spec)
        assert np.array_equal(a.final.tuned_rewards, b.final.tuned_rewards)
        assert np.array_equal(
            a.final.baseline_rewards, b.final.baseline_rewards
        )


class TestArtifactsAndSummary:
    def test_jsonl_streaming_and_reload(self, tmp_path):
        specs = grid(tiny_spec(), tuners=["static"], seeds=[0, 1])
        results = ExperimentRunner(jobs=1, artifacts_dir=tmp_path).run(specs)
        lines = load_artifacts(tmp_path / "runs.jsonl")
        assert [d["index"] for d in lines] == [0, 1]
        for line, record in zip(lines, results):
            rehydrated = RunResult.from_dict(line["result"])
            assert np.array_equal(
                rehydrated.final.tuned_rewards,
                record.result.final.tuned_rewards,
            )
            assert line["spec"]["spec_id"] == record.spec.spec_id
            assert line["duration_s"] > 0

    def test_summary_groups_by_scenario_and_tuner(self):
        specs = grid(tiny_spec(), tuners=["capes", "static"], seeds=[0, 1])
        results = ExperimentRunner().run(specs)
        rows = results.summarize()
        assert [(r.tuner, r.n_seeds) for r in rows] == [
            ("capes", 2),
            ("static", 2),
        ]
        for row in rows:
            assert row.tuned_ci_low <= row.tuned_mean <= row.tuned_ci_high
        table = results.format_table(unit_scale=100.0, unit=" MB/s")
        assert "capes" in table and "static" in table

    def test_empty_run(self):
        results = ExperimentRunner().run([])
        assert len(results) == 0
        assert results.summarize() == []
