"""Tests for the search-based tuning baselines."""

import numpy as np
import pytest

from repro.baselines import (
    EvolutionStrategy,
    HillClimb,
    RandomSearch,
    StaticBaseline,
)
from repro.cluster import ClusterConfig
from repro.env import EnvConfig, StorageTuningEnv
from repro.rl import Hyperparameters
from repro.workloads import RandomReadWrite

FAST_HP = Hyperparameters(
    hidden_layer_size=8, sampling_ticks_per_observation=3
)


def make_env(seed=0):
    return StorageTuningEnv(
        EnvConfig(
            cluster=ClusterConfig(n_servers=2, n_clients=2),
            workload_factory=lambda c, s: RandomReadWrite(
                c, read_fraction=0.1, instances_per_client=3, seed=s
            ),
            hp=FAST_HP,
            seed=seed,
        )
    )


class TestStaticBaseline:
    def test_measures_defaults(self):
        tuner = StaticBaseline(make_env(), epoch_ticks=10)
        result = tuner.tune(budget=2)
        assert result.n_evaluations == 2
        assert result.best_params == {
            "max_rpcs_in_flight": 8.0,
            "io_rate_limit": 10_000.0,
        }
        assert result.best_score > 0


class TestRandomSearch:
    def test_respects_budget_and_ranges(self):
        tuner = RandomSearch(make_env(), epoch_ticks=5, seed=0)
        result = tuner.tune(budget=6)
        assert result.n_evaluations == 6
        for params, _score in result.evaluations:
            assert 1 <= params["max_rpcs_in_flight"] <= 64
            assert 50 <= params["io_rate_limit"] <= 10_000

    def test_best_is_max_of_trace(self):
        tuner = RandomSearch(make_env(), epoch_ticks=5, seed=1)
        result = tuner.tune(budget=5)
        assert result.best_score == max(s for _p, s in result.evaluations)

    def test_values_snap_to_step_grid(self):
        tuner = RandomSearch(make_env(), epoch_ticks=3, seed=2)
        result = tuner.tune(budget=4)
        # Skip the first evaluation: it measures the raw defaults, which
        # need not lie on the search grid.
        for params, _ in result.evaluations[1:]:
            w = params["max_rpcs_in_flight"]
            assert w == round(w)
            r = params["io_rate_limit"]
            assert (r - 50.0) % 250.0 == pytest.approx(0.0, abs=1e-9)


class TestHillClimb:
    def test_runs_within_budget(self):
        tuner = HillClimb(make_env(), epoch_ticks=5, seed=0)
        result = tuner.tune(budget=8)
        assert 1 <= result.n_evaluations <= 8

    def test_finds_improvement_on_write_heavy(self):
        """Default window 8 is in the collapse zone; climbing down helps."""
        tuner = HillClimb(make_env(seed=3), epoch_ticks=20, seed=0)
        result = tuner.tune(budget=10)
        default_score = result.evaluations[0][1]
        assert result.best_score >= default_score

    def test_multiplier_validation(self):
        with pytest.raises(ValueError):
            HillClimb(make_env(), initial_multiplier=0)


class TestEvolutionStrategy:
    def test_runs_within_budget(self):
        tuner = EvolutionStrategy(
            make_env(), epoch_ticks=5, seed=0, mu=2, lam=3
        )
        result = tuner.tune(budget=9)
        assert result.n_evaluations <= 9

    def test_children_stay_in_ranges(self):
        tuner = EvolutionStrategy(make_env(), epoch_ticks=3, seed=1, mu=2, lam=4)
        result = tuner.tune(budget=10)
        for params, _ in result.evaluations:
            assert 1 <= params["max_rpcs_in_flight"] <= 64
            assert 50 <= params["io_rate_limit"] <= 10_000

    def test_hyperparameter_validation(self):
        with pytest.raises(ValueError):
            EvolutionStrategy(make_env(), mu=0)
        with pytest.raises(ValueError):
            EvolutionStrategy(make_env(), sigma_fraction=0.0)


class TestSharedMachinery:
    def test_result_before_tune_rejected(self):
        tuner = StaticBaseline(make_env())
        with pytest.raises(RuntimeError):
            tuner._result()

    def test_epoch_ticks_validation(self):
        with pytest.raises(ValueError):
            StaticBaseline(make_env(), epoch_ticks=0)

    def test_measure_applies_params(self):
        env = make_env()
        tuner = StaticBaseline(env, epoch_ticks=3)
        tuner.measure({"max_rpcs_in_flight": 5, "io_rate_limit": 1000.0})
        assert env.current_params()["max_rpcs_in_flight"] == 5.0
