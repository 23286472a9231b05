"""Tests for monitoring-only collection and offline training."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.core import CapesSession
from repro.env import EnvConfig, StorageTuningEnv
from repro.rl import Hyperparameters
from repro.workloads import RandomReadWrite

FAST_HP = Hyperparameters(
    hidden_layer_size=8, sampling_ticks_per_observation=3, exploration_ticks=20
)


def make_session():
    env = StorageTuningEnv(
        EnvConfig(
            cluster=ClusterConfig(n_servers=2, n_clients=2),
            workload_factory=lambda c, s: RandomReadWrite(
                c, read_fraction=0.1, instances_per_client=2, seed=s
            ),
            hp=FAST_HP,
            seed=0,
        )
    )
    return CapesSession(env, seed=0)


class TestMonitoringOnlyAndOffline:
    def test_collect_records_null_actions(self):
        session = make_session()
        rewards = session.collect(10)
        assert rewards.shape == (10,)
        cache = session.env.db.cache
        ticks = [
            t
            for t in range(cache.min_tick, cache.max_tick)
            if cache.has(t) and cache.get(t).action >= 0
        ]
        assert ticks, "collect() must record actions"
        assert all(cache.get(t).action == 0 for t in ticks)
        # the DNN was never trained
        assert session.agent.train_steps == 0

    def test_train_offline_uses_collected_data(self):
        session = make_session()
        session.collect(20)
        losses = session.train_offline(10)
        assert len(losses) == 10
        assert np.isfinite(losses).all()
        # target system did not advance during offline training
        tick_before = session.env.tick
        session.train_offline(5)
        assert session.env.tick == tick_before

    def test_offline_then_online_workflow(self):
        """Collect → offline train → deploy greedy: the §3.3 life cycle."""
        session = make_session()
        session.collect(20)
        session.train_offline(20)
        result = session.evaluate(5)
        assert result.n_ticks == 5

    def test_validation(self):
        session = make_session()
        with pytest.raises(ValueError):
            session.collect(0)
        with pytest.raises(ValueError):
            session.train_offline(0)
