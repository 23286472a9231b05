"""Whole-state goldens for the vectorized fleet and its fan-in.

``tests/test_vec_golden.py`` pins ten ticks of observations and rewards
on two envs.  These digests see everything else a fleet tick writes:
recorded actions, every mutable state array, the record columns, ticks
dropped on the monitoring network, the shared fan-in store and its
frontier, a minibatch drawn from each, and a row driven out of
lockstep.  They were cut on the commit *before* the fleet hot path was
rewritten (slices in ``tick_all``, one vectorised action path,
observations off the record columns, one fan-in batch per step) and
are what "byte-identical" means for that rewrite.  The shared store is
hashed through its public reads, so it pins the stored rows and not
the layout that holds them; the values were recut on the ring store,
before the fleet's record columns replaced it.

A digest that changes means seeded vec sessions are no longer
replayable: a regression, not a constant to refresh.
"""

import hashlib

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.env import EnvConfig, VectorEnv
from repro.env.registry import _default_workload
from repro.rl import Hyperparameters

SEED = 23
HP = Hyperparameters(
    hidden_layer_size=8,
    exploration_ticks=20,
    sampling_ticks_per_observation=4,
)
ENV_KW = dict(cluster=ClusterConfig(n_servers=2, n_clients=3), hp=HP)

#: Record columns are hashed up to ``rec_len`` (spare capacity is not
#: state); the observation ring, where a commit still has one, is a
#: second copy of the newest records and is seen through the hashed
#: acting-step observations instead.
_SKIPPED = {
    "obs3", "obs_count",
    "rec_ticks", "rec_frames", "rec_actions", "rec_rewards",
}

GOLDEN = {
    "lockstep16": "c20b30faff9a07874ed9aa7e5ab33c07",
    "drops5": "f7f4f0685a3d249906b0725eee31de1b",
    "churn3": "ea177fe5c11867b5ff7109d4e7150da4",
    "ahead4": "b89df1d0853f1a87081dd92b896d0fc5",
}


class _Digest:
    def __init__(self):
        self._h = hashlib.blake2b(digest_size=16)

    def array(self, a, dtype=None):
        a = np.ascontiguousarray(a, dtype=dtype)
        self._h.update(str((a.dtype.str, a.shape)).encode())
        self._h.update(a.tobytes())

    def text(self, *values):
        self._h.update(repr(values).encode())

    def infos(self, infos):
        for info in infos:
            eff = info["effect"]
            self.text(
                int(info["tick"]),
                int(eff.action),
                eff.parameter,
                None if eff.old_value is None else float(eff.old_value),
                None if eff.new_value is None else float(eff.new_value),
                sorted((k, float(v)) for k, v in info["params"].items()),
                float(info["reward"]),
            )

    def fleet(self, fleet):
        st = fleet.state
        for name in st.MUTABLE_ARRAYS:
            if name not in _SKIPPED:
                self.array(getattr(st, name))
        for e in range(fleet.n_envs):
            n = int(st.rec_len[e])
            self.array(st.rec_ticks[e, :n])
            self.array(st.rec_frames[e, :n])
            self.array(st.rec_actions[e, :n])
            self.array(st.rec_rewards[e, :n])
            self.array(fleet.slot(e).current_observation())
        self.text(int(fleet.checker.vetoes))
        batch = fleet.make_sampler(seed=5, env_index=fleet.n_envs - 1)
        self.minibatch(batch.sample_minibatch(16))

    def store(self, venv):
        """The shared store through its public reads, block by block:
        the stored rows and nothing of how (or whether) the store pads
        them."""
        cache, stride = venv.shared_db.cache, venv.tick_stride
        for i in range(venv.n_envs):
            block = cache.records_between(i * stride, (i + 1) * stride - 1)
            for column in (
                block.ticks, block.frames, block.actions, block.rewards
            ):
                self.array(column)
        self.text(cache.min_tick, cache.max_tick, len(cache))
        self.text(venv.spans.tops())
        self.minibatch(venv.make_sampler(seed=3).sample_minibatch(32))

    def minibatch(self, batch):
        self.array(batch.s_t)
        self.array(batch.s_next)
        self.array(batch.actions)
        self.array(batch.rewards)

    def hexdigest(self):
        return self._h.hexdigest()


def _venv(n_envs, tick_stride=1024, **config_kw):
    config = EnvConfig(
        workload_factory=_default_workload, seed=SEED, **ENV_KW, **config_kw
    )
    return VectorEnv.from_config(
        config, n_envs, backend="vec", tick_stride=tick_stride
    )


def _act(venv, d, n_steps, rng):
    """``n_steps`` acting ticks of seeded random actions, all hashed."""
    for _ in range(n_steps):
        actions = rng.integers(0, venv.n_actions, size=venv.n_envs)
        obs, rewards, infos = venv.step(actions)
        d.array(obs)
        d.array(rewards)
        d.infos(infos)


def _finish(venv, d):
    d.fleet(venv._fleet)
    d.store(venv)
    venv.close()
    return d.hexdigest()


def _lockstep16():
    """16 envs: 300 chunked monitoring ticks, then 100 acting ticks."""
    venv, d = _venv(16), _Digest()
    d.array(venv.reset())
    d.array(venv.collect(300, chunk=50))
    d.array(venv.current_observation())
    _act(venv, d, 100, np.random.default_rng(101))
    return _finish(venv, d)


def _drops5():
    """5 envs losing ticks on the monitoring network, odd chunk size,
    long enough that the record columns double once."""
    venv, d = _venv(5, drop_probability=0.05), _Digest()
    d.array(venv.reset())
    d.array(venv.collect(602, chunk=7))
    d.array(venv.current_observation())
    _act(venv, d, 60, np.random.default_rng(102))
    d.array(venv.run_ticks(9, chunk=4))
    assert venv._fleet.state.rec_ticks.shape[1] > 512
    assert (venv._fleet.state.rec_len < venv._fleet.state.tick).all()
    return _finish(venv, d)


def _churn3():
    """A scenario timeline (clients leaving and rejoining) on 3 envs."""
    venv = VectorEnv.from_registry(
        "sim-lustre-churn",
        3,
        base_seed=SEED,
        backend="vec",
        env_kwargs=dict(
            scenario_kwargs=dict(
                first_tick=6, period=9, absence_ticks=4, n_cycles=5
            ),
            **ENV_KW,
        ),
        tick_stride=256,
    )
    d = _Digest()
    d.array(venv.reset())
    d.array(venv.collect(30, chunk=8))
    _act(venv, d, 40, np.random.default_rng(103))
    return _finish(venv, d)


def _ahead4():
    """One env driven three ticks ahead through ``env_method`` before
    the fleet steps again, with an Action Checker rule vetoing part of
    the random walk."""
    venv, d = _venv(4, tick_stride=128), _Digest()
    venv._fleet.checker.add_minimum("max_rpcs_in_flight", 7)
    d.array(venv.reset())
    rng = np.random.default_rng(104)
    _act(venv, d, 12, rng)
    for action in (2, 4, 1):
        obs, reward, info = venv.env_method(2, "step", action)
        d.array(obs)
        d.text(float(reward))
        d.infos([info])
    d.text(venv.spans.tops())
    d.array(venv.refresh_observation(2))
    _act(venv, d, 30, rng)
    d.array(venv.env_method(1, "run_chunk", 5, 2))
    d.array(venv.collect(10, chunk=3))
    assert venv._fleet.checker.vetoes > 0
    return _finish(venv, d)


CASES = {
    "lockstep16": _lockstep16,
    "drops5": _drops5,
    "churn3": _churn3,
    "ahead4": _ahead4,
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_fleet_state_digest(case):
    assert CASES[case]() == GOLDEN[case], (
        f"fleet state drifted ({case}): records, state arrays, "
        f"observations or the shared store are no longer byte-identical"
    )
