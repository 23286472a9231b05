"""Golden-trace determinism for scenario rollouts.

Extends PR 1's ``derive_rng`` golden-value approach from single streams
to full environment rollouts: a pinned-seed scenario run must produce
**byte-identical** observation/reward traces

- across interpreter invocations (the pinned digests below were
  computed once and must never drift — every pytest run is a fresh
  interpreter, so matching them *is* the cross-invocation check);
- between the serial and fork VectorEnv backends;
- between a vectorized replica and the equivalent standalone run.

If a digest changes, seeded scenario experiments stopped being
replayable: treat it as a regression, not a constant to refresh —
unless the change is an intentional, documented semantic change to the
simulation or scenario layer.
"""

import hashlib

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.env import VectorEnv, make_env, vector_seeds
from repro.rl import Hyperparameters

GOLDEN_SEED = 17
N_TICKS = 10

HP = Hyperparameters(
    hidden_layer_size=8,
    exploration_ticks=20,
    sampling_ticks_per_observation=3,
)
ENV_KW = dict(cluster=ClusterConfig(n_servers=2, n_clients=2), hp=HP)

#: Compressed event timings so every scenario fires (and, where
#: windowed, reverts) inside the N_TICKS horizon.
SCENARIO_KW = {
    "sim-lustre-degraded": dict(start_tick=4),
    "sim-lustre-bursty": dict(first_tick=4, period=5, n_bursts=2, duration=2),
    "sim-lustre-churn": dict(
        first_tick=4, period=5, absence_ticks=2, n_cycles=2
    ),
}

#: blake2b-128 over the reset observation plus every (obs, reward) of a
#: 10-tick scripted rollout at seed 17 (see ``_rollout_digest``).
GOLDEN_DIGESTS = {
    "sim-lustre-degraded": "fd8060876c3cae95ff87c4fbfde0e6f8",
    # Re-cut when an interrupted synchronous RPC kept its window slot
    # until its reply arrived (a spike's end stops its instances).
    "sim-lustre-bursty": "4b7019db6e954ab94a161053c4e6f554",
    # Re-cut when interrupted instances stopped leaking queued window
    # slots, rate tokens and cache space (churn pauses them mid-queue),
    # and again when an interrupted synchronous RPC kept its slot until
    # its reply arrived.
    "sim-lustre-churn": "ac0fe68b473ec3e483adf790c5c84dfe",
}


def _rollout_digest(env, n_ticks: int = N_TICKS) -> str:
    """Digest of the byte-exact observation/reward trace."""
    h = hashlib.blake2b(digest_size=16)
    try:
        obs = env.reset()
        h.update(np.ascontiguousarray(obs, dtype=np.float64).tobytes())
        for t in range(n_ticks):
            obs, reward, _info = env.step(t % env.n_actions)
            h.update(np.ascontiguousarray(obs, dtype=np.float64).tobytes())
            h.update(np.float64(reward).tobytes())
    finally:
        env.close()
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_pinned_scenario_rollout_digest(name):
    env = make_env(
        name, seed=GOLDEN_SEED, scenario_kwargs=SCENARIO_KW[name], **ENV_KW
    )
    assert _rollout_digest(env) == GOLDEN_DIGESTS[name], (
        f"{name} rollout trace drifted: seeded scenario runs are no "
        f"longer replayable across invocations"
    )


def _vector_trace(name: str, n: int, backend: str):
    venv = VectorEnv.from_registry(
        name,
        n,
        base_seed=GOLDEN_SEED,
        backend=backend,
        env_kwargs=dict(scenario_kwargs=SCENARIO_KW[name], **ENV_KW),
        tick_stride=256,
    )
    try:
        trace = [venv.reset().copy()]
        for t in range(N_TICKS):
            obs, rewards, _infos = venv.step(
                [t % venv.n_actions] * n
            )
            trace.append(obs.copy())
            trace.append(rewards.copy())
        return trace
    finally:
        venv.close()


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_serial_and_fork_backends_byte_identical(name):
    serial = _vector_trace(name, 2, "serial")
    fork = _vector_trace(name, 2, "fork")
    for s, f in zip(serial, fork):
        np.testing.assert_array_equal(s, f)


def test_vector_replica_matches_standalone_run():
    """Replica i of a scenario fleet is byte-identical to a standalone
    env built with the same derived seed (PR 2's contract, now holding
    under perturbation timelines too)."""
    name = "sim-lustre-churn"
    trace = _vector_trace(name, 2, "serial")
    for i, seed in enumerate(vector_seeds(GOLDEN_SEED, 2)):
        env = make_env(
            name, seed=seed, scenario_kwargs=SCENARIO_KW[name], **ENV_KW
        )
        try:
            obs = env.reset()
            np.testing.assert_array_equal(obs, trace[0][i])
            for t in range(N_TICKS):
                obs, reward, _info = env.step(t % env.n_actions)
                np.testing.assert_array_equal(obs, trace[1 + 2 * t][i])
                assert reward == trace[2 + 2 * t][i]
        finally:
            env.close()
