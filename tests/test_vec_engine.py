"""Behavioural contract of the vectorized fleet engine (repro.sim.vec).

The fleet backend is a *different physics* from the reference
discrete-event cluster (a fluid tick model), so these tests pin the
parts of the contract that must be identical anyway: the Environment
surface semantics (``run_chunk`` edge cases, action-to-record
attachment, parameter setters) on **both** backends, chunked-vs-
per-tick equivalence on the vec backend, and the ``VectorEnv``
integration path (``backend="vec"``).
"""

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.core import CapesSession
from repro.core.actions import ActionEffect
from repro.env import VectorEnv, make_env
from repro.env.registry import _default_workload
from repro.rl import Hyperparameters
from repro.sim.vec import FleetEnv
from repro.sim.vec.state import RecordView
from repro.snapshot.core import RolloutDigest

SEED = 17

HP = Hyperparameters(
    hidden_layer_size=8,
    exploration_ticks=20,
    sampling_ticks_per_observation=3,
)
ENV_KW = dict(
    cluster=ClusterConfig(n_servers=2, n_clients=2),
    hp=HP,
    workload_factory=_default_workload,
)

BACKENDS = ["sim-lustre", "sim-lustre-vec"]


def _make_scalar(name):
    """A scalar Environment on either backend (vec → its slot 0)."""
    env = make_env(name, seed=SEED, **ENV_KW)
    if isinstance(env, FleetEnv):
        return env.slot(0)
    return env


# -- run_chunk edge cases, both backends --------------------------------


@pytest.mark.parametrize("name", BACKENDS)
def test_run_chunk_zero_is_empty_without_advancing(name):
    env = _make_scalar(name)
    try:
        env.reset()
        before = env.records_since_packed(0)
        obs_before = np.array(env.current_observation(), copy=True)
        rewards = env.run_chunk(0)
        assert rewards.shape == (0,)
        after = env.records_since_packed(0)
        np.testing.assert_array_equal(after.ticks, before.ticks)
        np.testing.assert_array_equal(env.current_observation(), obs_before)
    finally:
        env.close()


@pytest.mark.parametrize("name", BACKENDS)
def test_run_chunk_negative_k_raises(name):
    env = _make_scalar(name)
    try:
        env.reset()
        with pytest.raises(ValueError, match="k must be >= 0"):
            env.run_chunk(-1)
    finally:
        env.close()


def test_fleet_run_chunk_zero_and_negative():
    """The batched fleet surface honours the same edge cases."""
    fleet = make_env("sim-lustre-vec", seed=SEED, n_envs=3, **ENV_KW)
    try:
        fleet.reset()
        tick_before = fleet.state.tick.copy()
        rewards = fleet.run_chunk(0)
        assert rewards.shape == (3, 0)
        np.testing.assert_array_equal(fleet.state.tick, tick_before)
        with pytest.raises(ValueError, match="k must be >= 0"):
            fleet.run_chunk(-2)
    finally:
        fleet.close()


@pytest.mark.parametrize("name", BACKENDS)
def test_action_changes_between_chunks_land_on_right_tick(name):
    """An action passed to ``run_chunk`` is decided *before* each tick,
    so it attaches to the record of the tick current at decision time —
    switching actions between chunks must show the switch exactly at
    the chunk boundary, identically on both backends."""
    env = _make_scalar(name)
    try:
        env.reset()
        warm = env.records_since_packed(0)
        t0 = int(warm.ticks[-1])
        assert set(warm.actions) == {-1}  # warm-up is monitoring-only
        a1, a2 = 1, 2
        env.run_chunk(3, action=a1)
        env.run_chunk(2, action=a2)
        recs = env.records_since_packed(0)
        np.testing.assert_array_equal(recs.ticks, np.arange(1, t0 + 6))
        tail = list(recs.actions[-6:])
        # a1 on the tick current when each of chunk 1's three decisions
        # fired (t0, t0+1, t0+2), a2 on chunk 2's (t0+3, t0+4); the
        # newest tick's record has no action yet.
        assert tail == [a1, a1, a1, a2, a2, -1]
    finally:
        env.close()


def test_chunked_matches_per_tick_on_vec():
    """One ``run_chunk`` call is byte-identical to the per-tick loop it
    abbreviates — rewards, records and the post-chunk observation."""
    a = 1
    loop = make_env("sim-lustre-vec", seed=SEED, n_envs=2, **ENV_KW)
    chunked = make_env("sim-lustre-vec", seed=SEED, n_envs=2, **ENV_KW)
    try:
        loop.reset()
        chunked.reset()
        loop_rewards = []
        for _ in range(10):
            _obs, rewards, _infos = loop.step([a, a])
            loop_rewards.append(rewards.copy())
        loop_rewards = np.stack(loop_rewards, axis=1)
        parts = [
            chunked.run_chunk(4, action=a),
            chunked.run_chunk(0),
            chunked.run_chunk(6, action=a),
        ]
        chunk_rewards = np.concatenate(parts, axis=1)
        np.testing.assert_array_equal(chunk_rewards, loop_rewards)
        for e in range(2):
            lr = loop.records_since_packed(0, env_index=e)
            cr = chunked.records_since_packed(0, env_index=e)
            np.testing.assert_array_equal(lr.ticks, cr.ticks)
            np.testing.assert_array_equal(lr.actions, cr.actions)
            np.testing.assert_array_equal(lr.rewards, cr.rewards)
            np.testing.assert_array_equal(lr.frames, cr.frames)
        np.testing.assert_array_equal(
            loop.current_observation(), chunked.current_observation()
        )
    finally:
        loop.close()
        chunked.close()


# -- fleet/slot coherence ----------------------------------------------


def test_fleet_slot_views_shared_rows():
    fleet = make_env("sim-lustre-vec", seed=SEED, n_envs=3, **ENV_KW)
    try:
        obs = fleet.reset()
        assert obs.shape == (3, fleet.obs_dim)
        batch_obs, rewards, infos = fleet.step([0, 1, 2])
        assert rewards.shape == (3,)
        for e in range(3):
            slot = fleet.slot(e)
            np.testing.assert_array_equal(
                slot.current_observation(), batch_obs[e]
            )
            assert infos[e]["params"] == slot.current_params()
    finally:
        fleet.close()


def test_set_params_semantics():
    fleet = make_env("sim-lustre-vec", seed=SEED, n_envs=2, **ENV_KW)
    try:
        fleet.reset()
        # The window knob is an integer (ControlAgent semantics), the
        # rate knob a float.
        fleet.set_params({"max_rpcs_in_flight": 9.6, "io_rate_limit": 300.0})
        assert fleet.current_params(0) == {
            "max_rpcs_in_flight": 10.0,
            "io_rate_limit": 300.0,
        }
        fleet.set_params({"max_rpcs_in_flight": 4}, env_index=1)
        assert fleet.current_params(0)["max_rpcs_in_flight"] == 10.0
        assert fleet.current_params(1)["max_rpcs_in_flight"] == 4.0
        with pytest.raises(KeyError, match="unknown tunable"):
            fleet.set_params({"not_a_knob": 1.0})
    finally:
        fleet.close()


def test_step_before_reset_raises():
    fleet = make_env("sim-lustre-vec", seed=SEED, n_envs=1, **ENV_KW)
    with pytest.raises(RuntimeError, match="reset"):
        fleet.step([0])


def test_fleet_sampler_draws_minibatches():
    fleet = make_env("sim-lustre-vec", seed=SEED, n_envs=2, **ENV_KW)
    try:
        fleet.reset()
        # NULL actions, like VectorEnv.collect: monitoring-only ticks
        # (action -1) are not eligible transitions, recorded NULLs are.
        fleet.run_chunk(12, action=0)
        mb = fleet.make_sampler(seed=0, env_index=1).sample_minibatch(4)
        assert mb.s_t.shape == (4, fleet.obs_dim)
        assert mb.s_next.shape == (4, fleet.obs_dim)
    finally:
        fleet.close()


def test_session_trains_on_a_vec_slot():
    """A ``CapesSession`` on one ``FleetSlot`` trains through the trainer
    burst, its sampler reading the fleet's record columns through a
    ``RecordView``.  Rewards and losses are pinned (digest cut at the
    per-minibatch sampler the burst replaced)."""
    env = _make_scalar("sim-lustre-vec")
    try:
        session = CapesSession(env, seed=5, train_steps_per_tick=2)
        result = session.train(40)
        assert isinstance(session.sampler.cache, RecordView)
        assert session.trainer.stats.steps_attempted == 80
        digest = RolloutDigest().update(result.rewards).update(result.losses)
        assert digest.hexdigest == (
            "1c0910daff44c982e9d3aaeb01ca058c81d18c2e36ac19baf5604aef7d2e7770"
        )
    finally:
        env.close()


# -- the fleet-wide action path (§3.7) ----------------------------------


def _state_copy(fleet):
    st = fleet.state
    return {name: getattr(st, name).copy() for name in st.MUTABLE_ARRAYS}


@pytest.mark.parametrize(
    "call",
    [
        lambda fleet: fleet.step([1, 99]),
        lambda fleet: fleet.step([3, -1]),
        lambda fleet: fleet.run_chunk(3, action=99),
        lambda fleet: fleet.slot(1).step(99),
    ],
    ids=["step-high", "step-negative", "run_chunk", "slot-step"],
)
def test_bad_action_vector_changes_nothing(call):
    """One out-of-range action rejects the whole vector before any
    knob moves, any action is recorded or any tick runs."""
    fleet = make_env("sim-lustre-vec", seed=SEED, n_envs=2, **ENV_KW)
    try:
        fleet.reset()
        fleet.step([1, 3])
        before = _state_copy(fleet)
        with pytest.raises(ValueError, match="out of range"):
            call(fleet)
        for name, array in before.items():
            np.testing.assert_array_equal(
                getattr(fleet.state, name), array, err_msg=name
            )
    finally:
        fleet.close()


def test_action_checker_veto_on_the_fleet():
    """A vetoed action records NULL, leaves the knob and counts one
    veto; the other envs of the same vector apply normally."""
    fleet = make_env("sim-lustre-vec", seed=SEED, n_envs=3, **ENV_KW)
    try:
        fleet.reset()
        st = fleet.state
        window0, rate0 = float(st.window[0]), float(st.rate[2])
        fleet.checker.add_minimum("max_rpcs_in_flight", window0)
        _obs, _rewards, infos = fleet.step([2, 1, 4])
        np.testing.assert_array_equal(
            st.window, [window0, window0 + 1, window0]
        )
        assert st.rate[2] == rate0 - 250.0
        assert fleet.checker.vetoes == 1
        # The action rides the record of the tick it was decided after.
        rows = st.rec_len - 2
        np.testing.assert_array_equal(
            st.rec_actions[np.arange(3), rows], [0, 1, 4]
        )
        assert infos[0]["effect"] == ActionEffect(0, None, None, None)
        assert infos[1]["effect"] == ActionEffect(
            1, "max_rpcs_in_flight", window0, window0 + 1
        )
        assert infos[2]["effect"] == ActionEffect(
            4, "io_rate_limit", rate0, rate0 - 250.0
        )
        # The same rule through a slot and through a chunk.
        fleet.slot(0).step(2)
        fleet.run_chunk(2, action=2)
        # Env 1 steps 9 -> 8 on the chunk's first tick, then is vetoed too.
        assert fleet.checker.vetoes == 1 + 1 + 2 + 3
        np.testing.assert_array_equal(st.window, [window0] * 3)
    finally:
        fleet.close()


# -- observations off the record columns, snapshots ----------------------


def _ring_reference(frames, obs_ticks):
    """The stacked observation an explicit ring would hold: the first
    frame fills every slot, each later one shifts the stack."""
    stack = np.repeat(frames[:1], obs_ticks, axis=0)
    for frame in frames[1:]:
        stack = np.concatenate([stack[1:], frame[None, :]])
    return stack.reshape(-1)


def test_observation_is_the_padded_record_window_under_drops():
    """During warm-up (fewer records than ``obs_ticks``, first frames
    dropped) and after it, the observation is the newest records with
    the earliest frame repeated backwards."""
    fleet = make_env(
        "sim-lustre-vec", seed=SEED, n_envs=6, drop_probability=0.3, **ENV_KW
    )
    try:
        fleet.reset()
        st, S = fleet.state, HP.sampling_ticks_per_observation
        assert (st.rec_len < S).any() and (st.rec_ticks[:, 0] > 1).any()
        for _ in range(8):
            for e in range(fleet.n_envs):
                frames = st.rec_frames[e, : st.rec_len[e]]
                np.testing.assert_array_equal(
                    st.observation(e), _ring_reference(frames, S)
                )
            fleet.step([0] * fleet.n_envs)
    finally:
        fleet.close()


def test_snapshot_with_legacy_observation_ring_restores():
    """Snapshots written when the fleet kept an ``obs3``/``obs_count``
    ring still restore: the extra arrays are ignored and the resumed
    run is byte-identical."""
    fleet = make_env("sim-lustre-vec", seed=SEED, n_envs=2, **ENV_KW)
    other = make_env("sim-lustre-vec", seed=SEED, n_envs=2, **ENV_KW)
    try:
        fleet.reset()
        fleet.run_chunk(5, action=1)
        meta, arrays = fleet.snapshot_state()
        assert "obs3" not in arrays
        arrays["obs3"] = np.ones(
            (2, HP.sampling_ticks_per_observation, fleet.frame_dim)
        )
        arrays["obs_count"] = np.full(2, 7, dtype=np.int64)
        other.restore_state(meta, arrays)
        np.testing.assert_array_equal(
            other.current_observation(), fleet.current_observation()
        )
        for actions in ([2, 3], [0, 4], [1, 1]):
            obs_a, rew_a, _ = fleet.step(actions)
            obs_b, rew_b, _ = other.step(actions)
            np.testing.assert_array_equal(obs_a, obs_b)
            np.testing.assert_array_equal(rew_a, rew_b)
        for name in fleet.state.MUTABLE_ARRAYS:
            np.testing.assert_array_equal(
                getattr(other.state, name), getattr(fleet.state, name)
            )
    finally:
        fleet.close()
        other.close()


def test_snapshot_after_record_growth_keeps_capacity():
    fleet = make_env("sim-lustre-vec", seed=SEED, n_envs=1, **ENV_KW)
    other = make_env("sim-lustre-vec", seed=SEED, n_envs=1, **ENV_KW)
    try:
        fleet.reset()
        fleet.run_chunk(520, action=0)
        st = fleet.state
        cap = st.rec_ticks.shape[1]
        assert cap > 512 and int(st.rec_len[0]) > 512
        # Spare capacity is pristine, so snapshots are deterministic.
        assert not st.rec_frames[0, st.rec_len[0] :].any()
        assert (st.rec_actions[0, st.rec_len[0] :] == -1).all()
        other.restore_state(*fleet.snapshot_state())
        assert other.state.rec_ticks.shape[1] == cap
        np.testing.assert_array_equal(
            other.state.observation(0), st.observation(0)
        )
        np.testing.assert_array_equal(
            other.run_chunk(4, action=1), fleet.run_chunk(4, action=1)
        )
    finally:
        fleet.close()
        other.close()


# -- VectorEnv integration ---------------------------------------------


def test_vector_env_vec_backend_end_to_end():
    venv = VectorEnv.from_registry(
        "sim-lustre-vec",
        3,
        base_seed=SEED,
        backend="vec",
        env_kwargs=ENV_KW,
        tick_stride=256,
    )
    try:
        obs = venv.reset()
        assert obs.shape == (3, venv.obs_dim)
        obs, rewards, _infos = venv.step([0, 1, 2])
        assert obs.shape == (3, venv.obs_dim)
        assert rewards.shape == (3,)
        rw = venv.collect(6, chunk=3)
        assert rw.shape == (3, 6)
        # Shared-DB fan-in feeds the strided sampler.
        mb = venv.make_sampler(seed=3).sample_minibatch(4)
        assert mb.s_t.shape == (4, venv.obs_dim)
        # The CapesTuner checkpoint path: drive one cluster out of
        # lockstep, then resync its observation row.
        venv.env_method(0, "set_params", {"max_rpcs_in_flight": 12})
        rews = venv.env_method(0, "run_ticks", 4)
        assert rews.shape == (4,)
        venv.refresh_observation(0)
        assert venv.env_method(0, "current_params")[
            "max_rpcs_in_flight"
        ] == 12.0
        _obs, rewards, _infos = venv.step([0, 0, 0])
        assert np.isfinite(rewards).all()
    finally:
        venv.close()


def test_vec_fan_in_lands_one_batch_per_step():
    """Lockstep or not, a fleet step lands every env's new rows as one
    env-major batch: one listener call, ticks strictly ascending, and
    the shared store ends up holding exactly the fleet's records."""
    stride = 256
    venv = VectorEnv.from_registry(
        "sim-lustre-vec",
        3,
        base_seed=SEED,
        backend="vec",
        env_kwargs=ENV_KW,
        tick_stride=stride,
    )
    batches = []
    venv.add_ingest_listener(batches.append)
    try:
        venv.reset()
        batches.clear()
        venv.step([0, 1, 2])
        (batch,) = batches
        # Two rows per env: the synced top again (it now carries its
        # action) and the new tick.
        assert len(batch) == 6
        np.testing.assert_array_equal(
            batch.ticks // stride, [0, 0, 1, 1, 2, 2]
        )
        assert (np.diff(batch.ticks) > 0).all()
        # Env 1 runs ahead; the next chunk still lands as one batch,
        # each env continuing from its own frontier.
        venv.env_method(1, "run_ticks", 3)
        batches.clear()
        venv.collect(4, chunk=4)
        (batch,) = batches
        assert (np.diff(batch.ticks) > 0).all()
        np.testing.assert_array_equal(
            np.bincount(batch.ticks // stride), [5, 5, 5]
        )
        assert venv.spans.tops() == [8, 11, 8]
        cache = venv.shared_db.cache
        for i in range(3):
            mine = venv._fleet.records_since_packed(-1, env_index=i)
            landed = cache.records_between(i * stride, (i + 1) * stride - 1)
            np.testing.assert_array_equal(
                landed.ticks - i * stride, mine.ticks
            )
            np.testing.assert_array_equal(landed.frames, mine.frames)
            np.testing.assert_array_equal(landed.actions, mine.actions)
            np.testing.assert_array_equal(landed.rewards, mine.rewards)
    finally:
        venv.close()


def test_vec_tick_stride_overflow_raises():
    venv = VectorEnv.from_registry(
        "sim-lustre-vec",
        2,
        base_seed=SEED,
        backend="vec",
        env_kwargs=ENV_KW,
        tick_stride=6,
    )
    try:
        venv.reset()  # warm-up = 3 ticks
        with pytest.raises(
            RuntimeError, match="env 0 reached tick 7 >= tick_stride 6"
        ):
            venv.collect(8, chunk=2)
    finally:
        venv.close()


def test_vec_backend_requires_one_fleet():
    fleet_a = make_env("sim-lustre-vec", seed=SEED, n_envs=2, **ENV_KW)
    fleet_b = make_env("sim-lustre-vec", seed=SEED, n_envs=2, **ENV_KW)
    factories = [lambda: fleet_a.slot(0), lambda: fleet_b.slot(1)]
    with pytest.raises(ValueError, match="one FleetEnv"):
        VectorEnv(factories, backend="vec")


def test_vec_backend_rejects_non_fleet_envs():
    factories = [lambda: make_env("sim-lustre", seed=SEED, **ENV_KW)]
    with pytest.raises(ValueError, match="one FleetEnv"):
        VectorEnv(factories, backend="vec")
