"""Tests for vectorized multi-cluster collection (repro.env.vector).

The determinism contract: per-env trajectories from ``VectorEnv(n)``
are byte-identical to n serial single-environment runs built with the
same :func:`vector_seeds`-derived seeds (serial and fork placements
are pinned to one digest in ``test_shard_collect.py``).  Fan-in lands
every cluster's replay records in one shared DB, block-strided so
Algorithm 1 windows never cross clusters.
"""

import multiprocessing
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.env import (
    EnvConfig,
    StorageTuningEnv,
    VectorEnv,
    WorkerCrashError,
    vector_seeds,
)
from repro.exp import ExperimentSpec, RunBudget, WorkloadSpec, execute_spec
from repro.replaydb.sampler import SamplerStarvedError
from repro.rl import Hyperparameters
from repro.snapshot.core import SnapshotError
from repro.workloads import RandomReadWrite

TINY_HP = Hyperparameters(
    hidden_layer_size=8,
    exploration_ticks=20,
    sampling_ticks_per_observation=3,
)


def tiny_workload(cluster, seed):
    return RandomReadWrite(
        cluster, read_fraction=0.1, seed=seed, instances_per_client=2
    )


def tiny_config(seed: int = 0) -> EnvConfig:
    return EnvConfig(
        cluster=ClusterConfig(n_servers=2, n_clients=2),
        workload_factory=tiny_workload,
        hp=TINY_HP,
        seed=seed,
    )


def scripted_actions(venv_or_env, t: int) -> int:
    return t % venv_or_env.n_actions


class TestDeterminism:
    N_TICKS = 6

    def _vector_trajectory(self, n: int, backend: str):
        venv = VectorEnv.from_config(
            tiny_config(seed=9), n, backend=backend, tick_stride=256
        )
        try:
            first = venv.reset().copy()
            traj = []
            for t in range(self.N_TICKS):
                obs, rewards, _infos = venv.step(
                    [scripted_actions(venv, t)] * n
                )
                traj.append((obs.copy(), rewards.copy()))
            return first, traj
        finally:
            venv.close()

    def test_vector_matches_serial_single_env_runs(self):
        """The acceptance contract, n=4: byte-identical per-env runs."""
        n = 4
        first, traj = self._vector_trajectory(n, "serial")
        for i, seed in enumerate(vector_seeds(9, n)):
            env = StorageTuningEnv(replace(tiny_config(seed=9), seed=seed))
            try:
                assert np.array_equal(env.reset(), first[i])
                for t in range(self.N_TICKS):
                    obs, reward, _info = env.step(scripted_actions(env, t))
                    assert np.array_equal(obs, traj[t][0][i])
                    assert reward == traj[t][1][i]
            finally:
                env.close()

    def test_obs_buffer_is_reused_across_ticks(self):
        venv = VectorEnv.from_config(tiny_config(), 2, tick_stride=256)
        try:
            first = venv.reset()
            again, _r, _i = venv.step([0, 0])
            assert again is first  # one preallocated (n, obs_dim) buffer
        finally:
            venv.close()


class TestFanIn:
    def test_shared_db_fan_in_counts(self):
        n, ticks = 3, 5
        venv = VectorEnv.from_config(tiny_config(), n, tick_stride=64)
        try:
            venv.reset()
            venv.collect(ticks)
            warm = TINY_HP.sampling_ticks_per_observation
            expected = n * (warm + ticks)
            assert len(venv.shared_db) == expected
            assert venv.shared_db.record_count() == expected
            # Each env's block holds its own local ticks.
            cache = venv.shared_db.cache
            for i in range(n):
                block = [
                    t
                    for t in range(i * 64, (i + 1) * 64)
                    if cache.has(t)
                ]
                assert len(block) == warm + ticks
        finally:
            venv.close()

    def test_actions_arrive_in_shared_db(self):
        venv = VectorEnv.from_config(tiny_config(), 2, tick_stride=64)
        try:
            venv.reset()
            venv.step([1, 2])
            # An action is recorded at the tick it was decided on; the
            # refresh sync during the next step picks it up.
            venv.step([3, 4])
            cache = venv.shared_db.cache
            warm = TINY_HP.sampling_ticks_per_observation
            assert cache.get(warm).action == 1
            assert cache.get(64 + warm).action == 2
            assert cache.get(warm + 1).action == 3
            assert cache.get(64 + warm + 1).action == 4
        finally:
            venv.close()

    def test_strided_sampler_draws_from_every_block(self):
        venv = VectorEnv.from_config(tiny_config(), 2, tick_stride=64)
        try:
            venv.reset()
            venv.collect(8)
            sampler = venv.make_sampler(seed=0)
            batch = sampler.sample_minibatch(64)
            assert batch.s_t.shape == (64, venv.obs_dim)
            spans = sampler.spans.candidate_spans(sampler.obs_ticks)
            assert len(spans) == 2
            assert spans[0][1] < 64 <= spans[1][0]  # one span per block
        finally:
            venv.close()

    def test_sampler_starves_before_collection(self):
        venv = VectorEnv.from_config(tiny_config(), 2, tick_stride=64)
        try:
            venv.reset()
            sampler = venv.make_sampler(seed=0)
            with pytest.raises(SamplerStarvedError):
                sampler.sample_minibatch(4)
        finally:
            venv.close()

    def test_tick_stride_overflow_raises(self):
        venv = VectorEnv.from_config(tiny_config(), 2, tick_stride=6)
        try:
            venv.reset()  # warm-up = 3 ticks
            with pytest.raises(RuntimeError, match="tick_stride"):
                venv.collect(8)
        finally:
            venv.close()

    def test_fan_in_disabled(self):
        venv = VectorEnv.from_config(
            tiny_config(), 2, shared_db_path=None, tick_stride=64
        )
        try:
            venv.reset()
            venv.collect(2)
            assert venv.shared_db is None
            with pytest.raises(RuntimeError, match="no shared replay DB"):
                venv.make_sampler()
        finally:
            venv.close()


class TestChunkedCollect:
    """Chunked stepping is transport, not semantics: one big chunk must
    be byte-identical to per-tick round-trips on both backends."""

    def _collect_state(self, backend: str, chunk):
        venv = VectorEnv.from_config(
            tiny_config(seed=5), 2, backend=backend, tick_stride=64
        )
        try:
            venv.reset()
            rewards = venv.collect(8, chunk=chunk)
            cache = venv.shared_db.cache
            packed = cache.records_between(0, cache.max_tick)
            obs = venv.current_observation().copy()
            return rewards, packed, obs, venv.spans.tops()
        finally:
            venv.close()

    @pytest.mark.parametrize("backend", ["serial", "fork"])
    def test_chunked_equals_per_tick(self, backend):
        r1, p1, o1, s1 = self._collect_state(backend, chunk=1)
        r8, p8, o8, s8 = self._collect_state(backend, chunk=None)
        np.testing.assert_array_equal(r1, r8)
        np.testing.assert_array_equal(o1, o8)
        assert s1 == s8
        np.testing.assert_array_equal(p1.ticks, p8.ticks)
        np.testing.assert_array_equal(p1.frames, p8.frames)
        np.testing.assert_array_equal(p1.actions, p8.actions)
        np.testing.assert_array_equal(p1.rewards, p8.rewards)

    def test_collect_records_null_actions(self):
        venv = VectorEnv.from_config(tiny_config(), 2, tick_stride=64)
        try:
            venv.reset()
            venv.collect(4)
            cache = venv.shared_db.cache
            warm = TINY_HP.sampling_ticks_per_observation
            # Collection ticks carry the NULL action (index 0); the
            # newest tick's action lands one sync later, and warm-up
            # ticks never acted.
            for offset in (0, 64):
                for t in range(warm + 1, warm + 4):
                    assert cache.get(offset + t).action == 0
                assert cache.get(offset + 1).action == -1
        finally:
            venv.close()

    def test_run_ticks_chunked_refreshes_observation(self):
        venv = VectorEnv.from_config(tiny_config(), 2, tick_stride=64)
        try:
            venv.reset()
            rewards = venv.run_ticks(4)
            assert rewards.shape == (2, 4)
            live = venv.env_method(0, "current_observation")
            np.testing.assert_array_equal(venv.current_observation()[0], live)
        finally:
            venv.close()


class TestResetFence:
    def test_reset_clears_stale_episode_records(self):
        """Regression: a reused vector env must not keep the previous
        episode's transitions in the shared DB."""
        warm = TINY_HP.sampling_ticks_per_observation
        venv = VectorEnv.from_config(tiny_config(), 2, tick_stride=64)
        try:
            venv.reset()
            venv.collect(6)
            assert len(venv.shared_db) == 2 * (warm + 6)
            venv.reset()
            cache = venv.shared_db.cache
            # Only the fresh warm-up records remain...
            assert len(venv.shared_db) == 2 * warm
            assert venv.shared_db.record_count() == 2 * warm
            # ...and the old episode's post-warm-up ticks are gone.
            for offset in (0, 64):
                assert not cache.has(offset + warm + 1)
        finally:
            venv.close()

    def test_reset_fence_with_sqlite_backed_shared_db(self, tmp_path):
        warm = TINY_HP.sampling_ticks_per_observation
        venv = VectorEnv.from_config(
            tiny_config(),
            2,
            shared_db_path=str(tmp_path / "shared.db"),
            tick_stride=64,
        )
        try:
            venv.reset()
            venv.collect(3)
            venv.reset()
            assert venv.shared_db.record_count() == 2 * warm
        finally:
            venv.close()


class _CrashEnv:
    """Minimal Environment whose methods raise unpicklable exceptions."""

    obs_dim = 4
    n_actions = 2
    frame_dim = 2
    action_space = None
    hp = None

    def reset(self):
        return np.zeros(4)

    def step(self, action, out=None):
        return np.zeros(4), 0.0, {}

    def current_observation(self, out=None):
        return np.zeros(4)

    def explode(self):
        class Evil(RuntimeError):
            def __init__(self, gen):
                super().__init__("the real cause")
                self.gen = gen  # generators never pickle

        raise Evil(iter(()))

    def close(self):
        pass


class TestWorkerCrash:
    def test_unpicklable_exception_reports_real_cause(self):
        """Regression: an unpicklable worker exception used to kill the
        pipe and surface as a bare EOFError."""
        venv = VectorEnv(
            [_CrashEnv, _CrashEnv], backend="fork", shared_db_path=None
        )
        try:
            with pytest.raises(WorkerCrashError) as excinfo:
                venv.env_method(0, "explode")
            assert "Evil" in str(excinfo.value)
            assert "the real cause" in str(excinfo.value)
            assert "worker traceback" in str(excinfo.value)
            # The pipe survived: the worker still answers.
            assert venv.env_method(1, "current_observation").shape == (4,)
        finally:
            venv.close()

    def test_dropping_one_link_is_eof_for_that_worker_only(self):
        """Regression: every forked worker held the master ends of the
        pipes forked before it, so the master closing only the first
        worker's link left that worker blocked, never seeing EOF."""
        venv = VectorEnv(
            [_CrashEnv] * 3, backend="fork", shared_db_path=None
        )
        procs = [ch._proc for ch in venv._channels]
        try:
            venv._channels[0].conn.close()
            procs[0].join(timeout=3)
            assert not procs[0].is_alive(), "worker 0 never saw EOF"
            assert all(p.is_alive() for p in procs[1:])
        finally:
            venv.close()

    def test_picklable_exception_still_verbatim(self):
        venv = VectorEnv.from_config(
            tiny_config(), 1, backend="fork", tick_stride=64
        )
        try:
            with pytest.raises(RuntimeError, match="reset"):
                venv.env_method(0, "step", 0)  # stepping before reset
        finally:
            venv.close()


class _StepEnv:
    """Minimal Environment that names itself: ``whoami`` returns a
    tuple, step ``info`` has an int key, and ``fail=True`` makes every
    step raise."""

    obs_dim = 2
    n_actions = 2
    frame_dim = 2
    action_space = None
    hp = None

    def __init__(self, index, fail=False):
        self.index, self.fail, self.tick = index, fail, 0

    def reset(self):
        self.tick = 0
        return np.zeros(2)

    def step(self, action, out=None):
        if self.fail:
            raise ValueError(f"env {self.index} cannot step")
        self.tick += 1
        obs = np.array([100.0 * self.index + self.tick, 0.0])
        return obs, 1.0, {self.tick: ("tick", self.index)}

    def whoami(self):
        return ("env", self.index, "t", self.tick)

    def current_observation(self, out=None):
        return np.zeros(2)

    def close(self):
        pass


def _step_fleet(backend, n=2, failing=()):
    return VectorEnv(
        [partial(_StepEnv, i, fail=i in failing) for i in range(n)],
        backend=backend,
        shared_db_path=None,
    )


class TestFailedLockstep:
    @pytest.mark.parametrize("backend", ["serial", "fork"])
    def test_failed_step_leaves_no_stale_reply(self, backend):
        """Regression: a lockstep stopped at the first failed reply, so
        on fork the other workers' replies stayed in their pipes and
        the next command read a stale one."""
        venv = _step_fleet(backend, failing=(0,))
        try:
            venv.reset()
            with pytest.raises(ValueError, match="env 0 cannot step"):
                venv.step([0, 0])
            # The failed step was logged before it ran; it must not be
            # replayable.
            with pytest.raises(SnapshotError):
                venv.snapshot()
            # Every env got the step, on both backends.
            assert venv.env_method(1, "whoami") == ("env", 1, "t", 1)
        finally:
            venv.close()

    def test_env_method_and_step_info_keep_their_types(self):
        """Regression: the fork codec sent tuples and int-keyed dicts
        through JSON, returning lists and string keys."""
        got = {}
        for backend in ("serial", "fork"):
            venv = _step_fleet(backend)
            try:
                venv.reset()
                _obs, _rewards, infos = venv.step([0, 0])
                got[backend] = (venv.env_method(1, "whoami"), infos)
            finally:
                venv.close()
        assert got["fork"] == got["serial"]
        whoami, infos = got["fork"]
        assert type(whoami) is tuple
        assert infos == [{1: ("tick", 0)}, {1: ("tick", 1)}]
        assert all(type(key) is int for info in infos for key in info)


class TestClose:
    @pytest.mark.parametrize("kill", [False, True], ids=["normal", "killed"])
    def test_close_releases_every_pipe_end_and_worker(self, kill):
        """A leaked ``multiprocessing.Connection`` raises no
        ``ResourceWarning``, so this checks the pipe ends and workers
        directly: every master end closed, every worker reaped."""
        venv = _step_fleet("fork", n=3)
        channels = list(venv._channels)
        if kill:
            channels[1]._proc.kill()
            channels[1]._proc.join(timeout=5)
        venv.close()
        assert all(ch.conn.closed for ch in channels)
        assert all(ch._proc.exitcode is not None for ch in channels)

    def test_close_survives_an_unreadable_reply(self):
        """Regression: an empty reply to ``close`` raised a bare
        ``IndexError`` out of ``close()``, before any pipe end or the
        shared DB was closed, and a second ``close()`` did nothing."""
        venv = VectorEnv(
            [partial(_StepEnv, i) for i in range(2)],
            backend="fork",
            shared_db_path=":memory:",
        )
        channels = list(venv._channels)
        # Env 0's pipe now ends in this test, which answers ``close``
        # with an empty message; its worker sees EOF and exits.
        channels[0].conn.close()
        channels[0].conn, worker_end = multiprocessing.Pipe()
        try:
            worker_end.send_bytes(b"")
            venv.close()
        finally:
            worker_end.close()
        assert all(ch.conn.closed for ch in channels)
        assert all(ch._proc.exitcode is not None for ch in channels)
        assert venv.shared_db._conn is None


class TestSharedDbModes:
    def test_default_shared_db_is_cache_only(self):
        venv = VectorEnv.from_config(tiny_config(), 2, tick_stride=64)
        try:
            assert venv.shared_db.path is None  # no SQLite layer
            venv.reset()
            venv.collect(4)
            warm = TINY_HP.sampling_ticks_per_observation
            assert len(venv.shared_db) == 2 * (warm + 4)
            assert venv.shared_db.on_disk_bytes() == 0
            # Sampling works off the cache alone.
            batch = venv.make_sampler(seed=0).sample_minibatch(8)
            assert batch.s_t.shape == (8, venv.obs_dim)
        finally:
            venv.close()

    def test_vec_store_is_the_fleet_columns(self):
        """On ``vec`` the default store copies nothing: no
        ``ReplayCache`` is built, the DB reads the fleet's record
        columns, and its in-memory size is theirs."""
        from unittest import mock

        from repro.replaydb.cache import ReplayCache
        from repro.sim.vec.state import RecordView

        with mock.patch.object(
            ReplayCache, "__init__", side_effect=AssertionError("a ring")
        ):
            venv = VectorEnv.from_config(
                tiny_config(), 3, backend="vec", tick_stride=64
            )
            try:
                venv.reset()
                venv.collect(6, chunk=4)
                venv.step([1, 2, 0])
                venv.make_sampler(seed=0).sample_minibatch(8)
                assert isinstance(venv.shared_db.cache, RecordView)
                st = venv._fleet.state
                columns = (
                    st.rec_ticks, st.rec_frames, st.rec_actions,
                    st.rec_rewards,
                )
                assert venv.shared_db.in_memory_bytes() == sum(
                    c.nbytes for c in columns
                )
            finally:
                venv.close()

    def test_vec_store_follows_a_reset(self):
        """A reset rebuilds the fleet's columns under the same store:
        with ticks dropped, the new episode's rows sit at other rows
        than the old one's, and the store serves only the new ones."""
        config = replace(tiny_config(seed=3), drop_probability=0.2)
        venv = VectorEnv.from_config(config, 2, backend="vec", tick_stride=64)
        try:
            cache = venv.shared_db.cache
            for ticks in (40, 5):
                venv.reset()
                venv.collect(ticks)
                want = [
                    venv._fleet.records_since_packed(-1, env_index=i)
                    for i in range(2)
                ]
                assert len(cache) == sum(len(p) for p in want)
                present = cache.gather(np.arange(128))[0]
                stored = np.zeros(128, dtype=bool)
                for i, p in enumerate(want):
                    stored[p.ticks + 64 * i] = True
                np.testing.assert_array_equal(present, stored)
                got = cache.records_between(0, 127)
                np.testing.assert_array_equal(
                    got.ticks, np.concatenate([w.ticks + 64 * i
                                               for i, w in enumerate(want)])
                )
                np.testing.assert_array_equal(
                    got.frames, np.concatenate([w.frames for w in want])
                )
        finally:
            venv.close()

    def test_commit_replay_broadcast(self, tmp_path):
        venv = VectorEnv.from_config(
            tiny_config(),
            2,
            backend="fork",
            shared_db_path=str(tmp_path / "shared.db"),
            tick_stride=64,
        )
        try:
            venv.reset()
            venv.collect(2)
            venv.commit_replay()  # must round-trip through every worker
            assert venv.shared_db.record_count() == len(venv.shared_db)
        finally:
            venv.close()


class TestEnvMethod:
    def test_remote_method_and_fan_in(self):
        venv = VectorEnv.from_config(
            tiny_config(), 2, backend="fork", tick_stride=64
        )
        try:
            venv.reset()
            before = len(venv.shared_db)
            rewards = venv.env_method(0, "run_ticks", 4)
            assert rewards.shape == (4,)
            # env 0's extra ticks were fanned in; env 1 unchanged.
            assert len(venv.shared_db) == before + 4
            params = venv.env_method(1, "current_params")
            assert "max_rpcs_in_flight" in params
        finally:
            venv.close()

    def test_bad_index_rejected(self):
        venv = VectorEnv.from_config(tiny_config(), 2, tick_stride=64)
        try:
            with pytest.raises(IndexError):
                venv.env_method(5, "current_params")
            with pytest.raises(IndexError):
                venv.refresh_observation(2)
        finally:
            venv.close()

    @pytest.mark.parametrize("backend", ["serial", "fork"])
    def test_refresh_observation_after_out_of_lockstep(self, backend):
        venv = VectorEnv.from_config(
            tiny_config(), 2, backend=backend, tick_stride=64
        )
        try:
            venv.reset()
            venv.step([0, 0])
            venv.env_method(0, "run_ticks", 4)  # env 0 runs ahead
            live = venv.env_method(0, "current_observation")
            assert not np.array_equal(venv.current_observation()[0], live)
            buf = venv.refresh_observation(0)
            assert buf is venv.current_observation()
            assert np.array_equal(buf[0], live)
        finally:
            venv.close()


class TestVectorSpec:
    def _spec(self, **overrides):
        defaults = dict(
            tuner="capes",
            cluster=ClusterConfig(n_servers=2, n_clients=2),
            workload=WorkloadSpec(
                "random_rw", {"read_fraction": 0.1, "instances_per_client": 2}
            ),
            hp=TINY_HP,
            budget=RunBudget(train_ticks=6, eval_ticks=4, epoch_ticks=3),
            n_envs=2,
        )
        defaults.update(overrides)
        return ExperimentSpec(**defaults)

    def test_vector_capes_spec_end_to_end(self):
        result = execute_spec(self._spec())
        assert result.extra["n_envs"] == 2
        assert result.final.tuned_rewards.shape == (4,)
        assert result.final.final_params

    def test_vector_spec_serial_fork_identical(self):
        a = execute_spec(self._spec(vector_backend="serial"))
        b = execute_spec(self._spec(vector_backend="fork"))
        assert np.array_equal(a.final.tuned_rewards, b.final.tuned_rewards)
        assert np.array_equal(
            a.final.baseline_rewards, b.final.baseline_rewards
        )

    def test_search_tuner_rejects_vector_env(self):
        with pytest.raises(TypeError, match="capes"):
            execute_spec(self._spec(tuner="random"))

    def test_spec_n_envs_validation(self):
        with pytest.raises(ValueError, match="n_envs"):
            self._spec(n_envs=0).build_env()


# -- the vec backend's durable layer, through the CLI ----------------------

VEC_CONF = """
from repro.workloads import RandomReadWrite

N_SERVERS = 2
N_CLIENTS = 2
HIDDEN_LAYER_SIZE = 8
SAMPLING_TICKS_PER_OBSERVATION = 3
EXPLORATION_TICKS = 20
SEED = 7

def WORKLOAD(cluster, seed):
    return RandomReadWrite(
        cluster, read_fraction=0.1, instances_per_client=2, seed=seed)
"""

#: ``(record_count, blake2b of every SQLite row)`` of a 3-env, 20-tick
#: ``collect --vector-backend vec --out``, cut on the ring store.
VEC_DB_GOLDEN = (69, "21100e29c65eed41bb7e2e5c1bdd437c")


def _sqlite_rows(path):
    """Every observation row joined with its action, in tick order,
    hashed; and the row count."""
    import hashlib
    import sqlite3

    conn = sqlite3.connect(str(path))
    try:
        rows = conn.execute(
            "SELECT o.tick, o.frame, o.reward, a.action FROM observations o "
            "LEFT JOIN actions a ON a.tick = o.tick ORDER BY o.tick"
        ).fetchall()
    finally:
        conn.close()
    h = hashlib.blake2b(digest_size=16)
    h.update(repr([(t, f, r, a) for t, f, r, a in rows]).encode())
    return len(rows), h.hexdigest()


class TestVecDurableStore:
    """``collect --vector-backend vec --out`` and ``resume --out`` on a
    vec snapshot write the rows the fleet collected, durably."""

    def test_collect_and_resume_write_the_same_rows(self, tmp_path, capsys):
        from repro.cli import main

        conf = tmp_path / "conf.py"
        conf.write_text(VEC_CONF)
        snaps = tmp_path / "snaps"
        full_db, resumed_db = tmp_path / "full.db", tmp_path / "resumed.db"
        assert main([
            "collect", "--config", str(conf), "--vector-backend", "vec",
            "--n-envs", "3", "--ticks", "20", "--chunk", "5",
            "--snapshot-every", "10", "--snapshot-dir", str(snaps),
            "--out", str(full_db),
        ]) == 0
        count, _ = VEC_DB_GOLDEN
        assert f"{count} records -> {full_db} ({count} durable rows" in (
            capsys.readouterr().out
        )
        assert _sqlite_rows(full_db) == VEC_DB_GOLDEN
        assert main([
            "resume", str(snaps / "snapshot-00000010.npz"),
            "--config", str(conf), "--out", str(resumed_db),
        ]) == 0
        assert _sqlite_rows(resumed_db) == VEC_DB_GOLDEN
