"""Collection placement: serial == fork, byte for byte.

The placement contract: one 4-env fleet run in-process or as forked
workers produces **byte-identical** traces, replay-DB contents and
frontiers, because the pipe transport is byte-transparent and per-env
seeds derive from the env index alone.  On top of that, the failure
modes of the forked medium: a worker dying mid-chunk, dead before a
submit, or a dropped link surfaces as :class:`WorkerCrashError` naming
the env, never a bare ``EOFError``; ``close()`` is idempotent and
always reaps; one bad call is one exception, not a dead worker.

Sessions of the retired ``shards`` backend (collection spread over
TCP shard hosts) left snapshot artifacts behind.  Their trajectories
were byte-identical to fork's, so the last tests pin that such an
artifact still restores onto serial and fork, and that ``repro
resume`` and ``repro replay`` continue it on fork with the fork digest.
"""

import functools
import hashlib
import os
import signal
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.env import (
    EnvConfig,
    VectorEnv,
    WorkerCrashError,
    make_env,
    vector_seeds,
)
from repro.rl import Hyperparameters
from repro.snapshot import SessionSnapshot
from repro.workloads import RandomReadWrite

SEED = 123
STRIDE = 256

HP = Hyperparameters(
    hidden_layer_size=8,
    exploration_ticks=20,
    sampling_ticks_per_observation=3,
)


def tiny_workload(cluster, seed):
    return RandomReadWrite(
        cluster, read_fraction=0.1, seed=seed, instances_per_client=2
    )


def tiny_config(seed: int = SEED) -> EnvConfig:
    return EnvConfig(
        cluster=ClusterConfig(n_servers=2, n_clients=2),
        workload_factory=tiny_workload,
        hp=HP,
        seed=seed,
    )


SCENARIO_KW = dict(first_tick=4, period=5, n_bursts=2, duration=2)


def plain_builder(seed: int, **scenario):
    """A tiny sim-lustre env, with ``scenario`` forwarded to
    :func:`make_env` when given."""
    return make_env(
        "sim-lustre",
        seed=seed,
        cluster=ClusterConfig(n_servers=2, n_clients=2),
        workload_factory=tiny_workload,
        hp=HP,
        **scenario,
    )


def scenario_builder(seed: int):
    """:func:`plain_builder` with a bursty scenario timeline attached."""
    return plain_builder(
        seed, scenario="sim-lustre-bursty", scenario_kwargs=SCENARIO_KW
    )


def rollout_digest(venv) -> str:
    """blake2b over the full observable surface of a short session:
    reset obs, chunked-collect rewards, stepped obs/rewards, one env
    driven out of lockstep and re-read, every fan-in DB row and the
    sampling frontier."""
    h = hashlib.blake2b(digest_size=16)
    try:
        obs = venv.reset()
        h.update(np.ascontiguousarray(obs).tobytes())
        rewards = venv.collect(10, chunk=4)
        h.update(np.ascontiguousarray(rewards).tobytes())
        for t in range(2):
            actions = [(t + i) % venv.n_actions for i in range(venv.n_envs)]
            obs, rew, _infos = venv.step(actions)
            h.update(np.ascontiguousarray(obs).tobytes())
            h.update(np.ascontiguousarray(rew).tobytes())
        # What a checkpoint measurement does: one env runs ahead, its
        # records are fanned in, and its row of the buffer is re-read.
        h.update(np.asarray(venv.env_method(0, "run_ticks", 2)).tobytes())
        h.update(np.ascontiguousarray(venv.refresh_observation(0)).tobytes())
        for i, top in enumerate(venv.spans.tops()):
            h.update(np.int64(top).tobytes())
            if top < 0:
                continue
            packed = venv.shared_db.cache.records_between(
                i * venv.tick_stride, i * venv.tick_stride + top
            )
            for name in ("ticks", "frames", "actions", "rewards"):
                h.update(getattr(packed, name).tobytes())
    finally:
        venv.close()
    return h.hexdigest()


# --------------------------------------------------------------------------
# Golden equivalence: every placement of the fleet is byte-identical
# --------------------------------------------------------------------------


def placement_digest(placement: str, builder=scenario_builder) -> str:
    """:func:`rollout_digest` of a 4-env fleet placed in-process or on
    forked workers.  A scenario env is the plain sim plus an event
    timeline, so one digest pins both."""
    factories = [
        functools.partial(builder, s) for s in vector_seeds(SEED, 4)
    ]
    return rollout_digest(
        VectorEnv(factories, backend=placement, tick_stride=STRIDE)
    )


@functools.lru_cache(maxsize=None)
def serial_digest() -> str:
    return placement_digest("serial")


@pytest.mark.parametrize("placement", ["serial", "fork"])
def test_placement_independence(placement):
    """Serial and forked fleets give one digest: the pipe transport is
    byte-transparent and per-env seeds derive from the env index alone,
    never from placement."""
    assert placement_digest(placement) == serial_digest(), (
        f"the {placement} fleet drifted from the serial one"
    )


def test_scenario_timeline_matches_fork_across_shards():
    """A scenario's event timeline fires, and fires identically on
    forked workers as in-process."""
    assert placement_digest("fork") == serial_digest()
    assert placement_digest("serial", plain_builder) != serial_digest(), (
        "the timeline never fired: the scenario fleet matches the plain one"
    )


# --------------------------------------------------------------------------
# Failure modes: crashes are named, close always reaps
# --------------------------------------------------------------------------

#: The remote media the crash tests run on (the ids name the medium).
MEDIA = ["fork"]


@contextmanager
def killable_fleet(n: int, stride: int = STRIDE):
    """An ``n``-env fork fleet; yields ``(venv, procs)``, env ``i``
    living in ``procs[i]``."""
    venv = VectorEnv.from_config(
        tiny_config(), n, backend="fork", tick_stride=stride
    )
    try:
        yield venv, [ch._proc for ch in venv._channels]
    finally:
        venv.close()


@pytest.mark.parametrize("medium", MEDIA)
def test_worker_killed_mid_run_chunk_is_a_named_crash(medium):
    """Regression: a worker dying mid-chunk used to surface as a bare
    ``EOFError`` from the pipe (or hang).  It must be a
    :class:`WorkerCrashError` naming the env and the command, promptly,
    and ``close()`` must still reap every process."""
    with killable_fleet(2, stride=1024) as (venv, procs):
        venv.reset()
        killer = threading.Timer(
            0.4, os.kill, args=(procs[0].pid, signal.SIGKILL)
        )
        killer.start()
        start = time.monotonic()
        try:
            with pytest.raises(WorkerCrashError) as excinfo:
                # ~80 ticks is a multi-second chunk for this sim: the
                # kill lands while the worker is deep inside run_chunk.
                venv.collect(80, chunk=80)
        finally:
            killer.cancel()
        assert time.monotonic() - start < 30, "crash surfaced, but late"
        assert excinfo.value.env_index == 0
        assert "run_chunk" in str(excinfo.value)
        venv.close()
        venv.close()  # idempotent
        for p in procs:
            p.join(timeout=10)
        assert all(not p.is_alive() for p in procs), "close() left orphans"


@pytest.mark.parametrize("medium", MEDIA)
def test_dead_worker_surfaces_as_named_crash_at_the_next_step(medium):
    with killable_fleet(2) as (venv, procs):
        venv.reset()
        os.kill(procs[1].pid, signal.SIGKILL)
        procs[1].join(timeout=10)
        with pytest.raises(WorkerCrashError) as excinfo:
            for _ in range(20):  # a pipe may buffer one post-mortem write
                venv.step([0, 0])
                time.sleep(0.05)
        assert excinfo.value.env_index == 1
        venv.close()
        venv.close()
        procs[0].join(timeout=10)
        assert all(not p.is_alive() for p in procs)


@pytest.mark.parametrize("medium", MEDIA)
def test_lost_link_names_the_env_and_shard(medium):
    """A dropped link names the env it served."""
    with killable_fleet(2) as (venv, _procs):
        venv.reset()
        venv._channels[1].close()  # the link to env 1 drops
        with pytest.raises(WorkerCrashError) as excinfo:
            venv.step([0, 0])
        assert excinfo.value.env_index == 1
        venv.close()
        venv.close()


def test_shard_env_error_crosses_verbatim_and_shard_survives():
    """One bad call is one exception, not a dead worker: the original
    exception type crosses back and the worker keeps serving."""
    with killable_fleet(2) as (venv, procs):
        venv.reset()
        with pytest.raises(AttributeError):
            venv.env_method(0, "definitely_not_a_method")
        obs, _rew, _infos = venv.step([0, 1])  # still alive
        assert obs.shape == (2, venv.obs_dim)
        assert all(p.is_alive() for p in procs)


# --------------------------------------------------------------------------
# Old artifacts: sessions of the retired shards backend
# --------------------------------------------------------------------------


def as_sharded(env_meta: dict, sizes) -> dict:
    """``env_meta`` as a shards-backend fleet of shard ``sizes`` wrote
    it: the backend name and the layout key the snapshot carried."""
    return {
        **env_meta,
        "backend": "shards",
        "shards": {
            "addresses": [f"127.0.0.1:{9401 + s}" for s in range(len(sizes))],
            "sizes": list(sizes),
            "acks": [{"n_envs": k, "open": k} for k in sizes],
        },
    }


def test_sharded_snapshot_restores_across_backends_and_layouts():
    """An op-log snapshot a 2x2 sharded fleet wrote restores onto a
    4-env fork fleet and a serial fleet, and both continue
    byte-identically."""
    cont_actions = [1, 2, 0, 1]
    venv = VectorEnv.from_config(
        tiny_config(), 4, backend="fork", tick_stride=STRIDE
    )
    try:
        venv.reset()
        venv.collect(6, chunk=3)
        venv.step([0, 1, 2, 3])
        snap = venv.snapshot()
        obs, rew, _ = venv.step(cont_actions)
        want_obs, want_rew = obs.copy(), rew.copy()
        want_tops = venv.spans.tops()
    finally:
        venv.close()
    snap = {"meta": as_sharded(snap["meta"], [2, 2]), "arrays": {}}

    for backend in ("fork", "serial"):
        restored = VectorEnv.from_config(
            tiny_config(), 4, backend=backend, tick_stride=STRIDE
        )
        try:
            restored.restore(snap)
            obs, rew, _ = restored.step(cont_actions)
            assert np.array_equal(obs, want_obs), backend
            assert np.array_equal(rew, want_rew), backend
            assert restored.spans.tops() == want_tops, backend
        finally:
            restored.close()


#: A conf with the same tiny cluster as :func:`tiny_config`.
CONF_TEXT = '''\
from repro.workloads import RandomReadWrite

N_SERVERS = 2
N_CLIENTS = 2
HIDDEN_LAYER_SIZE = 8
EXPLORATION_TICKS = 20
SEED = 42


def WORKLOAD(cluster, seed):
    return RandomReadWrite(
        cluster, read_fraction=0.1, instances_per_client=2, seed=seed
    )
'''


def _digest_line(out: str) -> str:
    for line in out.splitlines():
        if line.startswith("rollout digest:"):
            return line.split(":", 1)[1].strip()
    raise AssertionError(f"no digest line in: {out}")


def sharded_session(tmp_path, capsys):
    """A 20-tick fork collect rewritten as a shards-backend session.

    Returns ``(conf, artifact, fork_digest)``: the tick-10 snapshot as
    the retired backend wrote it, and the uninterrupted fork run's
    rollout digest at tick 20.
    """
    from repro.cli import main

    conf = tmp_path / "conf.py"
    conf.write_text(CONF_TEXT)
    snaps = tmp_path / "snaps"
    assert main([
        "collect", "--config", str(conf), "--ticks", "20", "--chunk", "5",
        "--n-envs", "2", "--vector-backend", "fork",
        "--snapshot-every", "10", "--snapshot-dir", str(snaps),
    ]) == 0
    fork_digest = _digest_line(capsys.readouterr().out)

    snap = SessionSnapshot.load(snaps / "snapshot-00000010.npz")
    session = snap.section("session")
    session.update(
        backend="shards",
        vector_backend="shards",
        shards=["127.0.0.1:9401", "127.0.0.1:9402"],
    )
    snap.section("env").update(as_sharded(snap.section("env"), [1, 1]))
    (tmp_path / "sharded").mkdir()
    old = snap.save(tmp_path / "sharded" / "snapshot-00000010.npz")
    return conf, old, fork_digest


def test_cli_resumes_a_sharded_session_on_fork(tmp_path, capsys):
    """``repro resume`` on a shards-backend session snapshot says it
    resumes on fork, then prints the uninterrupted fork run's digest."""
    from repro.cli import main

    conf, old, fork_digest = sharded_session(tmp_path, capsys)
    assert main(["resume", str(old), "--config", str(conf)]) == 0
    out = capsys.readouterr().out
    assert "resuming it on fork" in out
    assert "(fork backend, 2 cluster(s))" in out
    assert _digest_line(out) == fork_digest


def test_cli_replays_a_sharded_session_on_fork(tmp_path, capsys):
    """``repro replay --at 20`` from a shards-backend snapshot at tick
    10 rebuilds the fleet on fork and prints the fork run's digest."""
    from repro.cli import main

    conf, old, fork_digest = sharded_session(tmp_path, capsys)
    assert main([
        "replay", "--config", str(conf), "--at", "20",
        "--snapshot-dir", str(old.parent),
    ]) == 0
    out = capsys.readouterr().out
    assert "resuming it on fork" in out
    assert f"rollout digest at tick 20: {fork_digest}" in out.splitlines()
