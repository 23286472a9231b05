"""Sharded collection: remote shards == forked workers, byte for byte.

The distribution contract of the ``shards`` backend: a fleet split
across shard hosts over TCP produces **byte-identical** traces,
replay-DB contents and frontiers to the same fleet as forked local
workers — and to any other shard layout of the same total (placement
independence), because per-env seeds derive from the global index
alone.  On top of that, the failure modes the refactor exists for: a
worker dying mid-chunk surfaces as :class:`WorkerCrashError` naming
the env (and shard), never a bare ``EOFError``; ``close()`` is
idempotent and always reaps; op-log snapshots restore across backends
and shard layouts.

Hosts run in daemon threads (real sockets, one process) so the full
framed/codec path is exercised without subprocess scaffolding; the one
exception is the last test, which drives the CLI ``shard-host`` and
``collect --shard`` processes end to end.
"""

import functools
import hashlib
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.env import (
    EnvConfig,
    ShardHost,
    StorageTuningEnv,
    VectorEnv,
    WorkerCrashError,
    make_env,
)
from repro.env.shard import SHARD_PROTO
from repro.replaydb.db import CACHE_ONLY, ReplayDB
from repro.replaydb.spans import TickSpans
from repro.rl import Hyperparameters
from repro.snapshot.layers import capture_replay
from repro.transport import (
    MSG_CMD,
    MSG_ERR,
    SocketTransport,
    decode_error,
    encode_command,
)
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


def plain_builder(seed: int) -> StorageTuningEnv:
    """What a ``repro shard-host --config`` process builds per env."""
    return StorageTuningEnv(
        replace(tiny_config(), seed=seed, db_path=CACHE_ONLY)
    )


SCENARIO_KW = dict(first_tick=4, period=5, n_bursts=2, duration=2)


def scenario_builder(seed: int):
    """A scenario timeline rides the shard exactly like ``--env``."""
    return make_env(
        "sim-lustre-bursty",
        seed=seed,
        scenario_kwargs=SCENARIO_KW,
        cluster=ClusterConfig(n_servers=2, n_clients=2),
        hp=HP,
    )


@contextmanager
def running_shards(builder, sizes):
    """Shard hosts in daemon threads, one connection each; yields
    their addresses in fleet order."""
    hosts = [ShardHost(builder, k) for k in sizes]
    threads = [
        threading.Thread(
            target=h.serve_forever, kwargs={"once": True}, daemon=True
        )
        for h in hosts
    ]
    for t in threads:
        t.start()
    try:
        yield [h.address for h in hosts]
    finally:
        for t in threads:
            t.join(timeout=10)
        for h in hosts:
            h.close()


def rollout_digest(venv) -> str:
    """blake2b over the full observable surface of a short session:
    reset obs, chunked-collect rewards, stepped obs/rewards, every
    fan-in DB row and the sampling frontier."""
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
# Golden equivalence: shards == fork == any shard layout
# --------------------------------------------------------------------------


def test_two_shard_socket_collection_matches_fork():
    """2x2 over TCP is byte-identical to 4 forked workers."""
    with running_shards(plain_builder, [2, 2]) as addrs:
        venv = VectorEnv.from_config(
            tiny_config(), 4, backend="shards", shards=addrs,
            tick_stride=STRIDE,
        )
        assert venv.shard_sizes == [2, 2]
        shard_digest = rollout_digest(venv)
    fork_digest = rollout_digest(
        VectorEnv.from_config(
            tiny_config(), 4, backend="fork", tick_stride=STRIDE
        )
    )
    assert shard_digest == fork_digest, (
        "sharded socket collection drifted from the fork backend: the "
        "transports are no longer byte-transparent"
    )


def test_shard_placement_independence():
    """1x4 and 2x2 layouts of the same fleet are byte-identical: seeds
    derive from the global env index, never from placement."""
    with running_shards(plain_builder, [4]) as addrs:
        one = rollout_digest(
            VectorEnv.from_config(
                tiny_config(), 4, backend="shards", shards=addrs,
                tick_stride=STRIDE,
            )
        )
    with running_shards(plain_builder, [2, 2]) as addrs:
        two = rollout_digest(
            VectorEnv.from_config(
                tiny_config(), 4, backend="shards", shards=addrs,
                tick_stride=STRIDE,
            )
        )
    assert one == two


def test_scenario_timeline_matches_fork_across_shards():
    """A scenario's event timeline fires identically on remote shards."""
    seeds = None
    from repro.env import vector_seeds

    seeds = vector_seeds(SEED, 4)
    factories = [
        functools.partial(scenario_builder, s) for s in seeds
    ]
    fork_digest = rollout_digest(
        VectorEnv(factories, backend="fork", tick_stride=STRIDE)
    )
    with running_shards(scenario_builder, [2, 2]) as addrs:
        shard_digest = rollout_digest(
            VectorEnv(
                None,
                backend="shards",
                shards=addrs,
                base_seed=SEED,
                tick_stride=STRIDE,
            )
        )
    assert shard_digest == fork_digest


def test_from_config_rejects_n_envs_mismatch():
    with running_shards(plain_builder, [2, 2]) as addrs:
        with pytest.raises(ValueError, match="requested n_envs=3"):
            VectorEnv.from_config(
                tiny_config(), 3, backend="shards", shards=addrs,
                tick_stride=STRIDE,
            )


def test_hello_proto_mismatch_is_refused():
    """A master speaking the wrong protocol version is turned away."""
    with running_shards(plain_builder, [1]) as addrs:
        t = SocketTransport.connect(addrs[0], timeout=5.0)
        try:
            t.send(
                MSG_CMD,
                encode_command("hello", 0, {"proto": SHARD_PROTO + 99}),
            )
            msg_type, payload = t.recv()
            assert msg_type == MSG_ERR
            _env, text, exc = decode_error(payload)
            assert "proto" in text
        finally:
            t.close()


# --------------------------------------------------------------------------
# Failure modes: crashes are named, close always reaps
# --------------------------------------------------------------------------


def test_fork_worker_killed_mid_run_chunk_is_a_named_crash():
    """Regression: a worker dying mid-chunk used to surface as a bare
    ``EOFError`` from the pipe (or hang).  It must be a
    :class:`WorkerCrashError` naming the env and command, promptly, and
    ``close()`` must still reap every process."""
    venv = VectorEnv.from_config(
        tiny_config(), 2, backend="fork", tick_stride=1024
    )
    procs = [w._proc for w in venv._workers]
    venv.reset()
    killer = threading.Timer(
        0.4, os.kill, args=(procs[0].pid, signal.SIGKILL)
    )
    killer.start()
    start = time.monotonic()
    try:
        with pytest.raises(WorkerCrashError) as excinfo:
            # ~80 ticks is a multi-second chunk for this sim: the kill
            # lands while the worker is deep inside run_chunk.
            venv.collect(80, chunk=80)
    finally:
        killer.cancel()
    assert time.monotonic() - start < 30, "crash surfaced, but not promptly"
    assert excinfo.value.env_index == 0
    assert "run_chunk" in str(excinfo.value)
    assert "EOFError" not in type(excinfo.value).__name__
    venv.close()
    venv.close()  # idempotent
    assert all(not p.is_alive() for p in procs), "close() left orphans"


def test_dead_fork_worker_surfaces_at_submit_too():
    venv = VectorEnv.from_config(
        tiny_config(), 2, backend="fork", tick_stride=STRIDE
    )
    venv.reset()
    os.kill(venv._workers[1]._proc.pid, signal.SIGKILL)
    venv._workers[1]._proc.join(timeout=10)
    with pytest.raises(WorkerCrashError) as excinfo:
        for _ in range(20):  # the pipe may buffer one post-mortem write
            venv.step([0, 0])
            time.sleep(0.05)
    assert excinfo.value.env_index == 1
    venv.close()
    venv.close()
    assert all(not w._proc.is_alive() for w in venv._workers)


def test_lost_shard_names_the_shard_and_env():
    with running_shards(plain_builder, [1, 1]) as addrs:
        venv = VectorEnv.from_config(
            tiny_config(), 2, backend="shards", shards=addrs,
            tick_stride=STRIDE,
        )
        venv.reset()
        venv._channels[1].close()  # the shard link drops
        with pytest.raises(WorkerCrashError) as excinfo:
            venv.step([0, 0])
        assert excinfo.value.shard == addrs[1]
        assert excinfo.value.env_index == 1
        venv.close()
        venv.close()


def test_shard_env_error_crosses_verbatim_and_shard_survives():
    """One bad call is one exception, not a dead shard: the original
    exception type crosses back and the session keeps serving."""
    with running_shards(plain_builder, [2]) as addrs:
        venv = VectorEnv.from_config(
            tiny_config(), 2, backend="shards", shards=addrs,
            tick_stride=STRIDE,
        )
        try:
            venv.reset()
            with pytest.raises(AttributeError):
                venv.env_method(0, "definitely_not_a_method")
            obs, rew, _infos = venv.step([0, 1])  # still alive
            assert obs.shape == (2, venv.obs_dim)
        finally:
            venv.close()


# --------------------------------------------------------------------------
# Snapshots: sharded sessions resume on any backend, any layout
# --------------------------------------------------------------------------


def test_sharded_snapshot_restores_across_backends_and_layouts():
    """An op-log snapshot taken on a 2x2 sharded fleet restores onto a
    4-env fork fleet, a serial fleet and a 1x4 shard layout — and all
    of them continue byte-identically."""
    cont_actions = [1, 2, 0, 1]
    with running_shards(plain_builder, [2, 2]) as addrs:
        venv = VectorEnv.from_config(
            tiny_config(), 4, backend="shards", shards=addrs,
            tick_stride=STRIDE,
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

    shards_meta = snap["meta"]["shards"]
    assert shards_meta["addresses"] == addrs
    assert shards_meta["sizes"] == [2, 2]
    assert [a["n_envs"] for a in shards_meta["acks"]] == [2, 2]

    def continues_identically(restored):
        try:
            restored.restore(snap)
            obs, rew, _ = restored.step(cont_actions)
            assert np.array_equal(obs, want_obs)
            assert np.array_equal(rew, want_rew)
            assert restored.spans.tops() == want_tops
        finally:
            restored.close()

    continues_identically(
        VectorEnv.from_config(
            tiny_config(), 4, backend="fork", tick_stride=STRIDE
        )
    )
    continues_identically(
        VectorEnv.from_config(
            tiny_config(), 4, backend="serial", tick_stride=STRIDE
        )
    )
    with running_shards(plain_builder, [4]) as addrs2:
        continues_identically(
            VectorEnv.from_config(
                tiny_config(), 4, backend="shards", shards=addrs2,
                tick_stride=STRIDE,
            )
        )


def test_fork_snapshot_restores_onto_shards():
    """The reverse direction: a local fork session migrates onto
    remote shards mid-run."""
    venv = VectorEnv.from_config(
        tiny_config(), 2, backend="fork", tick_stride=STRIDE
    )
    try:
        venv.reset()
        venv.collect(5)
        snap = venv.snapshot()
        obs, rew, _ = venv.step([1, 0])
        want_obs, want_rew = obs.copy(), rew.copy()
    finally:
        venv.close()
    with running_shards(plain_builder, [1, 1]) as addrs:
        restored = VectorEnv.from_config(
            tiny_config(), 2, backend="shards", shards=addrs,
            tick_stride=STRIDE,
        )
        try:
            restored.restore(snap)
            obs, rew, _ = restored.step([1, 0])
            assert np.array_equal(obs, want_obs)
            assert np.array_equal(rew, want_rew)
        finally:
            restored.close()


# --------------------------------------------------------------------------
# The frontier's shard dimension
# --------------------------------------------------------------------------


class TestShardedTickSpans:
    def test_topology_arithmetic(self):
        spans = TickSpans(5, 16, shard_sizes=[2, 3])
        assert spans.n_shards == 2
        assert spans.shard_offset(0) == 0 and spans.shard_offset(1) == 2
        assert [spans.shard_of(b) for b in range(5)] == [0, 0, 1, 1, 1]
        assert spans.global_slot(1, 2) == 4
        with pytest.raises(IndexError):
            spans.global_slot(1, 3)
        with pytest.raises(IndexError):
            spans.shard_offset(2)

    def test_shard_tops_are_per_shard_views(self):
        spans = TickSpans(4, 8, shard_sizes=[1, 3])
        for block, top in ((0, 3), (1, 5), (3, 1)):
            spans.observe_top(block, top)
        assert spans.shard_tops(0) == [3]
        assert spans.shard_tops(1) == [5, -1, 1]
        assert spans.tops() == [3, 5, -1, 1]

    def test_unsharded_is_one_shard(self):
        spans = TickSpans(3, 8)
        assert spans.n_shards == 1
        assert spans.shard_tops(0) == [-1, -1, -1]
        assert spans.shard_of(2) == 0

    def test_sizes_must_sum_to_blocks(self):
        with pytest.raises(ValueError, match="sum to"):
            TickSpans(4, 8, shard_sizes=[2, 3])
        with pytest.raises(ValueError):
            TickSpans(4, 8, shard_sizes=[4, 0])

    def test_samplers_are_oblivious_to_sharding(self):
        plain = TickSpans(4, 8)
        sharded = TickSpans(4, 8, shard_sizes=[2, 2])
        for block, top in enumerate([2, 4, 6, 1]):
            plain.observe_top(block, top)
            sharded.observe_top(block, top)
        assert plain.candidate_spans(3) == sharded.candidate_spans(3)

    def test_snapshot_layer_records_topology(self):
        db = ReplayDB(2, path=CACHE_ONLY, cache_capacity=64)
        meta, _arrays = capture_replay(db, TickSpans(4, 8, shard_sizes=[1, 3]))
        assert meta["shard_sizes"] == [1, 3]
        meta, _arrays = capture_replay(db, TickSpans(4, 8))
        assert "shard_sizes" not in meta
        db.close()

    def test_from_tops_carries_shard_sizes(self):
        spans = TickSpans.from_tops(8, [1, 2, 3, 4], shard_sizes=[2, 2])
        assert spans.shard_tops(1) == [3, 4]


# --------------------------------------------------------------------------
# The CLI process path: real `repro shard-host` subprocesses
# --------------------------------------------------------------------------

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The shard hosts' conf: the same tiny cluster as :func:`tiny_config`.
CONF_TEXT = '''\
"""Shard-host conf for the CLI end-to-end test."""
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


def _subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def spawn_host(conf_path, n_envs: int):
    """One real ``repro shard-host --once`` process; returns
    ``(proc, address)`` once the ephemeral port is known."""
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "shard-host",
            "--config",
            str(conf_path),
            "--n-envs",
            str(n_envs),
            "--bind",
            "127.0.0.1:0",
            "--once",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_subprocess_env(),
        cwd=REPO_ROOT,
    )
    # The launch contract: the first stdout line names the bound
    # address ("shard-host listening on HOST:PORT (K env(s))").
    line = proc.stdout.readline()
    if "listening on" not in line:
        proc.kill()
        raise RuntimeError(f"shard-host failed to start: {line!r}")
    return proc, line.split("listening on ", 1)[1].split()[0]


def _reap(procs, timeout: float = 30.0):
    for proc in procs:
        try:
            assert proc.wait(timeout=timeout) == 0, proc.stdout.read()
        finally:
            if proc.poll() is None:  # pragma: no cover - hung host
                proc.kill()


def test_cli_collect_attaches_to_shards_e2e(tmp_path):
    """The full CLI loop: spawn `repro shard-host` twice, fan both into
    one `repro collect --shard ... --shard ...` session."""
    conf_path = tmp_path / "conf.py"
    conf_path.write_text(CONF_TEXT)
    procs, addrs = [], []
    try:
        for _ in range(2):
            proc, addr = spawn_host(conf_path, 1)
            procs.append(proc)
            addrs.append(addr)
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "collect",
                "--config",
                str(conf_path),
                "--ticks",
                "24",
                "--chunk",
                "12",
                "--n-envs",
                "2",
                "--shard",
                addrs[0],
                "--shard",
                addrs[1],
            ],
            capture_output=True,
            text=True,
            env=_subprocess_env(),
            cwd=REPO_ROOT,
            timeout=300,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        _reap(procs)
        procs = []
    finally:
        for proc in procs:  # pragma: no cover - failure cleanup
            proc.kill()
