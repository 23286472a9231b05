"""Collection placement: serial == fork == any shard layout, byte for byte.

The distribution contract: one 4-env fleet run in-process, as forked
workers, or split across shard hosts over TCP in any layout produces
**byte-identical** traces, replay-DB contents and frontiers, because
the transports are byte-transparent and per-env seeds derive from the
global index alone.  On top of that, the failure modes, each on both
remote media (fork pipe and shard socket): a worker dying mid-chunk,
dead before a submit, or a dropped link surfaces as
:class:`WorkerCrashError` naming the env (and shard), never a bare
``EOFError``; ``close()`` is idempotent and always reaps; a failed
shard attach leaks no socket and leaves the host serving; op-log
snapshots restore across backends and shard layouts.

Most hosts run in daemon threads (real sockets, one process) so the
full framed/codec path is exercised without subprocess scaffolding.
The crash tests fork their hosts (a thread cannot be killed), and the
last test drives the CLI ``shard-host`` and ``collect --shard``
processes end to end.
"""

import functools
import hashlib
import multiprocessing
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
    vector_seeds,
)
from repro.env.shard import SHARD_PROTO
from repro.replaydb.db import CACHE_ONLY
from repro.rl import Hyperparameters
from repro.transport import (
    MSG_CMD,
    MSG_ERR,
    MSG_OK,
    ProtocolError,
    SocketListener,
    SocketTransport,
    TransportClosedError,
    decode_error,
    encode_command,
    encode_reply,
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

#: Shard layouts of the same 4-env fleet, by placement id.
SHARD_LAYOUTS = {"shards-4": [4], "shards-2x2": [2, 2], "shards-1x3": [1, 3]}


def placement_digest(placement: str) -> str:
    """:func:`rollout_digest` of a 4-env scenario fleet placed
    in-process, on forked workers or across shard hosts.  A scenario
    env is the plain sim plus an event timeline, so one digest pins
    both."""
    if placement in SHARD_LAYOUTS:
        with running_shards(
            scenario_builder, SHARD_LAYOUTS[placement]
        ) as addrs:
            return rollout_digest(
                VectorEnv(
                    None,
                    backend="shards",
                    shards=addrs,
                    base_seed=SEED,
                    tick_stride=STRIDE,
                )
            )
    factories = [
        functools.partial(scenario_builder, s)
        for s in vector_seeds(SEED, 4)
    ]
    return rollout_digest(
        VectorEnv(factories, backend=placement, tick_stride=STRIDE)
    )


@functools.lru_cache(maxsize=None)
def serial_digest() -> str:
    return placement_digest("serial")


@pytest.mark.parametrize(
    "placement", ["serial", "fork", *SHARD_LAYOUTS]
)
def test_placement_independence(placement):
    """Serial, forked and any shard layout give one digest: the
    transports are byte-transparent and per-env seeds derive from the
    global env index alone, never from placement."""
    assert placement_digest(placement) == serial_digest(), (
        f"the {placement} fleet drifted from the serial one"
    )


def test_scenario_timeline_matches_fork_across_shards():
    """A scenario's event timeline fires identically on remote shards
    as on forked local workers."""
    assert placement_digest("shards-2x2") == placement_digest("fork")


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
# Attach failures: nothing leaks, and the host survives them
# --------------------------------------------------------------------------


@contextmanager
def wrong_proto_listener():
    """A peer that answers the hello with a foreign protocol version;
    yields its address."""
    listener = SocketListener()

    def serve():
        t = listener.accept()
        try:
            t.recv()  # the master's hello
            t.send(
                MSG_OK,
                encode_reply(
                    "hello", {"proto": SHARD_PROTO + 1, "n_envs": 1}
                ),
            )
            t.recv()  # until the master hangs up
        except (TransportClosedError, ProtocolError):
            pass
        finally:
            t.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.address
    finally:
        thread.join(timeout=10)
        listener.close()


def test_failed_attach_closes_every_opened_shard_socket(monkeypatch):
    """A hello failing on the second shard closes the first shard's
    socket and its own — the master leaks no descriptor."""
    opened = []
    real_connect = SocketTransport.connect.__func__

    def spy_connect(cls, *args, **kwargs):
        transport = real_connect(cls, *args, **kwargs)
        opened.append(transport)
        return transport

    monkeypatch.setattr(SocketTransport, "connect", classmethod(spy_connect))
    with running_shards(plain_builder, [1]) as good:
        with wrong_proto_listener() as bad:
            with pytest.raises(ProtocolError, match="proto"):
                VectorEnv(
                    None,
                    backend="shards",
                    shards=[good[0], bad],
                    base_seed=SEED,
                    tick_stride=STRIDE,
                )
    assert len(opened) == 2
    assert [t._sock.fileno() for t in opened] == [-1, -1]


def test_env_builder_failure_is_replied_and_host_keeps_serving():
    """A builder that raises at attach is replied as an error frame
    carrying the exception (which the master re-raises verbatim), and
    the host goes on accepting masters."""
    calls = []

    def flaky_builder(seed):
        calls.append(seed)
        if len(calls) == 2:  # the first session's second env
            raise LookupError("no disk image for this seed")
        return plain_builder(seed)

    host = ShardHost(flaky_builder, 2)
    thread = threading.Thread(target=host.serve_forever, daemon=True)
    thread.start()
    try:
        t = SocketTransport.connect(host.address, timeout=5.0)
        t._sock.settimeout(30)  # a dead host fails the test, not hangs it
        try:
            t.send(MSG_CMD, encode_command("hello", 0, {"proto": SHARD_PROTO}))
            assert t.recv()[0] == MSG_OK
            t.send(MSG_CMD, encode_command("attach", 0, {"seeds": [1, 2]}))
            msg_type, payload = t.recv()
        finally:
            t.close()
        assert msg_type == MSG_ERR
        _env, _text, exc = decode_error(payload)
        assert isinstance(exc, LookupError)
        venv = VectorEnv(
            None, backend="shards", shards=[host.address],
            base_seed=SEED, tick_stride=STRIDE,
        )
        try:
            assert venv.reset().shape == (2, venv.obs_dim)
        finally:
            venv.close()
    finally:
        host.close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(calls) == 4


# --------------------------------------------------------------------------
# Failure modes: crashes are named, close always reaps — on both media
# --------------------------------------------------------------------------

MEDIA = ["fork", "shards"]


def _serve_one_shard(conn) -> None:
    """Forked child main: host one env, report the address, serve one
    master."""
    host = ShardHost(plain_builder, 1)
    conn.send(host.address)
    conn.close()
    host.serve_forever(once=True)


@contextmanager
def killable_fleet(medium: str, n: int, stride: int = STRIDE):
    """An ``n``-env fleet whose env ``i`` lives in ``procs[i]``: forked
    workers, or one single-env shard host per env in a forked process
    (a thread cannot be killed).  Yields ``(venv, procs, shards)``,
    ``shards[i]`` being env ``i``'s address (``None`` on fork)."""
    if medium == "fork":
        venv = VectorEnv.from_config(
            tiny_config(), n, backend="fork", tick_stride=stride
        )
        try:
            yield venv, [ch._proc for ch in venv._channels], [None] * n
        finally:
            venv.close()
        return
    context = multiprocessing.get_context("fork")
    procs, addrs = [], []
    try:
        for _ in range(n):
            parent, child = context.Pipe()
            proc = context.Process(
                target=_serve_one_shard, args=(child,), daemon=True
            )
            proc.start()
            procs.append(proc)
            child.close()
            with parent:
                addrs.append(parent.recv())
        venv = VectorEnv.from_config(
            tiny_config(), n, backend="shards", shards=addrs,
            tick_stride=stride,
        )
        try:
            yield venv, procs, addrs
        finally:
            venv.close()
    finally:
        for proc in procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - hung host
                proc.kill()
                proc.join()


@pytest.mark.parametrize("medium", MEDIA)
def test_worker_killed_mid_run_chunk_is_a_named_crash(medium):
    """Regression: a worker dying mid-chunk used to surface as a bare
    ``EOFError`` from the pipe (or hang).  It must be a
    :class:`WorkerCrashError` naming the env, the command and the
    shard, promptly, and ``close()`` must still reap every process."""
    with killable_fleet(medium, 2, stride=1024) as (venv, procs, shards):
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
        assert excinfo.value.shard == shards[0]
        assert "run_chunk" in str(excinfo.value)
        venv.close()
        venv.close()  # idempotent
        for p in procs:
            p.join(timeout=10)
        assert all(not p.is_alive() for p in procs), "close() left orphans"


@pytest.mark.parametrize("medium", MEDIA)
def test_dead_worker_surfaces_as_named_crash_at_the_next_step(medium):
    with killable_fleet(medium, 2) as (venv, procs, shards):
        venv.reset()
        os.kill(procs[1].pid, signal.SIGKILL)
        procs[1].join(timeout=10)
        with pytest.raises(WorkerCrashError) as excinfo:
            for _ in range(20):  # a pipe may buffer one post-mortem write
                venv.step([0, 0])
                time.sleep(0.05)
        assert excinfo.value.env_index == 1
        assert excinfo.value.shard == shards[1]
        venv.close()
        venv.close()
        procs[0].join(timeout=10)
        assert all(not p.is_alive() for p in procs)


@pytest.mark.parametrize("medium", MEDIA)
def test_lost_link_names_the_env_and_shard(medium):
    with killable_fleet(medium, 2) as (venv, _procs, shards):
        venv.reset()
        venv._channels[1].close()  # the link to env 1 drops
        with pytest.raises(WorkerCrashError) as excinfo:
            venv.step([0, 0])
        assert excinfo.value.env_index == 1
        assert excinfo.value.shard == shards[1]
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
                proc.wait()
            proc.stdout.close()


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
            proc.wait()
            proc.stdout.close()
