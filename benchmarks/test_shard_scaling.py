"""Sharded-collection scaling: two shard hosts vs one, over real TCP.

The distribution claim of the ``repro.transport`` refactor, measured
end to end with the production entry points: real ``repro shard-host``
subprocesses (own interpreters, own cores), a master attaching over
localhost TCP, chunked monitoring-only collection fanned into one
shared replay DB.

Two configurations of the same 2-env fleet:

- **1 shard x 2 envs** — one host process serves both clusters, so
  their simulation work is serialized on its core (the ``serial``
  backend with a socket in the middle);
- **2 shards x 1 env** — each cluster gets its own host process; a
  chunk's simulation work runs genuinely in parallel.

``shard_scaling`` is the throughput ratio of the two.  The rows merge
into ``BENCH_collect.json`` (read-update-write, preserving the
collection-throughput rows) and CI uploads the file on every run.  The
ratio is recorded, not asserted: with two cores, a master and two hosts
it measures the scheduler as much as the transport.
``REPRO_BENCH_SHARD_TICKS`` resizes the measurement.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.env import VectorEnv

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_collect.json"

SEED = 42
SHARD_TICKS = int(os.environ.get("REPRO_BENCH_SHARD_TICKS", "60"))
REPEATS = 3

#: The shard hosts' conf: a deliberately small cluster so host startup
#: and socket traffic are a visible share of the cost being measured.
CONF_TEXT = '''\
"""Shard-scaling benchmark conf (written by test_shard_scaling.py)."""
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


@pytest.fixture(scope="module")
def conf_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("shard_bench") / "conf.py"
    path.write_text(CONF_TEXT)
    return path


def _subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p
        for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH"))
        if p
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


def _sharded_rate(conf_path, sizes) -> float:
    """Ticks/s of one chunked collect over freshly spawned hosts."""
    procs, addrs = [], []
    try:
        for k in sizes:
            proc, addr = spawn_host(conf_path, k)
            procs.append(proc)
            addrs.append(addr)
        venv = VectorEnv(
            None, backend="shards", shards=addrs, base_seed=SEED
        )
        try:
            venv.reset()
            t0 = time.perf_counter()
            venv.collect(SHARD_TICKS)
            elapsed = time.perf_counter() - t0
            n_envs = venv.n_envs
        finally:
            venv.close()
        _reap(procs)
        procs = []
        return SHARD_TICKS * n_envs / elapsed
    finally:
        for proc in procs:  # pragma: no cover - failure cleanup
            proc.kill()


@pytest.fixture(scope="module")
def bench(conf_path):
    """Best-of-N for both layouts, interleaved round-robin (same
    anti-drift discipline as the collection-throughput bench)."""
    single = two = 0.0
    for _ in range(REPEATS):
        single = max(single, _sharded_rate(conf_path, [2]))
        two = max(two, _sharded_rate(conf_path, [1, 1]))
    return {
        "shard_n_envs": 2,
        "shard_collect_ticks": SHARD_TICKS,
        "single_shard_ticks_per_s": round(single, 1),
        "sharded_ticks_per_s": round(two, 1),
        "shard_scaling": round(two / single, 2),
    }


def test_shard_scaling_records_bench_json(bench):
    # Read-update-write: the collection-throughput bench owns the other
    # rows of this file and may have run first (or not at all).
    data = {}
    if OUT_PATH.exists():
        data = json.loads(OUT_PATH.read_text())
    data.update(bench)
    OUT_PATH.write_text(json.dumps(data, indent=2) + "\n")
    print(f"\nshard scaling (2 envs): {json.dumps(bench)}")
    assert bench["single_shard_ticks_per_s"] > 0
    assert bench["sharded_ticks_per_s"] > 0


def test_cli_collect_attaches_to_shards_e2e(conf_path):
    """The full CLI loop: spawn `repro shard-host` twice, fan both into
    one `repro collect --shard ... --shard ...` session."""
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
