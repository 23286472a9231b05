"""Experience-collection throughput: N-loop baseline vs vectorized.

The vectorized hot paths of the environment redesign, recorded:

- **batched act** — pricing N stacked observations with one forward
  pass (``DQNAgent.act_batch``) against N single-row ``act`` calls;
- **lockstep collection** — ``VectorEnv`` stepping N clusters with
  per-tick actions and shared-DB fan-in, against the plain Python loop
  over N independent single environments (the pre-vectorization way to
  run N clusters);
- **chunked collection** — monitoring-only ``VectorEnv.collect``
  (§3.3), which advances a whole chunk of ticks per worker round-trip
  and batches the replay fan-in (packed records + ``put_many``),
  against the per-tick monitoring-only N-loop;
- **vec backend** — the struct-of-arrays fleet engine
  (``repro.sim.vec``) behind the same ``VectorEnv`` surface: one
  ``tick_all`` advances every cluster with numpy array ops.

Results land in ``BENCH_collect.json`` at the repository root — CI
uploads it as an artifact on every run, so the collection-throughput
trajectory is recorded over time.  ``REPRO_BENCH_N_ENVS`` picks the
fleet size (default 2, the CI smoke setting).

Nothing here compares two wall-clock numbers: on a small shared box the
ratios measure the scheduler as much as the code (``python3 -m bench``
is the instrument for speed).  The rows are recorded; only their
positivity is asserted.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.env import EnvConfig, StorageTuningEnv, VectorEnv, vector_seeds
from repro.rl import DQNAgent, Hyperparameters
from repro.workloads import RandomReadWrite

N_ENVS = int(os.environ.get("REPRO_BENCH_N_ENVS", "2"))
COLLECT_TICKS = 60
#: Throughput rounds per configuration; best-of wins (single-core boxes
#: jitter by several percent run to run, swamping the effects measured).
REPEATS = 4
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_collect.json"

BENCH_HP = Hyperparameters(
    hidden_layer_size=64,
    exploration_ticks=800,
    sampling_ticks_per_observation=10,
)


def _workload(cluster, seed):
    return RandomReadWrite(
        cluster, read_fraction=0.1, seed=seed, instances_per_client=5
    )


def _config(seed: int = 42) -> EnvConfig:
    return EnvConfig(
        cluster=ClusterConfig(n_servers=2, n_clients=3),
        workload_factory=_workload,
        hp=BENCH_HP,
        seed=seed,
    )


def _make_nloop_envs():
    from dataclasses import replace

    cfg = _config()
    return [
        StorageTuningEnv(replace(cfg, seed=s))
        for s in vector_seeds(cfg.seed, N_ENVS)
    ]


def _nloop_collect(n_ticks: int) -> float:
    """The baseline: N single envs stepped one-by-one, per-obs act."""
    envs = _make_nloop_envs()
    observations = [env.reset() for env in envs]
    agent = DQNAgent(envs[0].obs_dim, envs[0].n_actions, hp=BENCH_HP, rng=0)
    t0 = time.perf_counter()
    for _ in range(n_ticks):
        for i, env in enumerate(envs):
            action = agent.act(observations[i], greedy=True)
            observations[i], _r, _info = env.step(action)
    elapsed = time.perf_counter() - t0
    for env in envs:
        env.close()
    return n_ticks * N_ENVS / elapsed


def _nloop_monitor(n_ticks: int) -> float:
    """Monitoring-only baseline: N single envs, per-tick NULL steps."""
    envs = _make_nloop_envs()
    for env in envs:
        env.reset()
    t0 = time.perf_counter()
    for _ in range(n_ticks):
        for env in envs:
            env.step(0)
    elapsed = time.perf_counter() - t0
    for env in envs:
        env.close()
    return n_ticks * N_ENVS / elapsed


def _vector_collect(n_ticks: int, backend: str) -> float:
    """Lockstep acting collection: batched act + per-tick fan-in."""
    venv = VectorEnv.from_config(_config(), N_ENVS, backend=backend)
    agent = DQNAgent(venv.obs_dim, venv.n_actions, hp=BENCH_HP, rng=0)
    obs = venv.reset()
    t0 = time.perf_counter()
    for _ in range(n_ticks):
        actions = agent.act_batch(obs, greedy=True)
        obs, _rewards, _infos = venv.step(actions)
    elapsed = time.perf_counter() - t0
    venv.close()
    return n_ticks * N_ENVS / elapsed


def _chunked_collect(n_ticks: int, backend: str) -> float:
    """Chunked monitoring-only collection: the fan-in hot path."""
    venv = VectorEnv.from_config(_config(), N_ENVS, backend=backend)
    venv.reset()
    t0 = time.perf_counter()
    venv.collect(n_ticks)
    elapsed = time.perf_counter() - t0
    venv.close()
    return n_ticks * N_ENVS / elapsed


def _act_bench(n: int, repeats: int = 300) -> tuple:
    """Per-call cost of N-loop act vs one batched act, microseconds."""
    agent = DQNAgent(
        BENCH_HP.sampling_ticks_per_observation * 66 * 3,
        5,
        hp=BENCH_HP,
        rng=0,
    )
    obs = np.random.default_rng(0).normal(size=(n, agent.obs_dim))
    # warm-up
    agent.act_batch(obs, greedy=True)
    [agent.act(o, greedy=True) for o in obs]
    t0 = time.perf_counter()
    for _ in range(repeats):
        for o in obs:
            agent.act(o, greedy=True)
    loop_us = (time.perf_counter() - t0) / repeats * 1e6
    t0 = time.perf_counter()
    for _ in range(repeats):
        agent.act_batch(obs, greedy=True)
    batch_us = (time.perf_counter() - t0) / repeats * 1e6
    return loop_us, batch_us


@pytest.fixture(scope="module")
def bench():
    """Measure every configuration once; tests share the numbers.

    The configurations are interleaved round-robin (one run of each per
    round, best-of over rounds) rather than measured back to back —
    shared boxes drift over a multi-minute benchmark, and sequential
    blocks would fold that drift into the ratios.
    """
    loop_us, batch_us = _act_bench(N_ENVS)
    runners = {
        "nloop_act": lambda: _nloop_collect(COLLECT_TICKS),
        "nloop_mon": lambda: _nloop_monitor(COLLECT_TICKS),
        "vec_serial": lambda: _vector_collect(COLLECT_TICKS, "serial"),
        "vec_fork": lambda: _vector_collect(COLLECT_TICKS, "fork"),
        "chunk_serial": lambda: _chunked_collect(COLLECT_TICKS, "serial"),
        "chunk_fork": lambda: _chunked_collect(COLLECT_TICKS, "fork"),
        "vec_lock": lambda: _vector_collect(COLLECT_TICKS, "vec"),
        "chunk_vec": lambda: _chunked_collect(COLLECT_TICKS, "vec"),
    }
    best: dict = {name: 0.0 for name in runners}
    for _ in range(REPEATS):
        for name, run in runners.items():
            best[name] = max(best[name], run())
    nloop_act, nloop_mon = best["nloop_act"], best["nloop_mon"]
    vec_serial, vec_fork = best["vec_serial"], best["vec_fork"]
    chunk_serial, chunk_fork = best["chunk_serial"], best["chunk_fork"]
    best_speedup = max(
        vec_serial / nloop_act,
        vec_fork / nloop_act,
        chunk_serial / nloop_mon,
        chunk_fork / nloop_mon,
    )
    return {
        "n_envs": N_ENVS,
        "collect_ticks": COLLECT_TICKS,
        "cpu_count": os.cpu_count(),
        "nloop_ticks_per_s": round(nloop_act, 1),
        "nloop_collect_ticks_per_s": round(nloop_mon, 1),
        "vector_serial_ticks_per_s": round(vec_serial, 1),
        "vector_fork_ticks_per_s": round(vec_fork, 1),
        "chunked_serial_ticks_per_s": round(chunk_serial, 1),
        "chunked_fork_ticks_per_s": round(chunk_fork, 1),
        "vector_vec_ticks_per_s": round(best["vec_lock"], 1),
        "chunked_vec_ticks_per_s": round(best["chunk_vec"], 1),
        "act_nloop_us": round(loop_us, 1),
        "act_batch_us": round(batch_us, 1),
        "act_batch_speedup": round(loop_us / batch_us, 2),
        "chunked_collect_speedup": round(
            max(chunk_serial, chunk_fork) / nloop_mon, 2
        ),
        "collect_best_speedup": round(best_speedup, 2),
    }


def test_collect_throughput_records_bench_json(bench):
    OUT_PATH.write_text(json.dumps(bench, indent=2) + "\n")
    print(f"\ncollection throughput ({N_ENVS} envs): " + json.dumps(bench))
    rates = {k: v for k, v in bench.items() if k.endswith(("_per_s", "_us"))}
    assert len(rates) == 10 and all(v > 0 for v in rates.values()), bench
