"""Substrate micro-benchmarks (engine, codec, sampler, DNN, vec fleet).

Not a paper table — these record the performance assumptions the
experiment harness relies on: what one discrete-event costs with and
without model code behind it, the wire codec must be far off the
critical path, one DNN training step must be milliseconds, and the
struct-of-arrays fleet kernel (``repro.sim.vec``) must advance a
16-cluster fleet at least 5x faster than the reference engine advances
the same clusters one by one.  Two more rows record what one fleet tick
costs on the acting path (``vec_step_us_per_fleet_tick``) and on the
chunked monitoring path (``vec_chunk_us_per_env_tick``); they are
recorded, never asserted.

The two event-throughput tests print and do not judge (no wall-clock
comparison may fail a test); the gated number for the discrete-event
path is ``units_per_s`` on ``python3 -m bench --workload des_session``.

The Algorithm 1 sampler runs before every SGD step, so it is *on* the
critical path: assembled tick by tick it cost 1.22 ms next to a 1.61 ms
train step (43 % of the pair, ``python3 -m bench --workload vec_train
--trace 1``); as one batched gather it costs 0.13 ms next to 1.28 ms
(9 %).
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.nn import MLP, Adam
from repro.nn.losses import mse_loss
from repro.replaydb import (
    MinibatchSampler,
    ReplayCache,
    ReplayDB,
    StridedMinibatchSampler,
    TickSpans,
)
from repro.sim import Simulator, Timeout
from repro.telemetry import DifferentialDecoder, DifferentialEncoder

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_collect.json"


def _merge_bench(**rows):
    """Read-modify-write: the collect-throughput bench owns the file's
    other rows."""
    bench = json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() else {}
    bench.update(rows)
    BENCH_PATH.write_text(json.dumps(bench, indent=2) + "\n")


def _fleet_config(n_clients):
    """The figure benches' cluster and compressed hyperparameters."""
    from repro.cluster import ClusterConfig
    from repro.env import EnvConfig
    from repro.rl import Hyperparameters
    from repro.workloads import RandomReadWrite

    def workload(cluster, seed):
        return RandomReadWrite(
            cluster, read_fraction=0.1, seed=seed, instances_per_client=5
        )

    return EnvConfig(
        cluster=ClusterConfig(n_servers=2, n_clients=n_clients),
        workload_factory=workload,
        hp=Hyperparameters(
            hidden_layer_size=64,
            exploration_ticks=800,
            sampling_ticks_per_observation=10,
        ),
        seed=42,
    )


@pytest.mark.benchmark(group="perf")
def test_perf_engine_event_throughput(benchmark):
    """Bare kernel: pop, dispatch, one generator frame, one bound timeout.

    Ten processes that do nothing but ``yield Timeout`` — no model code,
    no fabric, no per-event allocation beyond the timeout itself — so
    this is the floor under the cluster's per-event cost, not a forecast
    of it (``test_perf_cluster_event_throughput`` costs about 3x as much
    per event).  530k events/s before ``Simulator.run`` dispatched
    inline, 760k after, on the 2-core box that made the change.
    """

    def run():
        sim = Simulator()

        def chain(n):
            for _ in range(n):
                yield Timeout(0.001)

        for _ in range(10):
            sim.spawn(chain(1000))
        sim.run()
        return sim.events_processed

    events = benchmark(run)
    rate = events / benchmark.stats["mean"]
    print(f"\nengine: {events} events in {benchmark.stats['mean'] * 1e3:.1f} ms "
          f"-> {rate / 1e3:.0f}k events/s, {1e6 / rate:.2f} us/event")
    assert events == 10_020  # 10 x (start + 1000 timeouts + exit)


def test_perf_cluster_event_throughput():
    """Per-event cost with the cluster model behind every event.

    The benchmark's 2x5 write-heavy cluster for 20 simulated seconds,
    no tuner: every event goes through the fabric, the RPC path, the
    server worker or a workload instance.  The event count is part of
    the simulator's contract (same seed, same events in the same order)
    and is asserted; the rate is printed, best of two runs.
    """
    from repro.cluster import Cluster, ClusterConfig
    from repro.workloads import RandomReadWrite

    def run():
        sim = Simulator()
        cluster = Cluster(sim, ClusterConfig(n_servers=2, n_clients=5))
        RandomReadWrite(
            cluster, read_fraction=0.1, seed=42, instances_per_client=5
        ).start()
        t0 = time.perf_counter()
        for tick in range(1, 21):
            sim.run(until=float(tick))
        return sim.events_processed, time.perf_counter() - t0

    (events, first), (again, second) = run(), run()
    assert events == again > 0
    elapsed = min(first, second)
    print(
        f"\ncluster: {events} events in {elapsed * 1e3:.0f} ms -> "
        f"{events / elapsed / 1e3:.0f}k events/s, "
        f"{elapsed / events * 1e6:.2f} us/event"
    )


def test_perf_tick_all():
    """One ``tick_all`` over a 16-cluster fleet vs 16 reference envs.

    The tentpole claim of the vec engine: advancing N clusters as rows
    of shared numpy arrays must beat the discrete-event reference
    advancing the same N clusters sequentially — by >= 5x on a single
    core, no skip gating (the kernel needs no parallelism to win).
    Merges ``vec_ticks_per_s`` / ``vec_collect_speedup`` into
    ``BENCH_collect.json`` (read-modify-write: the collect-throughput
    bench owns the file's other rows).
    """
    from repro.env import StorageTuningEnv
    from repro.sim.vec import FleetEnv

    config = _fleet_config(n_clients=3)
    n_vec, vec_ticks = 16, 200
    ref_ticks = 30

    fleet = FleetEnv(config, n_envs=n_vec)
    fleet.reset()
    fleet.run_chunk(10)  # warm caches/JIT'd ufunc paths out of the timing
    t0 = time.perf_counter()
    fleet.run_chunk(vec_ticks)
    vec_rate = n_vec * vec_ticks / (time.perf_counter() - t0)
    fleet.close()

    # Reference per-env rate from one env (the N-loop is sequential, so
    # its aggregate rate equals the single-env rate).
    env = StorageTuningEnv(config)
    env.reset()
    t0 = time.perf_counter()
    env.run_ticks(ref_ticks)
    ref_rate = ref_ticks / (time.perf_counter() - t0)
    env.close()

    speedup = vec_rate / ref_rate
    print(
        f"\ntick_all: {vec_rate:.0f} env-ticks/s over {n_vec} clusters "
        f"vs {ref_rate:.1f}/s reference -> {speedup:.0f}x"
    )
    _merge_bench(
        vec_n_envs=n_vec,
        vec_ticks_per_s=round(vec_rate, 1),
        vec_collect_speedup=round(speedup, 2),
    )
    assert speedup >= 5.0, (vec_rate, ref_rate)


def test_perf_vec_step():
    """One acting fleet tick: ``VectorEnv.step`` on the vec backend.

    16 envs of the repo benchmark's shape (2 servers x 5 clients,
    stride 8192), seeded random actions — what ``CapesTuner`` and the
    vec evidence sweeps run, and what no ``BENCHMARK.json`` workload
    times.  1 110 us per fleet tick with per-env actions and one fan-in
    batch per env; the target for the fleet-wide action path and one
    batch per step was <= 600.  Best of three 200-step blocks, printed
    and merged into ``BENCH_collect.json``, never asserted.
    """
    from repro.env import VectorEnv

    n_envs, steps = 16, 200
    venv = VectorEnv.from_config(
        _fleet_config(n_clients=5), n_envs, backend="vec", tick_stride=8192
    )
    venv.reset()
    actions = np.random.default_rng(0).integers(
        0, venv.n_actions, size=(4, steps, n_envs)
    )
    blocks = []
    for block in actions:  # the first block warms up and is dropped
        t0 = time.perf_counter()
        for row in block:
            venv.step(row)
        blocks.append((time.perf_counter() - t0) / steps * 1e6)
    venv.close()
    step_us = min(blocks[1:])
    print(f"\nvec step: {step_us:.0f} us per {n_envs}-env acting fleet tick")
    _merge_bench(vec_step_us_per_fleet_tick=round(step_us, 1))


def test_perf_vec_chunk():
    """One chunked monitoring tick: ``FleetEnv.run_chunk(50, action=0)``.

    The physics-and-bookkeeping share of ``repro collect`` (no fan-in),
    same 16-env shape as ``test_perf_vec_step``.  24 us per env-tick
    with gathers and per-env NULL actions; the target for slices and
    the fleet-wide action path was <= 15.  Best of three four-chunk
    blocks, printed and merged, never asserted.
    """
    from repro.sim.vec import FleetEnv

    n_envs, chunk, chunks = 16, 50, 4
    fleet = FleetEnv(_fleet_config(n_clients=5), n_envs=n_envs)
    fleet.reset()
    fleet.run_chunk(chunk, action=0)
    blocks = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(chunks):
            fleet.run_chunk(chunk, action=0)
        blocks.append(
            (time.perf_counter() - t0) / (n_envs * chunk * chunks) * 1e6
        )
    fleet.close()
    chunk_us = min(blocks)
    print(f"\nvec chunk: {chunk_us:.1f} us per env-tick ({n_envs} envs)")
    _merge_bench(vec_chunk_us_per_env_tick=round(chunk_us, 2))


@pytest.mark.benchmark(group="perf")
def test_perf_wire_codec_roundtrip(benchmark):
    rng = np.random.default_rng(0)
    frames = rng.normal(size=(100, 220))  # cluster frame, 5 clients

    def run():
        enc = DifferentialEncoder(220)
        dec = DifferentialDecoder(220)
        for t in range(100):
            dec.decode(enc.encode(t, frames[t]))

    benchmark(run)
    per_msg = benchmark.stats["mean"] / 100
    print(f"\nwire codec: {per_msg * 1e6:.1f} us per encode+decode")
    assert per_msg < 0.005


@pytest.mark.benchmark(group="perf")
def test_perf_sampler_minibatch(benchmark):
    db = ReplayDB(220)
    rng = np.random.default_rng(0)
    for t in range(2000):
        db.put_observation(t, rng.normal(size=220), reward=1.0)
        db.put_action(t, 1)
    sampler = MinibatchSampler(db.cache, obs_ticks=10, seed=0)
    benchmark(sampler.sample_minibatch, 32)
    print(f"\nsampler: {benchmark.stats['mean'] * 1e3:.2f} ms per "
          f"32-transition minibatch")
    assert benchmark.stats["mean"] < 0.1

    # The fleet shape `python3 -m bench` trains on (16 blocks x stride
    # 8192, width 110).  Print-only: the gated number is the benchmark's.
    n_blocks, stride, filled = 16, 8192, 200
    cache = ReplayCache(110, capacity=n_blocks * stride)
    for block in range(n_blocks):
        cache.put_many(
            block * stride + np.arange(filled),
            rng.normal(size=(filled, 110)),
            np.ones(filled),
            np.ones(filled, dtype=np.int64),
        )
    strided = StridedMinibatchSampler(
        cache,
        TickSpans.from_tops(stride, [filled - 1] * n_blocks),
        obs_ticks=10,
        seed=0,
    )
    strided.sample_minibatch(32)
    t0 = time.perf_counter()
    for _ in range(200):
        strided.sample_minibatch(32)
    print(f"strided sampler (fleet shape): "
          f"{(time.perf_counter() - t0) / 200 * 1e3:.3f} ms per minibatch")


@pytest.mark.benchmark(group="perf")
def test_perf_dnn_forward_backward(benchmark):
    net = MLP.for_q_network(1100, 5, hidden_size=64, rng=0)
    opt = Adam(lr=1e-4)
    x = np.random.default_rng(0).normal(size=(32, 1100))
    target = np.zeros((32, 5))

    def step():
        net.zero_grad()
        loss, grad = mse_loss(net.forward(x), target)
        net.backward(grad)
        opt.step(net.parameters())
        return loss

    benchmark(step)
    print(f"\nDNN step (bench topology): "
          f"{benchmark.stats['mean'] * 1e3:.2f} ms")
    assert benchmark.stats["mean"] < 0.1
