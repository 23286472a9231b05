"""Table 2 regeneration: technical measurements of the CAPES system.

Measures, on our substrate, every row of the paper's Table 2:

- duration of one training step (a real pytest-benchmark timing of the
  32-observation minibatch update; the paper reports ≈0.1 s CPU /
  ≈0.01 s GPU — we additionally benchmark a naive per-sample Python
  loop as the analogue of the CPU/GPU batching gap);
- replay-DB record count and on-disk/in-memory sizes;
- DNN model size;
- performance indicators per client (44 with the paper's four servers);
- observation size in floats;
- average compressed message size per client per tick.

The cluster here is paper-shaped (4 servers, 5 clients) so the PI
counts line up with the published numbers.
"""

import numpy as np
import pytest

from benchmarks._harness import BENCH_HP, make_capes, random_rw_workload
from repro import ClusterConfig
from repro.nn import MLP, Adam
from repro.replaydb.records import Minibatch
from repro.rl import DQNAgent, Hyperparameters

#: Paper values for reference printing.
PAPER = {
    "train_step_cpu_s": 0.1,
    "train_step_gpu_s": 0.01,
    "replay_records": 250_000,
    "model_bytes": 84e6,
    "replay_disk_bytes": 0.5e9,
    "replay_memory_bytes": 1.5e9,
    "pis_per_client": 44,
    "observation_size": 1760,
    "message_bytes": 186,
}

SESSION_TICKS = 120


@pytest.fixture(scope="module")
def capes_session():
    capes = make_capes(
        random_rw_workload(1, 9),
        cluster=ClusterConfig(n_servers=4, n_clients=5),
        hp=Hyperparameters(
            hidden_layer_size=64,
            exploration_ticks=100,
            sampling_ticks_per_observation=10,
        ),
        seed=0,
    )
    capes.train(SESSION_TICKS)
    return capes


@pytest.mark.benchmark(group="table2")
def test_table2_training_step_duration(benchmark, capes_session):
    """Row 1: duration of one 32-observation minibatch training step."""
    capes = capes_session
    sampler = capes.env.make_sampler(seed=1)
    agent = capes.session.agent
    batch = sampler.sample_minibatch(agent.hp.minibatch_size)
    benchmark(agent.train_step, batch)
    # The vectorised step must be far below the paper's 0.1 s CPU time.
    # Not because the observation is small — on the same 4x5 cluster it
    # is 2200 floats against the paper's 1760, 25 % *larger* — but
    # because the hidden layers here are 64 wide against the paper's
    # 600: ~145 k parameters, not 1.68 M.  Anything near 0.1 s would
    # indicate a vectorisation bug.  The step at the paper's width is
    # test_table2_training_step_duration_paper_shape below.
    assert benchmark.stats["mean"] < PAPER["train_step_cpu_s"]


@pytest.mark.benchmark(group="table2")
def test_table2_training_step_duration_paper_shape(benchmark):
    """Row 1 at the paper's shape: Table 1 verbatim (600 hidden units,
    minibatch 32) on this repo's 4x5 observation (2200 floats).  The one
    command that regenerates the ms/step ROADMAP quotes; it asserts only
    exact things — the time is printed, not judged."""
    hp = Hyperparameters.paper_values()
    obs_dim, n_actions = 2200, 5
    agent = DQNAgent(obs_dim, n_actions, hp=hp, rng=0)
    assert agent.online.net.layer_dims == [2200, 600, 600, 5]
    assert agent.online.net.num_parameters() == 1_684_205
    rng = np.random.default_rng(0)
    batch = Minibatch(
        s_t=rng.normal(size=(hp.minibatch_size, obs_dim)),
        s_next=rng.normal(size=(hp.minibatch_size, obs_dim)),
        actions=rng.integers(0, n_actions, size=hp.minibatch_size),
        rewards=rng.normal(size=hp.minibatch_size),
    )
    loss = benchmark.pedantic(
        agent.train_step, args=(batch,), rounds=30, warmup_rounds=3
    )
    print(f"\npaper-shape training step: {benchmark.stats['mean'] * 1e3:.1f} ms "
          f"mean, {benchmark.stats['min'] * 1e3:.1f} ms best of 30 "
          f"(paper: ~{PAPER['train_step_cpu_s'] * 1e3:.0f} ms CPU, "
          f"~{PAPER['train_step_gpu_s'] * 1e3:.0f} ms GPU; "
          f"{agent.online.net.num_parameters():,} parameters, "
          f"observation {obs_dim} floats vs the paper's "
          f"{PAPER['observation_size']})")
    assert np.isfinite(loss)
    assert agent.train_steps == 33 and len(agent.loss_history) == 33


@pytest.mark.benchmark(group="table2")
def test_table2_batched_vs_naive_speedup(benchmark, capes_session):
    """The paper's GPU-vs-CPU 10x maps to batched-vs-per-sample here."""
    capes = capes_session
    sampler = capes.env.make_sampler(seed=2)
    agent = capes.session.agent
    batch = sampler.sample_minibatch(32)

    def naive_per_sample():
        # one SGD step per single-observation "minibatch"
        for i in range(32):
            sub = Minibatch(
                s_t=batch.s_t[i : i + 1],
                s_next=batch.s_next[i : i + 1],
                actions=batch.actions[i : i + 1],
                rewards=batch.rewards[i : i + 1],
            )
            agent.train_step(sub)

    import time

    t0 = time.perf_counter()
    agent.train_step(batch)
    batched = time.perf_counter() - t0

    t0 = time.perf_counter()
    naive_per_sample()
    naive = time.perf_counter() - t0

    benchmark(agent.train_step, batch)
    speedup = naive / batched if batched > 0 else float("inf")
    print(f"\nbatched step: {batched * 1e3:.2f} ms, naive per-sample loop: "
          f"{naive * 1e3:.2f} ms -> speedup {speedup:.1f}x "
          f"(paper GPU/CPU: 10x)")
    assert speedup > 2.0


@pytest.mark.benchmark(group="table2")
def test_table2_system_measurements(benchmark, capes_session):
    """Rows 3-9: sizes and counts, measured then printed vs paper."""
    capes = capes_session
    m = benchmark(capes.technical_measurements)

    print("\nTable 2 — technical measurements (ours vs paper)")
    print(f"  replay records:        {m['replay_records']:>10} "
          f"(paper {PAPER['replay_records']:,} after 70 h; ours after "
          f"{SESSION_TICKS} ticks)")
    print(f"  replay DB on disk:     {m['replay_disk_bytes']:>10,} B "
          f"(paper ~0.5 GB)")
    print(f"  replay DB in memory:   {m['replay_memory_bytes']:>10,} B "
          f"(paper ~1.5 GB at capacity)")
    print(f"  DNN model size:        {m['model_bytes']:>10,} B "
          f"(paper 84 MB at 600-wide hidden layers)")
    print(f"  PIs per client:        {m['pis_per_client']:>10} "
          f"(paper {PAPER['pis_per_client']})")
    print(f"  observation size:      {m['observation_size']:>10} floats "
          f"(paper {PAPER['observation_size']})")
    print(f"  mean message size:     {m['mean_message_bytes']:>10.1f} B "
          f"(paper ~{PAPER['message_bytes']} B)")

    # Shape assertions: the PI layout must reproduce the paper's counts.
    assert m["pis_per_client"] == PAPER["pis_per_client"]
    assert m["replay_records"] >= SESSION_TICKS
    # Differential+zlib messages should be the same order of magnitude
    # as the paper's ~186 B per client per tick.
    assert 20 <= m["mean_message_bytes"] <= 1000


@pytest.mark.benchmark(group="table2")
def test_table2_paper_sized_model_bytes(benchmark):
    """At the paper's exact topology (1760 obs, 600 hidden, 5 actions)
    the model should be tens of MB, matching the reported 84 MB order."""

    def build():
        return MLP.for_q_network(1760, 5, hidden_size=600, rng=0)

    net = benchmark(build)
    # value+grad storage, float64 (paper used float32 TF — same order)
    mb = net.nbytes() / 1e6
    print(f"\npaper-topology model: {net.num_parameters():,} parameters, "
          f"{mb:.1f} MB resident (paper: 84 MB)")
    assert 10 <= mb <= 200
