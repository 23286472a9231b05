"""Table 2 regeneration: technical measurements of the CAPES system.

Measures, on our substrate, every row of the paper's Table 2:

- duration of one training step (the 32-observation minibatch update,
  timed best-of-N with ``time.perf_counter`` and printed, never judged;
  the paper reports ≈0.1 s CPU / ≈0.01 s GPU — we additionally time a
  naive per-sample Python loop as the analogue of the CPU/GPU batching
  gap);
- replay-DB record count and on-disk/in-memory sizes;
- DNN model size;
- performance indicators per client (44 with the paper's four servers);
- observation size in floats;
- average compressed message size per client per tick.

The cluster here is paper-shaped (4 servers, 5 clients) so the PI
counts line up with the published numbers.  Speed claims belong to
``python3 -m bench``; this file asserts only exact things.
"""

import time

import numpy as np
import pytest

from benchmarks._harness import make_capes, random_rw_workload
from repro import ClusterConfig
from repro.nn import MLP
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


def best_of(fn, n: int) -> float:
    """Fastest of ``n`` timed calls of ``fn``, in seconds."""
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_table2_training_step_duration(capes_session):
    """Row 1: duration of one 32-observation minibatch training step.

    The observation here is 2200 floats on the 4x5 cluster, 25 % *larger*
    than the paper's 1760, but the hidden layers are 64 wide against the
    paper's 600: ~145 k parameters, not 1.68 M.  The step at the paper's
    width is test_table2_training_step_duration_paper_shape below."""
    capes = capes_session
    sampler = capes.env.make_sampler(seed=1)
    agent = capes.session.agent
    batch = sampler.sample_minibatch(agent.hp.minibatch_size)
    step = best_of(lambda: agent.train_step(batch), 20)
    print(f"\ntraining step: {step * 1e3:.2f} ms best of 20 "
          f"(paper: ~{PAPER['train_step_cpu_s'] * 1e3:.0f} ms CPU; "
          f"{agent.online.net.num_parameters():,} parameters)")
    assert np.isfinite(agent.loss_history[-1])


def _paper_step(hp, obs_dim, n_actions, repeats):
    """``(agent, best seconds per train_step)`` on one fixed random
    minibatch, after three warm-up steps."""
    agent = DQNAgent(obs_dim, n_actions, hp=hp, rng=0)
    rng = np.random.default_rng(0)
    batch = Minibatch(
        s_t=rng.normal(size=(hp.minibatch_size, obs_dim)),
        s_next=rng.normal(size=(hp.minibatch_size, obs_dim)),
        actions=rng.integers(0, n_actions, size=hp.minibatch_size),
        rewards=rng.normal(size=hp.minibatch_size),
    )
    for _ in range(3):  # warm-up
        agent.train_step(batch)
    return agent, best_of(lambda: agent.train_step(batch), repeats)


def test_table2_training_step_duration_paper_shape():
    """Row 1 at the paper's shape on this repo's 4x5 observation (2200
    floats), at both widths the paper gives: Table 1's 600 hidden units
    (``Hyperparameters.paper_values()``), and §3.4's hidden layer as
    wide as the input (the default ``Hyperparameters()``).  The one
    command that regenerates the ms/step ROADMAP quotes, with one BLAS
    thread: ``OPENBLAS_NUM_THREADS=1 python -m pytest
    benchmarks/test_table2_measurements.py -q -s -k paper_shape``.  It
    asserts only exact things — the times are printed, not judged."""
    obs_dim, n_actions = 2200, 5
    agent, step = _paper_step(
        Hyperparameters.paper_values(), obs_dim, n_actions, 30
    )
    assert agent.online.net.layer_dims == [2200, 600, 600, 5]
    assert agent.online.net.num_parameters() == 1_684_205
    loss = agent.loss_history[-1]
    print(f"\npaper-shape training step: {step * 1e3:.1f} ms best of 30 "
          f"(paper: ~{PAPER['train_step_cpu_s'] * 1e3:.0f} ms CPU, "
          f"~{PAPER['train_step_gpu_s'] * 1e3:.0f} ms GPU; "
          f"{agent.online.net.num_parameters():,} parameters, "
          f"observation {obs_dim} floats vs the paper's "
          f"{PAPER['observation_size']})")
    assert np.isfinite(loss)
    assert agent.train_steps == 33 and len(agent.loss_history) == 33
    wide, wide_step = _paper_step(Hyperparameters(), obs_dim, n_actions, 5)
    assert wide.online.net.layer_dims == [2200, 2200, 2200, 5]
    assert wide.online.net.num_parameters() == 9_695_405
    print(f"input-width training step: {wide_step * 1e3:.1f} ms best of 5 "
          f"({wide.online.net.num_parameters():,} parameters)")
    assert np.isfinite(wide.loss_history[-1])


def test_table2_batched_vs_naive_speedup(capes_session):
    """The paper's GPU-vs-CPU 10x maps to batched-vs-per-sample here."""
    capes = capes_session
    sampler = capes.env.make_sampler(seed=2)
    agent = capes.session.agent
    batch = sampler.sample_minibatch(32)
    singles = [
        Minibatch(
            s_t=batch.s_t[i : i + 1],
            s_next=batch.s_next[i : i + 1],
            actions=batch.actions[i : i + 1],
            rewards=batch.rewards[i : i + 1],
        )
        for i in range(32)
    ]

    def naive_per_sample():
        # one SGD step per single-observation "minibatch"
        for sub in singles:
            agent.train_step(sub)

    batched = best_of(lambda: agent.train_step(batch), 5)
    naive = best_of(naive_per_sample, 5)
    print(f"\nbatched step: {batched * 1e3:.2f} ms, naive per-sample loop: "
          f"{naive * 1e3:.2f} ms -> speedup {naive / batched:.1f}x "
          f"best of 5 (paper GPU/CPU: 10x)")


def test_table2_system_measurements(capes_session):
    """Rows 3-9: sizes and counts, measured then printed vs paper."""
    m = capes_session.technical_measurements()

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


def test_table2_paper_sized_model_bytes():
    """At the paper's exact topology (1760 obs, 600 hidden, 5 actions)
    the model should be tens of MB, matching the reported 84 MB order."""
    net = MLP.for_q_network(1760, 5, hidden_size=600, rng=0)
    # value+grad storage, float64 (paper used float32 TF — same order)
    mb = net.nbytes() / 1e6
    print(f"\npaper-topology model: {net.num_parameters():,} parameters, "
          f"{mb:.1f} MB resident (paper: 84 MB)")
    assert 10 <= mb <= 200
