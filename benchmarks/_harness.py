"""Shared builders for the experiment-regeneration benchmarks.

Every figure/table benchmark drives the same compressed experimental
setup so results are comparable across files:

- a 2-server / 3-client cluster (the paper's 4×5 testbed scaled down so
  a full figure regenerates in minutes — Table 2's measurements use the
  paper-shaped 4×4+5 cluster where layout matters);
- Table 1 hyperparameters except a compressed ε-anneal horizon and a
  64-unit hidden layer (the paper's 600-unit network matched its 1760-
  float observations; our compressed observations are ~660 floats);
- training sessions of ``TRAIN_TICKS`` as the "12-hour" proxy and twice
  that as the "24-hour" proxy; all evaluation windows are
  ``EVAL_TICKS`` long.

EXPERIMENTS.md records the mapping from these compressed sessions to
the paper's wall-clock sessions.

Orchestration (build cluster → run tuner → measure before/after) lives
in :mod:`repro.exp`; this module only provides spec builders
(:func:`bench_spec`), the :func:`run_specs` entry point (parallelism
via the ``REPRO_BENCH_JOBS`` environment variable), and row formatting.
:func:`make_capes` remains for the trace-level experiments (Figures
4-6, Table 2, ablations) that reach inside a session.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence, Tuple, Union

from repro import CAPES, CapesConfig, ClusterConfig, EnvConfig
from repro.exp import (
    ExperimentResults,
    ExperimentRunner,
    ExperimentSpec,
    PhaseResult,
    RunBudget,
    WorkloadSpec,
)
from repro.rl import Hyperparameters
from repro.util.units import KiB, MiB

#: Compressed session sizes (ticks = simulated seconds).
TRAIN_TICKS = 1500  # "12-hour" training proxy
TRAIN_TICKS_EXTRA = 700  # additional ticks for the "24-hour" proxy
EVAL_TICKS = 150

#: Objective scale: ThroughputObjective reports units of 100 MB/s.
MBPS_PER_UNIT = 100.0

#: Compressed-session hyperparameters.  Table 1's values are tuned for
#: 43k-86k-tick sessions; a 1.5k-tick session needs a faster learning
#: rate, shorter reward horizon and quicker target tracking to converge
#: (EXPERIMENTS.md documents this mapping).
BENCH_HP = Hyperparameters(
    hidden_layer_size=64,
    exploration_ticks=800,
    sampling_ticks_per_observation=10,
    adam_learning_rate=5e-4,
    discount_rate=0.9,
    target_network_update_rate=0.02,
)

#: SGD updates per action tick for compressed sessions.
TRAIN_STEPS_PER_TICK = 4


#: The paper's testbed is 4 servers × 5 clients.  The benchmarks keep
#: the five clients — the per-server inflow (5 clients × window 8 = 40
#: outstanding RPCs) is what pushes the default configuration into
#: congestion collapse, the effect CAPES exploits — but halve the server
#: count to halve simulation cost.  Per-server physics are identical.
def bench_cluster(n_servers: int = 2, n_clients: int = 5) -> ClusterConfig:
    return ClusterConfig(n_servers=n_servers, n_clients=n_clients)


def random_rw_workload(read_parts: int, write_parts: int) -> WorkloadSpec:
    frac = read_parts / (read_parts + write_parts)
    return WorkloadSpec(
        "random_rw", {"read_fraction": frac, "instances_per_client": 5}
    )


def fileserver_workload() -> WorkloadSpec:
    return WorkloadSpec(
        "fileserver",
        {"file_size": 2 * MiB, "io_size": 256 * KiB, "instances_per_client": 8},
    )


def seqwrite_workload() -> WorkloadSpec:
    return WorkloadSpec(
        "seqwrite", {"record_size": MiB, "instances_per_client": 5}
    )


def bench_spec(
    workload: WorkloadSpec,
    seed: int = 42,
    scenario: str = "",
    checkpoints: Union[int, Tuple[int, ...]] = (TRAIN_TICKS,),
    eval_ticks: int = EVAL_TICKS,
) -> ExperimentSpec:
    """One compressed CAPES session as a declarative spec."""
    return ExperimentSpec(
        tuner="capes",
        seed=seed,
        scenario=scenario or workload.name,
        workload=workload,
        cluster=bench_cluster(),
        hp=BENCH_HP,
        budget=RunBudget(train_ticks=checkpoints, eval_ticks=eval_ticks),
        tuner_kwargs={
            "train_steps_per_tick": TRAIN_STEPS_PER_TICK,
            "loss": "huber",
        },
    )


def run_specs(specs: Sequence[ExperimentSpec]) -> ExperimentResults:
    """Run benchmark specs through the shared experiment runner.

    Serial by default so figure regeneration stays deterministic on any
    box; set ``REPRO_BENCH_JOBS=N`` to fan independent sessions out
    over N worker processes (per-run results are identical either way).

    With N > 1, also set ``OPENBLAS_NUM_THREADS=1`` (and
    ``OMP_NUM_THREADS`` / ``MKL_NUM_THREADS``) in the environment
    *before Python starts*.  BLAS sizes its thread pool once, when numpy
    is first imported, and forked workers inherit the parent's pool: N
    workers of a two-thread BLAS on two cores oversubscribe them, and
    Fig. 2 at ``REPRO_BENCH_JOBS=2`` took 559 s that way against 176 s
    with one BLAS thread (269 s serially).  Setting the variables from
    here would be too late.
    """
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    return ExperimentRunner(jobs=jobs).run(specs)


def make_capes(
    workload: WorkloadSpec,
    seed: int = 42,
    cluster: Optional[ClusterConfig] = None,
    hp: Optional[Hyperparameters] = None,
    perturb_seed: int = 0,
) -> CAPES:
    """A hand-held session for experiments that reach inside the agent."""
    return CAPES(
        CapesConfig(
            env=EnvConfig(
                cluster=cluster or bench_cluster(),
                workload_factory=workload.factory(),
                hp=hp or BENCH_HP,
                seed=seed,
                perturb_seed=perturb_seed,
            ),
            seed=seed,
            train_steps_per_tick=TRAIN_STEPS_PER_TICK,
            loss="huber",
        )
    )


def phase_row(phase: PhaseResult) -> dict:
    """The paper-style before/after row for one measurement checkpoint."""
    cmp = phase.comparison()
    return {
        "baseline_mbps": cmp.baseline.mean * MBPS_PER_UNIT,
        "baseline_ci": cmp.baseline.ci_halfwidth * MBPS_PER_UNIT,
        "tuned_mbps": cmp.tuned.mean * MBPS_PER_UNIT,
        "tuned_ci": cmp.tuned.ci_halfwidth * MBPS_PER_UNIT,
        "percent": cmp.percent,
        "significant": cmp.significant,
        "final_params": phase.final_params,
    }


def fmt_row(label: str, row: dict) -> str:
    return (
        f"{label:>14}: baseline {row['baseline_mbps']:6.1f}"
        f"±{row['baseline_ci']:4.1f} MB/s -> tuned "
        f"{row['tuned_mbps']:6.1f}±{row['tuned_ci']:4.1f} MB/s "
        f"({row['percent']:+5.1f}%{'*' if row['significant'] else ' '})"
    )
