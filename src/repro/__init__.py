"""CAPES reproduction: DRL-based unsupervised storage performance tuning.

A from-scratch Python reimplementation of *CAPES: Unsupervised Storage
Performance Tuning Using Neural Network-Based Deep Reinforcement
Learning* (Li, Chang, Bel, Miller, Long — SC '17), including every
substrate the paper's evaluation depends on:

- a discrete-event **Lustre-like cluster simulator** standing in for the
  4-server/5-client hardware testbed (:mod:`repro.sim`,
  :mod:`repro.cluster`);
- **Filebench-style workloads** — random R/W mixes, fileserver,
  sequential write (:mod:`repro.workloads`);
- the **monitoring plane** — per-client agents, the differential
  compressed wire protocol, the Interface Daemon
  (:mod:`repro.telemetry`, :mod:`repro.core`);
- the **replay database** — SQLite + NumPy cache + Algorithm 1 sampler
  (:mod:`repro.replaydb`);
- a pure-NumPy **deep-Q-network stack** — MLP, Adam, target network,
  ε-greedy schedule (:mod:`repro.nn`, :mod:`repro.rl`);
- search-based **tuning baselines** (:mod:`repro.baselines`) and
  Pilot-style **measurement statistics** (:mod:`repro.stats`);
- the **pluggable environment layer** (:mod:`repro.env`) — a structural
  ``Environment`` protocol with a string-keyed registry (``make_env``;
  ``"sim-lustre"`` is the reference backend) and ``VectorEnv`` for
  many-clusters-one-engine vectorized experience collection;
- the **decoupled async trainer** (:mod:`repro.train`) — the paper's
  continuously running DRL engine: ``TrainerLoop`` with
  inline/serial backends and
  ``train_collect`` for monitoring-plus-training over a fleet;
- the **experiment orchestration layer** (:mod:`repro.exp`) — one
  ``Tuner`` protocol over CAPES and every baseline, declarative
  ``ExperimentSpec`` grids, and a parallel ``ExperimentRunner`` with
  JSONL artifacts.

Quick start::

    from repro import CAPES, CapesConfig, EnvConfig, ClusterConfig
    from repro.workloads import RandomReadWrite

    cfg = CapesConfig(
        env=EnvConfig(
            cluster=ClusterConfig(n_servers=2, n_clients=2),
            workload_factory=lambda cluster, seed: RandomReadWrite(
                cluster, read_fraction=0.1, seed=seed
            ),
        )
    )
    capes = CAPES(cfg)
    capes.train(2000)                      # online training ticks
    baseline = capes.measure_baseline(300) # CAPES off
    tuned = capes.evaluate(300)            # CAPES on, greedy policy
"""

from repro.cluster import Cluster, ClusterConfig
from repro.core import (
    CAPES,
    ActionChecker,
    ActionSpace,
    CapesConfig,
    CapesSession,
    TunableParameter,
)
from repro.core.capes import hours
from repro.env import (
    EnvConfig,
    Environment,
    StorageTuningEnv,
    VectorEnv,
    env_names,
    make_env,
    register_env,
)
from repro.exp import (
    ExperimentRunner,
    ExperimentSpec,
    RunBudget,
    WorkloadSpec,
    grid,
)
from repro.rl import DQNAgent, Hyperparameters
from repro.train import TrainerConfig, TrainerLoop, train_collect

__version__ = "1.2.0"

__all__ = [
    "CAPES",
    "CapesConfig",
    "CapesSession",
    "EnvConfig",
    "Environment",
    "StorageTuningEnv",
    "VectorEnv",
    "env_names",
    "make_env",
    "register_env",
    "Cluster",
    "ClusterConfig",
    "ActionSpace",
    "ActionChecker",
    "TunableParameter",
    "DQNAgent",
    "Hyperparameters",
    "ExperimentRunner",
    "ExperimentSpec",
    "RunBudget",
    "TrainerConfig",
    "TrainerLoop",
    "WorkloadSpec",
    "grid",
    "hours",
    "train_collect",
    "__version__",
]
