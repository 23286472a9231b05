"""The environment layer: a pluggable API over target systems.

The engine side of the paper's one-to-many architecture is an
interface, not a class:

- :class:`~repro.env.protocol.Environment` — the structural protocol
  every target-system backend satisfies (``reset``/``step``/``obs_dim``/
  ``action_space``/``close`` plus the measurement surface);
- :func:`~repro.env.registry.make_env` + the string-keyed registry —
  specs and the CLI name environments by key (``"sim-lustre"`` is the
  simulated Lustre cluster reference backend; ``"sim-lustre-vec"`` the
  struct-of-arrays fleet engine of :mod:`repro.sim.vec`);
- :class:`~repro.env.vector.VectorEnv` — N independently-seeded
  clusters stepped in lockstep, fanning all experience into one shared
  Replay DB (the many-agents-one-engine topology); its ``fork`` backend
  runs each cluster in a forked worker over a pipe of pickled messages
  (:mod:`repro.transport.codec`), and its ``vec`` backend steps all N
  as rows of one :class:`~repro.sim.vec.fleet_env.FleetEnv`.

Backwards compatibility: the protocol is structural, so code that
constructs a bare :class:`~repro.env.tuning_env.StorageTuningEnv` from
an :class:`~repro.env.tuning_env.EnvConfig` — every pre-registry call
site — works unchanged, and both names keep their historical import
path here.
"""

from repro.env.protocol import Environment
from repro.env.registry import env_names, make_env, register_env
from repro.env.tuning_env import EnvConfig, StorageTuningEnv
from repro.env.vector import (
    StridedMinibatchSampler,
    VectorEnv,
    WorkerCrashError,
    per_env_rngs,
    vector_seeds,
)

__all__ = [
    "EnvConfig",
    "Environment",
    "StorageTuningEnv",
    "StridedMinibatchSampler",
    "VectorEnv",
    "WorkerCrashError",
    "env_names",
    "make_env",
    "per_env_rngs",
    "register_env",
    "vector_seeds",
]
