"""The decoupled async trainer subsystem (the paper's DRL engine, §3).

CAPES runs its DRL engine *continuously, in parallel* with the
monitoring agents streaming observations into the central replay DB.
This package gives the reproduction that decoupling:

- :class:`~repro.train.loop.TrainerLoop` — one DQN consuming one
  replay stream on its own cadence, behind two backends: ``inline``
  (the historical one-SGD-burst-per-tick session path, byte-identical),
  ``serial`` (deterministic round-robin interleaving);
- :class:`~repro.train.loop.TrainerConfig` /
  :class:`~repro.train.loop.TrainerStats` — the knobs
  (``trainer_backend``, ``train_ratio`` on
  :class:`~repro.exp.spec.ExperimentSpec` and the CLI) and the
  accounting;
- :func:`~repro.train.loop.train_collect` — §3.3 "solely monitoring"
  over a :class:`~repro.env.vector.VectorEnv` *plus* continuous
  training against the shared fan-in replay DB (``repro collect
  --train``).

:class:`~repro.core.session.CapesSession` delegates its training
cadence here; ``inline`` remains the default and is golden-trace
identical to the pre-subsystem sessions.
"""

from repro.train.loop import (
    BACKENDS,
    TrainerConfig,
    TrainerLoop,
    TrainerStats,
    train_collect,
)

__all__ = [
    "BACKENDS",
    "TrainerConfig",
    "TrainerLoop",
    "TrainerStats",
    "train_collect",
]
