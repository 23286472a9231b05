"""The trainer subsystem (the paper's DRL engine, §3).

CAPES runs its DRL engine *continuously, in parallel* with the
monitoring agents streaming observations into the central replay DB.
This package gives the reproduction that decoupling:

- :class:`~repro.train.loop.TrainerLoop` — one DQN consuming one
  replay stream on its own cadence: tick notifications accumulate and
  every ``interleave_ticks`` of them buys one deterministic SGD burst;
- :class:`~repro.train.loop.TrainerConfig` /
  :class:`~repro.train.loop.TrainerStats` — the step budget
  (``train_ratio`` SGD steps per tick, spelled ``train_steps_per_tick``
  on the session, the capes tuner and the conf) and the accounting;
- :func:`~repro.train.loop.train_collect` — §3.3 "solely monitoring"
  over a :class:`~repro.env.vector.VectorEnv` *plus* continuous
  training against the shared fan-in replay DB, run by the one collect
  loop :func:`~repro.snapshot.session.run_collect_session` that
  ``repro collect --train`` and ``repro resume`` use too.

:class:`~repro.core.session.CapesSession` delegates its training
cadence here, one burst per action tick, golden-trace identical to the
pre-subsystem sessions.
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
