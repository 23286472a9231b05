"""The trainer loop: collection and SGD on separate cadences.

The paper's DRL engine runs ``train_steps_per_tick`` SGD steps per
action tick (Table 1).  :class:`TrainerLoop` owns that cadence behind
one notification-style interface: tick notifications accumulate and
every ``interleave_ticks`` of them buys one training burst.  It is one
process and fully deterministic; at ``interleave_ticks=1`` the burst
runs inside every tick, exactly where the historical session ran it.

Step accounting: every collected action tick grants ``train_ratio``
SGD steps (fractional ratios accumulate), so a run's total
gradient-step budget depends only on its tick count — the interleave
changes *when* the steps run, never *how many*.

:func:`train_collect` is the vectorized form — §3.3 monitoring plus
continuous training over a :class:`~repro.env.vector.VectorEnv` — run
by the one collect loop,
:func:`~repro.snapshot.session.run_collect_session`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.replaydb.records import PackedRecords
from repro.util.validation import check_positive

#: Accepted spellings of :attr:`TrainerConfig.backend`; both name the
#: one trainer (``inline`` is the legacy name).
BACKENDS = ("inline", "serial")


@dataclass(frozen=True)
class TrainerConfig:
    """How the trainer runs relative to collection.

    ``train_ratio`` is SGD steps granted per collected action tick
    (fractions accumulate: ``0.25`` trains once every 4 ticks);
    ``interleave_ticks`` is the burst cadence.  ``backend`` is checked
    against :data:`BACKENDS` and otherwise unread.
    """

    backend: str = "serial"
    train_ratio: float = 1.0
    interleave_ticks: int = 1

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"trainer backend must be one of {BACKENDS}, "
                f"got {self.backend!r}"
            )
        if self.train_ratio < 0:
            raise ValueError(
                f"train_ratio must be >= 0, got {self.train_ratio}"
            )
        check_positive("interleave_ticks", self.interleave_ticks)


@dataclass
class TrainerStats:
    """What one trainer loop did, summarised for results/benchmarks."""

    #: Every prediction error produced, in training order (Figure 5).
    losses: List[float] = field(default_factory=list)
    #: SGD steps attempted (granted budget actually consumed).
    steps_attempted: int = 0


class TrainerLoop:
    """One DRL engine consuming one replay stream.

    Drivers push collection progress through :meth:`notify_ticks`; the
    loop decides when gradients actually happen.  It owns its
    :class:`~repro.replaydb.sampler.MinibatchSampler` as ``sampler``,
    whose stream a snapshot captures with the loop's cadence.
    """

    def __init__(
        self,
        agent,
        config: TrainerConfig,
        sampler=None,
    ):
        self.agent = agent
        self.config = config
        self.stats = TrainerStats()
        self._pending_ticks = 0.0
        self._debt = 0.0
        if sampler is None:
            raise ValueError("the trainer needs a sampler")
        self.sampler = sampler

    # -- notifications ---------------------------------------------------
    def ingest(self, packed: PackedRecords) -> None:
        """A no-op fan-in tap: samplers read the shared cache directly."""

    def notify_ticks(self, k: float) -> List[float]:
        """Grant ``k`` collected ticks of training budget.

        Returns the prediction errors of whatever SGD steps
        materialized *now*: the whole burst once ``interleave_ticks``
        ticks are pending, else nothing.
        """
        if k <= 0:
            raise ValueError(f"k must be > 0, got {k}")
        self._pending_ticks += k
        if self._pending_ticks >= self.config.interleave_ticks:
            return self._burst()
        return []

    def _burst(self) -> List[float]:
        """Convert pending ticks to debt and run the due SGD steps."""
        self._debt += self._pending_ticks * self.config.train_ratio
        self._pending_ticks = 0.0
        n = int(self._debt)
        self._debt -= n
        return self.run(n)

    def run(self, n: int) -> List[float]:
        """Attempt ``n`` SGD steps now, outside the cadence.

        The one sampler→SGD path: one
        :meth:`~repro.replaydb.sampler.MinibatchSampler.minibatches`
        pass feeds ``n`` ``train_step`` calls — equal to ``n``
        ``train_from_sampler`` calls, a minibatch that would starve
        skipping its step.  Returns the new prediction errors.
        """
        minibatches = self.sampler.minibatches(
            n, self.agent.hp.minibatch_size
        )
        new = [
            float(self.agent.train_step(batch))
            for batch in minibatches
            if batch is not None
        ]
        self.stats.steps_attempted += n
        self.stats.losses.extend(new)
        return new

    # -- barriers --------------------------------------------------------
    def drain(self) -> List[float]:
        """Spend every granted step now."""
        return self._burst()

    def stop(self) -> TrainerStats:
        """Flush remaining budget and return the stats."""
        self._burst()
        return self.stats

    def __enter__(self) -> "TrainerLoop":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def train_collect(
    venv,
    agent,
    config: TrainerConfig,
    n_ticks: int,
    chunk: Optional[int] = None,
    sampler_seed: Optional[int] = None,
) -> tuple:
    """§3.3 monitoring + continuous training over a vectorized fleet.

    Resets ``venv``, collects ``n_ticks`` monitoring-only ticks in
    chunks, and trains ``agent`` against the shared fan-in replay DB,
    one training burst per collection chunk — the one collect loop,
    :func:`~repro.snapshot.session.run_collect_session`, without
    snapshots.  NULL-action monitoring never consults the policy, so
    collection rewards do not depend on the trainer at all.

    Returns ``(rewards, stats)``: per-env per-tick rewards of shape
    ``(n_envs, n_ticks)`` and the loop's :class:`TrainerStats`.
    """
    # Function-local: repro.snapshot imports this module.
    from repro.snapshot.session import run_collect_session

    outcome = run_collect_session(
        venv,
        n_ticks,
        chunk=chunk,
        agent=agent,
        trainer_config=config,
        sampler_seed=sampler_seed,
    )
    return outcome.rewards, outcome.trainer_stats
