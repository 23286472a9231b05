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

:func:`train_collect` drives the vectorized form — §3.3 monitoring
plus continuous training over a :class:`~repro.env.vector.VectorEnv` —
by round-robining ``VectorEnv.collect`` chunks with trainer
notifications.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from repro.replaydb.records import PackedRecords
from repro.replaydb.sampler import MinibatchSampler
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
    loop decides when gradients actually happen.  ``sampler`` may be a
    live :class:`~repro.replaydb.sampler.MinibatchSampler` or a
    zero-argument callable returning one (sessions rebuild samplers on
    environment restarts).
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
        self._sampler_fn = (
            sampler
            if callable(sampler) and not isinstance(sampler, MinibatchSampler)
            else (lambda: sampler)
        )

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
        sampler = self._sampler_fn()
        new: List[float] = []
        for _ in range(n):
            loss = self.agent.train_from_sampler(sampler)
            if loss is not None:
                new.append(float(loss))
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
    one training burst per collection chunk.  NULL-action monitoring
    never consults the policy, so collection rewards do not depend on
    the trainer at all.

    Returns ``(rewards, stats)``: per-env per-tick rewards of shape
    ``(n_envs, n_ticks)`` and the loop's :class:`TrainerStats`.
    """
    check_positive("n_ticks", n_ticks)
    if venv.shared_db is None:
        raise ValueError(
            "train_collect needs a VectorEnv with a shared fan-in DB "
            "(shared_db_path must not be None)"
        )
    if chunk is None:
        chunk = n_ticks
    check_positive("chunk", chunk)
    config = replace(config, interleave_ticks=chunk)
    loop = TrainerLoop(agent, config, sampler=venv.make_sampler(seed=sampler_seed))
    rewards = np.empty((venv.n_envs, n_ticks))
    with loop:
        venv.reset()
        done = 0
        while done < n_ticks:
            k = min(chunk, n_ticks - done)
            rewards[:, done : done + k] = venv.collect(k)
            loop.notify_ticks(k)
            done += k
        loop.drain()
    return rewards, loop.stats
