"""Prioritized experience replay (Schaul et al., 2016).

A §6-style extension ("new deep learning techniques ... need [to] be
systematically evaluated and added to CAPES"): instead of Algorithm 1's
uniform timestamps, transitions are drawn with probability proportional
to their last-seen TD error raised to ``alpha``, with importance-
sampling weights correcting the induced bias.  Falls back to uniform
behaviour at ``alpha = 0``.

Implementation: priorities live in a flat array parallel to the replay
cache's tick range; sampling normalises over currently *eligible* ticks
(completeness rules identical to the uniform sampler, reusing its
transition construction).
"""

from __future__ import annotations

import numpy as np

from repro.replaydb.cache import ReplayCache
from repro.replaydb.records import Minibatch
from repro.replaydb.sampler import MinibatchSampler, SamplerStarvedError
from repro.util.validation import check_in_range, check_positive


class PrioritizedMinibatch(Minibatch):
    """Minibatch plus the sampled ticks and IS weights."""

    def __init__(self, base: Minibatch, ticks: np.ndarray, weights: np.ndarray):
        super().__init__(
            s_t=base.s_t,
            s_next=base.s_next,
            actions=base.actions,
            rewards=base.rewards,
        )
        self.ticks = ticks
        self.weights = weights


class PrioritizedSampler(MinibatchSampler):
    """TD-error-proportional sampling over the replay cache."""

    def __init__(
        self,
        cache: ReplayCache,
        obs_ticks: int = 10,
        missing_tolerance: float = 0.20,
        alpha: float = 0.6,
        beta: float = 0.4,
        epsilon_priority: float = 1e-3,
        seed=None,
    ):
        super().__init__(
            cache,
            obs_ticks=obs_ticks,
            missing_tolerance=missing_tolerance,
            seed=seed,
        )
        check_in_range("alpha", alpha, 0.0, 1.0)
        check_in_range("beta", beta, 0.0, 1.0)
        check_positive("epsilon_priority", epsilon_priority)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.epsilon_priority = float(epsilon_priority)
        # priority per tick slot; each tick is frozen at the max
        # priority in force when it first becomes eligible (Schaul's
        # max-at-insertion), so later TD spikes on other transitions
        # cannot retroactively inflate it.
        self._priorities: dict[int, float] = {}
        self._max_priority = 1.0
        self._frozen_next = 0  # first tick not yet assigned a priority

    # -- priority maintenance ---------------------------------------------
    def _freeze_new_ticks(self) -> None:
        """Assign the current max priority to newly eligible ticks."""
        rng_range = self.eligible_range()
        if rng_range is None:
            return
        first, last = rng_range
        for t in range(max(first, self._frozen_next), last + 1):
            self._priorities.setdefault(t, self._max_priority)
        self._frozen_next = max(self._frozen_next, last + 1)

    def priority_of(self, tick: int) -> float:
        """Current sampling priority of ``tick`` (max for unseen ticks)."""
        self._freeze_new_ticks()
        return self._priorities.get(tick, self._max_priority)

    def update_priorities(self, ticks: np.ndarray, td_errors: np.ndarray) -> None:
        """Feed back |TD error| for the transitions just trained on."""
        self._freeze_new_ticks()
        ticks = np.asarray(ticks)
        td = np.abs(np.asarray(td_errors, dtype=np.float64))
        if ticks.shape != td.shape:
            raise ValueError(
                f"ticks {ticks.shape} and td_errors {td.shape} mismatch"
            )
        for t, e in zip(ticks, td):
            p = float(e) + self.epsilon_priority
            self._priorities[int(t)] = p
            if p > self._max_priority:
                self._max_priority = p

    # -- sampling -------------------------------------------------------------
    def sample_minibatch(
        self, n: int, max_attempts: int = 200
    ) -> PrioritizedMinibatch:
        check_positive("n", n)
        rng_range = self.eligible_range()
        if rng_range is None:
            raise SamplerStarvedError(
                "replay DB does not yet span one full observation window"
            )
        first, last = rng_range
        self._freeze_new_ticks()
        candidates = np.arange(first, last + 1)
        prios = np.array(
            [
                self._priorities.get(int(t), self._max_priority)
                for t in candidates
            ],
            dtype=np.float64,
        )
        probs = prios**self.alpha
        total = probs.sum()
        if total <= 0:
            raise SamplerStarvedError("all priorities are zero")
        probs /= total

        ticks, *columns = self._fill(
            n,
            max_attempts,
            lambda needed: self.rng.choice(candidates, size=needed, p=probs),
            f"could not fill a prioritized minibatch of {n}",
        )

        # Importance-sampling weights, normalised to max 1.
        p_sel = probs[ticks - first]
        weights = (len(candidates) * p_sel) ** (-self.beta)
        weights /= weights.max()
        return PrioritizedMinibatch(Minibatch(*columns), ticks, weights)
