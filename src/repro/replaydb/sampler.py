"""Algorithm 1: minibatch construction from the replay database.

Reproduces the paper's sampler faithfully:

1. uniformly generate candidate timestamps;
2. for each, check that the Replay DB "contains enough data" at that
   timestamp — here, that the stacked observation windows for s_t and
   s_{t+1} are present, allowing up to ``missing_tolerance`` of their
   frames to be absent (Table 1: 20 %), and that an action was recorded
   at t;
3. keep collecting until the batch holds exactly n samples.

Missing frames inside an accepted window are filled by carrying the
most recent earlier frame forward (a sensible imputation for slowly
varying system state), or zeros when nothing precedes them.

The reward of a transition at tick t is the objective measured at
t+1 — "we can measure the change of I/O throughput at the next second
to use it as the reward" (§3.2).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.replaydb.cache import ReplayCache
from repro.replaydb.records import Minibatch, Transition
from repro.util.rng import ensure_rng
from repro.util.validation import check_in_range, check_positive


class SamplerStarvedError(RuntimeError):
    """Raised when the DB cannot possibly satisfy a batch request."""


def _impute_forward(frames: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Carry the last valid row forward over gaps (in place on a copy)."""
    out = frames.copy()
    last: Optional[np.ndarray] = None
    for i in range(out.shape[0]):
        if valid[i]:
            last = out[i]
        elif last is not None:
            out[i] = last
    return out


class MinibatchSampler:
    """Uniform-timestamp transition sampler over a :class:`ReplayCache`."""

    def __init__(
        self,
        cache: ReplayCache,
        obs_ticks: int = 10,
        missing_tolerance: float = 0.20,
        seed=None,
    ):
        check_positive("obs_ticks", obs_ticks)
        check_in_range("missing_tolerance", missing_tolerance, 0.0, 1.0)
        self.cache = cache
        self.obs_ticks = int(obs_ticks)
        self.missing_tolerance = float(missing_tolerance)
        self.rng = ensure_rng(seed)

    @property
    def obs_dim(self) -> int:
        """Flattened observation size (S ticks × frame width)."""
        return self.obs_ticks * self.cache.frame_width

    # -- single transitions ------------------------------------------------
    def observation_at(self, tick: int) -> Optional[np.ndarray]:
        """Stacked observation s_t ending at ``tick``, or None if the
        window misses more frames than tolerated."""
        first = tick - self.obs_ticks + 1
        if first < 0:
            return None
        frames, valid = self.cache.window(first, self.obs_ticks)
        missing = int((~valid).sum())
        if missing > self.missing_tolerance * self.obs_ticks:
            return None
        if missing:
            frames = _impute_forward(frames, valid)
        return frames.reshape(-1)

    def transition_at(self, tick: int) -> Optional[Transition]:
        """Build w_t = (s_t, s_{t+1}, a_t, r_{t+1}) or None if incomplete."""
        if not self.cache.has(tick) or not self.cache.has(tick + 1):
            return None
        rec = self.cache.get(tick)
        if rec.action < 0:
            return None  # no action recorded at t (monitoring-only tick)
        s_t = self.observation_at(tick)
        if s_t is None:
            return None
        s_next = self.observation_at(tick + 1)
        if s_next is None:
            return None
        reward = self.cache.get(tick + 1).reward
        return Transition(
            tick=tick, s_t=s_t, s_next=s_next, action=rec.action, reward=reward
        )

    def transitions_at(
        self, ticks: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Batched :meth:`transition_at` over candidate timestamps.

        Returns ``(kept_ticks, s_t, s_next, actions, rewards)`` for the
        candidates :meth:`transition_at` accepts, in candidate order and
        equal to it field by field; with none accepted the observation
        arrays are ``(0, obs_dim)``.  One
        :meth:`~repro.replaydb.cache.ReplayCache.gather` over the
        ``(k, S + 1)`` grid of ticks ``t-S+1 … t+1`` serves both
        windows: columns ``[:S]`` are s_t, columns ``[1:]`` are s_{t+1}.
        """
        S, W = self.obs_ticks, self.cache.frame_width
        ticks = np.asarray(ticks, dtype=np.int64)
        grid = ticks[:, None] + np.arange(-S + 1, 2)
        present, frames, actions, rewards = self.cache.gather(grid)
        budget = self.missing_tolerance * S
        ok = (
            present[:, S - 1]
            & present[:, S]
            & (actions[:, S - 1] >= 0)
            & (grid[:, 0] >= 0)
            & (S - present[:, :S].sum(axis=1) <= budget)
            & (S - present[:, 1:].sum(axis=1) <= budget)
        )
        if not ok.all():
            ticks, present, frames = ticks[ok], present[ok], frames[ok]
            actions, rewards = actions[ok], rewards[ok]
        k = ticks.shape[0]
        s_t = np.empty((k, S * W))
        s_next = np.empty((k, S * W))
        s_t.reshape(k, S, W)[...] = frames[:, :S]
        s_next.reshape(k, S, W)[...] = frames[:, 1:]
        if not present.all():
            # Imputation is per window (a gap at the head of the s_{t+1}
            # window is zeros there but carried forward in s_t), so the
            # rare gapped row is rebuilt by the scalar reference.
            for i in np.flatnonzero(~present.all(axis=1)):
                s_t[i] = self.observation_at(int(ticks[i]))
                s_next[i] = self.observation_at(int(ticks[i]) + 1)
        action, reward = actions[:, S - 1].copy(), rewards[:, S].copy()
        return ticks, s_t, s_next, action, reward

    # -- Algorithm 1 -----------------------------------------------------------
    def eligible_range(self) -> Optional[tuple[int, int]]:
        """Inclusive tick range candidates are drawn from, or None."""
        lo, hi = self.cache.min_tick, self.cache.max_tick
        if lo is None or hi is None:
            return None
        first = max(lo + self.obs_ticks - 1, 0)
        last = hi - 1  # t+1 must exist
        if last < first:
            return None
        return first, last

    def _fill(
        self,
        n: int,
        max_attempts: int,
        draw: Callable[[int], np.ndarray],
        starved: Optional[str] = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Algorithm 1's top-up loop, shared by every draw policy.

        Each round asks ``draw`` for exactly as many candidate ticks as
        are still missing (one RNG call per round), keeps the ones
        :meth:`transitions_at` accepts, and stops at ``n`` — a round can
        never overshoot.  Returns :meth:`transitions_at`'s columns with
        exactly ``n`` rows; raises :class:`SamplerStarvedError`
        (``starved``, if a subclass words it differently) when
        ``max_attempts`` rounds do not fill them.
        """
        rounds = []
        have = 0
        for _ in range(max_attempts):
            rounds.append(self.transitions_at(draw(n - have)))
            have += rounds[-1][0].shape[0]
            if have == n:
                break
        else:
            raise SamplerStarvedError(
                starved
                or f"could not fill a minibatch of {n} after {max_attempts} "
                f"rounds; too many incomplete timestamps"
            )
        if len(rounds) == 1:
            return rounds[0]
        return tuple(np.concatenate(column) for column in zip(*rounds))

    def sample_minibatch(self, n: int, max_attempts: int = 200) -> Minibatch:
        """ConstructMinibatch(n) — keep drawing until n samples collected."""
        check_positive("n", n)
        rng_range = self.eligible_range()
        if rng_range is None:
            raise SamplerStarvedError(
                "replay DB does not yet span one full observation window"
            )
        first, last = rng_range
        _, *columns = self._fill(
            n,
            max_attempts,
            lambda needed: self.rng.integers(first, last + 1, size=needed),
        )
        return Minibatch(*columns)
