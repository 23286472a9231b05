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

A training burst asks for many minibatches at once:
:meth:`MinibatchSampler.minibatches` draws, screens and gathers them a
group at a time, equal to one :meth:`~MinibatchSampler.sample_minibatch`
call after another.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional

import numpy as np

from repro.replaydb.cache import ReplayCache
from repro.replaydb.records import Minibatch, Transition
from repro.util.rng import ensure_rng
from repro.util.validation import check_in_range, check_positive


class SamplerStarvedError(RuntimeError):
    """Raised when the DB cannot possibly satisfy a batch request."""


#: Bytes one group of :meth:`MinibatchSampler.minibatches` may gather:
#: 8 minibatches of 32 at 10 × 110-wide frames, 4 at Table 1's 220.
GROUP_BYTES = 5 << 19


def _round_ends(accepted: np.ndarray, n: int, k: int, max_attempts: int) -> List[int]:
    """Replay :meth:`MinibatchSampler._fill`'s rounds over a screened pool.

    Round after round takes the next ``n - have`` candidates of the
    pool, as ``_fill`` would draw them.  Returns the pool position after
    each of up to ``k`` minibatches, stopping early at the first one the
    pool cannot finish (it runs out, or ``max_attempts`` rounds do not
    fill it).
    """
    cum = np.concatenate(([0], np.cumsum(accepted))).tolist()
    ends: List[int] = []
    pos = 0
    while len(ends) < k:
        have = 0
        for _ in range(max_attempts):
            end = pos + n - have
            if end >= len(cum):
                return ends
            have += cum[end] - cum[pos]
            pos = end
            if have == n:
                break
        else:
            return ends
        ends.append(pos)
    return ends


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
        ok = self._accepts(grid, present, actions)
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

    def _accepts(
        self, grid: np.ndarray, present: np.ndarray, actions: np.ndarray
    ) -> np.ndarray:
        """:meth:`transition_at`'s test, row by row over a ``(k, S + 1)``
        grid of window ticks and the store's presence / action columns."""
        S = self.obs_ticks
        budget = self.missing_tolerance * S
        return (
            present[:, S - 1]
            & present[:, S]
            & (actions[:, S - 1] >= 0)
            & (grid[:, 0] >= 0)
            & (S - present[:, :S].sum(axis=1) <= budget)
            & (S - present[:, 1:].sum(axis=1) <= budget)
        )

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
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Algorithm 1's top-up loop, shared by every draw policy.

        Each round asks ``draw`` for exactly as many candidate ticks as
        are still missing (one RNG call per round), keeps the ones
        :meth:`transitions_at` accepts, and stops at ``n`` — a round can
        never overshoot.  Returns :meth:`transitions_at`'s columns with
        exactly ``n`` rows; raises :class:`SamplerStarvedError` when
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
                f"could not fill a minibatch of {n} after {max_attempts} "
                f"rounds; too many incomplete timestamps"
            )
        if len(rounds) == 1:
            return rounds[0]
        return tuple(np.concatenate(column) for column in zip(*rounds))

    def _drawer(self) -> Callable[[int], np.ndarray]:
        """The draw policy for the store as it stands: ``draw(k)`` is k
        candidate ticks from one ``rng.integers`` call with bounds fixed
        now.  Raises :class:`SamplerStarvedError`, drawing nothing, while
        no observation window fits."""
        rng_range = self.eligible_range()
        if rng_range is None:
            raise SamplerStarvedError(
                "replay DB does not yet span one full observation window"
            )
        first, last = rng_range
        return lambda k: self.rng.integers(first, last + 1, size=k)

    def sample_minibatch(self, n: int, max_attempts: int = 200) -> Minibatch:
        """ConstructMinibatch(n) — keep drawing until n samples collected."""
        check_positive("n", n)
        _, *columns = self._fill(n, max_attempts, self._drawer())
        return Minibatch(*columns)

    def _store_mark(self) -> tuple:
        """What :meth:`minibatches` checks between groups: rows held and
        the tick range."""
        return len(self.cache), self.cache.min_tick, self.cache.max_tick

    def minibatches(
        self, count: int, n: int, max_attempts: int = 200
    ) -> Iterator[Optional[Minibatch]]:
        """``count`` × :meth:`sample_minibatch` ``(n, max_attempts)``, lazily.

        Yields what the calls one after another would return, array for
        array, with None where one would raise
        :class:`SamplerStarvedError`; the generator is where they would
        leave it once each group is handed out.  The store must not
        change while the iterator runs (nothing lands during a training
        burst); it raises ``RuntimeError`` if it did.

        Groups of up to :data:`GROUP_BYTES` worth of windows are built at
        once.  One ``draw`` of a candidate pool, one
        :meth:`~repro.replaydb.cache.ReplayCache.screen` of it, and
        :func:`_round_ends` on the accept counts find how many candidates
        the calls would consume: with the draw bounds frozen,
        ``integers(lo, hi, size=a)`` then ``size=b`` is one ``size=a + b``
        draw.  The generator is rewound and that many are drawn again.
        One :meth:`~repro.replaydb.cache.ReplayCache.gather` copies every
        accepted ``t-S+1 … t+1`` window, and s_t / s_{t+1} are views of
        it (overlapping ones: read-only inputs).  A minibatch the pool
        cannot resolve — it ran out, it would starve, or a window has a
        gap to impute — is left to :meth:`sample_minibatch` itself.
        """
        check_positive("n", n)
        S, W = self.obs_ticks, self.cache.frame_width
        offsets = np.arange(-S + 1, 2)
        group = max(1, GROUP_BYTES // (n * (S + 1) * W * 8))
        mark = self._store_mark()
        rate = 1.0
        while count > 0:
            if self._store_mark() != mark:
                raise RuntimeError(
                    "the replay store changed while a burst drew minibatches"
                )
            try:
                draw = self._drawer()
            except SamplerStarvedError:
                count -= 1
                yield None
                continue
            k = min(group, count)
            start = self.rng.bit_generator.state
            pool = draw(int(k * n / rate) + n)
            grid = pool[:, None] + offsets
            present, actions = self.cache.screen(grid)
            ok = self._accepts(grid, present, actions)
            rate = max(0.25, float(ok.mean()))
            ends = _round_ends(ok, n, k, max_attempts)
            taken = np.flatnonzero(ok[: ends[-1] if ends else 0])
            gapped = np.flatnonzero(~present[taken].all(axis=1))
            if gapped.size:
                del ends[gapped[0] // n :]
                taken = taken[: len(ends) * n]
            used = ends[-1] if ends else 0
            if used < pool.size:
                self.rng.bit_generator.state = start
                if used:
                    draw(used)
            count -= len(ends)
            if ends:
                _, frames, acts, rewards = self.cache.gather(
                    pool[taken][:, None] + offsets
                )
                flat = frames.reshape(len(taken), (S + 1) * W)
                for lo in range(0, len(taken), n):
                    rows = slice(lo, lo + n)
                    yield Minibatch(
                        flat[rows, : S * W],
                        flat[rows, W:],
                        acts[rows, S - 1],
                        rewards[rows, S],
                    )
            if len(ends) < k:
                count -= 1
                try:
                    batch = self.sample_minibatch(n, max_attempts)
                except SamplerStarvedError:
                    batch = None
                yield batch
