"""In-memory replay cache: NumPy ring over per-tick records.

Training never touches SQLite on the hot path — the DQN trainer samples
from this cache, which stores frames, actions and rewards in
preallocated arrays (one row per tick).  The paper sizes the cache to
hold the whole database ("the node that the Replay DB runs on should
have plenty of RAM, ideally to keep the whole database in memory");
here the capacity is explicit and eviction is oldest-first.

Ticks may arrive with gaps (dropped monitoring messages).  The cache is
indexed by tick number, not by arrival order, and tracks a validity
mask so the sampler can honour the missing-entry tolerance.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.replaydb.records import PackedRecords, TickRecord
from repro.util.validation import check_positive


class ReplayCache:
    """Tick-indexed ring of (frame, action, reward) rows."""

    def __init__(self, frame_width: int, capacity: int = 250_000):
        check_positive("frame_width", frame_width)
        check_positive("capacity", capacity)
        self.frame_width = int(frame_width)
        self.capacity = int(capacity)
        self._frames = np.zeros((capacity, frame_width), dtype=np.float64)
        self._actions = np.full(capacity, -1, dtype=np.int64)
        self._rewards = np.zeros(capacity, dtype=np.float64)
        # Which tick each slot holds (-1 = never written).  This is the
        # single source of occupancy truth: after the ring wraps, a
        # tick that was never stored (dropped on the monitoring network)
        # must not resolve to the stale record its slot still holds.
        self._ticks = np.full(capacity, -1, dtype=np.int64)
        self._min_tick: Optional[int] = None
        self._max_tick: Optional[int] = None
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def min_tick(self) -> Optional[int]:
        """Oldest retained tick, or None when empty."""
        return self._min_tick

    @property
    def max_tick(self) -> Optional[int]:
        """Newest stored tick, or None when empty."""
        return self._max_tick

    def _slot(self, tick: int) -> int:
        return tick % self.capacity

    def put(self, record: TickRecord) -> None:
        """Insert or update the row for ``record.tick``.

        Ticks older than ``max_tick - capacity`` are rejected — they
        would alias a newer slot in the ring.
        """
        frame = np.asarray(record.frame, dtype=np.float64)
        if frame.shape != (self.frame_width,):
            raise ValueError(
                f"frame shape {frame.shape} != ({self.frame_width},)"
            )
        tick = int(record.tick)
        if tick < 0:
            raise ValueError(f"tick must be >= 0, got {tick}")
        if self._max_tick is not None and tick <= self._max_tick - self.capacity:
            raise ValueError(
                f"tick {tick} too old for ring of capacity {self.capacity} "
                f"(newest is {self._max_tick})"
            )
        slot = self._slot(tick)
        if self._ticks[slot] < 0:
            self._count += 1
        self._frames[slot] = frame
        self._actions[slot] = record.action
        self._rewards[slot] = record.reward
        self._ticks[slot] = tick
        if self._max_tick is None or tick > self._max_tick:
            self._max_tick = tick
        if self._min_tick is None or tick < self._min_tick:
            self._min_tick = tick
        # Evicted region: any slot between old min and the ring horizon.
        horizon = self._max_tick - self.capacity + 1
        if self._min_tick is not None and self._min_tick < horizon:
            self._min_tick = horizon

    def put_many(
        self,
        ticks: np.ndarray,
        frames: np.ndarray,
        rewards: np.ndarray,
        actions: Optional[np.ndarray] = None,
    ) -> None:
        """Bulk :meth:`put`: one array assignment instead of k calls.

        Same signature as :meth:`ReplayDB.put_many` (``actions`` last
        and optional, ``-1`` = no action) so the two bulk writers can
        never be called with swapped columns.  Equivalent
        record-for-record to ``for r in …: put(r)``.  The vectorized
        fast path requires strictly ascending ticks spanning less than
        one ring capacity (the shape every fan-in batch has); anything
        irregular falls back to the per-record loop, which also
        enforces the too-old rejection with its usual message.  So does
        a single row (a served decision lands one at a time): scalar
        stores cost less than one-element fancy indexing.
        """
        ticks = np.asarray(ticks, dtype=np.int64)
        frames = np.asarray(frames, dtype=np.float64)
        rewards = np.asarray(rewards, dtype=np.float64)
        if actions is None:
            actions = np.full(ticks.shape[0], -1, dtype=np.int64)
        else:
            actions = np.asarray(actions, dtype=np.int64)
        k = ticks.shape[0]
        if frames.shape != (k, self.frame_width):
            raise ValueError(
                f"frames shape {frames.shape} != ({k}, {self.frame_width})"
            )
        if actions.shape != (k,) or rewards.shape != (k,):
            raise ValueError(
                f"actions/rewards must have shape ({k},), got "
                f"{actions.shape}/{rewards.shape}"
            )
        if k == 0:
            return
        per_record = k == 1 or (
            np.any(np.diff(ticks) <= 0)
            or int(ticks[-1]) - int(ticks[0]) >= self.capacity
            or int(ticks[0]) < 0
            or (
                self._max_tick is not None
                and int(ticks[0]) <= self._max_tick - self.capacity
            )
        )
        if per_record:
            for i in range(k):
                self.put(
                    TickRecord(
                        tick=int(ticks[i]),
                        frame=frames[i],
                        action=int(actions[i]),
                        reward=float(rewards[i]),
                    )
                )
            return
        slots = ticks % self.capacity
        self._count += int(np.count_nonzero(self._ticks[slots] < 0))
        self._frames[slots] = frames
        self._actions[slots] = actions
        self._rewards[slots] = rewards
        self._ticks[slots] = ticks
        if self._max_tick is None or int(ticks[-1]) > self._max_tick:
            self._max_tick = int(ticks[-1])
        if self._min_tick is None or int(ticks[0]) < self._min_tick:
            self._min_tick = int(ticks[0])
        horizon = self._max_tick - self.capacity + 1
        if self._min_tick < horizon:
            self._min_tick = horizon

    def records_between(self, first_tick: int, last_tick: int) -> PackedRecords:
        """Stored records with ``first_tick <= tick <= last_tick``, packed.

        Ticks come back strictly ascending; ticks never stored (dropped
        monitoring messages) are simply absent.  Arrays are copies, safe
        to ship across process boundaries.
        """
        if self._max_tick is None or last_tick < first_tick:
            return PackedRecords.empty(self.frame_width)
        lo = max(int(first_tick), self._min_tick or 0, 0)
        hi = min(int(last_tick), self._max_tick)
        if hi < lo:
            return PackedRecords.empty(self.frame_width)
        ticks = np.arange(lo, hi + 1, dtype=np.int64)
        slots = ticks % self.capacity
        present = self._ticks[slots] == ticks
        ticks, slots = ticks[present], slots[present]
        # Fancy indexing already materializes fresh arrays, detached
        # from the ring storage.
        return PackedRecords(
            ticks=ticks,
            frames=self._frames[slots],
            actions=self._actions[slots],
            rewards=self._rewards[slots],
        )

    def clear(self) -> None:
        """Drop every record in place (the arrays stay allocated).

        Samplers holding a reference to this cache see it empty rather
        than dangling — the fence :class:`~repro.env.vector.VectorEnv`
        applies on reset so a reused fleet cannot serve transitions
        from a previous episode.
        """
        self._ticks.fill(-1)
        self._actions.fill(-1)
        self._min_tick = None
        self._max_tick = None
        self._count = 0

    def set_action(self, tick: int, action: int) -> None:
        """Attach the action taken at ``tick`` (arrives separately)."""
        if not self.has(int(tick)):
            raise KeyError(f"no frame stored for tick {tick}")
        self._actions[self._slot(int(tick))] = int(action)

    def set_reward(self, tick: int, reward: float) -> None:
        """Attach the objective measured over ``tick``."""
        if not self.has(int(tick)):
            raise KeyError(f"no frame stored for tick {tick}")
        self._rewards[self._slot(int(tick))] = float(reward)

    def has(self, tick: int) -> bool:
        """Whether a record for exactly ``tick`` is stored."""
        if tick < 0 or self._max_tick is None:
            return False
        if tick > self._max_tick or tick <= self._max_tick - self.capacity:
            return False
        # The slot must hold *this* tick's record: once the ring wraps,
        # a dropped tick's slot still carries the record from one
        # capacity earlier, which must read as missing, not stale.
        return bool(self._ticks[self._slot(tick)] == tick)

    def get(self, tick: int) -> TickRecord:
        """The stored record for ``tick`` (a copy); KeyError if absent."""
        if not self.has(tick):
            raise KeyError(f"tick {tick} not in cache")
        slot = self._slot(tick)
        return TickRecord(
            tick=tick,
            frame=self._frames[slot].copy(),
            action=int(self._actions[slot]),
            reward=float(self._rewards[slot]),
        )

    def window(self, first_tick: int, n_ticks: int) -> tuple[np.ndarray, np.ndarray]:
        """Frames for ``[first_tick, first_tick + n_ticks)`` plus validity.

        Missing ticks come back as zero rows with ``valid=False`` — the
        observation builder decides whether the gap budget allows using
        the window (missing-entry tolerance).
        """
        if n_ticks <= 0:
            raise ValueError(f"n_ticks must be > 0, got {n_ticks}")
        frames = np.zeros((n_ticks, self.frame_width), dtype=np.float64)
        valid = np.zeros(n_ticks, dtype=bool)
        for i, tick in enumerate(range(first_tick, first_tick + n_ticks)):
            if self.has(tick):
                frames[i] = self._frames[self._slot(tick)]
                valid[i] = True
        return frames, valid

    def _locate(self, ticks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(slots, present)`` for an int64 array of ticks."""
        slots = ticks % self.capacity
        # No slot holds a tick above max_tick, and an empty ring holds
        # only -1, so the slot test plus one lower bound (the ring
        # horizon, or -1 for negative ticks) is the whole of has().
        newest = -1 if self._max_tick is None else self._max_tick
        present = (self._ticks[slots] == ticks) & (
            ticks > max(newest - self.capacity, -1)
        )
        return slots, present

    def screen(self, ticks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`gather` without the frames: ``(present, actions)``.

        What Algorithm 1 needs to accept or reject a candidate window,
        read from the tick and action columns only.
        """
        ticks = np.asarray(ticks, dtype=np.int64)
        slots, present = self._locate(ticks)
        return present, self._actions[slots]

    def gather(
        self, ticks: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Batched :meth:`has` + :meth:`get` over an int64 array of ticks.

        Returns ``(present, frames, actions, rewards)`` shaped like
        ``ticks`` (``frames`` with a trailing ``frame_width`` axis).
        ``present[i]`` is exactly ``has(ticks[i])``.  The value arrays
        are fancy-index copies, never views of the ring; what they hold
        where ``present`` is False is unspecified.  With :meth:`screen`,
        the only reader that knows the ring layout — Algorithm 1's
        batched paths (:class:`~repro.replaydb.sampler.MinibatchSampler`)
        go through here.
        """
        ticks = np.asarray(ticks, dtype=np.int64)
        slots, present = self._locate(ticks)
        return (
            present,
            self._frames[slots],
            self._actions[slots],
            self._rewards[slots],
        )

    def nbytes(self) -> int:
        """Resident memory of the cache arrays (Table 2's in-memory size)."""
        return (
            self._frames.nbytes
            + self._actions.nbytes
            + self._rewards.nbytes
            + self._ticks.nbytes
        )
