"""Record types stored in and sampled from the replay database."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np


@dataclass
class TickRecord:
    """Everything the system learned about one sampling tick.

    ``frame`` is the cluster-wide PI vector (all clients concatenated in
    client order); ``action`` is the action index taken at this tick
    (-1 when no action was recorded, e.g. monitoring-only operation);
    ``reward`` is the objective value measured over this tick.
    """

    tick: int
    frame: np.ndarray
    action: int = -1
    reward: float = 0.0


@dataclass
class PackedRecords:
    """Column-packed tick records for bulk transport and bulk writes.

    The array form of a ``List[TickRecord]``: one ``(k, frame_width)``
    float64 frame block plus tick/action/reward vectors, ticks strictly
    ascending.  This is what crosses worker pipes on the vectorized
    collection hot path — pickling four NumPy arrays costs one buffer
    copy each, where a list of k records costs k object round-trips —
    and what :meth:`~repro.replaydb.db.ReplayDB.put_many` ingests.
    """

    ticks: np.ndarray  # (k,) int64, strictly ascending
    frames: np.ndarray  # (k, frame_width) float64
    actions: np.ndarray  # (k,) int64, -1 = no action recorded
    rewards: np.ndarray  # (k,) float64

    def __len__(self) -> int:
        return int(self.ticks.shape[0])

    @classmethod
    def empty(cls, frame_width: int) -> "PackedRecords":
        return cls(
            ticks=np.empty(0, dtype=np.int64),
            frames=np.empty((0, int(frame_width)), dtype=np.float64),
            actions=np.empty(0, dtype=np.int64),
            rewards=np.empty(0, dtype=np.float64),
        )

    @classmethod
    def from_records(
        cls, records: Sequence[TickRecord], frame_width: int
    ) -> "PackedRecords":
        if not records:
            return cls.empty(frame_width)
        return cls(
            ticks=np.array([r.tick for r in records], dtype=np.int64),
            frames=np.ascontiguousarray(
                [r.frame for r in records], dtype=np.float64
            ),
            actions=np.array([r.action for r in records], dtype=np.int64),
            rewards=np.array([r.reward for r in records], dtype=np.float64),
        )

    def to_records(self) -> List[TickRecord]:
        """Unpack into per-tick :class:`TickRecord` objects (copies)."""
        return [
            TickRecord(
                tick=int(self.ticks[i]),
                frame=self.frames[i].copy(),
                action=int(self.actions[i]),
                reward=float(self.rewards[i]),
            )
            for i in range(len(self))
        ]


@dataclass
class Transition:
    """One training sample w_t = (s_t, s_{t+1}, a_t, r_t) — §3.5.

    ``s_t`` / ``s_next`` are stacked observations (S ticks × features,
    flattened); ``reward`` is the objective measured at t+1, i.e. the
    immediate consequence of acting at t.
    """

    tick: int
    s_t: np.ndarray
    s_next: np.ndarray
    action: int
    reward: float


@dataclass
class Minibatch:
    """Vectorised batch of transitions ready for the DNN trainer."""

    s_t: np.ndarray  # (n, obs_dim)
    s_next: np.ndarray  # (n, obs_dim)
    actions: np.ndarray  # (n,) int64
    rewards: np.ndarray  # (n,) float64

    def __len__(self) -> int:
        return self.s_t.shape[0]
