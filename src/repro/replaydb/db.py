"""Durable replay store: SQLite with write-ahead logging (§4.1).

"The Replay DB is a SQLite database using Write-Ahead-Logging for
optimal concurrent write/read performance."  Observations and actions
live in two tables indexed by tick, exactly as §3.5 describes; rewards
are stored with the observations (the objective value measured over the
tick).  :class:`ReplayDB` wraps the SQLite store together with the
in-memory :class:`~repro.replaydb.cache.ReplayCache`; writers go through
the façade so both layers stay consistent, and training reads only ever
hit the cache.

An in-memory database (``path=":memory:"``) is the default for
simulation runs; pass a real path to persist across sessions, which is
how Figure 4's multi-session experiment reloads its history.  Pass
``path=None`` (or the :data:`CACHE_ONLY` sentinel) to skip SQLite
entirely and run on the cache alone — an in-memory SQLite database
buys no durability over the cache, only per-write overhead, so the
vectorized fan-in store defaults to this mode.

A store can also be handed its read cache (``cache=``): a view of
records that live elsewhere, such as the vec fleet's record columns.
It then reads through that view and writes only its durable layer, so
the rows exist once in memory.
"""

from __future__ import annotations

import sqlite3
from typing import Iterable, Optional

import numpy as np

from repro.replaydb.cache import ReplayCache
from repro.replaydb.records import TickRecord

#: ``path`` sentinel for a cache-only store (no SQLite layer at all).
#: ``None`` means the same thing; the named constant reads better at
#: call sites that thread the path through several layers.
CACHE_ONLY = "cache-only"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS observations (
    tick   INTEGER PRIMARY KEY,
    frame  BLOB NOT NULL,
    reward REAL NOT NULL DEFAULT 0.0
);
CREATE TABLE IF NOT EXISTS actions (
    tick   INTEGER PRIMARY KEY,
    action INTEGER NOT NULL
);
"""


class ReplayDB:
    """SQLite-backed replay database with a NumPy read cache."""

    def __init__(
        self,
        frame_width: int,
        path: Optional[str] = ":memory:",
        cache_capacity: int = 250_000,
        cache=None,
    ):
        self.frame_width = int(frame_width)
        if path is None or path == CACHE_ONLY:
            # Cache-only store: no SQLite layer.  Durability is not
            # wanted here (the fan-in DB of a vectorized run is rebuilt
            # from scratch every session), so the per-write SQL cost
            # would be pure overhead.
            self.path = None
            self._conn = None
        else:
            self.path = path
            self._conn = sqlite3.connect(path)
            # WAL needs a real file; in-memory databases silently keep
            # their default journal, which is fine for simulation runs.
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_SCHEMA)
        #: Whether the cache is this store's own.  A borrowed one (a
        #: view) is read-only here: :meth:`put_many` and :meth:`clear`
        #: reach the durable layer alone, and nothing is loaded into it.
        self._owns_cache = cache is None
        if cache is None:
            cache = ReplayCache(frame_width, capacity=cache_capacity)
        self.cache = cache
        if self._conn is not None and self._owns_cache:
            self._load_existing()

    # -- persistence ------------------------------------------------------
    def _load_existing(self) -> None:
        """Warm the cache from whatever the database already holds."""
        rows = self._conn.execute(
            "SELECT o.tick, o.frame, o.reward, a.action FROM observations o "
            "LEFT JOIN actions a ON a.tick = o.tick ORDER BY o.tick"
        ).fetchall()
        for tick, blob, reward, action in rows:
            frame = np.frombuffer(blob, dtype=np.float64)
            if frame.shape != (self.frame_width,):
                raise ValueError(
                    f"stored frame at tick {tick} has width {frame.shape}, "
                    f"database was created with a different PI layout"
                )
            self.cache.put(
                TickRecord(
                    tick=tick,
                    frame=frame.copy(),
                    action=-1 if action is None else int(action),
                    reward=float(reward),
                )
            )

    # -- writer API (used by the Interface Daemon) -------------------------
    def put_observation(self, tick: int, frame: np.ndarray, reward: float = 0.0) -> None:
        """Store one tick's PI frame (+ objective), durably and cached."""
        frame = np.ascontiguousarray(frame, dtype=np.float64)
        if self._conn is not None:
            self._conn.execute(
                "INSERT OR REPLACE INTO observations (tick, frame, reward) "
                "VALUES (?, ?, ?)",
                (int(tick), frame.tobytes(), float(reward)),
            )
        self.cache.put(TickRecord(tick=int(tick), frame=frame, reward=float(reward)))

    def put_action(self, tick: int, action: int) -> None:
        """Store the action index taken at ``tick``."""
        if self._conn is not None:
            self._conn.execute(
                "INSERT OR REPLACE INTO actions (tick, action) VALUES (?, ?)",
                (int(tick), int(action)),
            )
        if self.cache.has(int(tick)):
            self.cache.set_action(int(tick), int(action))

    def put_many(
        self,
        ticks: np.ndarray,
        frames: np.ndarray,
        rewards: np.ndarray,
        actions: Optional[np.ndarray] = None,
    ) -> None:
        """Bulk write: ``executemany`` + one commit, then one cache put.

        Record-for-record equivalent to a ``put_observation`` /
        ``put_action`` loop over the same data (``actions[i] < 0`` means
        no action at that tick, matching ``TickRecord``), but with one
        SQL statement per table, one transaction commit per batch, and
        one vectorized cache assignment — the write shape the vectorized
        collection fan-in needs.  The commit also makes each chunk
        boundary durable, which the per-record writers never did.
        """
        ticks = np.asarray(ticks, dtype=np.int64)
        frames = np.ascontiguousarray(frames, dtype=np.float64)
        rewards = np.asarray(rewards, dtype=np.float64)
        if actions is None:
            actions = np.full(ticks.shape[0], -1, dtype=np.int64)
        else:
            actions = np.asarray(actions, dtype=np.int64)
        if ticks.shape[0] == 0:
            return
        if self._conn is not None:
            self._conn.executemany(
                "INSERT OR REPLACE INTO observations (tick, frame, reward) "
                "VALUES (?, ?, ?)",
                [
                    (int(t), f.tobytes(), float(r))
                    for t, f, r in zip(ticks, frames, rewards)
                ],
            )
            acted = actions >= 0
            if np.any(acted):
                self._conn.executemany(
                    "INSERT OR REPLACE INTO actions (tick, action) "
                    "VALUES (?, ?)",
                    [
                        (int(t), int(a))
                        for t, a in zip(ticks[acted], actions[acted])
                    ],
                )
            self._conn.commit()
        if self._owns_cache:
            self.cache.put_many(ticks, frames, rewards, actions)

    def set_reward(self, tick: int, reward: float) -> None:
        """Attach the objective measured over ``tick``."""
        if self._conn is not None:
            self._conn.execute(
                "UPDATE observations SET reward = ? WHERE tick = ?",
                (float(reward), int(tick)),
            )
        if self.cache.has(int(tick)):
            self.cache.set_reward(int(tick), float(reward))

    def clear(self) -> None:
        """Drop every stored record, durably and in the cache.

        The reset fence for shared fan-in stores: a reused
        :class:`~repro.env.vector.VectorEnv` must not sample stale
        cross-episode transitions.
        """
        if self._conn is not None:
            self._conn.execute("DELETE FROM observations")
            self._conn.execute("DELETE FROM actions")
            self._conn.commit()
        if self._owns_cache:
            self.cache.clear()

    def commit(self) -> None:
        """Flush the durable layer (no-op for cache-only stores)."""
        if self._conn is not None:
            self._conn.commit()

    def close(self) -> None:
        """Commit and release the SQLite handle (idempotent)."""
        if self._conn is not None:
            self._conn.commit()
            self._conn.close()
            self._conn = None

    # -- reader API -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.cache)

    def record_count(self) -> int:
        """Durable row count (Table 2's 'number of records').

        A cache-only store has no durable layer; it reports the cache
        occupancy, which is the same count a SQLite-backed store would
        hold after the same writes.
        """
        if self._conn is None:
            return len(self.cache)
        (n,) = self._conn.execute("SELECT COUNT(*) FROM observations").fetchone()
        return int(n)

    def on_disk_bytes(self) -> int:
        """Approximate database size (page_count × page_size)."""
        if self._conn is None:
            return 0
        (pages,) = self._conn.execute("PRAGMA page_count").fetchone()
        (size,) = self._conn.execute("PRAGMA page_size").fetchone()
        return int(pages) * int(size)

    def in_memory_bytes(self) -> int:
        """Resident size of the NumPy cache (Table 2's in-memory row)."""
        return self.cache.nbytes()

    def __enter__(self) -> "ReplayDB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
