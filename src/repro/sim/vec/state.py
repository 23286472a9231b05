"""Struct-of-arrays state for a fleet of N simulated clusters.

Layout convention: leading axis is always the environment, so every
per-row computation is independent of the fleet size — the property the
golden tests pin (env ``i`` of a fleet of N is byte-identical to the
same env run alone).  Shapes: ``(E,)`` fleet scalars, ``(E, C)``
per-client, ``(E, S)`` per-server, ``(E, C, S)`` per-OSC (client ×
server connection — the unit the 11 telemetry PIs describe).

The replay record columns (ticks / frames / actions / rewards) live
here too, as growable per-env arrays: ``records_since_packed`` slices
them into a :class:`~repro.replaydb.records.PackedRecords` without ever
materialising per-tick objects, and :class:`RecordView` adapts them to
the :class:`~repro.replaydb.cache.ReplayCache` duck interface so
Algorithm 1's :class:`~repro.replaydb.sampler.MinibatchSampler` can
draw minibatches straight off the fleet arrays.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.replaydb.records import PackedRecords, TickRecord
from repro.sim.vec.config import FleetConfig
from repro.util.rng import derive_rng, ensure_rng

#: Initial per-env record capacity; doubles on demand.
_REC_CAP0 = 512


class FleetState:
    """All mutable per-env state, as shared numpy arrays."""

    def __init__(self, cfg: FleetConfig, seeds: List[int], frame_dim: int):
        E, C, S = len(seeds), cfg.n_clients, cfg.n_servers
        self.cfg = cfg
        self.seeds = list(int(s) for s in seeds)
        self.n_envs = E
        self.frame_dim = int(frame_dim)

        self.tick = np.zeros(E, dtype=np.int64)
        # Live tunables (the two CAPES knobs, uniform across clients).
        self.window = np.full(E, cfg.window0)
        self.rate = np.full(E, cfg.rate0)
        # Client-side: token buckets and write-back caches.
        self.tokens = np.full((E, C), cfg.rate_burst)
        self.dirty = np.zeros((E, C, S))
        # Outstanding synchronous reads per OSC (the write backlog is
        # the dirty cache itself — no separate write queue).
        self.qr = np.zeros((E, C, S))
        # Telemetry state.  EWMAs seed on first sample (NaN = unseeded,
        # read as 0.0 — the reference EWMA's neutral pre-sample value).
        self.ack = np.full((E, C, S), np.nan)
        self.send = np.full((E, C, S), np.nan)
        t0 = _nominal_service_time(cfg)
        self.last_pt = np.full((E, S), t0)
        self.min_pt = np.full((E, S), np.inf)
        # Per-client closed-loop latency estimate driving next-tick
        # demand (sync reads wait for it; T_ADMIN bounds writers).
        self.lat = np.full((E, C), 2.0 * cfg.net_lat + t0)
        # Workload population.
        self.inst_base = np.full((E, C), cfg.inst_per_client)
        self.surge = np.zeros((E, C))
        self.paused = np.zeros((E, C), dtype=bool)
        self.rf = np.full(E, cfg.read_fraction)
        self.think = np.full(E, cfg.think_time)
        # Scenario factor arrays (multiplicative; events stack/unstack
        # by inverse scaling, mirroring the reference event semantics).
        self.disk_bw_f = np.ones((E, S))
        self.disk_seek_f = np.ones((E, S))
        self.net_bw_f = np.ones(E)
        self.net_lat_f = np.ones(E)

        # Observation ring, kept pre-stacked: (E, obs_ticks, F) with the
        # newest frame last.  Warm-up padding (repeat the earliest
        # stored frame backwards) falls out of initialising every slot
        # with the first frame — see ``push_frames``.
        self.obs3 = np.zeros((E, cfg.obs_ticks, frame_dim))
        self.obs_count = np.zeros(E, dtype=np.int64)

        # Replay record columns (growable along axis 1).
        self.rec_len = np.zeros(E, dtype=np.int64)
        self.rec_ticks = np.zeros((E, _REC_CAP0), dtype=np.int64)
        self.rec_frames = np.zeros((E, _REC_CAP0, frame_dim))
        self.rec_actions = np.full((E, _REC_CAP0), -1, dtype=np.int64)
        self.rec_rewards = np.zeros((E, _REC_CAP0))

        # Per-env private streams, derived from the env seed alone so
        # stream i never depends on the fleet size.
        self.wl_rngs: List[np.random.Generator] = []
        self.drop_rngs: List[np.random.Generator] = []
        self.scenario_rngs: List[np.random.Generator] = []
        for s in self.seeds:
            root = ensure_rng(int(s))
            self.wl_rngs.append(derive_rng(root, "vec-workload"))
            self.drop_rngs.append(derive_rng(root, "vec-drops"))
            self.scenario_rngs.append(derive_rng(root, "scenario"))

    #: Every mutable array attribute, the snapshot capture manifest.
    #: Restoring assigns captured arrays wholesale (rather than copying
    #: into a fresh state's buffers) so grown record columns keep their
    #: grown capacity.  Keep in sync with ``__init__``.
    MUTABLE_ARRAYS = (
        "tick", "window", "rate", "tokens", "dirty", "qr", "ack", "send",
        "last_pt", "min_pt", "lat", "inst_base", "surge", "paused",
        "rf", "think", "disk_bw_f", "disk_seek_f", "net_bw_f", "net_lat_f",
        "obs3", "obs_count",
        "rec_len", "rec_ticks", "rec_frames", "rec_actions", "rec_rewards",
    )

    # -- record columns ---------------------------------------------------
    def _grow_records(self) -> None:
        cap = self.rec_ticks.shape[1]
        self.rec_ticks = np.concatenate(
            [self.rec_ticks, np.zeros_like(self.rec_ticks)], axis=1
        )
        self.rec_frames = np.concatenate(
            [self.rec_frames, np.zeros_like(self.rec_frames)], axis=1
        )
        self.rec_actions = np.concatenate(
            [self.rec_actions, np.full_like(self.rec_actions, -1)], axis=1
        )
        self.rec_rewards = np.concatenate(
            [self.rec_rewards, np.zeros_like(self.rec_rewards)], axis=1
        )
        assert self.rec_ticks.shape[1] == 2 * cap

    def append_records(
        self, idx: np.ndarray, frames: np.ndarray, rewards: np.ndarray
    ) -> None:
        """Store tick records for envs ``idx`` (action -1 until set).

        ``frames`` is ``(len(idx), F)`` — the rows for those envs'
        current ticks — and ``rewards`` the matching objective values.
        """
        if len(idx) == 0:
            return
        while int(self.rec_len[idx].max()) >= self.rec_ticks.shape[1]:
            self._grow_records()
        rows = self.rec_len[idx]
        self.rec_ticks[idx, rows] = self.tick[idx]
        self.rec_frames[idx, rows] = frames
        self.rec_actions[idx, rows] = -1
        self.rec_rewards[idx, rows] = rewards
        self.rec_len[idx] = rows + 1

    def set_action(self, e: int, tick: int, action: int) -> bool:
        """Record ``action`` on env ``e``'s record for ``tick`` if stored.

        Actions attach to the record of the tick they were decided
        *after* (the reference daemon's ``put_action`` semantics); a
        tick dropped on the monitoring network has no record to carry
        one, exactly as in the reference path.
        """
        n = int(self.rec_len[e])
        if n == 0 or int(self.rec_ticks[e, n - 1]) != int(tick):
            return False
        self.rec_actions[e, n - 1] = int(action)
        return True

    def packed_since(self, e: int, after_tick: int) -> PackedRecords:
        """Env ``e``'s records with ``tick > after_tick`` as one block."""
        n = int(self.rec_len[e])
        ticks = self.rec_ticks[e, :n]
        lo = int(np.searchsorted(ticks, after_tick, side="right"))
        return PackedRecords(
            ticks=ticks[lo:].copy(),
            frames=self.rec_frames[e, lo:n].copy(),
            actions=self.rec_actions[e, lo:n].copy(),
            rewards=self.rec_rewards[e, lo:n].copy(),
        )

    # -- observation ring --------------------------------------------------
    def push_frames(self, idx: np.ndarray, frames: np.ndarray) -> None:
        """Shift envs ``idx``'s observation stacks and append ``frames``.

        A first-ever frame fills the whole stack, which makes the
        stacked observation equal to "repeat the earliest frame
        backwards" at every later fill level — the daemon's warm-up
        padding, without a pad branch on the hot path.
        """
        if len(idx) == 0:
            return
        fresh = idx[self.obs_count[idx] == 0]
        seen = idx[self.obs_count[idx] > 0]
        if len(seen):
            self.obs3[seen, :-1] = self.obs3[seen, 1:]
            pos = np.searchsorted(idx, seen)
            self.obs3[seen, -1] = frames[pos]
        if len(fresh):
            pos = np.searchsorted(idx, fresh)
            self.obs3[fresh] = frames[pos][:, None, :]
        self.obs_count[idx] += 1

    def observation(self, e: int, out: Optional[np.ndarray] = None):
        """Env ``e``'s stacked observation, or None before any frame."""
        if self.obs_count[e] == 0:
            return None
        size = self.cfg.obs_ticks * self.frame_dim
        if out is None:
            out = np.empty(size)
        elif out.size != size:
            raise ValueError(
                f"out buffer has {out.size} elements, expected {size}"
            )
        elif not out.flags["C_CONTIGUOUS"] or out.dtype != np.float64:
            raise ValueError("out buffer must be a C-contiguous float64 array")
        out.reshape(self.cfg.obs_ticks, self.frame_dim)[:] = self.obs3[e]
        return out


def _nominal_service_time(cfg: FleetConfig) -> float:
    """Cold-start per-op service estimate (seeds the latency closure)."""
    mid_seek = 0.5 * (cfg.min_seek + cfg.max_seek)
    xfer = cfg.io_size / min(cfg.read_bw, cfg.write_bw)
    return mid_seek + cfg.rot_half + xfer


class RecordView:
    """One env's record columns behind the ReplayCache duck interface.

    A *live* view — :class:`~repro.replaydb.sampler.MinibatchSampler`
    built over it sees records appended after construction, matching
    the semantics of sampling a reference env's replay cache.
    """

    def __init__(self, state: FleetState, e: int):
        self._state = state
        self._e = int(e)

    @property
    def frame_width(self) -> int:
        return self._state.frame_dim

    def _n(self) -> int:
        return int(self._state.rec_len[self._e])

    @property
    def min_tick(self) -> Optional[int]:
        n = self._n()
        return int(self._state.rec_ticks[self._e, 0]) if n else None

    @property
    def max_tick(self) -> Optional[int]:
        n = self._n()
        return int(self._state.rec_ticks[self._e, n - 1]) if n else None

    def __len__(self) -> int:
        return self._n()

    def _row(self, tick: int) -> Optional[int]:
        n = self._n()
        ticks = self._state.rec_ticks[self._e, :n]
        i = int(np.searchsorted(ticks, tick))
        if i < n and int(ticks[i]) == int(tick):
            return i
        return None

    def has(self, tick: int) -> bool:
        return self._row(tick) is not None

    def get(self, tick: int) -> TickRecord:
        i = self._row(tick)
        if i is None:
            raise KeyError(f"tick {tick} not in records")
        st, e = self._state, self._e
        return TickRecord(
            tick=int(tick),
            frame=st.rec_frames[e, i].copy(),
            action=int(st.rec_actions[e, i]),
            reward=float(st.rec_rewards[e, i]),
        )

    def window(self, first_tick: int, n_ticks: int):
        if n_ticks <= 0:
            raise ValueError(f"n_ticks must be > 0, got {n_ticks}")
        frames = np.zeros((n_ticks, self.frame_width))
        valid = np.zeros(n_ticks, dtype=bool)
        for j, tick in enumerate(range(first_tick, first_tick + n_ticks)):
            i = self._row(tick)
            if i is not None:
                frames[j] = self._state.rec_frames[self._e, i]
                valid[j] = True
        return frames, valid

    def gather(self, ticks: np.ndarray):
        """Batched ``has`` + ``get``; see :meth:`ReplayCache.gather
        <repro.replaydb.cache.ReplayCache.gather>` for the contract."""
        ticks = np.asarray(ticks, dtype=np.int64)
        st, e, n = self._state, self._e, self._n()
        found = np.searchsorted(st.rec_ticks[e, :n], ticks)
        # A tick past the newest record searches to row n, which is
        # spare capacity, not a record: ``found < n`` marks it absent
        # and the clip keeps the (then unspecified) value reads in range.
        rows = np.minimum(found, max(n - 1, 0))
        return (
            (found < n) & (st.rec_ticks[e, rows] == ticks),
            st.rec_frames[e, rows],
            st.rec_actions[e, rows],
            st.rec_rewards[e, rows],
        )
