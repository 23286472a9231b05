"""Struct-of-arrays state for a fleet of N simulated clusters.

Layout convention: leading axis is always the environment, so every
per-row computation is independent of the fleet size — the property the
golden tests pin (env ``i`` of a fleet of N is byte-identical to the
same env run alone).  Shapes: ``(E,)`` fleet scalars, ``(E, C)``
per-client, ``(E, S)`` per-server, ``(E, C, S)`` per-OSC (client ×
server connection — the unit the 11 telemetry PIs describe).

The replay record columns (ticks / frames / actions / rewards) live
here too, as growable per-env arrays, and are the fleet's only copy of
a frame: ``records_since_packed`` slices them into a
:class:`~repro.replaydb.records.PackedRecords` without ever
materialising per-tick objects, the stacked observation is their newest
``obs_ticks`` rows, and :class:`RecordView` adapts them to
the :class:`~repro.replaydb.cache.ReplayCache` duck interface so
Algorithm 1's :class:`~repro.replaydb.sampler.MinibatchSampler` can
draw minibatches straight off the fleet arrays.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.replaydb.records import PackedRecords, TickRecord
from repro.sim.vec.config import FleetConfig
from repro.util.rng import derive_rng, ensure_rng

#: Initial per-env record capacity; doubles on demand.
_REC_CAP0 = 512


def as_selection(idx):
    """Sorted env indices as a ``slice`` when they form one contiguous run.

    Indexing a state array with a slice reads a view and stores in
    place; an index array gathers and scatters.  The whole fleet and a
    single env are both runs, so the hot paths never gather.  A
    non-contiguous ``idx`` (or a slice) is returned unchanged and flows
    through the same statements.
    """
    if isinstance(idx, slice) or len(idx) == 0:
        return idx
    first = int(idx[0])
    if int(idx[-1]) - first + 1 != len(idx):
        return idx
    return slice(first, first + len(idx))


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

        # Replay record columns (growable along axis 1).  The newest
        # ``obs_ticks`` rows double as the observation window.
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
        "rec_len", "rec_ticks", "rec_frames", "rec_actions", "rec_rewards",
    )

    # -- record columns ---------------------------------------------------
    def reserve_records(self, k: int) -> None:
        """Make room for ``k`` more records on every env.

        Callers reserve once per chunk so :meth:`append_records` needs
        no per-tick capacity check.  Growth doubles, allocating each
        column once and copying only the rows in use; spare capacity is
        zeros (``-1`` for actions), so snapshots stay deterministic.
        """
        live = int(self.rec_len.max())
        cap = self.rec_ticks.shape[1]
        if live + k <= cap:
            return
        while cap < live + k:
            cap *= 2
        for name in ("rec_ticks", "rec_frames", "rec_actions", "rec_rewards"):
            old = getattr(self, name)
            shape = (self.n_envs, cap) + old.shape[2:]
            if name == "rec_actions":
                new = np.full(shape, -1, dtype=old.dtype)
            else:  # zeros, not full(0): untouched pages stay unmapped
                new = np.zeros(shape, dtype=old.dtype)
            new[:, :live] = old[:, :live]
            setattr(self, name, new)

    def append_records(
        self, idx: np.ndarray, frames: np.ndarray, rewards: np.ndarray
    ) -> None:
        """Store tick records for envs ``idx`` (action -1 until set).

        ``frames`` is ``(len(idx), F)`` — the rows for those envs'
        current ticks — and ``rewards`` the matching objective values.
        Capacity must have been reserved (:meth:`reserve_records`).
        """
        rows = self.rec_len[idx]
        self.rec_ticks[idx, rows] = self.tick[idx]
        self.rec_frames[idx, rows] = frames
        self.rec_actions[idx, rows] = -1
        self.rec_rewards[idx, rows] = rewards
        self.rec_len[idx] = rows + 1

    def set_actions(self, idx: np.ndarray, actions: np.ndarray) -> None:
        """Record one action per env in ``idx``: :meth:`set_action` at
        each env's current tick, for the whole selection at once."""
        rows = self.rec_len[idx] - 1
        # rows == -1 (no record yet) reads the last column; masked out.
        stored = (rows >= 0) & (self.rec_ticks[idx, rows] == self.tick[idx])
        self.rec_actions[idx[stored], rows[stored]] = actions[stored]

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

    def packed_since_all(
        self, after_ticks: Sequence[int]
    ) -> Tuple[np.ndarray, PackedRecords]:
        """Every env's records with ``tick > after_ticks[e]``, as one block.

        Returns ``(envs, packed)``: the rows env-major (each env's in
        tick order) and, aligned with them, the env each belongs to.
        Envs need not be in lockstep: one mask over the column window
        ``[first new row of any env, newest row of any env)`` selects
        them all.
        """
        hi = self.rec_len
        lo = np.array([
            self.rec_ticks[e, :n].searchsorted(after, side="right")
            for e, (n, after) in enumerate(zip(hi.tolist(), after_ticks))
        ])
        first, last = int(lo.min()), int(hi.max())
        window = np.s_[:, first:last]
        cols = np.arange(first, last)
        new = (cols >= lo[:, None]) & (cols < hi[:, None])
        return np.nonzero(new)[0], PackedRecords(
            ticks=self.rec_ticks[window][new],
            frames=self.rec_frames[window][new],
            actions=self.rec_actions[window][new],
            rewards=self.rec_rewards[window][new],
        )

    # -- observations -------------------------------------------------------
    def observation(self, e: int, out: Optional[np.ndarray] = None):
        """Env ``e``'s stacked observation, or None before any frame.

        The newest ``obs_ticks`` records, oldest first; during warm-up
        the earliest stored frame is repeated backwards (the daemon's
        padding).
        """
        n = int(self.rec_len[e])
        if n == 0:
            return None
        S = self.cfg.obs_ticks
        size = S * self.frame_dim
        if out is None:
            out = np.empty(size)
        elif out.size != size:
            raise ValueError(
                f"out buffer has {out.size} elements, expected {size}"
            )
        elif not out.flags["C_CONTIGUOUS"] or out.dtype != np.float64:
            raise ValueError("out buffer must be a C-contiguous float64 array")
        stack = out.reshape(S, self.frame_dim)
        if n >= S:
            stack[:] = self.rec_frames[e, n - S : n]
        else:
            stack[: S - n] = self.rec_frames[e, 0]
            stack[S - n :] = self.rec_frames[e, :n]
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

    def _locate(self, ticks: np.ndarray):
        """``(rows, present)`` for an int64 array of ticks."""
        st, e, n = self._state, self._e, self._n()
        found = np.searchsorted(st.rec_ticks[e, :n], ticks)
        # A tick past the newest record searches to row n, which is
        # spare capacity, not a record: ``found < n`` marks it absent
        # and the clip keeps the (then unspecified) value reads in range.
        rows = np.minimum(found, max(n - 1, 0))
        return rows, (found < n) & (st.rec_ticks[e, rows] == ticks)

    def screen(self, ticks: np.ndarray):
        """Batched ``has`` plus the action column; see :meth:`ReplayCache.screen
        <repro.replaydb.cache.ReplayCache.screen>` for the contract."""
        ticks = np.asarray(ticks, dtype=np.int64)
        rows, present = self._locate(ticks)
        return present, self._state.rec_actions[self._e, rows]

    def gather(self, ticks: np.ndarray):
        """Batched ``has`` + ``get``; see :meth:`ReplayCache.gather
        <repro.replaydb.cache.ReplayCache.gather>` for the contract."""
        ticks = np.asarray(ticks, dtype=np.int64)
        rows, present = self._locate(ticks)
        st, e = self._state, self._e
        return (
            present,
            st.rec_frames[e, rows],
            st.rec_actions[e, rows],
            st.rec_rewards[e, rows],
        )
