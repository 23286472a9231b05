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
draw minibatches straight off the fleet arrays — one env in its own
tick space, or the whole fleet in the block-strided global tick space
that :class:`~repro.env.vector.VectorEnv` samples as its shared store.
"""

from __future__ import annotations

import weakref
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
    """Fleet record columns behind the ReplayCache duck interface.

    With ``stride``, the whole fleet in global-tick space: env ``e``'s
    local tick ``t`` reads at ``e * stride + t``, the block-strided
    layout of a shared fan-in store.  With ``env``, that one env in its
    own tick space.  ``fleet`` (a
    :class:`~repro.sim.vec.fleet_env.FleetEnv`) is read through its
    ``state`` on every call, so the view follows resets and restores,
    and a sampler over it sees records appended after construction.

    Lookups are O(1) per tick through an index from global tick to flat
    record position.  A state's rows are only ever appended, so each
    read extends the index by the rows added since the last one; a new
    state, or columns regrown to a new capacity, rebuilds it.
    """

    def __init__(self, fleet, stride: Optional[int] = None, env: Optional[int] = None):
        if (stride is None) == (env is None):
            raise ValueError("give a stride (whole fleet) or one env")
        self._fleet = fleet
        self._stride = None if stride is None else int(stride)
        first = 0 if env is None else int(env)
        self._n_blocks = fleet.n_envs if env is None else 1
        self._envs = slice(first, first + self._n_blocks)
        # Which state (held weakly: a reset frees the old one) and which
        # column capacity the index describes.
        self._indexed_state = lambda: None
        self._indexed_cap = 0
        self._index = np.zeros(2, dtype=np.intp)
        self._indexed = np.zeros(self._n_blocks, dtype=np.int64)
        self._n_indexed = 0

    @property
    def frame_width(self) -> int:
        return self._fleet.frame_dim

    def _rows_index(self) -> np.ndarray:
        """The index, brought up to date with the columns.

        Entry ``g + 1`` holds ``1 +`` the flat position (``env *
        capacity + row``) of global tick ``g``'s record, 0 when it is
        not stored; the first and last entries are always-empty guards
        for ticks below and past the indexed range.
        """
        st = self._fleet.state
        if st is None:
            return np.zeros(2, dtype=np.intp)
        cap = st.rec_ticks.shape[1]
        if self._indexed_state() is not st or self._indexed_cap != cap:
            self._indexed_state, self._indexed_cap = weakref.ref(st), cap
            size = self._n_blocks * (self._stride or _REC_CAP0)
            self._index = np.zeros(size + 2, dtype=np.intp)
            self._indexed[:] = 0
            self._n_indexed = 0
        hi = st.rec_len[self._envs]
        total = int(hi.sum())
        if total == self._n_indexed:  # rows are only appended
            return self._index
        lo = self._indexed
        cols = np.arange(int(lo.min()), int(hi.max()))
        blocks, at = np.nonzero((cols >= lo[:, None]) & (cols < hi[:, None]))
        envs, rows = blocks + self._envs.start, cols[at]
        ticks = st.rec_ticks[envs, rows]
        if self._stride:
            # A tick past its block would alias the next env's: never
            # stored (the fan-in refuses it), so never indexed.
            fits = ticks < self._stride
            ticks = ticks[fits] + blocks[fits] * self._stride
            envs, rows = envs[fits], rows[fits]
        size = len(self._index) - 2
        if len(ticks) and int(ticks.max()) >= size:  # one env: unbounded
            while size <= int(ticks.max()):
                size *= 2
            grown = np.zeros(size + 2, dtype=np.intp)
            grown[: len(self._index) - 1] = self._index[:-1]
            self._index = grown
        self._index[ticks + 1] = envs * cap + rows + 1
        self._indexed = hi.copy()
        self._n_indexed = total
        return self._index

    def _ends(self, column: int) -> Optional[int]:
        """The smallest first tick (``column=0``) or the largest last
        tick (``column=-1``) over the non-empty blocks, global."""
        st = self._fleet.state
        if st is None:
            return None
        n = st.rec_len[self._envs]
        blocks = np.flatnonzero(n)
        if blocks.size == 0:
            return None
        rows = 0 if column == 0 else n[blocks] - 1
        ticks = st.rec_ticks[self._envs][blocks, rows]
        ticks = ticks + blocks * (self._stride or 0)
        return int(ticks.min() if column == 0 else ticks.max())

    @property
    def min_tick(self) -> Optional[int]:
        return self._ends(0)

    @property
    def max_tick(self) -> Optional[int]:
        return self._ends(-1)

    def __len__(self) -> int:
        st = self._fleet.state
        return 0 if st is None else int(st.rec_len[self._envs].sum())

    def _locate(self, ticks: np.ndarray):
        """``(flat, present)`` for an int64 array of global ticks: each
        tick's flat record position, and whether it is stored.  Where
        it is not, ``flat`` is -1, which still indexes a cell (the last
        one), of unspecified value."""
        index = self._rows_index()
        flat = index[np.clip(ticks, -1, len(index) - 2) + 1] - 1
        return flat, flat >= 0

    def screen(self, ticks: np.ndarray):
        """Batched ``has`` plus the action column; see :meth:`ReplayCache.screen
        <repro.replaydb.cache.ReplayCache.screen>` for the contract."""
        present, _, actions, _ = self._read(ticks, frames=False)
        return present, actions

    def gather(self, ticks: np.ndarray):
        """Batched ``has`` + ``get``; see :meth:`ReplayCache.gather
        <repro.replaydb.cache.ReplayCache.gather>` for the contract."""
        return self._read(ticks, frames=True)

    def _read(self, ticks, frames: bool):
        """:meth:`gather`, its frames (and rewards) left out as None
        unless ``frames``."""
        flat, present = self._locate(np.asarray(ticks, dtype=np.int64))
        st = self._fleet.state
        if st is None:  # never reset: nothing is stored
            shape = present.shape
            return (
                present,
                np.zeros(shape + (self.frame_width,)) if frames else None,
                np.full(shape, -1, dtype=np.int64),
                np.zeros(shape) if frames else None,
            )
        if not frames:
            return present, None, st.rec_actions.ravel().take(flat), None
        return (
            present,
            st.rec_frames.reshape(-1, st.frame_dim).take(flat, axis=0),
            st.rec_actions.ravel().take(flat),
            st.rec_rewards.ravel().take(flat),
        )

    def has(self, tick: int) -> bool:
        return bool(self._locate(np.array([tick], dtype=np.int64))[1][0])

    def get(self, tick: int) -> TickRecord:
        present, frames, actions, rewards = self.gather(
            np.array([tick], dtype=np.int64)
        )
        if not present[0]:
            raise KeyError(f"tick {tick} not in records")
        return TickRecord(
            tick=int(tick),
            frame=frames[0],
            action=int(actions[0]),
            reward=float(rewards[0]),
        )

    def window(self, first_tick: int, n_ticks: int):
        if n_ticks <= 0:
            raise ValueError(f"n_ticks must be > 0, got {n_ticks}")
        present, frames, _, _ = self.gather(
            np.arange(first_tick, first_tick + n_ticks, dtype=np.int64)
        )
        frames[~present] = 0.0
        return frames, present

    def records_between(self, first_tick: int, last_tick: int) -> PackedRecords:
        """Stored records with ``first_tick <= tick <= last_tick``, packed
        in ascending global ticks (copies)."""
        index = self._rows_index()
        ticks = np.arange(max(first_tick, 0), min(last_tick, len(index) - 3) + 1)
        ticks = ticks[self._locate(ticks)[1]]
        _, frames, actions, rewards = self.gather(ticks)
        return PackedRecords(
            ticks=ticks, frames=frames, actions=actions, rewards=rewards
        )

    def nbytes(self) -> int:
        """Resident memory of the record columns the view reads (Table
        2's in-memory size); the tick index beside them is not counted."""
        st = self._fleet.state
        if st is None:
            return 0
        return sum(
            getattr(st, name)[self._envs].nbytes
            for name in ("rec_ticks", "rec_frames", "rec_actions", "rec_rewards")
        )
