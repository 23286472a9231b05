"""Vectorized multi-cluster experience collection (Figure 1 at scale).

The paper's architecture is explicitly one-to-many: "a single central
DRL engine" behind the Interface Daemon serves *many* monitoring and
control agents.  :class:`VectorEnv` reproduces that topology over N
independently-seeded target systems stepped in lockstep: one
``reset()`` returns a stacked ``(n, obs_dim)`` observation, one
``step(actions)`` performs one action per cluster and advances every
cluster one tick, and every cluster's replay records fan into one
shared :class:`~repro.replaydb.db.ReplayDB` — the many-agents-one-engine
experience stream a single DQN trains from.

Backends
--------
Every backend drives each sub-environment through one *channel*, the
master's end of that env, and ``VectorEnv`` steps the channel list:
submit a command to every env, then collect every reply in order.
There are two kinds of channel.

In-process (``serial``, ``vec``)
    Each env lives in the master and a command runs on the spot through
    :func:`~repro.env.worker.exec_env_cmd` — no pickling, no thread.
    The payoff is batched inference (one stacked forward pass per tick
    instead of N), the shared replay stream, and observations written
    straight into the stacked buffer through ``out=``.
Remote (``fork``)
    Each env lives in a forked worker running
    :func:`~repro.env.worker.serve_env_session` over its end of a
    ``multiprocessing`` pipe; each command and each reply is one pipe
    message holding a pickled pair (:mod:`repro.transport.codec`), one
    FIFO of in-flight commands per channel, and a vanished worker or an
    unreadable reply is a :class:`WorkerCrashError` naming the env and
    the command.
    ``fork`` inherits memory, so unpicklable workload factories work
    unchanged.

The ``vec`` backend's envs are rows of one struct-of-arrays
:class:`~repro.sim.vec.fleet_env.FleetEnv`: each channel holds a
:class:`~repro.sim.vec.fleet_env.FleetSlot` view, so the per-env
plumbing (``env_method``, record fan-in, resets) is the ``serial``
one, while lockstep stepping takes a batched fast path straight into
the fleet — a single ``tick_all`` kernel per tick, so stepping cost
stays nearly flat in ``n_envs`` on one core.  It is a tick-level fluid
model — not byte-identical to ``serial``/``fork`` (see
:mod:`repro.sim.vec`) — but vec rollouts are themselves exactly
reproducible, fleet-size independent, and chunk-invariant.

Fan-in transport
----------------
On ``serial`` and ``fork``, every reply that advances ticks carries the
environment's new replay records inline, packed as one
:class:`~repro.replaydb.records.PackedRecords` array block rather than
a list of record objects, and the master lands each batch with one
:meth:`~repro.replaydb.db.ReplayDB.put_many`.  On ``fork`` those
arrays cross the pipe inside the pickled reply, which keeps their
dtype, shape and bytes.  Acting paths stay in
per-tick lockstep (the policy needs every observation) but pay no
separate records round-trip; monitoring-only :meth:`VectorEnv.collect`
and :meth:`VectorEnv.run_ticks` additionally run *chunked* — one
``run_chunk`` round-trip advances many ticks — which is pure
transport: chunked and per-tick stepping are byte-identical.

The ``vec`` backend copies nothing: its shared store reads the fleet's
record columns in place (below), so fan-in only advances the sampling
frontier.  Rows are packed — the whole fleet's new rows as *one*
env-major batch per step or chunk — only for a durable SQLite layer
(``shared_db_path`` naming one) or an ingest listener.

Determinism contract
--------------------
Per-env trajectories are a pure function of the per-env seed and the
action sequence: ``VectorEnv`` over ``vector_seeds(seed, n)`` is
byte-identical, env by env, to n serial single-environment runs built
with the same derived seeds and fed the same actions — and the
``serial`` and ``fork`` backends are byte-identical to each other.

Shared-DB layout
----------------
The shared store is tick-indexed, so each sub-environment owns a block
of the shared tick space: env ``i``'s local tick ``t`` is global tick
``i * tick_stride + t``.  On ``serial`` and ``fork`` the store is a
:class:`~repro.replaydb.cache.ReplayCache` ring of ``n_envs *
tick_stride`` rows that the fan-in copies each record into.  On
``vec`` it is a :class:`~repro.sim.vec.state.RecordView` of the
fleet's record columns in that same global-tick space, and the columns
are the only copy of a record.  Blocks keep observation windows
contiguous within one cluster (the Algorithm 1 sampler never stacks
frames across clusters); :class:`StridedMinibatchSampler` draws
candidates block-aware so sampling stays O(1) regardless of stride.  A
session must stay under ``tick_stride`` ticks per environment —
exceeding it raises rather than silently aliasing another cluster's
block.
"""

from __future__ import annotations

import functools
import multiprocessing
from collections import deque
from dataclasses import replace
from typing import Any, Callable, Deque, List, Optional, Sequence, Tuple

import numpy as np

from repro.env.protocol import Environment
from repro.env.tuning_env import EnvConfig, StorageTuningEnv
from repro.env.worker import (
    WorkerCrashError,
    exec_env_cmd,
    serve_env_session,
)
from repro.replaydb.db import CACHE_ONLY, ReplayDB
from repro.replaydb.records import PackedRecords
from repro.replaydb.spans import StridedMinibatchSampler, TickSpans
from repro.transport.codec import decode_reply, encode_reply
from repro.util.rng import derive_rng, ensure_rng
from repro.util.validation import check_positive

__all__ = [
    "VectorEnv",
    "WorkerCrashError",
    "per_env_rngs",
    "vector_seeds",
]

EnvFactoryFn = Callable[[], Environment]


def vector_seeds(base_seed: int, n: int) -> List[int]:
    """Derive n independent environment seeds from one base seed.

    Env ``i``'s seed depends only on ``(base_seed, i)`` — not on ``n``
    — so growing the fleet keeps existing clusters' trajectories
    intact, and a vectorized run can be replayed env by env with serial
    single-environment runs.
    """
    check_positive("n", n)
    return [
        int(
            derive_rng(ensure_rng(base_seed), "vector-env", i).integers(2**31)
        )
        for i in range(n)
    ]


def per_env_rngs(
    base_seed: int, n: int, label: str = "vector-act"
) -> List[np.random.Generator]:
    """Per-env exploration streams for ε-greedy batched acting.

    Like :func:`vector_seeds`, stream ``i`` depends only on
    ``(base_seed, label, i)``, so the vector size never perturbs the
    random-action sequence any single cluster sees.
    """
    check_positive("n", n)
    return [
        derive_rng(ensure_rng(base_seed), label, i) for i in range(n)
    ]


# --------------------------------------------------------------------------
# Channels: the master's end of one sub-environment
# --------------------------------------------------------------------------
#
# ``submit(env_index, cmd, payload, out=None)`` sends one worker
# command, ``result()`` returns the oldest outstanding reply.  Results
# come back in submission order, so submitting to every env before
# collecting any steps remote envs in parallel.


class _LocalChannel:
    """One in-process sub-environment (``serial``, ``vec``).

    Commands run at submit through :func:`exec_env_cmd` — no pickling,
    no thread.  The ``out=`` buffer therefore reaches the env itself,
    so observations land straight in the master's stacked buffer; a
    remote channel never sends it.
    """

    def __init__(self, env: Environment):
        self.env = env
        self._result: Any = None

    def submit(
        self,
        env_index: int,
        cmd: str,
        payload: Any = None,
        out: Optional[np.ndarray] = None,
    ) -> None:
        self._result = exec_env_cmd(self.env, cmd, payload, out=out)

    def result(self) -> Any:
        out, self._result = self._result, None
        return out

    def close(self) -> None:
        """Nothing to release: the env closed on its ``close`` command."""


def _env_worker(factory: EnvFactoryFn, conn, master_ends: Sequence) -> None:
    """Forked worker main: serve one environment over its pipe."""
    # The fork copied the master's end of this pipe and of every pipe
    # forked before it; holding any copy would hide the master hanging
    # up on that worker (no EOF while any copy is open).
    for end in master_ends:
        end.close()
    try:
        serve_env_session(factory(), conn)
    except KeyboardInterrupt:  # pragma: no cover - teardown
        pass


class _RemoteChannel:
    """A pipe to a forked worker serving :func:`serve_env_session`.

    The worker serves commands strictly in arrival order, so a FIFO of
    in-flight ``(env_index, cmd)`` is the whole multiplexing state.  A
    worker that vanishes or sends a reply that does not decode surfaces
    as :class:`WorkerCrashError` naming the env and the command — never
    as a bare ``EOFError``.
    """

    def __init__(self, conn: Any, proc: Any):
        self.conn = conn
        self._proc = proc
        self._pending: Deque[Tuple[int, str]] = deque()

    @classmethod
    def fork(
        cls,
        factory: EnvFactoryFn,
        context,
        siblings: Sequence["_RemoteChannel"],
    ) -> "_RemoteChannel":
        """Fork a worker process serving ``factory()`` over a pipe; the
        child drops its copies of this pipe's and ``siblings``' master
        ends."""
        parent, child = context.Pipe()
        master_ends = [parent, *(s.conn for s in siblings)]
        proc = context.Process(
            target=_env_worker, args=(factory, child, master_ends), daemon=True
        )
        proc.start()
        child.close()
        return cls(parent, proc)

    def _crash(self, what: str, env_index: int, exc: Exception):
        return WorkerCrashError(
            f"fork worker {self._proc.pid} {what} for env {env_index}: {exc}",
            env_index=env_index,
        )

    def submit(
        self,
        env_index: int,
        cmd: str,
        payload: Any = None,
        out: Optional[np.ndarray] = None,
    ) -> None:
        """Send ``(cmd, payload)``; ``out`` is for in-process envs only."""
        try:
            self.conn.send_bytes(encode_reply(cmd, payload))
        except OSError as exc:
            raise self._crash(
                f"is gone; cannot submit {cmd!r}", env_index, exc
            ) from exc
        self._pending.append((env_index, cmd))

    def result(self) -> Any:
        env_index, cmd = (
            self._pending.popleft() if self._pending else (-1, "?")
        )
        try:
            message = self.conn.recv_bytes()
        except (EOFError, OSError) as exc:
            raise self._crash(
                f"went away during {cmd!r}", env_index, exc
            ) from exc
        try:
            status, result = decode_reply(message)
        except Exception as exc:
            raise self._crash(
                f"sent an unreadable reply to {cmd!r}", env_index, exc
            ) from exc
        if status is not None:
            return result
        if isinstance(result, BaseException):
            raise result
        raise WorkerCrashError(result, env_index=env_index)

    def close(self, timeout: float = 5.0) -> None:
        """Close the pipe and reap the worker: join with a timeout, then
        kill rather than hang the master (idempotent)."""
        self.conn.close()
        self._proc.join(timeout=timeout)
        if self._proc.is_alive():  # pragma: no cover - hung worker
            self._proc.kill()
            self._proc.join(timeout=timeout)


# --------------------------------------------------------------------------
# The vector environment
# --------------------------------------------------------------------------


class VectorEnv:
    """N independently-seeded environments stepped in lockstep.

    Parameters
    ----------
    factories:
        One zero-argument callable per sub-environment.  Each must
        return an :class:`~repro.env.protocol.Environment`; fan-in
        additionally requires ``records_since`` (which the sim-lustre
        backend provides).
    backend:
        ``"serial"`` (in-process) or ``"fork"`` (one worker process per
        environment); results are byte-identical across both.
        ``"vec"`` is the struct-of-arrays fluid model (see the module
        docs).
    shared_db_path:
        Where the shared fan-in :class:`ReplayDB` lives.  The default,
        :data:`~repro.replaydb.db.CACHE_ONLY`, keeps the fan-in store
        in memory alone (the ring, or on ``vec`` the fleet's record
        columns) — an in-memory SQLite layer under it buys no
        durability, only per-write overhead on the collection hot
        path.  Pass a filesystem path (or ``":memory:"``) for a
        SQLite-backed store, or ``None`` to disable fan-in entirely.
    tick_stride:
        Tick-space block size per environment in the shared DB; an
        environment raises once its local tick reaches the stride.
    """

    def __init__(
        self,
        factories: Sequence[EnvFactoryFn],
        backend: str = "serial",
        shared_db_path: Optional[str] = CACHE_ONLY,
        tick_stride: int = 65536,
    ):
        if backend not in ("serial", "fork", "vec"):
            raise ValueError(
                f"backend must be 'serial', 'fork' or 'vec', got {backend!r}"
            )
        if not factories:
            raise ValueError("VectorEnv needs at least one environment")
        check_positive("tick_stride", tick_stride)
        self.backend = backend
        self.tick_stride = int(tick_stride)
        self._fleet: Any = None
        self._closed = False
        # One channel per env, built one at a time, so a failure
        # part-way closes exactly the channels that were opened.
        self._channels: List[Any] = []
        try:
            if backend == "fork":
                try:
                    context = multiprocessing.get_context("fork")
                except ValueError:  # pragma: no cover - non-POSIX
                    context = multiprocessing.get_context()
                for f in factories:
                    self._channels.append(
                        _RemoteChannel.fork(f, context, self._channels)
                    )
            else:
                for f in factories:
                    self._channels.append(_LocalChannel(f()))
        except BaseException:
            for ch in self._channels:
                ch.close()
            raise
        if backend == "vec":
            envs = [ch.env for ch in self._channels]
            fleets = {id(getattr(e, "fleet", None)) for e in envs}
            if (
                any(not getattr(e, "fleet_slot", False) for e in envs)
                or len(fleets) != 1
                or [e.index for e in envs] != list(range(len(envs)))
            ):
                raise ValueError(
                    "backend='vec' needs factories yielding the slots of "
                    "one FleetEnv, in order 0..n-1 (build with "
                    "VectorEnv.from_config(..., backend='vec') or "
                    "functools.partial(fleet.slot, i))"
                )
            self._fleet = envs[0].fleet
        # Static metadata from env 0 (all envs share one configuration
        # shape; heterogeneous fleets would need per-env replay DBs).
        self.obs_dim: int = int(self._get_attr(0, "obs_dim"))
        self.n_actions: int = int(self._get_attr(0, "n_actions"))
        self.frame_dim: int = int(self._get_attr(0, "frame_dim"))
        self.action_space = self._get_attr(0, "action_space")
        self.hp = self._get_attr(0, "hp")
        self.shared_db: Optional[ReplayDB] = None
        if shared_db_path is not None:
            if self._fleet is not None:
                from repro.sim.vec.state import RecordView

                # The fleet's record columns are the store: the DB reads
                # through a view of them and keeps only a durable layer.
                self.shared_db = ReplayDB(
                    self.frame_dim,
                    path=shared_db_path,
                    cache=RecordView(self._fleet, stride=self.tick_stride),
                )
            else:
                self.shared_db = ReplayDB(
                    self.frame_dim,
                    path=shared_db_path,
                    cache_capacity=self.n_envs * self.tick_stride,
                )
        #: Per-env fan-in frontier: which local tick each cluster's
        #: records are synced through.  Shared with the strided sampler
        #: (candidate spans) and re-read on every draw.
        self.spans = TickSpans(self.n_envs, self.tick_stride)
        self._ingest_listeners: List[Callable[[PackedRecords], None]] = []
        # Snapshot support for the worker backends: the op log since the
        # last reset().  Worker-side simulators drive live Python
        # generators (unpicklable), but trajectories are a pure function
        # of seed + op sequence, so replaying the log after a reset *is*
        # the restore.  ``None`` = not resettable to a known point (no
        # reset yet, or an env_method drove one env out of lockstep).
        self._oplog: Optional[List[tuple]] = None
        # Reused every tick: the stacked observation and reward buffers
        # (the hot-path allocation the collection loop must not repeat).
        self._obs_buf = np.zeros((self.n_envs, self.obs_dim))
        self._reward_buf = np.zeros(self.n_envs)

    # -- construction helpers -------------------------------------------
    @classmethod
    def from_config(
        cls,
        config: EnvConfig,
        n_envs: int,
        backend: str = "serial",
        **vec_kwargs: Any,
    ) -> "VectorEnv":
        """N sim-lustre clusters from one base config.

        Per-env seeds come from :func:`vector_seeds` over
        ``config.seed``; each cluster gets its own cache-only replay
        store — per-cluster records are staging for the fan-in, so the
        shared DB is the only store that can want a durable layer.

        ``backend="vec"`` builds one struct-of-arrays
        :class:`~repro.sim.vec.fleet_env.FleetEnv` over the same derived
        seeds and wraps its per-env slots.
        """
        if backend == "vec":
            from repro.sim.vec.fleet_env import FleetEnv

            fleet = FleetEnv(
                replace(config, db_path=CACHE_ONLY), n_envs=n_envs
            )
            factories = [
                functools.partial(fleet.slot, i) for i in range(n_envs)
            ]
            return cls(factories, backend="vec", **vec_kwargs)
        factories = [
            functools.partial(
                StorageTuningEnv,
                replace(config, seed=s, db_path=CACHE_ONLY),
            )
            for s in vector_seeds(config.seed, n_envs)
        ]
        return cls(factories, backend=backend, **vec_kwargs)

    @classmethod
    def from_registry(
        cls,
        name: str,
        n_envs: int,
        base_seed: int = 0,
        backend: str = "serial",
        env_kwargs: Optional[dict] = None,
        **vec_kwargs: Any,
    ) -> "VectorEnv":
        """N registered environments, seeds derived from ``base_seed``.

        The backend's factory must accept a ``seed`` keyword (the
        registry convention; sim-lustre forwards it into
        :class:`EnvConfig`).

        ``backend="vec"`` resolves the named environment's
        :class:`EnvConfig` (scenario-named keys included) and routes it
        through :meth:`from_config`'s fleet path, so scenario timelines
        ride along.
        """
        from repro.env.registry import make_env

        if backend == "vec":
            probe = make_env(name, seed=base_seed, **(env_kwargs or {}))
            config = getattr(probe, "config", None)
            probe.close()
            if not isinstance(config, EnvConfig):
                raise ValueError(
                    f"environment {name!r} exposes no EnvConfig; the vec "
                    f"backend can only vectorize sim-lustre-style "
                    f"configurations"
                )
            return cls.from_config(
                config, n_envs, backend="vec", **vec_kwargs
            )
        factories = [
            functools.partial(make_env, name, seed=s, **(env_kwargs or {}))
            for s in vector_seeds(base_seed, n_envs)
        ]
        return cls(factories, backend=backend, **vec_kwargs)

    # -- worker plumbing -------------------------------------------------
    @property
    def n_envs(self) -> int:
        """Number of sub-environments in the fleet."""
        return len(self._channels)

    def _call(self, i: int, cmd: str, payload: Any = None) -> Any:
        """One command to env ``i``, waited for."""
        ch = self._channels[i]
        ch.submit(i, cmd, payload)
        return ch.result()

    def _lockstep(
        self,
        cmd: str,
        payload: Callable[[int], Any],
        out: Optional[np.ndarray] = None,
    ) -> List[Any]:
        """``cmd`` to every env (``payload(i)`` each, and row ``i`` of
        ``out`` for in-process envs to write), all submitted before any
        result is collected, so remote envs run in parallel; the results
        in env order.

        A failure does not stop the others: every env gets the command
        (an in-process one fails at submit) and every submitted
        command's reply is read, so no stale reply is left in a pipe for
        the next command; then the first failure is raised.  A failed
        lockstep leaves the envs at no op-log point, so it ends the op
        log.
        """
        errors: List[Exception] = []
        submitted = []
        for i, ch in enumerate(self._channels):
            try:
                ch.submit(
                    i, cmd, payload(i), None if out is None else out[i]
                )
                submitted.append(ch)
            except Exception as exc:
                errors.append(exc)
        results = []
        for ch in submitted:
            try:
                results.append(ch.result())
            except Exception as exc:
                errors.append(exc)
        if errors:
            self._oplog = None
            raise errors[0]
        return results

    def _get_attr(self, i: int, name: str) -> Any:
        return self._call(i, "call", ("__getattribute__", (name,), {}))

    def env_method(self, i: int, name: str, *args: Any, **kwargs: Any) -> Any:
        """Invoke ``env_i.name(*args, **kwargs)`` (remotely for fork).

        The target environment may advance ticks (``run_ticks``,
        ``step``), so its new replay records are fanned in afterwards.
        """
        if not 0 <= i < self.n_envs:
            raise IndexError(f"env index {i} out of range 0..{self.n_envs - 1}")
        result = self._call(i, "call", (name, args, kwargs))
        self._sync_env(i)
        # One env may now be ahead of the others; a reset+replay of the
        # lockstep op log can no longer reproduce this state.
        self._oplog = None
        return result

    # -- shared-DB fan-in ------------------------------------------------
    def _since(self, i: int) -> Optional[int]:
        """The records-after tick for env ``i``'s next reply, or ``None``
        when fan-in is off.

        One behind the synced high-water mark: the synced tick's action
        is recorded one step later than its frame (the action decided
        *after* observing that tick), so re-fetching it picks the
        action up.
        """
        if self.shared_db is None:
            return None
        return self.spans.top(i) - 1

    def add_ingest_listener(
        self, fn: Callable[[PackedRecords], None]
    ) -> None:
        """Call ``fn`` with every global-tick batch landed in the shared
        DB — the tap a decoupled trainer (:mod:`repro.train`) uses to
        mirror the fan-in stream without a second records round-trip.
        """
        self._ingest_listeners.append(fn)

    def remove_ingest_listener(
        self, fn: Callable[[PackedRecords], None]
    ) -> None:
        """Detach a listener added by :meth:`add_ingest_listener`."""
        self._ingest_listeners.remove(fn)

    def _ingest(self, i: int, packed: Optional[PackedRecords]) -> None:
        """Batch-write env ``i``'s new records into the shared DB."""
        if self.shared_db is not None and packed is not None:
            self._land(np.full(len(packed), i), packed)

    def _ingest_fleet(self) -> None:
        """Fan in every fleet row's new records (vec).

        No worker round-trips and no copy: the store reads the fleet's
        record columns, so only the frontier moves — unless a durable
        layer or an ingest listener wants the rows.  Then they land as
        one batch, each env contributing its rows after its own
        :meth:`_since`.  Envs need not be in lockstep.
        """
        if self.shared_db is None:
            return
        st = self._fleet.state
        if self.shared_db.path is None and not self._ingest_listeners:
            envs = np.flatnonzero(st.rec_len)
            self._advance(envs, st.rec_ticks[envs, st.rec_len[envs] - 1])
            return
        self._land(
            *st.packed_since_all([self._since(i) for i in range(self.n_envs)])
        )

    def _advance(self, envs: np.ndarray, tops: np.ndarray) -> None:
        """Raise env ``envs[j]``'s frontier to local tick ``tops[j]``,
        refusing a tick that would spill into the next env's block."""
        if len(tops) and tops.max() >= self.tick_stride:
            worst = tops.argmax()
            raise RuntimeError(
                f"env {envs[worst]} reached tick {tops[worst]} >= "
                f"tick_stride {self.tick_stride}; raise tick_stride to "
                f"run longer vectorized sessions"
            )
        for i, top in zip(envs.tolist(), tops.tolist()):
            self.spans.observe_top(i, top)

    def _land(self, envs: np.ndarray, packed: PackedRecords) -> None:
        """Land local-tick rows, env-major (``envs`` names each row's
        env), as one batch: the frontier updates, one ``put_many``, one
        call per listener.  Global ticks ascend strictly, so the batch
        takes ``put_many``'s vectorised path."""
        if len(packed) == 0:
            return
        # Each env's newest row closes its run.
        last = np.flatnonzero(np.diff(envs, append=self.n_envs))
        self._advance(envs[last], packed.ticks[last])
        global_batch = PackedRecords(
            ticks=packed.ticks + envs * self.tick_stride,
            frames=packed.frames,
            actions=packed.actions,
            rewards=packed.rewards,
        )
        self.shared_db.put_many(
            global_batch.ticks,
            global_batch.frames,
            global_batch.rewards,
            global_batch.actions,
        )
        for fn in self._ingest_listeners:
            fn(global_batch)

    def _sync_env(self, i: int) -> None:
        """Pull-and-ingest env ``i``'s new records (one worker
        round-trip; on ``vec``, :meth:`_ingest_fleet`).

        Only needed after :meth:`env_method` — every lockstep path folds
        the records into the stepping reply instead.
        """
        if self.shared_db is None:
            return
        if self._fleet is not None:
            self._ingest_fleet()
        else:
            self._ingest(i, self._call(i, "records", self._since(i)))

    # -- lockstep lifecycle ----------------------------------------------
    def reset(self) -> np.ndarray:
        """Reset every cluster; returns the stacked ``(n, obs_dim)``
        observation.

        The shared fan-in DB is cleared first — a reused vector env must
        never serve transitions recorded by the previous episode's
        target systems.  The returned array is an internal buffer reused
        by ``step`` — copy it if you need it beyond the next tick.
        """
        if self.shared_db is not None:
            self.shared_db.clear()
        self.spans.reset()
        want_records = self.shared_db is not None and self._fleet is None
        replies = self._lockstep("reset", lambda i: want_records)
        for i, (obs, packed) in enumerate(replies):
            self._obs_buf[i] = obs
            self._ingest(i, packed)
        if self._fleet is not None:
            self._ingest_fleet()
        # The fleet snapshots its arrays wholesale; every other backend
        # logs lockstep ops from here.
        self._oplog = [] if self._fleet is None else None
        return self._obs_buf

    def step(
        self, actions: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray, List[dict]]:
        """One action per cluster; every cluster advances one tick.

        Returns ``(obs, rewards, infos)`` where ``obs`` is the reused
        ``(n, obs_dim)`` buffer and ``rewards`` the reused ``(n,)``
        buffer.  All submissions go out before any result is collected,
        so the ``fork`` backend steps clusters in parallel; each reply
        carries the cluster's new replay records, so fan-in costs no
        extra round-trip.
        """
        actions = np.asarray(actions)
        if actions.shape != (self.n_envs,):
            raise ValueError(
                f"expected {self.n_envs} actions, got shape {actions.shape}"
            )
        if self._oplog is not None:
            self._oplog.append(("step", [int(a) for a in actions]))
        if self._fleet is not None:
            # Batched fast path: one fleet-wide kernel call instead of
            # n per-slot round-trips.
            _obs, rewards, infos = self._fleet.step(
                actions, out=self._obs_buf
            )
            self._reward_buf[:] = rewards
            self._ingest_fleet()
            return self._obs_buf, self._reward_buf, infos
        replies = self._lockstep(
            "step",
            lambda i: (int(actions[i]), self._since(i)),
            out=self._obs_buf,
        )
        infos: List[dict] = []
        for i, (obs, reward, info, packed) in enumerate(replies):
            # In-process envs already wrote the row through out=.
            self._obs_buf[i] = obs
            self._reward_buf[i] = reward
            infos.append(info)
            self._ingest(i, packed)
        return self._obs_buf, self._reward_buf, infos

    def _run_chunks(
        self, action: Optional[int], n_ticks: int, chunk: Optional[int]
    ) -> np.ndarray:
        """Advance all clusters ``n_ticks`` ticks, ``chunk`` per
        round-trip; per-env per-tick rewards, shape ``(n_envs, n_ticks)``.

        One worker round-trip per chunk replaces two pipe crossings per
        tick: each reply carries the chunk's rewards, the post-chunk
        observation and the new replay records together.
        """
        check_positive("n_ticks", n_ticks)
        if chunk is None:
            chunk = n_ticks
        check_positive("chunk", chunk)
        if self._oplog is not None:
            # Chunk size is transport, not semantics (chunked == per-tick
            # byte-identical), so the log records only what was run.
            self._oplog.append(
                ("chunks", None if action is None else int(action), int(n_ticks))
            )
        rewards = np.empty((self.n_envs, n_ticks))
        done = 0
        while done < n_ticks:
            k = min(chunk, n_ticks - done)
            if self._fleet is not None:
                rewards[:, done : done + k] = self._fleet.run_chunk(
                    k, action=action
                )
                self._fleet.current_observation(out=self._obs_buf)
                self._ingest_fleet()
                done += k
                continue
            replies = self._lockstep(
                "run_chunk",
                lambda i: (action, k, self._since(i)),
                out=self._obs_buf,
            )
            for i, (r, obs, packed) in enumerate(replies):
                rewards[i, done : done + k] = r
                self._obs_buf[i] = obs
                self._ingest(i, packed)
            done += k
        return rewards

    def run_ticks(self, n: int, chunk: Optional[int] = None) -> np.ndarray:
        """Advance all clusters ``n`` ticks with no actions.

        Returns per-env per-tick rewards, shape ``(n_envs, n)``.  Runs
        chunked (``chunk`` ticks per worker round-trip, default all of
        them) and leaves :meth:`current_observation` refreshed.
        """
        return self._run_chunks(None, n, chunk)

    def collect(self, n_ticks: int, chunk: Optional[int] = None) -> np.ndarray:
        """Monitoring-only collection: NULL actions on every cluster.

        §3.3's "solely monitoring" mode, vectorized — every tick lands
        one valid (NULL-action) transition per cluster in the shared
        replay DB.  Returns rewards of shape ``(n_envs, n_ticks)``.

        Runs fully chunked: ``chunk`` ticks (default: all ``n_ticks``)
        advance per worker round-trip, with the records batched into
        the same reply — byte-identical to per-tick stepping
        (``chunk=1``), without the per-tick pipe crossings, observation
        builds and per-record DB writes.
        """
        return self._run_chunks(0, n_ticks, chunk)

    # -- session snapshot ------------------------------------------------
    def snapshot(self) -> dict:
        """Capture this vector env's state as ``{"meta", "arrays"}``.

        Two capture strategies, one per backend family:

        - ``vec`` — the :class:`~repro.sim.vec.state.FleetState` arrays
          and every RNG/scenario-runtime state, wholesale (the fleet is
          plain data);
        - ``serial``/``fork`` — the op log since ``reset()``.  Worker
          simulators drive live generator coroutines that cannot cross
          a process boundary, but their trajectories are a pure
          function of seed + op sequence, so the log *is* the state.

        Raises when no lockstep history exists (never reset, or an
        :meth:`env_method` call drove one env ahead of the others).
        """
        from repro.snapshot.core import SnapshotError

        if self.backend == "vec":
            fleet_meta, arrays = self._fleet.snapshot_state()
            meta = {
                "kind": "fleet",
                "backend": self.backend,
                "n_envs": int(self.n_envs),
                "tick_stride": int(self.tick_stride),
                "fleet": fleet_meta,
            }
            return {"meta": meta, "arrays": arrays}
        if self._oplog is None:
            raise SnapshotError(
                "vector env has no replayable history: call reset() "
                "first, and avoid env_method() on snapshotted sessions "
                "(it breaks lockstep)"
            )
        meta = {
            "kind": "oplog",
            "backend": self.backend,
            "n_envs": int(self.n_envs),
            "tick_stride": int(self.tick_stride),
            "oplog": [list(op) for op in self._oplog],
        }
        return {"meta": meta, "arrays": {}}

    def restore(self, snap: dict) -> None:
        """Rebuild the state captured by :meth:`snapshot`.

        The env must have been built from the same config (seeds,
        geometry, scenario).  Ingest listeners attached before the call
        hear the whole restored record stream — a trainer mirror
        re-fed this way ends up with the same replay cache the
        original session had.  ``serial`` and ``fork`` snapshots are
        interchangeable (their trajectories are byte-identical by
        contract); ``vec`` snapshots only restore onto ``vec``.
        """
        from repro.snapshot.core import SnapshotError

        meta = snap["meta"]
        if int(meta["n_envs"]) != self.n_envs:
            raise SnapshotError(
                f"n_envs mismatch: snapshot has {meta['n_envs']}, "
                f"env has {self.n_envs}"
            )
        if int(meta["tick_stride"]) != self.tick_stride:
            raise SnapshotError(
                f"tick_stride mismatch: snapshot has "
                f"{meta['tick_stride']}, env has {self.tick_stride}"
            )
        if meta["kind"] == "fleet":
            if self.backend != "vec":
                raise SnapshotError(
                    f"fleet snapshot cannot restore onto the "
                    f"{self.backend!r} backend"
                )
            self._fleet.restore_state(meta["fleet"], snap["arrays"])
            if self.shared_db is not None:
                self.shared_db.clear()
            self.spans.reset()
            self._fleet.current_observation(out=self._obs_buf)
            self._ingest_fleet()
            return
        if meta["kind"] != "oplog":
            raise SnapshotError(f"unknown env snapshot kind {meta['kind']!r}")
        if self.backend == "vec":
            raise SnapshotError(
                "op-log snapshot cannot restore onto the 'vec' backend"
            )
        self.reset()
        for op in meta["oplog"]:
            if op[0] == "step":
                self.step([int(a) for a in op[1]])
            elif op[0] == "chunks":
                action = None if op[1] is None else int(op[1])
                self._run_chunks(action, int(op[2]), None)
            else:
                raise SnapshotError(f"unknown op {op[0]!r} in env snapshot")

    def commit_replay(self) -> None:
        """Flush every durable replay layer (session-checkpoint hook).

        Broadcasts to the workers (their local stores commit, when they
        have a durable layer) and commits the shared fan-in DB.
        """
        self._lockstep("commit", lambda i: None)
        if self.shared_db is not None:
            self.shared_db.commit()

    def current_observation(self) -> np.ndarray:
        """The stacked observation buffer as of the last reset/step."""
        return self._obs_buf

    def refresh_observation(self, i: int) -> np.ndarray:
        """Re-read env ``i``'s live observation into buffer row ``i``.

        Needed after driving one cluster out of lockstep through
        :meth:`env_method` (checkpoint measurements advance its ticks),
        so the next batched act sees that cluster's *current* state.
        Returns the full stacked buffer.
        """
        if not 0 <= i < self.n_envs:
            raise IndexError(f"env index {i} out of range 0..{self.n_envs - 1}")
        self._obs_buf[i] = self._call(
            i, "call", ("current_observation", (), {})
        )
        return self._obs_buf

    def make_sampler(self, seed=None) -> "StridedMinibatchSampler":
        """Algorithm 1 sampler over the shared fan-in replay DB."""
        if self.shared_db is None:
            raise RuntimeError(
                "VectorEnv was built with shared_db_path=None; there is "
                "no shared replay DB to sample from"
            )
        return StridedMinibatchSampler(
            self.shared_db.cache,
            self.spans,
            obs_ticks=self.hp.sampling_ticks_per_observation,
            missing_tolerance=self.hp.missing_entry_tolerance,
            seed=seed,
        )

    def close(self) -> None:
        """Close every sub-environment, reap every worker process with a
        bounded join, and close the shared fan-in DB.  Idempotent — a
        second call is a no-op, and a crashed worker never blocks the
        teardown of the healthy ones.
        """
        if self._closed:
            return
        self._closed = True
        gone = (WorkerCrashError, OSError)
        try:
            for i, ch in enumerate(self._channels):
                try:
                    ch.submit(i, "close")
                except gone:
                    pass  # this worker is already gone; keep reaping
            for ch in self._channels:
                try:
                    ch.result()
                except gone:
                    pass
        finally:
            for ch in self._channels:
                ch.close()
            if self.shared_db is not None:
                self.shared_db.close()

    def __enter__(self) -> "VectorEnv":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
