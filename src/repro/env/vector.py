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
``serial``
    All sub-environments live in-process and are stepped in a Python
    loop.  The payoff is batched inference (one stacked forward pass
    per tick instead of N) and the shared replay stream.
``fork``
    Each sub-environment lives in a forked worker process; steps are
    dispatched to all workers before any result is collected, so the
    simulations advance in parallel.  ``fork`` inherits memory, so
    unpicklable workload factories work unchanged.
``shards``
    Sub-environments live on remote shard hosts (``repro shard-host``)
    and are driven over TCP — the fork worker protocol carried by
    :class:`~repro.transport.tcp.SocketTransport` instead of a pipe.
    The master derives *global* per-env seeds with
    :func:`vector_seeds` and assigns each shard a contiguous slice at
    attach time, so env ``i``'s trajectory is byte-identical whether
    it runs forked, serial, or on any shard — placement never touches
    the stream.
``vec``
    All sub-environments are rows of one struct-of-arrays
    :class:`~repro.sim.vec.fleet_env.FleetEnv`: a single ``tick_all``
    kernel advances the whole fleet per tick, so stepping cost stays
    nearly flat in ``n_envs`` on one core.  Each worker holds a
    :class:`~repro.sim.vec.fleet_env.FleetSlot` view, so the per-env
    plumbing (``env_method``, record fan-in, resets) is shared with
    ``serial``; lockstep stepping takes a batched fast path straight
    into the fleet.  The vec backend is a tick-level fluid model — not
    byte-identical to ``serial``/``fork`` (see
    :mod:`repro.sim.vec`) — but vec rollouts are themselves exactly
    reproducible, fleet-size independent, and chunk-invariant.

Fan-in transport
----------------
Every reply that advances ticks carries the environment's new replay
records inline, packed as one
:class:`~repro.replaydb.records.PackedRecords` array block rather than
a pickled object list, and the master lands each batch with one
:meth:`~repro.replaydb.db.ReplayDB.put_many`.  Worker commands and
replies are framed binary messages (:mod:`repro.transport.codec`):
observations, reward vectors and record columns cross pipes and
sockets as raw array buffers, not pickles.  Acting paths stay in
per-tick lockstep (the policy needs every observation) but pay no
separate records round-trip; monitoring-only :meth:`VectorEnv.collect`
and :meth:`VectorEnv.run_ticks` additionally run *chunked* — one
``run_chunk`` round-trip advances many ticks — which is pure
transport: chunked and per-tick stepping are byte-identical.  The
``vec`` backend has no replies to unpack: it lands the whole fleet's
new rows as *one* env-major batch per step or chunk.

Determinism contract
--------------------
Per-env trajectories are a pure function of the per-env seed and the
action sequence: ``VectorEnv`` over ``vector_seeds(seed, n)`` is
byte-identical, env by env, to n serial single-environment runs built
with the same derived seeds and fed the same actions — and the
``serial``, ``fork`` and ``shards`` backends are byte-identical to
each other, regardless of how envs are placed across shards.

Shared-DB layout
----------------
The replay cache is tick-indexed, so each sub-environment owns a block
of the shared tick space: env ``i`` writes its local tick ``t`` at
``i * tick_stride + t``.  Blocks keep observation windows contiguous
within one cluster (the Algorithm 1 sampler never stacks frames across
clusters); :class:`StridedMinibatchSampler` draws candidates block-aware
so sampling stays O(1) regardless of stride.  A session must stay under
``tick_stride`` ticks per environment — exceeding it raises rather than
silently aliasing another cluster's block.
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
from repro.transport.base import TransportClosedError
from repro.transport.codec import (
    MSG_CMD,
    MSG_ERR,
    decode_error,
    decode_reply,
    encode_command,
)
from repro.transport.framing import ProtocolError
from repro.transport.pipe import PipeTransport
from repro.transport.tcp import SocketTransport
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
    and not on shard placement — so growing or resharding the fleet
    keeps existing clusters' trajectories intact, and a vectorized run
    can be replayed env by env with serial single-environment runs.
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
# Worker backends: one sub-environment behind a submit/result pair
# --------------------------------------------------------------------------


class _SerialWorker:
    """In-process backend: submit computes immediately."""

    def __init__(self, factory: EnvFactoryFn):
        self.env = factory()
        self._result: Any = None

    def submit(self, cmd: str, payload: Any = None) -> None:
        if cmd == "close":
            self.env.close()
            self._result = None
        else:
            self._result = exec_env_cmd(self.env, cmd, payload)

    def result(self) -> Any:
        out, self._result = self._result, None
        return out


def _raise_worker_reply_error(
    payload: bytes, env_index: int, shard: Optional[str] = None
) -> None:
    """Re-raise the failure a worker error frame carries.

    The original exception is raised verbatim when it crossed whole
    (pickled); otherwise its text travels inside a
    :class:`WorkerCrashError` tagged with the global env index (and
    shard address, when the worker lives on one).
    """
    _env, text, exc = decode_error(payload)
    if exc is not None:
        raise exc
    raise WorkerCrashError(text, env_index=env_index, shard=shard)


def _env_worker(factory: EnvFactoryFn, conn) -> None:
    """Forked worker main: serve one environment over its pipe."""
    try:
        serve_env_session([factory()], PipeTransport(conn))
    except KeyboardInterrupt:  # pragma: no cover - teardown
        pass


class _ForkWorker:
    """Forked-process backend: submit is asynchronous, result blocks.

    The child runs the same :func:`~repro.env.worker.serve_env_session`
    loop a shard host runs, over a
    :class:`~repro.transport.pipe.PipeTransport`.  A worker that dies
    mid-command surfaces as :class:`WorkerCrashError` naming the env
    and the command — never as a bare ``EOFError``.
    """

    def __init__(self, factory: EnvFactoryFn, context, env_index: int = 0):
        self.env_index = int(env_index)
        parent, child = context.Pipe()
        self._proc = context.Process(
            target=_env_worker, args=(factory, child), daemon=True
        )
        self._proc.start()
        child.close()
        self._transport = PipeTransport(parent)
        self._pending: Deque[str] = deque()

    def submit(self, cmd: str, payload: Any = None) -> None:
        try:
            self._transport.send(MSG_CMD, encode_command(cmd, 0, payload))
        except TransportClosedError as exc:
            raise WorkerCrashError(
                f"fork worker for env {self.env_index} is gone; cannot "
                f"submit {cmd!r}: {exc}",
                env_index=self.env_index,
            ) from exc
        self._pending.append(cmd)

    def result(self) -> Any:
        cmd = self._pending.popleft() if self._pending else "?"
        try:
            msg_type, payload = self._transport.recv()
        except (TransportClosedError, ProtocolError) as exc:
            raise WorkerCrashError(
                f"fork worker for env {self.env_index} died during "
                f"{cmd!r}: {exc}",
                env_index=self.env_index,
            ) from exc
        if msg_type == MSG_ERR:
            _raise_worker_reply_error(payload, self.env_index)
        _cmd, result = decode_reply(payload)
        return result

    def shutdown(self, timeout: float = 5.0) -> None:
        """Reap the worker process: join with a timeout, escalate to
        terminate and finally kill rather than hang the master."""
        self._transport.close()
        self._proc.join(timeout=timeout)
        if self._proc.is_alive():  # pragma: no cover - hung worker
            self._proc.terminate()
            self._proc.join(timeout=timeout)
        if self._proc.is_alive():  # pragma: no cover - unkillable
            self._proc.kill()
            self._proc.join(timeout=timeout)


class _ShardChannel:
    """One master-side socket to a shard host, multiplexing its envs.

    Commands for every env hosted on the shard share this transport;
    the shard serves them strictly in arrival order, and the master
    collects results in submission order, so a FIFO of in-flight
    commands is the whole multiplexing state.
    """

    def __init__(self, address: str, timeout: Optional[float] = 30.0):
        from repro.env.shard import SHARD_PROTO

        self.address = address
        self.transport = SocketTransport.connect(address, timeout=timeout)
        #: (global env index, local slot, command) per in-flight command.
        self._pending: Deque[Tuple[int, int, str]] = deque()
        reply = self.rpc("hello", {"proto": SHARD_PROTO})
        if not isinstance(reply, dict) or "n_envs" not in reply:
            raise ProtocolError(
                f"shard {address} sent a malformed hello reply: {reply!r}"
            )
        if int(reply.get("proto", -1)) != SHARD_PROTO:
            raise ProtocolError(
                f"shard {address} speaks proto {reply.get('proto')}, "
                f"master speaks {SHARD_PROTO}"
            )
        #: How many envs this shard hosts (its ``--n-envs``).
        self.n_envs = int(reply["n_envs"])

    def submit(
        self, local: int, cmd: str, payload: Any = None, env_index: int = -1
    ) -> None:
        try:
            self.transport.send(MSG_CMD, encode_command(cmd, local, payload))
        except TransportClosedError as exc:
            raise WorkerCrashError(
                f"shard {self.address} is gone; cannot submit {cmd!r} "
                f"for env {env_index}: {exc}",
                env_index=env_index,
                shard=self.address,
            ) from exc
        self._pending.append((env_index, local, cmd))

    def result(self) -> Any:
        env_index, local, cmd = (
            self._pending.popleft() if self._pending else (-1, -1, "?")
        )
        try:
            msg_type, payload = self.transport.recv()
        except (TransportClosedError, ProtocolError) as exc:
            raise WorkerCrashError(
                f"shard {self.address} went away during {cmd!r} for env "
                f"{env_index} (its slot {local}): {exc}",
                env_index=env_index,
                shard=self.address,
            ) from exc
        if msg_type == MSG_ERR:
            _raise_worker_reply_error(payload, env_index, shard=self.address)
        _cmd, result = decode_reply(payload)
        return result

    def rpc(self, cmd: str, payload: Any = None) -> Any:
        """One synchronous session-level command (handshake, snapshot)."""
        self.submit(0, cmd, payload)
        return self.result()

    def close(self) -> None:
        """Drain-then-close the shard socket (idempotent)."""
        self.transport.close()


class _ShardWorker:
    """One sub-environment slot on a shard channel."""

    def __init__(self, channel: _ShardChannel, local: int, env_index: int):
        self._channel = channel
        self._local = int(local)
        self.env_index = int(env_index)

    def submit(self, cmd: str, payload: Any = None) -> None:
        self._channel.submit(
            self._local, cmd, payload, env_index=self.env_index
        )

    def result(self) -> Any:
        return self._channel.result()


# --------------------------------------------------------------------------
# The vector environment
# --------------------------------------------------------------------------


class VectorEnv:
    """N independently-seeded environments stepped in lockstep.

    Parameters
    ----------
    factories:
        One zero-argument callable per sub-environment (``serial``,
        ``fork``, ``vec``).  Each must return an
        :class:`~repro.env.protocol.Environment`; fan-in additionally
        requires ``records_since`` (which the sim-lustre backend
        provides).  ``backend="shards"`` builds its environments on the
        shard hosts instead — pass ``factories=None`` with ``shards=``
        and ``base_seed=``.
    backend:
        ``"serial"`` (in-process), ``"fork"`` (one worker process per
        environment) or ``"shards"`` (remote shard hosts over TCP).
        Results are byte-identical across all three.  ``"vec"`` is the
        struct-of-arrays fluid model (see the module docs).
    shared_db_path:
        Where the shared fan-in :class:`ReplayDB` lives.  The default,
        :data:`~repro.replaydb.db.CACHE_ONLY`, keeps the fan-in store
        in the NumPy cache alone — an in-memory SQLite layer under it
        buys no durability, only per-write overhead on the collection
        hot path.  Pass a filesystem path (or ``":memory:"``) for a
        SQLite-backed store, or ``None`` to disable fan-in entirely.
    tick_stride:
        Tick-space block size per environment in the shared DB; an
        environment raises once its local tick reaches the stride.
    shards:
        ``backend="shards"`` only: the ``host:port`` addresses of the
        shard hosts, in fleet order — shard ``s`` hosts the next
        contiguous ``K_s`` global env slots.
    base_seed:
        ``backend="shards"`` only: the base seed global per-env seeds
        derive from (the :func:`vector_seeds` argument); the master
        sends each shard its slice at attach time.
    connect_timeout:
        ``backend="shards"`` only: seconds to wait for each shard
        dial; established sessions block indefinitely.
    """

    def __init__(
        self,
        factories: Optional[Sequence[EnvFactoryFn]] = None,
        backend: str = "serial",
        shared_db_path: Optional[str] = CACHE_ONLY,
        tick_stride: int = 65536,
        shards: Optional[Sequence[str]] = None,
        base_seed: Optional[int] = None,
        connect_timeout: Optional[float] = 30.0,
    ):
        if backend not in ("serial", "fork", "vec", "shards"):
            raise ValueError(
                f"backend must be 'serial', 'fork', 'vec' or 'shards', "
                f"got {backend!r}"
            )
        if backend == "shards":
            if factories:
                raise ValueError(
                    "backend='shards' builds its environments on the "
                    "shard hosts; pass shards=[...] instead of factories"
                )
            if not shards:
                raise ValueError(
                    "backend='shards' needs at least one shard address"
                )
            if base_seed is None:
                raise ValueError(
                    "backend='shards' needs base_seed: per-env seeds are "
                    "derived globally on the master and sent to the shards"
                )
        elif not factories:
            raise ValueError("VectorEnv needs at least one environment")
        check_positive("tick_stride", tick_stride)
        self.backend = backend
        self.tick_stride = int(tick_stride)
        self._shared_db_path = shared_db_path
        self._fleet: Any = None
        self._closed = False
        self._channels: List[_ShardChannel] = []
        #: Shard addresses (``backend="shards"``) in fleet order.
        self.shards: Optional[List[str]] = None
        #: Env count per shard, aligned with :attr:`shards`.
        self.shard_sizes: Optional[List[int]] = None
        if backend == "shards":
            self._workers = self._connect_shards(
                list(shards), int(base_seed), connect_timeout
            )
        elif backend == "fork":
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX fallback
                context = multiprocessing.get_context()
            self._workers: List[Any] = [
                _ForkWorker(f, context, env_index=i)
                for i, f in enumerate(factories)
            ]
        else:
            self._workers = [_SerialWorker(f) for f in factories]
        if backend == "vec":
            envs = [w.env for w in self._workers]
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
            self.shared_db = ReplayDB(
                self.frame_dim,
                path=shared_db_path,
                cache_capacity=self.n_envs * self.tick_stride,
            )
        #: Per-env fan-in frontier: which local tick each cluster's
        #: records are synced through.  Shared with the strided sampler
        #: (candidate spans) and re-read on every draw.  Sharded fleets
        #: carry the shard topology so frontier bookkeeping can be
        #: reasoned about (and snapshotted) per shard.
        self.spans = TickSpans(
            self.n_envs, self.tick_stride, shard_sizes=self.shard_sizes
        )
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

    def _connect_shards(
        self,
        shards: List[str],
        base_seed: int,
        connect_timeout: Optional[float],
    ) -> List[_ShardWorker]:
        """Dial every shard, derive the global seed sequence, attach.

        Seeds are computed over the *total* fleet size and sliced
        contiguously per shard, so each env's stream depends on its
        global index alone — resharding the same total fleet is
        byte-invisible.
        """
        try:
            self._channels = [
                _ShardChannel(addr, timeout=connect_timeout)
                for addr in shards
            ]
            self.shards = shards
            self.shard_sizes = [ch.n_envs for ch in self._channels]
            seeds = vector_seeds(base_seed, sum(self.shard_sizes))
            workers: List[_ShardWorker] = []
            offset = 0
            for ch in self._channels:
                ch.rpc(
                    "attach",
                    {"seeds": seeds[offset : offset + ch.n_envs]},
                )
                workers.extend(
                    _ShardWorker(ch, local, offset + local)
                    for local in range(ch.n_envs)
                )
                offset += ch.n_envs
            return workers
        except Exception:
            for ch in self._channels:
                ch.close()
            raise

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

        ``backend="shards"`` (pass ``shards=[...]`` in ``vec_kwargs``)
        attaches to running shard hosts with ``config.seed`` as the
        base seed; ``n_envs`` is validated against the fleet the shards
        actually host.
        """
        if backend == "shards":
            venv = cls(
                None,
                backend="shards",
                base_seed=config.seed,
                **vec_kwargs,
            )
            if int(n_envs) != venv.n_envs:
                sizes = venv.shard_sizes
                venv.close()
                raise ValueError(
                    f"requested n_envs={n_envs} but the shards host "
                    f"{sum(sizes)} env(s) (sizes {sizes})"
                )
            return venv
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

        ``backend="shards"`` attaches to running shard hosts (each
        built with its own ``--env``/``--config``; the master only
        sends seeds), validating ``n_envs`` against the hosted total.
        """
        from repro.env.registry import make_env

        if backend == "shards":
            venv = cls(
                None, backend="shards", base_seed=base_seed, **vec_kwargs
            )
            if int(n_envs) != venv.n_envs:
                sizes = venv.shard_sizes
                venv.close()
                raise ValueError(
                    f"requested n_envs={n_envs} but the shards host "
                    f"{sum(sizes)} env(s) (sizes {sizes})"
                )
            return venv
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
        return len(self._workers)

    @property
    def _synced(self) -> List[int]:
        """Per-env synced tops (read-only view of :attr:`spans`)."""
        return self.spans.tops()

    def _get_attr(self, i: int, name: str) -> Any:
        self._workers[i].submit("call", ("__getattribute__", (name,), {}))
        return self._workers[i].result()

    def env_method(self, i: int, name: str, *args: Any, **kwargs: Any) -> Any:
        """Invoke ``env_i.name(*args, **kwargs)`` (remotely for fork).

        The target environment may advance ticks (``run_ticks``,
        ``step``), so its new replay records are fanned in afterwards.
        """
        if not 0 <= i < self.n_envs:
            raise IndexError(f"env index {i} out of range 0..{self.n_envs - 1}")
        self._workers[i].submit("call", (name, args, kwargs))
        result = self._workers[i].result()
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
        """Fan in every fleet row's new records as one batch (vec).

        No worker round-trips: the rows come straight off the fleet's
        record columns.  Envs need not be in lockstep — each
        contributes its rows after its own :meth:`_since`.
        """
        if self.shared_db is not None:
            self._land(
                *self._fleet.state.packed_since_all(
                    [self._since(i) for i in range(self.n_envs)]
                )
            )

    def _land(self, envs: np.ndarray, packed: PackedRecords) -> None:
        """Land local-tick rows, env-major (``envs`` names each row's
        env), as one batch: one ``put_many``, the frontier updates, one
        call per listener.  Global ticks ascend strictly, so the batch
        takes ``put_many``'s vectorised path."""
        if len(packed) == 0:
            return
        # Each env's newest row closes its run.
        last = np.flatnonzero(np.diff(envs, append=self.n_envs))
        tops = packed.ticks[last]
        worst = tops.argmax()
        if tops[worst] >= self.tick_stride:
            raise RuntimeError(
                f"env {envs[last[worst]]} reached tick {tops[worst]} >= "
                f"tick_stride {self.tick_stride}; raise tick_stride to "
                f"run longer vectorized sessions"
            )
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
        for i, top in zip(envs[last].tolist(), tops.tolist()):
            self.spans.observe_top(i, top)
        for fn in self._ingest_listeners:
            fn(global_batch)

    def _sync_env(self, i: int) -> None:
        """Pull-and-ingest env ``i``'s new records (one worker round-trip).

        Only needed after :meth:`env_method` — every lockstep path folds
        the records into the stepping reply instead.
        """
        if self.shared_db is None:
            return
        self._workers[i].submit("records", self._since(i))
        self._ingest(i, self._workers[i].result())

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
        want_records = self.shared_db is not None
        for w in self._workers:
            w.submit("reset", want_records)
        for i, w in enumerate(self._workers):
            obs, packed = w.result()
            self._obs_buf[i] = obs
            self._ingest(i, packed)
        self._oplog = []
        return self._obs_buf

    def step(
        self, actions: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray, List[dict]]:
        """One action per cluster; every cluster advances one tick.

        Returns ``(obs, rewards, infos)`` where ``obs`` is the reused
        ``(n, obs_dim)`` buffer and ``rewards`` the reused ``(n,)``
        buffer.  All submissions go out before any result is collected,
        so the ``fork`` and ``shards`` backends step clusters in
        parallel; each reply carries the cluster's new replay records,
        so fan-in costs no extra round-trip.
        """
        actions = np.asarray(actions)
        if actions.shape != (self.n_envs,):
            raise ValueError(
                f"expected {self.n_envs} actions, got shape {actions.shape}"
            )
        if self.backend != "vec" and self._oplog is not None:
            self._oplog.append(("step", [int(a) for a in actions]))
        if self.backend == "vec":
            # Batched fast path: one fleet-wide kernel call instead of
            # n per-slot round-trips.
            _obs, rewards, infos = self._fleet.step(
                actions, out=self._obs_buf
            )
            self._reward_buf[:] = rewards
            self._ingest_fleet()
            return self._obs_buf, self._reward_buf, infos
        for i, w in enumerate(self._workers):
            out = self._obs_buf[i] if self.backend == "serial" else None
            w.submit("step", (int(actions[i]), out, self._since(i)))
        infos: List[dict] = []
        for i, w in enumerate(self._workers):
            obs, reward, info, packed = w.result()
            if self.backend != "serial":
                # Serial steps wrote straight into the buffer via out=;
                # boundary-crossing observations need the one copy.
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
        if self.backend != "vec" and self._oplog is not None:
            # Chunk size is transport, not semantics (chunked == per-tick
            # byte-identical), so the log records only what was run.
            self._oplog.append(
                ("chunks", None if action is None else int(action), int(n_ticks))
            )
        rewards = np.empty((self.n_envs, n_ticks))
        done = 0
        while done < n_ticks:
            k = min(chunk, n_ticks - done)
            if self.backend == "vec":
                rewards[:, done : done + k] = self._fleet.run_chunk(
                    k, action=action
                )
                self._fleet.current_observation(out=self._obs_buf)
                self._ingest_fleet()
                done += k
                continue
            for i, w in enumerate(self._workers):
                out = self._obs_buf[i] if self.backend == "serial" else None
                w.submit("run_chunk", (action, k, self._since(i), out))
            for i, w in enumerate(self._workers):
                r, obs, packed = w.result()
                rewards[i, done : done + k] = r
                if self.backend != "serial":
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
        - ``serial``/``fork``/``shards`` — the op log since
          ``reset()``.  Worker simulators drive live generator
          coroutines that cannot cross a process boundary, but their
          trajectories are a pure function of seed + op sequence, so
          the log *is* the state.  Sharded fleets additionally run a
          ``snapshot`` barrier against every shard (all in-flight
          commands applied, topology acknowledged) and record the
          shard layout in the meta.

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
        if self.backend == "shards":
            acks = [ch.rpc("snapshot") for ch in self._channels]
            meta["shards"] = {
                "addresses": list(self.shards),
                "sizes": list(self.shard_sizes),
                "acks": acks,
            }
        return {"meta": meta, "arrays": {}}

    def restore(self, snap: dict) -> None:
        """Rebuild the state captured by :meth:`snapshot`.

        The env must have been built from the same config (seeds,
        geometry, scenario).  Ingest listeners attached before the call
        hear the whole restored record stream — a trainer mirror
        re-fed this way ends up with the same replay cache the
        original session had.  ``serial``, ``fork`` and ``shards``
        snapshots are interchangeable (their trajectories are
        byte-identical by contract — a 2×2 sharded session may resume
        as a 4-env fork fleet and vice versa, any shard layout);
        ``vec`` snapshots only restore onto ``vec``.
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
        for w in self._workers:
            w.submit("commit")
        for w in self._workers:
            w.result()
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
        if self.backend in ("serial", "vec"):
            # Both are in-process: write straight into the buffer row
            # via out=.
            self._workers[i].submit(
                "call", ("current_observation", (), {"out": self._obs_buf[i]})
            )
            self._workers[i].result()
        else:
            # fork and shards cross a process/host boundary: the out=
            # buffer cannot travel, so copy the returned observation.
            self._workers[i].submit("call", ("current_observation", (), {}))
            self._obs_buf[i] = self._workers[i].result()
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
        bounded join, drain-then-close every shard socket, and close the
        shared fan-in DB.  Idempotent — a second call is a no-op, and a
        crashed worker never blocks the teardown of the healthy ones.
        """
        if self._closed:
            return
        self._closed = True
        for w in self._workers:
            try:
                w.submit("close")
            except (
                WorkerCrashError,
                TransportClosedError,
                ProtocolError,
                OSError,
            ):
                pass  # this worker is already gone; keep reaping
        for w in self._workers:
            try:
                w.result()
            except (
                WorkerCrashError,
                TransportClosedError,
                ProtocolError,
                EOFError,
                BrokenPipeError,
                OSError,
            ):
                pass
        for w in self._workers:
            shutdown = getattr(w, "shutdown", None)
            if shutdown is not None:
                shutdown()
        for ch in self._channels:
            ch.close()
        if self.shared_db is not None:
            self.shared_db.close()

    def __enter__(self) -> "VectorEnv":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
