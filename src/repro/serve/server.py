"""The CAPES control-plane daemon (the paper's deployed shape).

One asyncio process plays the roles §3 assigns to the control node:
the Interface Daemon (ingest compressed differential telemetry, fan it
into the shared replay store), the DRL engine (train continuously via
the :mod:`repro.train` trainer loop), and the action server
(price actions with :meth:`~repro.rl.agent.DQNAgent.act_batch` and
push versioned :mod:`repro.nn.checkpoint` weight broadcasts back out).

Concurrency model: every connected cluster gets a reader coroutine and
nothing else — no task, queue or timer per message.  A frame whose
observation window is warm joins one pending list, whose first entry
schedules one ``loop.call_soon(self._flush)``; the flush runs behind
every reader that had data in that loop iteration, so frames that
arrived together share a single ``act_batch`` forward pass, are landed,
answered and granted to the trainer, all synchronously.  Clients share
one model and one replay store without locks — everything mutable lives
on the event loop.  Back-pressure lives in the readers: each drains its
own writer before reading that client's next frame, so a peer that
stops reading stops being read and nothing shared ever waits on one
socket.  Liveness is one :class:`~repro.serve.protocol.IdleDeadline`
per connection: ``read_timeout`` seconds of silence cost that
connection alone (``test_reader_that_stops_reading_costs_only_itself``).

Replay layout mirrors the vectorized fan-in path: cluster ``slot``'s
local tick ``t`` lands at global tick ``slot * tick_stride + t``, and
a :class:`~repro.replaydb.spans.TickSpans` frontier keeps the sampler
uniform over every cluster's transitions.

Determinism: the agent, per-slot exploration streams and sampler seed
all derive from ``ServeConfig.seed`` exactly the way the in-process
session derives them, which is what makes the server-vs-inline golden
equivalence test possible (same seed + same frames ⇒ same actions).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.env.vector import per_env_rngs
from repro.replaydb.db import CACHE_ONLY, ReplayDB
from repro.replaydb.spans import StridedMinibatchSampler, TickSpans
from repro.rl.agent import DQNAgent
from repro.rl.hyperparams import Hyperparameters
from repro.serve import protocol
from repro.serve.stats import ClusterStats, EventFeed, ServeStats
from repro.snapshot import (
    SessionSnapshot,
    SnapshotError,
    capture_agent,
    capture_replay,
    capture_trainer,
    restore_agent,
    restore_replay,
    restore_trainer,
    rng_state,
    set_rng_state,
)
from repro.telemetry.wire import DecoderPool, WireDesyncError
from repro.train.loop import TrainerConfig, TrainerLoop, TrainerStats
from repro.util.ringbuffer import RingBuffer
from repro.util.rng import derive_rng, ensure_rng
from repro.util.validation import check_positive

#: Trainer backends the daemon accepts.  ``none`` serves a frozen
#: policy; ``serial`` bursts SGD on the event loop between decisions.
SERVE_BACKENDS = ("none", "serial")

#: The crash-recovery artifact name inside ``ServeConfig.snapshot_dir``.
#: One fixed name, rewritten atomically: recovery always wants "the
#: most recent consistent state", never a history.
SERVE_SNAPSHOT_NAME = "serve-latest.npz"


@dataclass
class ServeConfig:
    """Everything needed to run one control-plane daemon."""

    frame_width: int
    n_actions: int
    host: str = "127.0.0.1"
    #: TCP port for the client protocol; 0 binds an ephemeral port.
    port: int = 0
    #: HTTP ``/stats`` port; ``None`` disables the endpoint, 0 is
    #: ephemeral.
    stats_port: Optional[int] = None
    max_clients: int = 64
    #: Seconds a connected client may go silent before being dropped.
    read_timeout: float = 60.0
    #: Observation window length in ticks; defaults to the
    #: hyperparameter table's ``sampling_ticks_per_observation``.
    obs_ticks: Optional[int] = None
    #: Per-cluster tick-space block size (bounds one cluster's ticks).
    tick_stride: int = 4096
    #: Replay cache rows; defaults to ``max_clients * tick_stride``,
    #: the exact global-tick span the strided layout can produce.  The
    #: cache is a tick-indexed ring, so anything smaller would alias
    #: high-slot writes over low-slot records mid-serve; shrink
    #: ``tick_stride`` (or ``max_clients``) to shrink memory instead.
    cache_capacity: Optional[int] = None
    #: Replay store path; the sentinel keeps it cache-only.
    db_path: str = CACHE_ONLY
    trainer_backend: str = "serial"
    train_ratio: float = 1.0
    sync_every: int = 64
    #: Per-connection transport write-buffer ceiling (bytes) above which
    #: a checkpoint broadcast is *skipped* for that client rather than
    #: queued: a stalled reader must not accumulate megabyte weight
    #: blobs in its asyncio transport indefinitely.  The client catches
    #: up at the next version bump (or on reconnect, which always
    #: carries a current-epoch checkpoint).
    broadcast_high_water: int = 8 * 1024 * 1024
    #: Crash-recovery snapshot directory; ``None`` disables snapshots.
    #: The daemon rewrites ``serve-latest.npz`` there (atomically) every
    #: ``snapshot_every_s`` seconds and once at shutdown, and ``repro
    #: serve --resume`` restores a fresh daemon from it.
    snapshot_dir: Optional[str] = None
    #: Seconds between periodic crash-recovery snapshots.
    snapshot_every_s: float = 30.0
    greedy: bool = False
    seed: int = 0
    hp: Hyperparameters = field(default_factory=Hyperparameters)
    loss: str = "mse"

    def __post_init__(self) -> None:
        check_positive("frame_width", self.frame_width)
        check_positive("n_actions", self.n_actions)
        for label, value in (("port", self.port), ("stats_port", self.stats_port)):
            if value is not None and not 0 <= int(value) <= 65535:
                raise ValueError(f"{label} must be in [0, 65535], got {value}")
        check_positive("max_clients", self.max_clients)
        if self.read_timeout <= 0:
            raise ValueError(
                f"read_timeout must be > 0, got {self.read_timeout}"
            )
        if self.obs_ticks is None:
            self.obs_ticks = int(self.hp.sampling_ticks_per_observation)
        check_positive("obs_ticks", self.obs_ticks)
        check_positive("tick_stride", self.tick_stride)
        if self.tick_stride <= self.obs_ticks:
            raise ValueError(
                f"tick_stride ({self.tick_stride}) must exceed the "
                f"observation window ({self.obs_ticks} ticks)"
            )
        span = self.max_clients * self.tick_stride
        if self.cache_capacity is None:
            self.cache_capacity = span
        check_positive("cache_capacity", self.cache_capacity)
        if self.cache_capacity < span:
            raise ValueError(
                f"cache_capacity ({self.cache_capacity}) must cover the "
                f"strided global-tick span max_clients * tick_stride "
                f"({span}); a smaller ring would evict live clusters' "
                f"records mid-serve — lower tick_stride instead"
            )
        check_positive("broadcast_high_water", self.broadcast_high_water)
        if self.snapshot_every_s <= 0:
            raise ValueError(
                f"snapshot_every_s must be > 0, got {self.snapshot_every_s}"
            )
        if self.trainer_backend not in SERVE_BACKENDS:
            raise ValueError(
                f"trainer backend must be one of {SERVE_BACKENDS}, "
                f"got {self.trainer_backend!r}"
            )
        if self.trainer_backend != "none":
            TrainerConfig(train_ratio=self.train_ratio)
            check_positive("sync_every", self.sync_every)


def build_serve_agent(
    seed: int,
    obs_dim: int,
    n_actions: int,
    hp: Optional[Hyperparameters] = None,
    loss: str = "mse",
) -> DQNAgent:
    """The daemon's acting agent, derived deterministically from ``seed``.

    Exposed so the golden equivalence test can build the *same* agent
    outside the server and replay frames through it inline.
    """
    return DQNAgent(
        obs_dim=int(obs_dim),
        n_actions=int(n_actions),
        hp=hp,
        loss=loss,
        rng=derive_rng(ensure_rng(seed), "serve-agent"),
    )


class _Cluster:
    """Server-side state for one registered cluster (survives churn)."""

    __slots__ = ("name", "slot", "ring", "last_tick", "writer", "row")

    def __init__(
        self, name: str, slot: int, obs_ticks: int, frame_width: int,
        row: ClusterStats,
    ):
        self.name = name
        self.slot = slot
        self.ring = RingBuffer(obs_ticks, shape=(frame_width,))
        self.last_tick = -1
        self.writer: Optional[asyncio.StreamWriter] = None
        self.row = row


@dataclass
class _Pending:
    """One warm frame waiting for the next flush."""

    cluster: _Cluster
    tick: int
    reward: float
    frame: np.ndarray  # (frame_width,) float64
    obs: np.ndarray  # (obs_ticks * frame_width,) float64
    arrived: float


class CapesServer:
    """The asyncio control-plane daemon.  See the module docstring."""

    def __init__(self, config: ServeConfig, agent: Optional[DQNAgent] = None):
        self.config = config
        fw = config.frame_width
        self.agent = agent or build_serve_agent(
            config.seed,
            config.obs_ticks * fw,
            config.n_actions,
            hp=config.hp,
            loss=config.loss,
        )
        self.stats = ServeStats()
        self.events = EventFeed()
        self.pool = DecoderPool(fw)
        self.db = ReplayDB(
            fw, path=config.db_path, cache_capacity=config.cache_capacity
        )
        self.spans = TickSpans(
            n_blocks=config.max_clients, stride=config.tick_stride
        )
        self._clusters: Dict[str, _Cluster] = {}
        self._act_rngs = per_env_rngs(
            config.seed, config.max_clients, "serve-act"
        )
        sampler_seed = int(
            derive_rng(ensure_rng(config.seed), "serve-sampler").integers(
                2**31
            )
        )
        self._trainer: Optional[TrainerLoop] = None
        if config.trainer_backend == "serial":
            self._trainer = TrainerLoop(
                self.agent,
                TrainerConfig(train_ratio=config.train_ratio),
                sampler=StridedMinibatchSampler(
                    self.db.cache,
                    self.spans,
                    obs_ticks=config.obs_ticks,
                    missing_tolerance=config.hp.missing_entry_tolerance,
                    seed=sampler_seed,
                ),
            )
        # Last weight state broadcast to clients (PR-5 fence identity).
        self._weight_epoch = 0
        self._weight_version = 0
        #: Warm frames accepted since the last flush, in arrival order.
        self._pending: List[_Pending] = []
        self._server: Optional[asyncio.base_events.Server] = None
        self._stats_server: Optional[asyncio.base_events.Server] = None
        self._snapshot_task: Optional[asyncio.Task] = None
        self._conn_tasks: set = set()
        self._closing = False
        self._done = asyncio.Event()
        self.port: Optional[int] = None
        self.stats_port: Optional[int] = None

    # -- lifecycle --------------------------------------------------------
    async def start(self) -> None:
        """Bind sockets (and start the snapshot task)."""
        if self.config.snapshot_dir is not None:
            self._snapshot_task = asyncio.create_task(self._snapshot_loop())
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.config.stats_port is not None:
            self._stats_server = await asyncio.start_server(
                self._on_stats, self.config.host, self.config.stats_port
            )
            self.stats_port = self._stats_server.sockets[0].getsockname()[1]

    async def wait_shutdown(self) -> None:
        """Block until :meth:`shutdown` has completed."""
        await self._done.wait()

    async def shutdown(self) -> None:
        """Graceful stop: drain decisions, stop the trainer, flush replay.

        Idempotent.  Ordering matters: what is pending is answered,
        then connections close (no new frames), then a last flush
        spends what the readers still accepted (every accepted frame
        lands and grants training budget), then the trainer stops via
        its own ``stop()`` (flushing budget), then the store commits.
        """
        if self._closing:
            await self._done.wait()
            return
        self._closing = True
        if self._snapshot_task is not None:
            self._snapshot_task.cancel()
            try:
                await self._snapshot_task
            except asyncio.CancelledError:
                pass
            self._snapshot_task = None
        if self._server is not None:
            self._server.close()
        if self._stats_server is not None:
            self._stats_server.close()
        self._flush()
        for cluster in self._clusters.values():
            writer = cluster.writer
            if writer is not None and not writer.is_closing():
                try:
                    writer.write(protocol.pack_message(protocol.BYE))
                except (ConnectionError, RuntimeError):
                    pass
                writer.close()
        if self._conn_tasks:
            await asyncio.wait(list(self._conn_tasks), timeout=5.0)
        self._flush()
        if self._trainer is not None:
            self.stats.trainer = _trainer_snapshot(self._trainer.stop())
        if self.config.snapshot_dir is not None:
            # Final snapshot after the trainer has stopped: the pending
            # list is spent (every accepted frame landed), the serial
            # burst flushed — the artifact is the fully quiesced session.
            try:
                self.write_snapshot()
            except OSError as exc:
                self.events.publish("snapshot-error", error=str(exc))
        self.db.commit()
        self.db.close()
        if self._server is not None:
            await self._server.wait_closed()
        if self._stats_server is not None:
            await self._stats_server.wait_closed()
        self.events.publish("shutdown")
        self._done.set()

    # -- client connections -----------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self.stats.connections_total += 1
        self.stats.connections_open += 1
        cluster: Optional[_Cluster] = None
        reason = "bye"
        idle = protocol.IdleDeadline(reader, writer, self.config.read_timeout)
        idle.arm()
        try:
            cluster = await self._handshake(reader, writer)
            if cluster is not None:
                await self._frame_loop(cluster, reader, writer, idle)
        except (asyncio.IncompleteReadError, ConnectionError):
            reason = "disconnect"
            self.stats.disconnects += 1
        except asyncio.TimeoutError:
            reason = "timeout"
            self.stats.timeouts += 1
            self._send_error(writer, "read timeout")
        except protocol.ProtocolError as exc:
            reason = "protocol-error"
            self.stats.protocol_errors += 1
            self._send_error(writer, str(exc))
        finally:
            idle.disarm()
            self._conn_tasks.discard(task)
            self.stats.connections_open -= 1
            if cluster is not None and cluster.writer is writer:
                cluster.writer = None
                cluster.row.connected = False
                # Read the Table-2 accounting off the decoder before
                # evicting it; the next incarnation starts from zero
                # state and must resync explicitly.
                cluster.row.fold_wire(self.pool.stats(cluster.name))
                if self.pool.evict(cluster.name):
                    self.stats.evictions += 1
                self.events.publish(
                    "disconnect", cluster=cluster.name, reason=reason
                )
            await _close_writer(writer)

    async def _handshake(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[_Cluster]:
        """HELLO → WELCOME + current-epoch CHECKPOINT; None = rejected."""
        msg_type, payload = await protocol.read_message(reader)
        if msg_type != protocol.HELLO:
            raise protocol.ProtocolError(
                f"expected HELLO, got "
                f"{protocol.TYPE_NAMES.get(msg_type, msg_type)}"
            )
        hello = protocol.unpack_json(payload)
        name = hello.get("name")
        if not isinstance(name, str) or not name:
            raise protocol.ProtocolError(
                "HELLO must carry a non-empty string 'name'"
            )
        if hello.get("proto") != protocol.PROTO_VERSION:
            self._send_error(
                writer,
                f"protocol version {hello.get('proto')} unsupported "
                f"(server speaks {protocol.PROTO_VERSION})",
            )
            return None
        if hello.get("frame_width") != self.config.frame_width:
            self._send_error(
                writer,
                f"frame_width {hello.get('frame_width')} does not match "
                f"server's {self.config.frame_width}",
            )
            return None
        cluster = self._clusters.get(name)
        if cluster is None:
            if len(self._clusters) >= self.config.max_clients:
                self._send_error(
                    writer,
                    f"server full ({self.config.max_clients} clusters)",
                )
                return None
            slot = len(self._clusters)
            cluster = _Cluster(
                name,
                slot,
                self.config.obs_ticks,
                self.config.frame_width,
                self.stats.cluster(name, slot),
            )
            self._clusters[name] = cluster
        elif cluster.writer is not None:
            self._send_error(
                writer, f"cluster {name!r} is already connected"
            )
            return None
        cluster.writer = writer
        cluster.row.connects += 1
        cluster.row.connected = True
        writer.write(
            protocol.pack_json(
                protocol.WELCOME,
                {
                    "proto": protocol.PROTO_VERSION,
                    "cluster": cluster.slot,
                    "frame_width": self.config.frame_width,
                    "obs_ticks": self.config.obs_ticks,
                    "n_actions": self.config.n_actions,
                    # Reconnecting senders must re-establish decoder
                    # state: their first frame must be a full frame.
                    "resync": True,
                },
            )
        )
        writer.write(self._checkpoint_message())
        self.events.publish("connect", cluster=name, slot=cluster.slot)
        return cluster

    async def _frame_loop(
        self,
        cluster: _Cluster,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        idle: protocol.IdleDeadline,
    ) -> None:
        """The steady state: FRAME in, DECISION (or RESYNC) out."""
        cfg = self.config
        loop = asyncio.get_running_loop()
        while True:
            # Back-pressure: what was written to this peer (handshake,
            # last reply, broadcasts) drains before its next frame is
            # read, and only this reader ever waits for that.
            await writer.drain()
            msg_type, payload = await protocol.read_message(reader)
            idle.arm()
            if msg_type == protocol.BYE:
                return
            if msg_type != protocol.FRAME:
                raise protocol.ProtocolError(
                    f"unexpected {protocol.TYPE_NAMES.get(msg_type, msg_type)}"
                    f" message mid-stream"
                )
            tick, reward, wire_msg = protocol.unpack_frame(payload)
            try:
                wire_tick, frame = self.pool.decode(cluster.name, wire_msg)
            except WireDesyncError:
                self.stats.resyncs += 1
                writer.write(protocol.pack_message(protocol.RESYNC))
                self.events.publish(
                    "resync", cluster=cluster.name, tick=tick
                )
                continue
            except (zlib.error, ValueError) as exc:
                raise protocol.ProtocolError(
                    f"malformed wire message: {exc}"
                ) from exc
            if wire_tick != tick:
                raise protocol.ProtocolError(
                    f"FRAME tick {tick} disagrees with wire tick {wire_tick}"
                )
            if tick <= cluster.last_tick:
                raise protocol.ProtocolError(
                    f"non-monotonic tick {tick} (last was "
                    f"{cluster.last_tick}); a restarted cluster must "
                    f"register under a fresh name"
                )
            if tick >= cfg.tick_stride:
                raise protocol.ProtocolError(
                    f"tick {tick} exceeds the replay block stride "
                    f"{cfg.tick_stride}"
                )
            cluster.last_tick = tick
            cluster.row.frames += 1
            cluster.row.last_tick = tick
            cluster.row.reward_ewma.update(reward)
            self.stats.frames_total += 1
            cluster.ring.append(frame)
            if cluster.ring.full:
                obs = np.empty(
                    (cfg.obs_ticks, cfg.frame_width), dtype=np.float64
                )
                cluster.ring.copy_into(obs)
                self._pending.append(
                    _Pending(
                        cluster,
                        tick,
                        reward,
                        frame,
                        obs.reshape(-1),
                        time.monotonic(),
                    )
                )
                if len(self._pending) == 1:  # one flush per loop iteration
                    loop.call_soon(self._flush)
            else:
                # Window still warming: land the NULL-action record
                # (exactly what in-process monitoring ticks do) and
                # answer immediately so the client keeps streaming.
                self._land(cluster, tick, frame, reward, 0)
                writer.write(protocol.pack_decision(tick, 0, False))

    def _send_error(self, writer: asyncio.StreamWriter, text: str) -> None:
        """Best-effort ERROR reply that never waits on the peer.

        Written, not drained: the close that follows still delivers it.
        A peer already above high water is not reading, so its
        transport is aborted rather than handed one more message.
        """
        if writer.is_closing():
            return
        transport = writer.transport
        _, high = transport.get_write_buffer_limits()
        if transport.get_write_buffer_size() > high:
            transport.abort()
            return
        try:
            writer.write(protocol.pack_json(protocol.ERROR, {"error": text}))
        except (ConnectionError, RuntimeError, OSError):
            pass

    # -- deciding ----------------------------------------------------------
    def _flush(self) -> None:
        """Decide every frame accepted since the last flush, as one batch."""
        batch, self._pending = self._pending, []
        if not batch:
            return
        obs = np.stack([item.obs for item in batch])
        rngs = None
        if not self.config.greedy:
            rngs = [self._act_rngs[item.cluster.slot] for item in batch]
        actions = self.agent.act_batch(
            obs, greedy=self.config.greedy, rngs=rngs
        )
        now = time.monotonic()
        for item, action in zip(batch, actions):
            action = int(action)
            self._land(item.cluster, item.tick, item.frame, item.reward, action)
            latency = now - item.arrived
            row = item.cluster.row
            row.decisions += 1
            row.last_action = action
            row.latency.observe(latency)
            self.stats.latency.observe(latency)
            self.stats.decisions_total += 1
            writer = item.cluster.writer
            if writer is not None and not writer.is_closing():
                try:
                    writer.write(
                        protocol.pack_decision(item.tick, action, True)
                    )
                except (ConnectionError, RuntimeError):
                    pass
            self.events.publish(
                "decision",
                cluster=item.cluster.name,
                tick=item.tick,
                action=action,
                latency_ms=latency * 1e3,
            )
        self._train(len(batch))

    def _land(
        self,
        cluster: _Cluster,
        tick: int,
        frame: np.ndarray,
        reward: float,
        action: int,
    ) -> None:
        """One record into the shared replay path (DB + spans + trainer)."""
        gtick = cluster.slot * self.config.tick_stride + tick
        self.db.put_many([gtick], frame[None], [reward], [action])
        self.spans.observe_top(cluster.slot, tick)
        cluster.row.ticks_landed += 1

    # -- training / broadcasts ---------------------------------------------
    def _train(self, k: int) -> None:
        """Grant ``k`` decision ticks of budget; broadcast new weights."""
        if self._trainer is None or k <= 0:
            return
        self._trainer.notify_ticks(k)
        stats = self._trainer.stats
        try:
            version = stats.steps_attempted // self.config.sync_every
            if version <= self._weight_version:
                return
            self._weight_version = version
            message = self._checkpoint_message()
            high_water = self.config.broadcast_high_water
            for cluster in self._clusters.values():
                writer = cluster.writer
                if writer is None or writer.is_closing():
                    continue
                buffered = writer.transport.get_write_buffer_size()
                if buffered > high_water:
                    # A stalled reader: queueing another megabyte blob
                    # only grows its transport buffer without bound.
                    # It catches up at the next bump or on reconnect.
                    self.stats.broadcasts_skipped += 1
                    self.events.publish(
                        "checkpoint-skipped",
                        cluster=cluster.name,
                        buffered=buffered,
                        version=version,
                    )
                    continue
                try:
                    writer.write(message)
                except (ConnectionError, RuntimeError):
                    pass
            self.stats.checkpoints_broadcast += 1
            self.events.publish(
                "checkpoint", epoch=self._weight_epoch, version=version
            )
        finally:
            # Snapshot *after* the broadcast decision so /stats sees the
            # version/broadcast accounting this call just produced.
            self.stats.trainer = _trainer_snapshot(stats)

    def _checkpoint_message(self) -> bytes:
        """The current weights as a versioned CHECKPOINT message."""
        return protocol.pack_checkpoint(
            self._weight_epoch,
            self._weight_version,
            self.agent.snapshot_weights(),
        )

    # -- crash recovery ----------------------------------------------------
    def snapshot_state(self) -> SessionSnapshot:
        """Capture every mutable layer of the daemon into one artifact.

        Sections: ``serve`` (weight fence, aggregate counters, the
        cluster registry with each ring's warm frames), ``agent``
        (networks + optimizer + epsilon + RNG, plus every per-slot
        exploration stream), ``trainer`` (cadence debt and stats, the
        serial sampler's RNG) and ``replay`` (span frontiers + cached
        rows).  Runs synchronously on the event loop, so the capture is
        a consistent point-in-time cut — no frame can land mid-capture.
        The cut does not flush: a frame accepted but not yet decided is
        in its cluster's ring and not in replay, as it always was.
        """
        cfg = self.config
        snap = SessionSnapshot()
        live = self._clusters.values()
        clusters = [
            {
                "name": c.name,
                "slot": int(c.slot),
                "last_tick": int(c.last_tick),
                **c.row.state(),
            }
            for c in live
        ]
        rings = {f"ring{c.slot}": c.ring.view() for c in live}
        meta = {
            "frame_width": int(cfg.frame_width),
            "n_actions": int(cfg.n_actions),
            "obs_ticks": int(cfg.obs_ticks),
            "tick_stride": int(cfg.tick_stride),
            "max_clients": int(cfg.max_clients),
            "seed": int(cfg.seed),
            "trainer_backend": cfg.trainer_backend,
            "weight_epoch": int(self._weight_epoch),
            "weight_version": int(self._weight_version),
            "counters": {
                k: int(getattr(self.stats, k)) for k in ServeStats.COUNTERS
            },
            "clusters": clusters,
            "act_rngs": [rng_state(g) for g in self._act_rngs],
        }
        snap.put("serve", meta=meta, arrays=rings)
        agent_meta, agent_arrays = capture_agent(self.agent)
        snap.put("agent", meta=agent_meta, arrays=agent_arrays)
        if self._trainer is not None:
            t_meta, t_arrays = capture_trainer(self._trainer)
            snap.put("trainer", meta=t_meta, arrays=t_arrays)
        r_meta, r_arrays = capture_replay(self.db, self.spans)
        snap.put("replay", meta=r_meta, arrays=r_arrays)
        return snap

    def restore_state(self, snap: SessionSnapshot) -> None:
        """Apply a serve snapshot onto this freshly built daemon.

        Must run before :meth:`start`.  Clusters re-register under their
        old names, keep their slots, rings and monotonic tick fences,
        and must continue from ``last_tick + 1`` — exactly the contract
        a reconnect already imposes.
        """
        if self._server is not None or self._closing:
            raise SnapshotError("restore_state must run before start()")
        cfg = self.config
        meta = snap.section("serve")
        for key, live in (
            ("frame_width", cfg.frame_width),
            ("n_actions", cfg.n_actions),
            ("obs_ticks", cfg.obs_ticks),
            ("tick_stride", cfg.tick_stride),
            ("max_clients", cfg.max_clients),
        ):
            if int(meta[key]) != int(live):
                raise SnapshotError(
                    f"serve geometry mismatch: snapshot has "
                    f"{key}={meta[key]}, server has {live}"
                )
        if meta["trainer_backend"] != cfg.trainer_backend:
            raise SnapshotError(
                f"trainer backend mismatch: snapshot has "
                f"{meta['trainer_backend']!r}, server has "
                f"{cfg.trainer_backend!r}"
            )
        restore_agent(
            self.agent, snap.section("agent"), snap.section_arrays("agent")
        )
        states = meta["act_rngs"]
        if len(states) != len(self._act_rngs):
            raise SnapshotError(
                f"snapshot carries {len(states)} exploration streams, "
                f"server has {len(self._act_rngs)}"
            )
        for gen, state in zip(self._act_rngs, states):
            set_rng_state(gen, state)
        if self._trainer is not None and snap.has_section("trainer"):
            restore_trainer(
                self._trainer,
                snap.section("trainer"),
                snap.section_arrays("trainer"),
            )
        restore_replay(
            self.db,
            self.spans,
            snap.section("replay"),
            snap.section_arrays("replay"),
        )
        rings = snap.section_arrays("serve")
        self._clusters.clear()
        self.stats.clusters.clear()
        for spec in meta["clusters"]:
            slot = int(spec["slot"])
            cluster = _Cluster(
                spec["name"],
                slot,
                cfg.obs_ticks,
                cfg.frame_width,
                self.stats.cluster(spec["name"], slot),
            )
            cluster.last_tick = int(spec["last_tick"])
            ring = rings.get(f"ring{slot}")
            if ring is not None and len(ring):
                cluster.ring.extend(ring)
            cluster.row.load_state(spec)
            self._clusters[spec["name"]] = cluster
        for key in ServeStats.COUNTERS:
            setattr(self.stats, key, int(meta["counters"][key]))
        self._weight_epoch = int(meta["weight_epoch"])
        self._weight_version = int(meta["weight_version"])

    def write_snapshot(
        self, path: Optional[Union[str, Path]] = None
    ) -> Path:
        """Write the current state; defaults to the configured artifact."""
        if path is None:
            if self.config.snapshot_dir is None:
                raise SnapshotError(
                    "no snapshot path: configure ServeConfig.snapshot_dir "
                    "or pass one explicitly"
                )
            path = Path(self.config.snapshot_dir) / SERVE_SNAPSHOT_NAME
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        out = self.snapshot_state().save(path)
        self.events.publish("snapshot", path=str(out))
        return out

    async def _snapshot_loop(self) -> None:
        """Rewrite the crash-recovery artifact every ``snapshot_every_s``.

        The write runs on the event loop — that is what makes each cut
        consistent — so the interval bounds added decision latency, not
        correctness.  Shutdown writes the final quiesced artifact.
        """
        while True:
            await asyncio.sleep(self.config.snapshot_every_s)
            try:
                self.write_snapshot()
            except OSError as exc:
                self.events.publish("snapshot-error", error=str(exc))

    # -- observability -----------------------------------------------------
    def stats_snapshot(self) -> dict:
        """The ``/stats`` JSON body (also handy in-process)."""
        live = {
            name: self.pool.stats(name)
            for name in self._clusters
            if name in self.pool
        }
        snapshot = self.stats.snapshot(live)
        snapshot["clusters_registered"] = len(self._clusters)
        snapshot["weight_epoch"] = self._weight_epoch
        snapshot["weight_version"] = self._weight_version
        return snapshot

    async def _on_stats(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """A deliberately tiny HTTP/1.0 responder for ``GET /stats``."""
        try:
            request = await asyncio.wait_for(reader.readline(), 5.0)
            parts = request.decode("latin-1").split()
            path = parts[1] if len(parts) >= 2 else "/"
            while True:
                line = await asyncio.wait_for(reader.readline(), 5.0)
                if line in (b"", b"\r\n", b"\n"):
                    break
            if path.partition("?")[0] in ("/stats", "/stats/"):
                status, body = "200 OK", json.dumps(
                    self.stats_snapshot()
                ).encode("utf-8")
            else:
                status, body = "404 Not Found", b'{"error":"not found"}'
            writer.write(
                (
                    f"HTTP/1.0 {status}\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    f"Connection: close\r\n\r\n"
                ).encode("latin-1")
                + body
            )
            await writer.drain()
        except (
            asyncio.TimeoutError,
            asyncio.IncompleteReadError,
            ConnectionError,
            OSError,
        ):
            pass
        finally:
            await _close_writer(writer)


def _trainer_snapshot(stats: TrainerStats) -> dict:
    """A JSON-able trainer summary for the ``/stats`` body."""
    return {
        "steps_attempted": stats.steps_attempted,
        "losses": len(stats.losses),
        "last_loss": float(stats.losses[-1]) if stats.losses else None,
    }


async def _close_writer(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


def run_server(server: CapesServer, install_signal_handlers: bool = True,
               announce=None) -> ServeStats:
    """Run ``server`` until SIGINT/SIGTERM (the CLI entry point).

    ``announce(server)`` is called once the sockets are bound, so the
    caller can print the (possibly ephemeral) ports.
    """
    import signal as _signal

    async def _main() -> None:
        await server.start()
        # Handlers must be live before the announce: a supervisor that
        # reads the port line and signals immediately must never catch
        # the gap where SIGINT still means KeyboardInterrupt.
        if install_signal_handlers:
            loop = asyncio.get_running_loop()
            for sig in (_signal.SIGINT, _signal.SIGTERM):
                loop.add_signal_handler(
                    sig,
                    lambda: asyncio.ensure_future(server.shutdown()),
                )
        if announce is not None:
            announce(server)
        await server.wait_shutdown()

    asyncio.run(_main())
    return server.stats


class ServerThread:
    """A :class:`CapesServer` on a background event loop.

    The in-process harness for tests: the server
    owns a private loop in a daemon thread; the caller talks to it over
    real TCP from its own loop (or blocking sockets).  Use as a context
    manager, or ``start()`` / ``stop()`` explicitly.
    """

    def __init__(self, server: CapesServer):
        self.server = server
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._started = threading.Event()
        self._error: Optional[BaseException] = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def start(self) -> "ServerThread":
        """Start the loop thread; returns once the sockets are bound."""
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("serve thread failed to start in 30s")
        if self._error is not None:
            raise RuntimeError("serve thread died on startup") from self._error
        return self

    @property
    def port(self) -> int:
        """The bound client-protocol port."""
        return self.server.port

    @property
    def stats_port(self) -> Optional[int]:
        """The bound ``/stats`` port (None when disabled)."""
        return self.server.stats_port

    def _run(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # surfaced to start()/stop() callers
            self._error = exc
        finally:
            self._started.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        await self.server.start()
        self._started.set()
        await self.server.wait_shutdown()

    def stop(self) -> None:
        """Graceful shutdown on the server's loop, then join the thread."""
        if self._loop is not None and self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self.server.shutdown(), self._loop
            )
            future.result(timeout=60)
        self._thread.join(timeout=30)
