"""The two serve workloads: a daemon in its own process, two closed-loop clients.

``serve_train`` is the deployed §3 shape (decide + train behind one
socket); ``serve_frozen`` is the identical wire path with the trainer
removed.  The loop is closed because the protocol is:
``ServeClient.tick`` blocks on its DECISION, so each of the two
connections has at most one frame in flight.  Frames are generated from
the seed before any clock starts and replayed verbatim, so the daemon's
decisions never feed back into its inputs.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import os
import select
import signal
import time
import traceback
import urllib.request
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.replaydb.db import CACHE_ONLY, ReplayDB
from repro.replaydb.spans import StridedMinibatchSampler, TickSpans
from repro.serve import CapesServer, ServeClient, ServeConfig
from repro.serve import protocol
from repro.serve.client import ServeClientError
from repro.serve.server import build_serve_agent, run_server
from repro.sim.vec.fleet_env import FleetEnv
from repro.telemetry.wire import DecoderPool

from bench.measure import Rep, Stopwatch, per_call
from bench.trace import BENCH_LAYER, TIMED, Tracer
from bench.workloads import HP, TICK_STRIDE, Workload, env_config, sgd_layers

HOST = "127.0.0.1"
#: Seconds to wait for the daemon to come up, answer, or go away.
DAEMON_TIMEOUT = 30.0
#: What a client can raise that costs only its own frames.
CLIENT_ERRORS = (OSError, ServeClientError, asyncio.TimeoutError)


class Daemon:
    """``run_server`` in a forked child on ephemeral ports, always reaped.

    ``stop`` returns the child's ``rusage`` — its CPU and peak RSS are
    only known once it has been waited for.
    """

    def __init__(self, config: ServeConfig):
        read_fd, write_fd = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(read_fd)
            self._serve(config, write_fd)  # never returns
        os.close(write_fd)
        try:
            ready, _, _ = select.select([read_fd], [], [], DAEMON_TIMEOUT)
            line = os.read(read_fd, 64) if ready else b""
        finally:
            os.close(read_fd)
        if not line:
            self.stop()
            raise RuntimeError("serve daemon did not announce its ports")
        self.port, self.stats_port = (int(p) for p in line.split())

    @staticmethod
    def _serve(config: ServeConfig, write_fd: int) -> None:
        code = 1
        try:
            def announce(server: CapesServer) -> None:
                os.write(write_fd, f"{server.port} {server.stats_port}\n".encode())
                os.close(write_fd)

            run_server(CapesServer(config), announce=announce)
            code = 0
        except BaseException:  # the child must never fall back into the bench
            traceback.print_exc()
        finally:
            os._exit(code)

    def stats(self) -> dict:
        """The daemon's own ``/stats`` body."""
        url = f"http://{HOST}:{self.stats_port}/stats"
        with urllib.request.urlopen(url, timeout=DAEMON_TIMEOUT) as reply:
            return json.load(reply)

    def stop(self):
        """SIGTERM, wait, SIGKILL if it will not go; returns its rusage."""
        if self.pid is None:
            return None
        pid, self.pid = self.pid, None
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        deadline = time.monotonic() + DAEMON_TIMEOUT
        while time.monotonic() < deadline:
            done, _, usage = os.wait4(pid, os.WNOHANG)
            if done:
                return usage
            time.sleep(0.005)
        os.kill(pid, signal.SIGKILL)
        return os.wait4(pid, 0)[2]


@contextlib.contextmanager
def one_cpu():
    """Pin this process, and what it forks meanwhile, to one CPU.

    Daemon and load generator take turns (the loop is closed), so one
    CPU costs them little, and it takes the hypervisor out of the
    number: on two vCPUs the hand-over is a cross-CPU wake-up and both
    run slower whenever the host puts them on one core, neither of
    which ``Reference`` (one process) can see.  Measured here over 16
    runs' worth of repetitions: 20 % spread free, 10 % pinned.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


@dataclass
class Stream:
    """One client's pre-generated telemetry."""

    ticks: np.ndarray
    frames: np.ndarray
    rewards: np.ndarray


@dataclass
class ServeInputs:
    """Everything the seed decides: the streams and the action vocabulary."""

    streams: List[Stream]
    n_actions: int

    @property
    def frame_width(self) -> int:
        return self.streams[0].frames.shape[1]


@dataclass
class ClientLog:
    """What one client saw."""

    latencies: List[float] = field(default_factory=list)
    actions: List[int] = field(default_factory=list)
    decisions: int = 0
    resyncs: int = 0
    error: Optional[str] = None
    #: Wire messages as sent (traced runs), for the isolated decode calls.
    wire: List[bytes] = field(default_factory=list)
    wire_stats: Optional[object] = None


class _Ctx:
    """The open ``serve.tick`` span of one traced client."""

    parent = -1


class _SpanEncoder:
    """``client.encoder`` with a span around ``encode``; keeps the messages."""

    def __init__(self, inner, tr: Tracer, ctx: _Ctx, wire: List[bytes]):
        self._inner, self._tr, self._ctx, self._wire = inner, tr, ctx, wire

    def encode(self, tick, frame):
        with self._tr.span("telemetry.encode", "telemetry", self._ctx.parent):
            msg = self._inner.encode(tick, frame)
        self._wire.append(msg)
        return msg

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _SpanWriter:
    """``client.writer`` with spans around ``write`` and ``drain``."""

    def __init__(self, inner, tr: Tracer, ctx: _Ctx):
        self._inner, self._tr, self._ctx = inner, tr, ctx

    def write(self, data):
        with self._tr.span("transport.write", "transport", self._ctx.parent):
            self._inner.write(data)

    async def drain(self):
        with self._tr.span("transport.drain", "transport", self._ctx.parent):
            await self._inner.drain()

    def __getattr__(self, name):
        return getattr(self._inner, name)


async def _drive(client: ServeClient, stream: Stream, log: ClientLog,
                 tr: Optional[Tracer], root: int) -> None:
    """Replay ``stream`` through one connection, one frame in flight."""
    ctx = _Ctx()
    encoder, writer = client.encoder, client.writer
    if tr is not None:
        client.encoder = _SpanEncoder(encoder, tr, ctx, log.wire)
        client.writer = _SpanWriter(writer, tr, ctx)
    try:
        for i in range(len(stream.ticks)):
            tick, reward = int(stream.ticks[i]), float(stream.rewards[i])
            start = time.perf_counter()
            if tr is None:
                _, action, decided = await client.tick(tick, stream.frames[i], reward)
            else:
                # Self time of this span is the wait for the DECISION.
                with tr.span("serve.tick", "serve", root) as span:
                    ctx.parent = span.id
                    _, action, decided = await client.tick(
                        tick, stream.frames[i], reward
                    )
            log.latencies.append(time.perf_counter() - start)
            log.actions.append(action if decided else -1)
    except CLIENT_ERRORS as exc:
        log.error = f"{type(exc).__name__}: {exc}"
    finally:
        # The goodbye after the last tick belongs to no ``serve.tick`` span.
        client.encoder, client.writer = encoder, writer
        log.decisions, log.resyncs = client.decisions, client.resyncs
        log.wire_stats = encoder.stats


class ServeWorkload(Workload):
    """Shared body of ``serve_train`` and ``serve_frozen``."""

    unit = "decision"
    backend: str
    greedy: bool
    TRAIN_RATIO = 1.0

    def inputs(self, seed, sizes) -> ServeInputs:
        """``frames`` records per client from a fleet run before any timing."""
        fleet = FleetEnv(
            replace(env_config(seed), db_path=CACHE_ONLY), n_envs=sizes["clients"]
        )
        fleet.reset()  # leaves one observation window of warm-up records
        fleet.run_chunk(sizes["frames"] - HP.sampling_ticks_per_observation)
        streams = []
        for i in range(sizes["clients"]):
            packed = fleet.records_since_packed(-1, env_index=i)
            streams.append(Stream(packed.ticks, packed.frames, packed.rewards))
        fleet.close()
        return ServeInputs(streams, fleet.n_actions)

    def config(self, seed: int, inputs: ServeInputs, backend: str) -> ServeConfig:
        return ServeConfig(
            frame_width=inputs.frame_width,
            n_actions=inputs.n_actions,
            host=HOST, port=0, stats_port=0,
            max_clients=len(inputs.streams),
            tick_stride=TICK_STRIDE,
            trainer_backend=backend,
            train_ratio=self.TRAIN_RATIO,
            sync_every=64,
            greedy=self.greedy,
            seed=seed,
            hp=HP,
        )

    # -- one repetition ----------------------------------------------------
    def run(self, seed, sizes, inputs, ports: Optional[Sequence[int]] = None) -> Rep:
        """``ports`` overrides where each client dials (failure injection)."""
        return self._rep(seed, inputs, self.backend, None, ports)

    def run_traced(self, seed, sizes, inputs, tr: Tracer) -> Rep:
        return self._rep(seed, inputs, self.backend, tr, None)

    def _rep(self, seed, inputs, backend, tr, ports) -> Rep:
        config = self.config(seed, inputs, backend)
        stats: dict = {}
        with one_cpu():
            started = time.perf_counter()
            daemon = Daemon(config)
            try:
                logs, timed, connected = asyncio.run(
                    self._session(daemon, config, inputs.streams, tr, ports, stats)
                )
            finally:
                usage = daemon.stop()
        rep = self._judge(inputs.streams, logs, stats)
        rep.setup_s, rep.wall_s = connected - started, timed.wall
        rep.cpu_s = timed.cpu + usage.ru_utime + usage.ru_stime
        rep.child_rss_kb = usage.ru_maxrss
        return rep

    async def _session(self, daemon, config, streams, tr, ports, stats):
        """Connect (end of set-up), replay every stream, read ``/stats``."""
        clients = [
            ServeClient(
                HOST, (ports and ports[i]) or daemon.port, f"bench-{i}",
                config.frame_width, timeout=DAEMON_TIMEOUT,
            )
            for i in range(len(streams))
        ]
        logs = [ClientLog() for _ in clients]
        try:
            results = await asyncio.gather(
                *(c.connect() for c in clients), return_exceptions=True
            )
            connected = time.perf_counter()
            live = []
            for i, result in enumerate(results):
                if isinstance(result, CLIENT_ERRORS):
                    logs[i].error = f"{type(result).__name__}: {result}"
                elif isinstance(result, BaseException):
                    raise result
                else:
                    live.append(i)
            root = tr.span(TIMED, BENCH_LAYER) if tr else contextlib.nullcontext()
            with Stopwatch() as timed, root as span:
                await asyncio.gather(*(
                    _drive(clients[i], streams[i], logs[i], tr,
                           span.id if tr else -1)
                    for i in live
                ))
            # After the clock: the daemon finishes its last SGD step
            # before it can answer, so the counts below are final.
            stats.update(await asyncio.get_running_loop().run_in_executor(
                None, daemon.stats
            ))
        finally:
            for client in clients:
                await client.close()
        return logs, timed, connected

    def _judge(self, streams, logs: List[ClientLog], stats: dict) -> Rep:
        """Counts every frame sent; fails the ones nobody answered."""
        sent = sum(len(s.ticks) for s in streams)
        answered = sum(len(log.latencies) for log in logs)
        decisions = sum(log.decisions for log in logs)
        conn = stats.get("connections", {})
        failed = (
            (sent - answered)
            + sum(log.resyncs for log in logs)
            + conn.get("protocol_errors", 0)
            + sum(1 for log in logs if log.error)
        )
        problems = [f"client {i}: {log.error}" for i, log in enumerate(logs) if log.error]
        if stats.get("decisions_total") != decisions:
            problems.append(
                f"daemon decided {stats.get('decisions_total')}, "
                f"clients saw {decisions}"
            )
        trainer = stats.get("trainer")
        if trainer is not None:
            want = int(decisions * self.TRAIN_RATIO)
            if trainer["steps_attempted"] != want:
                problems.append(
                    f"steps_attempted {trainer['steps_attempted']} != "
                    f"decisions x train_ratio {want}"
                )
            failed += trainer["steps_attempted"] - trainer["losses"]
        digest = ""
        if self.greedy and trainer is None:
            # A frozen greedy policy on fixed frames: each client's
            # action stream is a pure function of the seed.
            h = hashlib.blake2b(digest_size=32)
            for log in logs:
                h.update(np.asarray(log.actions, dtype=np.int64).tobytes())
            digest = h.hexdigest()
        return Rep(
            setup_s=0.0, wall_s=0.0, cpu_s=0.0, units=decisions,
            attempted=sent + (trainer["steps_attempted"] if trainer else 0),
            failed=failed, digest=digest, problems=problems,
            latencies=np.array([t for log in logs for t in log.latencies]),
            info={"stats": stats, "logs": logs},
        )

    # -- per-layer metrics ---------------------------------------------------
    def layers(self, seed, sizes, inputs, tr: Tracer, rep: Rep) -> Dict[str, float]:
        stats, logs = rep.info["stats"], rep.info["logs"]
        client_p50, client_p99 = np.quantile(rep.latencies, [0.5, 0.99]) * 1e3
        wire = [log.wire_stats for log in logs]
        sent = sum(w.compressed_bytes for w in wire)
        out = {
            "serve.client_p50_ms": client_p50,
            "serve.client_p99_ms": client_p99,
            "serve.server_p50_ms": stats["decision_latency_p50_ms"],
            "serve.server_p99_ms": stats["decision_latency_p99_ms"],
            "serve.wire_share":
                (client_p50 - stats["decision_latency_p50_ms"]) / client_p50,
            "serve.frames_total": stats["frames_total"],
            "serve.decisions_total": stats["decisions_total"],
            "serve.resyncs": stats["connections"]["resyncs"],
            "serve.protocol_errors": stats["connections"]["protocol_errors"],
            "serve.checkpoints_broadcast": stats["checkpoints_broadcast"],
            "serve.broadcasts_skipped": stats["broadcasts_skipped"],
            "telemetry.encode_us": tr.durations("telemetry.encode").mean() * 1e6,
            "telemetry.bytes_per_msg": sent / sum(w.messages for w in wire),
            "telemetry.compression_ratio": sum(w.raw_bytes for w in wire) / sent,
        }
        out.update(self._isolated(seed, inputs, logs))
        trainer = stats.get("trainer")
        if trainer is not None:
            out["train.steps_attempted"] = trainer["steps_attempted"]
            out["train.losses"] = trainer["losses"]
            out.update(self._sgd(seed, inputs))
            # The same frames with the trainer removed: what is left of
            # a decision's time is what the trainer costs the event loop.
            bare = self._rep(seed, inputs, "none", None, None)
            out["serve.trainer_block_ms"] = (
                rep.wall_s / rep.units - bare.wall_s / bare.units
            ) * 1e3
        return {k: float(v) for k, v in out.items()}

    def _isolated(self, seed, inputs, logs) -> Dict[str, float]:
        """Codec, framing, inference and replay-insert calls on the recorded frames."""
        streams = inputs.streams
        pool = DecoderPool(inputs.frame_width)
        with Stopwatch() as decode:
            for i, log in enumerate(logs):
                for msg in log.wire:
                    pool.decode(i, msg)
        n_msgs = sum(len(log.wire) for log in logs)
        msg = logs[0].wire[-1]

        def frame():
            protocol.unpack_frame(protocol.pack_frame(7, 0.5, msg)[5:])
            protocol.pack_decision(7, 1, True)

        obs_ticks = HP.sampling_ticks_per_observation
        obs = np.stack([s.frames[:obs_ticks].reshape(-1) for s in streams])
        agent = build_serve_agent(seed, obs.shape[1], inputs.n_actions, hp=HP)
        db = ReplayDB(inputs.frame_width, path=CACHE_ONLY,
                      cache_capacity=len(streams) * TICK_STRIDE)
        s = streams[0]
        one = (s.ticks[:1], s.frames[:1], s.rewards[:1], np.zeros(1, dtype=np.int64))
        try:
            return {
                "telemetry.decode_us": decode.wall / n_msgs * 1e6,
                "transport.frame_us": per_call(frame, 2000) * 1e6,
                "rl.act_batch_us": per_call(
                    lambda: agent.act_batch(obs, greedy=True), 500
                ) * 1e6,
                "replaydb.put_one_us": per_call(lambda: db.put_many(*one), 2000) * 1e6,
                "replaydb.cache_mb": db.in_memory_bytes() / 1e6,
                "rl.snapshot_weights_ms": per_call(agent.snapshot_weights, 50) * 1e3,
                "rl.weights_bytes": len(agent.snapshot_weights()),
            }
        finally:
            db.close()

    def _sgd(self, seed, inputs) -> Dict[str, float]:
        """The daemon's serial trainer step, on the streams in its replay layout."""
        streams, width = inputs.streams, inputs.frame_width
        db = ReplayDB(width, path=CACHE_ONLY, cache_capacity=len(streams) * TICK_STRIDE)
        spans = TickSpans(n_blocks=len(streams), stride=TICK_STRIDE)
        for i, s in enumerate(streams):
            db.put_many(
                s.ticks + i * TICK_STRIDE, s.frames, s.rewards,
                np.zeros(len(s.ticks), dtype=np.int64),
            )
            spans.observe_top(i, int(s.ticks[-1]))
        sampler = StridedMinibatchSampler(
            db.cache, spans, obs_ticks=HP.sampling_ticks_per_observation,
            missing_tolerance=HP.missing_entry_tolerance, seed=seed,
        )
        agent = build_serve_agent(
            seed, width * HP.sampling_ticks_per_observation, inputs.n_actions, hp=HP
        )
        try:
            return sgd_layers(agent, sampler, "replaydb.strided_sample_ms")
        finally:
            db.close()


class ServeTrain(ServeWorkload):
    """Decide and train behind one socket: the trainer sets the latency."""

    name = "serve_train"
    sizes = {"clients": 2, "frames": 350}
    backend = "serial"
    greedy = False


class ServeFrozen(ServeWorkload):
    """The same wire path with the trainer removed: codec and event loop."""

    name = "serve_frozen"
    # 1 750 frames, not more: a repetition's rate scatters by ~20 % here
    # whatever its length (two processes handing frames back and forth
    # on two vCPUs), so the run's median wants many short repetitions.
    sizes = {"clients": 2, "frames": 1750}
    backend = "none"
    greedy = True
