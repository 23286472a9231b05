"""Live observability for the control-plane daemon.

Two consumers, one source of truth:

- :class:`ServeStats` holds the counters — per-cluster tick/decision/
  loss/reward/latency aggregates, connection churn, and the §3.3
  wire-protocol byte savings measured on received traffic (the Table 2
  "average message size per client" row, on real messages) — and
  renders one JSON-able snapshot for the ``/stats`` endpoint;
- :class:`EventFeed` is the in-process push channel: subscribers get
  every connect/disconnect/decision/broadcast event as a dict on their
  own bounded queue (oldest events drop rather than block the serving
  loop).
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.telemetry.wire import WireStats
from repro.util.ewma import EWMA


class LatencyWindow:
    """Rolling decision-latency quantiles over the last ``window`` samples.

    A bounded deque, not a reservoir: decision latency is a live-health
    signal, so recent behaviour should dominate — and the window is
    large enough that p99 over it is stable for the load bench.
    """

    def __init__(self, window: int = 8192):
        if window <= 0:
            raise ValueError(f"window must be > 0, got {window}")
        self._samples: Deque[float] = deque(maxlen=int(window))
        self.count = 0

    def observe(self, seconds: float) -> None:
        """Record one latency sample."""
        self._samples.append(float(seconds))
        self.count += 1

    def quantiles(self, qs=(0.5, 0.99)) -> List[float]:
        """The requested quantiles over the retained window (or NaNs)."""
        if not self._samples:
            return [float("nan")] * len(qs)
        arr = np.asarray(self._samples)
        return [float(np.quantile(arr, q)) for q in qs]


#: The additive :class:`~repro.telemetry.wire.WireStats` counters.
WIRE_COUNTERS = ("messages", "raw_bytes", "compressed_bytes", "entries_sent")


class ClusterStats:
    """One registered cluster's live counters."""

    #: Snapshot key -> attribute of each integer counter a serve
    #: snapshot persists (:meth:`state` / :meth:`load_state`).
    COUNTERS = {
        "connects": "connects",
        "frames": "frames",
        "ticks_landed": "ticks_landed",
        "decisions": "decisions",
        "row_last_tick": "last_tick",
    }

    def __init__(self, name: str, slot: int):
        self.name = name
        self.slot = int(slot)
        self.connects = 0
        self.frames = 0
        self.ticks_landed = 0
        self.decisions = 0
        self.last_tick = -1
        self.last_action: Optional[int] = None
        self.reward_ewma = EWMA(alpha=0.05)
        self.latency = LatencyWindow()
        #: Receive-side wire accounting, folded in across connections
        #: (the live connection's decoder holds the in-flight tail).
        self.wire = WireStats()
        self.connected = False

    def fold_wire(self, stats: Optional[WireStats]) -> None:
        """Accumulate a (dying) decoder's wire stats into this cluster."""
        if stats is None:
            return
        for key in WIRE_COUNTERS:
            total = getattr(self.wire, key) + getattr(stats, key)
            setattr(self.wire, key, total)

    def state(self) -> dict:
        """The persisted counters, JSON-able (one serve snapshot row)."""
        wire = self.wire
        return {
            **{k: int(getattr(self, a)) for k, a in self.COUNTERS.items()},
            "last_action": self.last_action,
            "reward_ewma": {
                "mean": self.reward_ewma._mean,
                "count": int(self.reward_ewma._count),
            },
            "wire": {k: int(getattr(wire, k)) for k in WIRE_COUNTERS},
        }

    def load_state(self, state: dict) -> None:
        """Set every persisted counter back from a :meth:`state` row."""
        for key, attr in self.COUNTERS.items():
            setattr(self, attr, int(state[key]))
        action, ewma = state["last_action"], state["reward_ewma"]
        self.last_action = None if action is None else int(action)
        self.reward_ewma._mean = (
            None if ewma["mean"] is None else float(ewma["mean"])
        )
        self.reward_ewma._count = int(ewma["count"])
        for key in WIRE_COUNTERS:
            setattr(self.wire, key, int(state["wire"][key]))

    def snapshot(self, live_wire: Optional[WireStats] = None) -> dict:
        """JSON-able view, merging the live decoder's wire tail."""
        tail = live_wire or WireStats()
        wire = WireStats(
            **{
                k: getattr(self.wire, k) + getattr(tail, k)
                for k in WIRE_COUNTERS
            }
        )
        p50, p99 = self.latency.quantiles()
        return {
            "name": self.name,
            "slot": self.slot,
            "connected": self.connected,
            "connects": self.connects,
            "frames": self.frames,
            "ticks_landed": self.ticks_landed,
            "decisions": self.decisions,
            "last_tick": self.last_tick,
            "last_action": self.last_action,
            "reward_ewma": (
                self.reward_ewma.value if self.reward_ewma.count else None
            ),
            "decision_latency_p50_ms": p50 * 1e3,
            "decision_latency_p99_ms": p99 * 1e3,
            "wire": {
                **{key: getattr(wire, key) for key in WIRE_COUNTERS},
                "mean_message_size": wire.mean_message_size,
                "compression_ratio": wire.compression_ratio,
            },
        }


class ServeStats:
    """The daemon's aggregate counters and per-cluster breakdowns."""

    #: The aggregate counters a serve snapshot persists.
    COUNTERS = (
        "connections_total",
        "disconnects",
        "evictions",
        "resyncs",
        "timeouts",
        "protocol_errors",
        "frames_total",
        "decisions_total",
        "checkpoints_broadcast",
        "broadcasts_skipped",
    )

    def __init__(self):
        self.started_at = time.monotonic()
        self.clusters: Dict[str, ClusterStats] = {}
        self.connections_open = 0
        self.connections_total = 0
        self.disconnects = 0
        self.evictions = 0
        self.resyncs = 0
        self.timeouts = 0
        self.protocol_errors = 0
        self.decisions_total = 0
        self.frames_total = 0
        self.checkpoints_broadcast = 0
        #: Per-writer broadcast skips: a stalled client whose transport
        #: buffer sat above the high-water mark when weights shipped.
        self.broadcasts_skipped = 0
        self.latency = LatencyWindow()
        #: Filled from the trainer loop's :class:`~repro.train.TrainerStats`.
        self.trainer: Optional[dict] = None

    def cluster(self, name: str, slot: int) -> ClusterStats:
        """The (created-on-first-use) stats row for one cluster."""
        row = self.clusters.get(name)
        if row is None:
            row = self.clusters[name] = ClusterStats(name, slot)
        return row

    def snapshot(
        self, live_wire: Optional[Dict[str, WireStats]] = None
    ) -> dict:
        """One JSON-able view of everything (the ``/stats`` body)."""
        live_wire = live_wire or {}
        p50, p99 = self.latency.quantiles()
        rows = {
            name: row.snapshot(live_wire.get(name))
            for name, row in sorted(self.clusters.items())
        }
        wire_totals = {
            key: sum(r["wire"][key] for r in rows.values())
            for key in ("messages", "raw_bytes", "compressed_bytes")
        }
        wire_totals["compression_ratio"] = (
            wire_totals["raw_bytes"] / wire_totals["compressed_bytes"]
            if wire_totals["compressed_bytes"]
            else 1.0
        )
        wire_totals["mean_message_size"] = (
            wire_totals["compressed_bytes"] / wire_totals["messages"]
            if wire_totals["messages"]
            else 0.0
        )
        return {
            "uptime_s": time.monotonic() - self.started_at,
            "connections": {
                "open": self.connections_open,
                "total": self.connections_total,
                "disconnects": self.disconnects,
                "evictions": self.evictions,
                "resyncs": self.resyncs,
                "timeouts": self.timeouts,
                "protocol_errors": self.protocol_errors,
            },
            "frames_total": self.frames_total,
            "decisions_total": self.decisions_total,
            "checkpoints_broadcast": self.checkpoints_broadcast,
            "broadcasts_skipped": self.broadcasts_skipped,
            "decision_latency_p50_ms": p50 * 1e3,
            "decision_latency_p99_ms": p99 * 1e3,
            "wire": wire_totals,
            "trainer": self.trainer,
            "clusters": rows,
        }


class EventFeed:
    """Bounded fan-out of server events to in-process subscribers.

    ``publish`` never blocks the serving loop: a subscriber that falls
    behind loses its *oldest* events (each queue is a sliding window),
    which is the right failure mode for a live dashboard feed.
    """

    def __init__(self, maxsize: int = 256):
        if maxsize <= 0:
            raise ValueError(f"maxsize must be > 0, got {maxsize}")
        self._maxsize = int(maxsize)
        self._queues: List[asyncio.Queue] = []
        self.dropped = 0

    def subscribe(self) -> asyncio.Queue:
        """A fresh queue receiving every event published from now on."""
        q: asyncio.Queue = asyncio.Queue(maxsize=self._maxsize)
        self._queues.append(q)
        return q

    def unsubscribe(self, q: asyncio.Queue) -> None:
        """Stop delivering to ``q``."""
        try:
            self._queues.remove(q)
        except ValueError:
            pass

    def publish(self, kind: str, **data) -> None:
        """Deliver ``{"event": kind, **data}`` to every subscriber."""
        if not self._queues:
            return
        event = {"event": kind, **data}
        for q in self._queues:
            while True:
                try:
                    q.put_nowait(event)
                    break
                except asyncio.QueueFull:
                    try:
                        q.get_nowait()
                        self.dropped += 1
                    except asyncio.QueueEmpty:  # pragma: no cover - race
                        break
