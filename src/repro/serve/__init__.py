"""The CAPES control plane as a network daemon (``repro serve``).

The deployed shape §3 of the paper describes: a central control node
that ingests compressed differential telemetry from many monitored
clusters, trains continuously against the shared replay store, prices
tuning actions for every cluster in batched forward passes, and pushes
versioned weight checkpoints back out — plus the live observability a
long-running daemon needs (a ``/stats`` endpoint and an in-process
event feed).

- :mod:`protocol` — the framed TCP message layer (HELLO/WELCOME,
  FRAME/DECISION, RESYNC, CHECKPOINT, BYE/ERROR);
- :mod:`server` — :class:`CapesServer`, the asyncio daemon, with
  :class:`ServeConfig`, :func:`run_server` (signal-driven CLI entry)
  and :class:`ServerThread` (background-loop harness for tests);
- :mod:`client` — :class:`ServeClient`, a monitored cluster's agent:
  differential encoding, decision round trips, fenced checkpoint
  adoption;
- :mod:`stats` — :class:`ServeStats` counters and the
  :class:`EventFeed`.
"""

from repro.serve.client import ServeClient, ServeClientError, ServerClosedError
from repro.serve.protocol import PROTO_VERSION, ProtocolError
from repro.serve.server import (
    SERVE_SNAPSHOT_NAME,
    CapesServer,
    ServeConfig,
    ServerThread,
    build_serve_agent,
    run_server,
)
from repro.serve.stats import EventFeed, LatencyWindow, ServeStats

__all__ = [
    "PROTO_VERSION",
    "ProtocolError",
    "SERVE_SNAPSHOT_NAME",
    "CapesServer",
    "ServeConfig",
    "ServerThread",
    "build_serve_agent",
    "run_server",
    "ServeClient",
    "ServeClientError",
    "ServerClosedError",
    "EventFeed",
    "LatencyWindow",
    "ServeStats",
]
