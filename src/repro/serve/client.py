"""Client side of the control plane: a monitored cluster's agent.

:class:`ServeClient` is the asyncio counterpart of the daemon: it
registers with HELLO, streams :mod:`repro.telemetry.wire` differential
frames (fresh encoder per connection, so the first frame after any
(re)connect covers every indicator and re-establishes server decoder
state), waits for the matching DECISION, and applies CHECKPOINT
hot-swaps under the PR-5 load-fence rule — a broadcast is adopted only
when its ``(epoch, version)`` is strictly newer than what the client
already runs, so a stale epoch can never overwrite fresher weights.

A RESYNC reply (the server lost this sender's decoder state, e.g. the
client survived a server-side eviction with its encoder intact) is
handled transparently: the frame is re-sent in full via
:meth:`~repro.telemetry.wire.DifferentialEncoder.encode_full` and the
exchange continues.
"""

from __future__ import annotations

import asyncio
from typing import Optional, Tuple

import numpy as np

from repro.serve import protocol
from repro.telemetry.wire import DifferentialEncoder
from repro.util.validation import check_positive


class ServeClientError(RuntimeError):
    """The server rejected us or sent something unintelligible."""


class ServerClosedError(ServeClientError):
    """The server said BYE (or vanished) mid-conversation."""


class ServeClient:
    """One cluster's connection to a :class:`~repro.serve.server.CapesServer`.

    ``agent`` is optional: when given, every adopted CHECKPOINT is
    loaded into it via
    :meth:`~repro.rl.agent.DQNAgent.adopt_network`; without it the
    newest blob is kept in :attr:`latest_checkpoint` for the caller.
    """

    def __init__(
        self,
        host: str,
        port: int,
        name: str,
        frame_width: int,
        agent=None,
        timeout: float = 30.0,
    ):
        if not name:
            raise ValueError("client name must be non-empty")
        check_positive("frame_width", frame_width)
        if timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        self.host = host
        self.port = int(port)
        self.name = name
        self.frame_width = int(frame_width)
        self.agent = agent
        self.timeout = float(timeout)
        self.encoder: Optional[DifferentialEncoder] = None
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self._idle: Optional[protocol.IdleDeadline] = None
        self.welcome: Optional[dict] = None
        #: Weight identity currently running, (-1, -1) before any adopt.
        self.weight_epoch = -1
        self.weight_version = -1
        #: Newest adopted ``(epoch, version, blob)``.
        self.latest_checkpoint: Optional[Tuple[int, int, bytes]] = None
        self.checkpoints_applied = 0
        self.stale_discarded = 0
        self.resyncs = 0
        self.decisions = 0

    @property
    def connected(self) -> bool:
        """Whether a live connection is up."""
        return self.writer is not None and not self.writer.is_closing()

    # -- lifecycle --------------------------------------------------------
    async def connect(self) -> dict:
        """HELLO/WELCOME handshake; returns the WELCOME body.

        Adopts the current-epoch CHECKPOINT the server sends right
        behind WELCOME, so a freshly connected client acts on live
        weights before its first frame.
        """
        self.reader, self.writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port), self.timeout
        )
        try:
            self._idle = protocol.IdleDeadline(
                self.reader, self.writer, self.timeout
            )
            # A fresh encoder per connection: its first message covers every
            # indicator, which is what re-establishes server decoder state.
            self.encoder = DifferentialEncoder(self.frame_width)
            self.writer.write(
                protocol.pack_json(
                    protocol.HELLO,
                    {
                        "name": self.name,
                        "frame_width": self.frame_width,
                        "proto": protocol.PROTO_VERSION,
                    },
                )
            )
            await self.writer.drain()
            msg_type, payload = await self._read()
            if msg_type == protocol.ERROR:
                raise ServeClientError(
                    protocol.unpack_json(payload).get("error", "rejected")
                )
            if msg_type != protocol.WELCOME:
                raise ServeClientError(
                    f"expected WELCOME, got "
                    f"{protocol.TYPE_NAMES.get(msg_type, msg_type)}"
                )
            self.welcome = protocol.unpack_json(payload)
            msg_type, payload = await self._read()
            if msg_type != protocol.CHECKPOINT:
                raise ServeClientError(
                    f"expected the handshake CHECKPOINT, got "
                    f"{protocol.TYPE_NAMES.get(msg_type, msg_type)}"
                )
            self._apply_checkpoint(payload)
            return self.welcome
        except BaseException:
            # Rejected, timed out or cancelled before the CHECKPOINT landed:
            # a failed connect() leaves nothing open and nothing half-set.
            if self.writer is not None:
                self.writer.transport.abort()
            self.reader = self.writer = self.encoder = None
            raise

    async def close(self) -> None:
        """Say BYE (best effort) and drop the connection."""
        writer = self.writer
        self.reader = self.writer = None
        if writer is None:
            return
        try:
            if not writer.is_closing():
                writer.write(protocol.pack_message(protocol.BYE))
                await writer.drain()
        except (ConnectionError, RuntimeError, OSError):
            pass
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    # -- the tick exchange -------------------------------------------------
    async def tick(
        self, tick: int, frame: np.ndarray, reward: float = 0.0
    ) -> Tuple[int, int, bool]:
        """Send one PI frame; return ``(tick, action, decided)``.

        Blocks until the server's DECISION for this tick arrives.
        CHECKPOINT broadcasts that interleave are applied on the spot;
        a RESYNC triggers a full-frame resend of the same tick.
        ``timeout`` seconds without a message raise
        ``asyncio.TimeoutError`` and drop the connection.
        """
        if self.reader is None or self.encoder is None:
            raise ServeClientError("not connected")
        frame = np.asarray(frame, dtype=np.float64)
        wire = self.encoder.encode(tick, frame)
        self.writer.write(protocol.pack_frame(tick, float(reward), wire))
        await self.writer.drain()
        while True:
            msg_type, payload = await self._read()
            if msg_type == protocol.CHECKPOINT:
                self._apply_checkpoint(payload)
                continue
            if msg_type == protocol.RESYNC:
                self.resyncs += 1
                wire = self.encoder.encode_full(tick, frame)
                self.writer.write(
                    protocol.pack_frame(tick, float(reward), wire)
                )
                await self.writer.drain()
                continue
            if msg_type == protocol.DECISION:
                got_tick, action, decided = protocol.unpack_decision(payload)
                if got_tick != tick:
                    raise ServeClientError(
                        f"DECISION for tick {got_tick}, expected {tick}"
                    )
                if decided:
                    self.decisions += 1
                return got_tick, action, decided
            if msg_type == protocol.BYE:
                raise ServerClosedError("server closed the session")
            if msg_type == protocol.ERROR:
                raise ServeClientError(
                    protocol.unpack_json(payload).get("error", "error")
                )
            raise ServeClientError(
                f"unexpected {protocol.TYPE_NAMES.get(msg_type, msg_type)} "
                f"message"
            )

    # -- internals ---------------------------------------------------------
    async def _read(self) -> Tuple[int, bytes]:
        """One message, due within ``timeout`` seconds.  A timeout can cut
        a message in half, so it drops the connection before it
        propagates: "not connected" from then on, until :meth:`connect`."""
        self._idle.arm()
        try:
            return await protocol.read_message(self.reader)
        except asyncio.TimeoutError:
            self.writer.transport.abort()
            self.reader = self.writer = None
            raise
        except (asyncio.IncompleteReadError, ConnectionError) as exc:
            raise ServerClosedError("server connection lost") from exc
        finally:
            self._idle.disarm()

    def _apply_checkpoint(self, payload: bytes) -> None:
        epoch, version, blob = protocol.unpack_checkpoint(payload)
        # The load fence: only strictly newer weight identities land.
        if (epoch, version) <= (self.weight_epoch, self.weight_version):
            self.stale_discarded += 1
            return
        self.weight_epoch, self.weight_version = epoch, version
        self.latest_checkpoint = (epoch, version, blob)
        if self.agent is not None:
            from repro.nn.checkpoint import checkpoint_from_bytes

            net, _ = checkpoint_from_bytes(blob)
            self.agent.adopt_network(net)
        self.checkpoints_applied += 1
