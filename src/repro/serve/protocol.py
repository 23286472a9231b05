"""Framed control-plane messages between serve clients and the daemon.

Transport framing is deliberately dumb: every message is a 5-byte
prefix (``uint8`` type + ``uint32`` payload length, little-endian)
followed by the payload.  Control messages (HELLO/WELCOME/ERROR) carry
UTF-8 JSON; the hot-path messages are packed structs:

=============  =========  ==================================================
message        direction  payload
=============  =========  ==================================================
``HELLO``      c → s      JSON: ``name``, ``frame_width``, ``proto``
``WELCOME``    s → c      JSON: ``cluster`` slot, geometry, ``resync`` flag
``FRAME``      c → s      ``<qd`` tick, reward + :mod:`repro.telemetry.wire`
                          differential message bytes (§3.3)
``DECISION``   s → c      ``<qqB`` tick, action, decided flag (0 while the
                          server's observation window is still warming)
``RESYNC``     s → c      empty — the server lost this sender's decoder
                          state; reset the encoder and resend in full
``CHECKPOINT`` s → c      ``<qq`` weight epoch, version +
                          :mod:`repro.nn.checkpoint` npz bytes
``BYE``        either     empty — deliberate goodbye (clean churn)
``ERROR``      s → c      JSON: ``error`` text; the connection closes next
=============  =========  ==================================================

Both sides enforce :data:`MAX_PAYLOAD`: an oversized length prefix is
a :class:`ProtocolError` (a desynchronised or malicious peer), raised
before any attempt to read the claimed payload.

Every ``FRAME`` gets exactly one ``DECISION`` (or ``RESYNC``) reply, so
a client has at most one frame in flight — the request/response shape
that makes client-measured decision latency meaningful — while
``CHECKPOINT`` messages may arrive at any point between replies.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Optional, Tuple

PROTO_VERSION = 1

#: The frame prefix: message type, payload length (little-endian).
PREFIX = struct.Struct("<BI")

#: Hard cap on a single payload; anything larger is a framing error
#: (a desynchronised or malicious peer), not a legitimate message.
MAX_PAYLOAD = 64 * 1024 * 1024

HELLO = 1
WELCOME = 2
FRAME = 3
DECISION = 4
RESYNC = 5
CHECKPOINT = 6
BYE = 7
ERROR = 8

#: Human-readable message-type names (logs, events, tests).
TYPE_NAMES = {
    HELLO: "hello",
    WELCOME: "welcome",
    FRAME: "frame",
    DECISION: "decision",
    RESYNC: "resync",
    CHECKPOINT: "checkpoint",
    BYE: "bye",
    ERROR: "error",
}


class ProtocolError(ValueError):
    """The peer sent bytes that do not parse as a protocol message."""


_FRAME_HEAD = struct.Struct("<qd")  # tick, reward
_DECISION = struct.Struct("<qqB")  # tick, action, decided flag
_CHECKPOINT_HEAD = struct.Struct("<qq")  # weight epoch, version


class IdleDeadline:
    """One idle timer per connection, in place of ``wait_for`` per read.

    :meth:`arm` only stamps when the awaited message is due; the single
    ``loop.call_later`` handle re-arms itself for whatever is left when
    it fires.  Once ``timeout`` seconds pass with nothing received, the
    connection's pending (or next) read raises ``asyncio.TimeoutError``.
    A transport still holding unsent bytes by then belongs to a peer
    that is not reading and is aborted — which is also what wakes an
    owner waiting in ``drain()``, where no reader exception reaches it.
    """

    def __init__(self, reader, writer, timeout: float):
        self._reader, self._writer, self._timeout = reader, writer, timeout
        self._loop = asyncio.get_running_loop()
        self._due: Optional[float] = None  # None: nothing is awaited
        self._handle: Optional[asyncio.TimerHandle] = None

    def arm(self) -> None:
        """A message is awaited: it is due ``timeout`` seconds from now."""
        self._due = self._loop.time() + self._timeout
        if self._handle is None:
            self._handle = self._loop.call_later(self._timeout, self._check)

    def disarm(self) -> None:
        """Nothing is awaited any more; a live handle lapses by itself."""
        self._due = None

    def _check(self) -> None:
        self._handle = None
        if self._due is None:
            return
        left = self._due - self._loop.time()
        if left > 0:
            self._handle = self._loop.call_later(left, self._check)
            return
        self._due = None
        self._reader.set_exception(asyncio.TimeoutError())
        if self._writer.transport.get_write_buffer_size():
            self._writer.transport.abort()


def pack_message(
    msg_type: int, payload: bytes = b"", max_payload: int = MAX_PAYLOAD
) -> bytes:
    """One wire-ready framed message (prefix + payload); a payload over
    ``max_payload`` bytes is a :class:`ProtocolError`."""
    if len(payload) > max_payload:
        raise ProtocolError(
            f"payload of {len(payload)} bytes exceeds cap {max_payload}"
        )
    return PREFIX.pack(msg_type, len(payload)) + payload


async def read_message(
    reader: asyncio.StreamReader, max_payload: int = MAX_PAYLOAD
) -> Tuple[int, bytes]:
    """Read one framed message from an asyncio stream.

    ``asyncio.IncompleteReadError`` propagates on a peer that vanished
    mid-frame — callers treat it exactly like a disconnect.  A length
    prefix over ``max_payload`` raises :class:`ProtocolError` before
    the payload is read.
    """
    msg_type, length = PREFIX.unpack(await reader.readexactly(PREFIX.size))
    if length > max_payload:
        raise ProtocolError(
            f"framed payload of {length} bytes exceeds cap {max_payload}"
        )
    payload = await reader.readexactly(length) if length else b""
    return msg_type, payload


def pack_json(msg_type: int, obj: dict) -> bytes:
    """A JSON-payload control message."""
    return pack_message(
        msg_type, json.dumps(obj, separators=(",", ":")).encode("utf-8")
    )


def unpack_json(payload: bytes) -> dict:
    """Parse a JSON control payload (raises :class:`ProtocolError`)."""
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed JSON control payload: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"control payload must be a JSON object, got "
            f"{type(obj).__name__}"
        )
    return obj


def pack_frame(tick: int, reward: float, wire_msg: bytes) -> bytes:
    """A FRAME message: tick + reward + differential wire bytes."""
    return pack_message(FRAME, _FRAME_HEAD.pack(tick, reward) + wire_msg)


def unpack_frame(payload: bytes) -> Tuple[int, float, bytes]:
    """``(tick, reward, wire_msg)`` from a FRAME payload."""
    if len(payload) <= _FRAME_HEAD.size:
        raise ProtocolError(
            f"FRAME payload of {len(payload)} bytes is too short"
        )
    tick, reward = _FRAME_HEAD.unpack_from(payload, 0)
    return tick, reward, payload[_FRAME_HEAD.size :]


def pack_decision(tick: int, action: int, decided: bool) -> bytes:
    """A DECISION reply (``decided=False`` while the window warms)."""
    return pack_message(DECISION, _DECISION.pack(tick, action, int(decided)))


def unpack_decision(payload: bytes) -> Tuple[int, int, bool]:
    """``(tick, action, decided)`` from a DECISION payload."""
    if len(payload) != _DECISION.size:
        raise ProtocolError(
            f"DECISION payload of {len(payload)} bytes, "
            f"expected {_DECISION.size}"
        )
    tick, action, decided = _DECISION.unpack(payload)
    return tick, action, bool(decided)


def pack_checkpoint(epoch: int, version: int, blob: bytes) -> bytes:
    """A CHECKPOINT broadcast: versioned npz weight bytes."""
    return pack_message(
        CHECKPOINT, _CHECKPOINT_HEAD.pack(epoch, version) + blob
    )


def unpack_checkpoint(payload: bytes) -> Tuple[int, int, bytes]:
    """``(epoch, version, blob)`` from a CHECKPOINT payload."""
    if len(payload) < _CHECKPOINT_HEAD.size:
        raise ProtocolError(
            f"CHECKPOINT payload of {len(payload)} bytes is too short"
        )
    epoch, version = _CHECKPOINT_HEAD.unpack_from(payload, 0)
    return epoch, version, payload[_CHECKPOINT_HEAD.size :]
