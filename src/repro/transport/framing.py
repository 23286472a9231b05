"""Length-prefixed message framing for the serve control plane.

Every framed message is a 5-byte prefix (``uint8`` message type +
``uint32`` payload length, little-endian) followed by the payload.
:func:`encode_frame` writes one; :func:`read_frame_async` reads one
from an :mod:`asyncio` stream, the serve daemon's (and client's) reader
of network input, where bytes arrive in any split.  The forked
collection workers need no framing of their own: their
``multiprocessing`` pipe already delivers whole messages.

Both sides enforce :data:`MAX_PAYLOAD`: an oversized length prefix is a
:class:`ProtocolError` (a desynchronised or malicious peer), raised
*before* any attempt to read the claimed payload.
"""

from __future__ import annotations

import struct
from typing import Tuple

__all__ = [
    "MAX_PAYLOAD",
    "PREFIX",
    "ProtocolError",
    "encode_frame",
    "read_frame_async",
]

#: The frame prefix: message type, payload length (little-endian).
PREFIX = struct.Struct("<BI")

#: Hard cap on a single payload; anything larger is a framing error
#: (a desynchronised or malicious peer), not a legitimate message.
MAX_PAYLOAD = 64 * 1024 * 1024


class ProtocolError(ValueError):
    """The peer sent bytes that do not parse as a protocol message."""


def encode_frame(
    msg_type: int, payload: bytes = b"", max_payload: int = MAX_PAYLOAD
) -> bytes:
    """One wire-ready framed message (prefix + payload)."""
    if len(payload) > max_payload:
        raise ProtocolError(
            f"payload of {len(payload)} bytes exceeds cap {max_payload}"
        )
    return PREFIX.pack(msg_type, len(payload)) + payload


async def read_frame_async(
    reader, max_payload: int = MAX_PAYLOAD
) -> Tuple[int, bytes]:
    """Read one framed message from an :class:`asyncio.StreamReader`.

    ``asyncio.IncompleteReadError`` propagates on a peer that vanished
    mid-frame — callers treat it exactly like a disconnect.  An
    oversized length prefix raises :class:`ProtocolError` before the
    payload is read.
    """
    prefix = await reader.readexactly(PREFIX.size)
    msg_type, length = PREFIX.unpack(prefix)
    if length > max_payload:
        raise ProtocolError(
            f"framed payload of {length} bytes exceeds cap {max_payload}"
        )
    payload = await reader.readexactly(length) if length else b""
    return msg_type, payload
