"""Framed-message transport layer for forked collection workers.

One framing format (:mod:`repro.transport.framing`), one message
abstraction (:mod:`repro.transport.base`), two media:

- :class:`PipeTransport` — ``multiprocessing`` pipes to forked
  collection workers (the ``fork`` backend of
  :class:`~repro.env.vector.VectorEnv`);
- :class:`LoopbackTransport` — an in-process queue pair for tests.

On top of the byte layer, :mod:`repro.transport.codec` defines the
binary request/response vocabulary of the vectorized worker protocol
(``reset`` / ``step`` / ``run_chunk`` / records fan-in), with NumPy
payloads as raw buffers rather than pickles.
The serve control-plane protocol (:mod:`repro.serve.protocol`) frames
its messages through the same :mod:`~repro.transport.framing` module,
so the length-prefix layout and the oversize cap live in exactly one
place.
"""

from repro.transport.base import (
    StreamTransport,
    Transport,
    TransportClosedError,
)
from repro.transport.codec import (
    MSG_CMD,
    MSG_ERR,
    MSG_OK,
    decode_command,
    decode_error,
    decode_reply,
    decode_sections,
    encode_command,
    encode_error,
    encode_reply,
    encode_sections,
)
# PREFIX (the struct.Struct of the 5-byte frame prefix) stays a
# framing-module detail: its repr is instance-specific, so it is not
# part of the indexed package surface.
from repro.transport.framing import (
    MAX_PAYLOAD,
    FrameDecoder,
    ProtocolError,
    encode_frame,
    read_frame_async,
)
from repro.transport.loopback import LoopbackTransport, loopback_pair
from repro.transport.pipe import PipeTransport, pipe_pair

__all__ = [
    "FrameDecoder",
    "LoopbackTransport",
    "MAX_PAYLOAD",
    "MSG_CMD",
    "MSG_ERR",
    "MSG_OK",
    "PipeTransport",
    "ProtocolError",
    "StreamTransport",
    "Transport",
    "TransportClosedError",
    "decode_command",
    "decode_error",
    "decode_reply",
    "decode_sections",
    "encode_command",
    "encode_error",
    "encode_frame",
    "encode_reply",
    "encode_sections",
    "loopback_pair",
    "pipe_pair",
    "read_frame_async",
]
