"""Wire formats: the worker codec and the serve framing.

- :mod:`repro.transport.codec` — the binary request/response vocabulary
  of the vectorized worker protocol (``reset`` / ``step`` /
  ``run_chunk`` / records fan-in), with NumPy payloads as raw buffers
  rather than pickles.  A forked worker and its master exchange these
  payloads as whole ``multiprocessing`` pipe messages (see
  :mod:`repro.env.worker`).
- :mod:`repro.transport.framing` — the length-prefixed framing the
  serve control-plane protocol (:mod:`repro.serve.protocol`) reads from
  and writes to its asyncio streams, with the oversize cap.
"""

from repro.transport.codec import (
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
    ProtocolError,
    encode_frame,
    read_frame_async,
)

__all__ = [
    "MAX_PAYLOAD",
    "MSG_ERR",
    "MSG_OK",
    "ProtocolError",
    "decode_command",
    "decode_error",
    "decode_reply",
    "decode_sections",
    "encode_command",
    "encode_error",
    "encode_frame",
    "encode_reply",
    "encode_sections",
    "read_frame_async",
]
