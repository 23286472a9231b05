"""The pipe transport: framed messages over ``multiprocessing`` pipes.

This wraps the fork backend's medium — one ``multiprocessing.Pipe``
per worker — behind the :class:`~repro.transport.base.Transport`
interface: one OS message per frame on the send side, with the stream
decoder tolerating any split on the receive side (a property test
ships frames one byte per pipe message).
"""

from __future__ import annotations

import multiprocessing
from typing import Optional, Tuple

from repro.transport.base import StreamTransport
from repro.transport.framing import MAX_PAYLOAD

__all__ = ["PipeTransport", "pipe_pair"]


class PipeTransport(StreamTransport):
    """Framed messages over one end of a ``multiprocessing.Pipe``.

    ``conn`` is a ``multiprocessing.connection.Connection``; each
    framed message normally rides in one ``send_bytes`` OS message,
    but the receive side reassembles from arbitrary chunk splits like
    every other :class:`~repro.transport.base.StreamTransport`.
    """

    def __init__(self, conn, max_payload: int = MAX_PAYLOAD):
        super().__init__(max_payload)
        self._conn = conn

    def _write_bytes(self, data: bytes) -> None:
        """Ship raw bytes to the peer (may block)."""
        self._conn.send_bytes(data)

    def _read_chunk(self) -> bytes:
        """Next raw chunk from the peer; ``b""`` means EOF."""
        try:
            return self._conn.recv_bytes()
        except EOFError:
            return b""

    def _close_medium(self) -> None:
        """Tear down the underlying medium (called exactly once)."""
        self._conn.close()


def pipe_pair(
    context: Optional[multiprocessing.context.BaseContext] = None,
) -> Tuple[PipeTransport, PipeTransport]:
    """A connected in-process transport pair over a real OS pipe.

    The two ends are what a master/worker pair would hold after a
    fork — useful for exercising the pipe path without a child
    process.
    """
    ctx = context if context is not None else multiprocessing
    a, b = ctx.Pipe()
    return PipeTransport(a), PipeTransport(b)
