"""The loopback transport: an in-process framed channel for tests.

A connected pair of queues, no OS resources: the cheapest way to put
the full framing/codec stack under a microscope (byte-split property
tests, protocol unit tests) with semantics identical to the pipe
transport — because both share
:class:`~repro.transport.base.StreamTransport`.
"""

from __future__ import annotations

import queue
from typing import Tuple

from repro.transport.base import StreamTransport
from repro.transport.framing import MAX_PAYLOAD

__all__ = ["LoopbackTransport", "loopback_pair"]

#: The EOF sentinel a closing side enqueues for its peer.
_EOF = None


class LoopbackTransport(StreamTransport):
    """One end of an in-process transport pair (see
    :func:`loopback_pair`).  Thread-safe: the two ends may live on
    different threads, like a real master/worker split."""

    def __init__(self, rx: "queue.SimpleQueue", tx: "queue.SimpleQueue",
                 max_payload: int = MAX_PAYLOAD):
        super().__init__(max_payload)
        self._rx = rx
        self._tx = tx
        self._eof_seen = False

    def _write_bytes(self, data: bytes) -> None:
        """Ship raw bytes to the peer (may block)."""
        self._tx.put(bytes(data))

    def _read_chunk(self) -> bytes:
        """Next raw chunk from the peer; ``b""`` means EOF."""
        if self._eof_seen:
            return b""
        item = self._rx.get()
        if item is _EOF:
            self._eof_seen = True
            return b""
        return item

    def _close_medium(self) -> None:
        """Tear down the underlying medium (called exactly once)."""
        self._tx.put(_EOF)


def loopback_pair(
    max_payload: int = MAX_PAYLOAD,
) -> Tuple[LoopbackTransport, LoopbackTransport]:
    """A connected in-process transport pair (no OS resources)."""
    ab: "queue.SimpleQueue" = queue.SimpleQueue()
    ba: "queue.SimpleQueue" = queue.SimpleQueue()
    return (
        LoopbackTransport(rx=ba, tx=ab, max_payload=max_payload),
        LoopbackTransport(rx=ab, tx=ba, max_payload=max_payload),
    )
