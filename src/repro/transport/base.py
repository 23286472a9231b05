"""The transport abstraction: framed messages over any byte medium.

A :class:`Transport` moves whole framed messages — ``(msg_type,
payload)`` pairs in the :mod:`repro.transport.framing` layout —
between two peers, hiding what carries the bytes: a
``multiprocessing`` pipe to a forked child, or an in-process queue pair
in tests.

Every concrete transport here is a :class:`StreamTransport`: the
medium delivers arbitrary byte chunks and one shared
:class:`~repro.transport.framing.FrameDecoder` reassembles messages,
so partial reads, coalesced frames and oversized-frame rejection
behave identically on every backend — the property the framing tests
pin.

Close discipline: :meth:`Transport.close` is idempotent and
drain-then-close — buffered outbound bytes are flushed before the
underlying medium is torn down.  A peer that disappears *between*
frames surfaces as :class:`TransportClosedError` (a normal
disconnect); disappearing *mid-frame* is a
:class:`~repro.transport.framing.ProtocolError` (truncated message).
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Deque, Tuple

from repro.transport.framing import (
    MAX_PAYLOAD,
    FrameDecoder,
    ProtocolError,
    encode_frame,
)

__all__ = [
    "Transport",
    "StreamTransport",
    "TransportClosedError",
]


class TransportClosedError(ConnectionError):
    """The peer (or this side) closed the transport; no more messages."""


class Transport(abc.ABC):
    """One bidirectional framed-message channel to a single peer."""

    @abc.abstractmethod
    def send(self, msg_type: int, payload: bytes = b"") -> None:
        """Frame and send one message (raises once closed)."""

    @abc.abstractmethod
    def recv(self) -> Tuple[int, bytes]:
        """Block for the next message; :class:`TransportClosedError`
        on a clean peer close, :class:`ProtocolError` mid-frame."""

    @abc.abstractmethod
    def close(self) -> None:
        """Drain buffered sends and release the medium (idempotent)."""

    @property
    @abc.abstractmethod
    def closed(self) -> bool:
        """True once :meth:`close` ran (or the peer vanished)."""

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class StreamTransport(Transport):
    """Shared chunk-stream machinery behind every concrete transport.

    Subclasses implement three medium primitives — ``_write_bytes``
    (ship raw bytes), ``_read_chunk`` (return the next chunk, ``b""``
    on EOF), ``_close_medium`` — and inherit identical framing,
    buffering, close-idempotence and truncation semantics.
    """

    def __init__(self, max_payload: int = MAX_PAYLOAD):
        self._decoder = FrameDecoder(max_payload)
        self._ready: Deque[Tuple[int, bytes]] = deque()
        #: No more messages either way: this side closed, or the peer
        #: went away (EOF on recv, a failed write on send).
        self._closed = False
        #: The medium itself was torn down.  Separate from
        #: ``_closed``: a peer that vanished still leaves this side's
        #: descriptor open until :meth:`close` releases it.
        self._released = False

    # -- medium primitives (subclass responsibility) --------------------
    @abc.abstractmethod
    def _write_bytes(self, data: bytes) -> None:
        """Ship raw bytes to the peer (may block)."""

    @abc.abstractmethod
    def _read_chunk(self) -> bytes:
        """Next raw chunk from the peer; ``b""`` means EOF."""

    @abc.abstractmethod
    def _close_medium(self) -> None:
        """Tear down the underlying medium (called exactly once)."""

    # -- the Transport surface ------------------------------------------
    def send(self, msg_type: int, payload: bytes = b"") -> None:
        """Frame and send one message (raises once closed)."""
        if self._closed:
            raise TransportClosedError("send on a closed transport")
        frame = encode_frame(msg_type, payload, self._decoder.max_payload)
        try:
            self._write_bytes(frame)
        except (BrokenPipeError, ConnectionError, EOFError, OSError) as exc:
            self._closed = True
            raise TransportClosedError(
                f"peer went away during send: {exc}"
            ) from exc

    def recv(self) -> Tuple[int, bytes]:
        """Block for the next message; :class:`TransportClosedError`
        on a clean peer close, :class:`ProtocolError` mid-frame."""
        while not self._ready:
            if self._closed:
                raise TransportClosedError("recv on a closed transport")
            try:
                chunk = self._read_chunk()
            except (ConnectionError, EOFError, OSError):
                chunk = b""
            if not chunk:
                self._closed = True
                if not self._decoder.at_boundary:
                    raise ProtocolError(
                        f"peer closed mid-frame with "
                        f"{self._decoder.buffered} byte(s) of an "
                        f"incomplete message buffered"
                    )
                raise TransportClosedError("peer closed the transport")
            self._ready.extend(self._decoder.feed(chunk))
        return self._ready.popleft()

    def close(self) -> None:
        """Drain buffered sends and release the medium (idempotent)."""
        if self._released:
            return
        self._closed = self._released = True
        try:
            self._close_medium()
        except OSError:  # pragma: no cover - teardown best-effort
            pass

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran (or the peer vanished)."""
        return self._closed
