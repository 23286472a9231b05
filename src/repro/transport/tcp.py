"""The socket transport: framed messages over TCP.

The distribution medium: a collection shard on another box speaks
exactly the protocol a forked worker speaks over its pipe, carried by
:class:`SocketTransport` instead of
:class:`~repro.transport.pipe.PipeTransport`.  :class:`SocketListener`
is the accept side a shard host binds.

Close discipline (the drain-then-close rule): ``close()`` flushes by
virtue of blocking ``sendall`` writes, signals EOF with a write-side
shutdown, and only then closes the descriptor — so a peer mid-read
sees a clean end-of-stream at a frame boundary, never a reset.
"""

from __future__ import annotations

import socket
from typing import Optional, Tuple

from repro.transport.base import Listener, StreamTransport, TransportClosedError
from repro.transport.framing import MAX_PAYLOAD

__all__ = ["SocketTransport", "SocketListener", "parse_address"]

#: Bytes per ``recv`` on the read side.
_CHUNK = 1 << 16


def parse_address(address: str) -> Tuple[str, int]:
    """Split a ``host:port`` string (the CLI shard-address form)."""
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"shard address {address!r} is not of the form host:port"
        )
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(
            f"shard address {address!r} has a non-integer port"
        ) from None


class SocketTransport(StreamTransport):
    """Framed messages over one connected TCP socket."""

    def __init__(self, sock: socket.socket, max_payload: int = MAX_PAYLOAD):
        super().__init__(max_payload)
        self._sock = sock
        # Framed request/response traffic is latency-bound, and every
        # message is one buffered sendall: never Nagle-delay it.
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - non-TCP test sockets
            pass

    @classmethod
    def connect(
        cls,
        address: str,
        timeout: Optional[float] = None,
        max_payload: int = MAX_PAYLOAD,
    ) -> "SocketTransport":
        """Dial ``host:port`` and return the connected transport.

        ``timeout`` bounds the connect; the established transport
        itself blocks indefinitely (workers answer when they answer).
        """
        host, port = parse_address(address)
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise TransportClosedError(
                f"cannot connect to shard {address}: {exc}"
            ) from exc
        sock.settimeout(None)
        return cls(sock, max_payload)

    def _write_bytes(self, data: bytes) -> None:
        """Ship raw bytes to the peer (may block)."""
        self._sock.sendall(data)

    def _read_chunk(self) -> bytes:
        """Next raw chunk from the peer; ``b""`` means EOF."""
        return self._sock.recv(_CHUNK)

    def _close_medium(self) -> None:
        """Tear down the underlying medium (called exactly once)."""
        try:
            # Drain-then-close: sends already hit the kernel buffer
            # (blocking sendall); shutting down the write side flushes
            # them to the peer as a clean EOF before the close.
            self._sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        self._sock.close()


class SocketListener(Listener):
    """A bound TCP listener yielding one :class:`SocketTransport` per
    accepted peer.  ``port=0`` binds an ephemeral port; read the real
    one back from :attr:`address` (or :attr:`port`)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        backlog: int = 8,
        max_payload: int = MAX_PAYLOAD,
    ):
        self._max_payload = max_payload
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(backlog)
        self._host = host
        self._port = int(self._sock.getsockname()[1])
        self._closed = False

    @property
    def port(self) -> int:
        """The bound port (resolved when constructed with ``port=0``)."""
        return self._port

    @property
    def address(self) -> str:
        """The ``host:port``-style address peers connect to."""
        return f"{self._host}:{self._port}"

    def accept(self) -> SocketTransport:
        """Block for the next inbound connection."""
        if self._closed:
            raise TransportClosedError("accept on a closed listener")
        try:
            sock, _peer = self._sock.accept()
        except OSError as exc:
            raise TransportClosedError(f"listener closed: {exc}") from exc
        return SocketTransport(sock, self._max_payload)

    def close(self) -> None:
        """Stop accepting (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            # Wakes a thread blocked in accept(); close() alone leaves
            # it waiting on Linux.
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
