"""RPC request/reply records exchanged between OSCs and servers.

Slotted dataclasses (two are built per RPC) — the network layer treats
them as opaque payloads with a wire size; the server inspects
kind/offset/size for scheduling.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional

# Fixed protocol overhead per message on the wire, independent of payload.
RPC_HEADER_BYTES = 256


class RequestKind(enum.Enum):
    """I/O operation class carried by an RPC."""

    READ = "read"
    WRITE = "write"
    PING = "ping"
    META = "meta"  # stat/create/delete — small, latency-bound ops


_request_ids = itertools.count()


@dataclass(slots=True)
class Request:
    """One RPC from an OSC to its server.

    ``obj_id``/``offset``/``size`` describe the storage extent touched;
    the scheduler uses them for elevator sorting and contiguity merging.
    Timestamps are filled in as the request moves through the system and
    feed the secondary performance indicators (Ack/Send EWMA, PT ratio).
    """

    kind: RequestKind
    obj_id: int
    offset: int
    size: int
    client_id: int
    server_id: int
    req_id: int = field(default_factory=_request_ids.__next__)
    send_time: float = -1.0  # when the OSC put it on the wire
    arrive_time: float = -1.0  # when the server received it
    dequeue_time: float = -1.0  # when the server started service

    @property
    def wire_size(self) -> int:
        """Bytes occupying the client→server direction.

        Writes carry their payload; reads/pings/metadata are header-only.
        """
        if self.kind is RequestKind.WRITE:
            return RPC_HEADER_BYTES + self.size
        return RPC_HEADER_BYTES

    @property
    def end_offset(self) -> int:
        return self.offset + self.size


@dataclass(slots=True)
class Reply:
    """Server's response to a :class:`Request`."""

    request: Request
    complete_time: float  # when the disk finished servicing the request
    process_time: float  # dequeue -> disk completion (the paper's PT)

    @property
    def wire_size(self) -> int:
        """Bytes occupying the server→client direction (reads carry data)."""
        if self.request.kind is RequestKind.READ:
            return RPC_HEADER_BYTES + self.request.size
        return RPC_HEADER_BYTES
