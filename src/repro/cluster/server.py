"""Object Storage Server (OSS) node.

One worker loop drains the inbound RPC queue in batches, hands each
batch to the disk model's elevator planner, holds the disk busy for each
planned duration, and sends replies back over the fabric.  Write-through
semantics per the paper (§4.2): a write reply is only sent once the data
has hit the disk — the server never buffers dirty data.

Congestion collapse (§2 "a common curse among network and storage
researchers") is modelled as a per-request processing overhead that grows
linearly once the inbound queue exceeds ``collapse_threshold``:
memory-pressure, lock-contention and request-management costs all scale
with the number of outstanding requests.  This is the mechanism that
makes blindly maxing the congestion window *hurt*, giving the tuning
problem the interior optimum CAPES must find.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.cluster.disk import DiskModel
from repro.cluster.metrics import MetricRegistry
from repro.cluster.network import Fabric
from repro.cluster.rpc import Reply, Request, RequestKind
from repro.sim.engine import Event, Simulator, Timeout
from repro.sim.resources import Store
from repro.util.validation import check_nonnegative, check_positive

class ServerNode:
    """A single OSS: inbound queue + elevator-scheduled disk worker."""

    def __init__(
        self,
        sim: Simulator,
        server_id: int,
        disk: DiskModel,
        fabric: Fabric,
        metrics: MetricRegistry,
        batch_max: int = 16,
        collapse_threshold: int = 24,
        collapse_coeff_ms: float = 0.18,
    ):
        check_positive("batch_max", batch_max)
        check_nonnegative("collapse_threshold", collapse_threshold)
        check_nonnegative("collapse_coeff_ms", collapse_coeff_ms)
        self.sim = sim
        self.server_id = server_id
        self.node_id = f"server-{server_id}"
        self.disk = disk
        self.fabric = fabric
        self.metrics = metrics
        self.batch_max = int(batch_max)
        self.collapse_threshold = int(collapse_threshold)
        self.collapse_coeff = collapse_coeff_ms / 1e3
        self.queue: Store = Store(sim)
        # client id -> (fabric node id, delivery callback), built once per
        # client rather than per reply.
        self._reply_routes: dict[int, Tuple[str, Callable[[Event], None]]] = {}
        self._in_service = 0
        self._min_process_time: Optional[float] = None
        # Registry counters, looked up once rather than by formatted name
        # on every RPC.
        self._rpc_in = metrics.counter(f"server.{server_id}.rpc_in")
        self._bytes_read = metrics.counter(f"server.{server_id}.bytes_read")
        self._bytes_written = metrics.counter(f"server.{server_id}.bytes_written")
        fabric.register(self.node_id)
        sim.spawn(self._worker(), name=f"{self.node_id}.worker")

    # -- wiring ----------------------------------------------------------
    def register_client(self, client_id: int, osc) -> None:
        """Tell the server which of the client's OSCs takes its replies.

        ``osc.on_reply`` is looked up per reply, not bound here, so a
        handler installed later (:class:`~repro.cluster.RequestTracer`)
        sees every reply.
        """
        self._reply_routes[client_id] = (
            f"client-{client_id}",
            lambda delivered: osc.on_reply(delivered._value),
        )

    # -- ingress -----------------------------------------------------------
    def deliver(self, request: Request) -> None:
        """Called by the client's fabric-send callback on RPC arrival."""
        request.arrive_time = self.sim.now
        self._rpc_in.add(1)
        if request.kind is RequestKind.PING:
            # Pings are answered by the RPC service threads directly and
            # never touch the disk queue (like Lustre's OBD_PING).
            self._send_reply(Reply(request, self.sim.now, 0.0))
            return
        self.queue.put(request)

    @property
    def queue_depth(self) -> int:
        """Requests queued plus requests inside the current batch."""
        return len(self.queue) + self._in_service

    # -- service loop --------------------------------------------------------
    def _worker(self):
        sim = self.sim
        queue = self.queue
        # The store's deque, read directly: its length is checked on
        # every batch slot and every planned request.
        queued = queue._items
        while True:
            first: Request = yield queue.get()
            batch: List[Request] = [first]
            while len(batch) < self.batch_max and queued:
                more = yield queue.get()
                batch.append(more)
            self._in_service = len(batch)
            plan = self.disk.plan_batch(batch)
            for req, dur in plan:
                req.dequeue_time = start = sim.now
                # Collapse overhead on the queue depth (queued + in batch).
                excess = len(queued) + self._in_service - self.collapse_threshold
                overhead = self.collapse_coeff * excess if excess > 0 else 0.0
                yield Timeout(dur + overhead, None, sim)
                self._in_service -= 1
                pt = sim.now - start
                if pt > 0 and (
                    self._min_process_time is None or pt < self._min_process_time
                ):
                    self._min_process_time = pt
                self._complete(req, pt)

    @property
    def min_process_time(self) -> Optional[float]:
        """Shortest data-request service time seen (PT-ratio denominator)."""
        return self._min_process_time

    def _complete(self, req: Request, process_time: float) -> None:
        if req.kind is RequestKind.READ:
            self._bytes_read.add(req.size)
        elif req.kind is RequestKind.WRITE:
            self._bytes_written.add(req.size)
        self._send_reply(Reply(req, self.sim.now, process_time))

    def _send_reply(self, reply: Reply) -> None:
        cid = reply.request.client_id
        route = self._reply_routes.get(cid)
        if route is None:
            raise KeyError(
                f"server {self.server_id} has no reply sink for client {cid}"
            )
        client_node, on_delivery = route
        self.fabric.send(self.node_id, client_node, reply.wire_size, reply, on_delivery)
