"""Client node: Object Storage Clients, write cache, tunable knobs.

Each client maintains one :class:`OSC` per server it talks to (§4.1 of
the paper: four servers, stripe count four, so four OSCs per client).
The two tunables CAPES adjusts live here:

- ``max_rpcs_in_flight`` — per-OSC congestion window, a
  :class:`~repro.sim.resources.Resource` whose capacity is resized at
  runtime by control actions;
- the **I/O rate limit** — a client-wide
  :class:`~repro.sim.resources.TokenBucket` (requests/second) that every
  outgoing data RPC must pass.

Writes are asynchronous: they land in a per-OSC write-back cache
(bounded by ``max_dirty_bytes``) and a flusher pipeline pushes them to
the server subject to rate limit and window.  Reads and metadata
operations are synchronous RPCs.  This asymmetry — writes can fill deep
server queues, synchronous reads cannot — is what makes congestion-window
tuning matter far more for write-heavy workloads (Figure 2).

Each OSC also maintains the paper's secondary performance indicators:
Ack EWMA (gaps between replies), Send EWMA (gaps between the send times
of replied requests) and the Process-Time ratio (current PT / minimum PT
seen), the three congestion signals CAPES patched into the Lustre client.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Generator, Optional, Tuple

from repro.cluster.metrics import Counter, MetricRegistry
from repro.cluster.network import Fabric
from repro.cluster.rpc import Reply, Request, RequestKind
from repro.sim.engine import Event, Simulator
from repro.sim.resources import Resource, Store, TokenBucket
from repro.util.ewma import EWMA
from repro.util.units import MiB
from repro.util.validation import check_positive

#: EWMA weight for the Ack/Send gap indicators; matches the fast-moving
#: congestion trackers in ASCAR, the paper's predecessor system.
GAP_EWMA_ALPHA = 0.125


class WriteCache:
    """Bounded dirty-byte accounting with FIFO blocking reservations."""

    def __init__(self, sim: Simulator, max_dirty_bytes: int):
        check_positive("max_dirty_bytes", max_dirty_bytes)
        self.sim = sim
        self.max_dirty = int(max_dirty_bytes)
        self.dirty = 0
        self._waiters: Deque[Tuple[int, Event]] = deque()

    def reserve(self, size: int) -> Event:
        """Claim ``size`` dirty bytes; blocks (FIFO) while the cache is full."""
        if size <= 0:
            raise ValueError(f"write size must be > 0, got {size}")
        if size > self.max_dirty:
            raise ValueError(
                f"single write of {size} B exceeds cache capacity "
                f"{self.max_dirty} B; split it first"
            )
        if not self._waiters and self.dirty + size <= self.max_dirty:
            self.dirty += size
            return self.sim._succeeded()
        ev = Event(self.sim)
        self._waiters.append((size, ev))
        return ev

    def cancel(self, reservation: Event, size: int) -> None:
        """Withdraw a ``reserve(size)`` whose writer gave up (interrupted).

        A reservation still queued leaves the queue; one already granted
        gives its bytes back.  Either way whoever now fits is served.
        """
        if reservation.triggered:
            self.dirty -= size
        else:
            self._waiters = deque(w for w in self._waiters if w[1] is not reservation)
        self._wake_waiters()

    def commit(self, size: int) -> None:
        """Mark ``size`` bytes clean (flushed to stable storage)."""
        if size > self.dirty:
            raise ValueError(f"commit({size}) exceeds dirty bytes {self.dirty}")
        self.dirty -= size
        self._wake_waiters()

    def _wake_waiters(self) -> None:
        while self._waiters and self.dirty + self._waiters[0][0] <= self.max_dirty:
            sz, ev = self._waiters.popleft()
            self.dirty += sz
            ev.succeed()


class OSC:
    """Object Storage Client: the client's endpoint for one server."""

    def __init__(
        self,
        sim: Simulator,
        client_id: int,
        server: "object",  # ServerNode; duck-typed to avoid import cycle
        fabric: Fabric,
        metrics: MetricRegistry,
        rate_bucket: TokenBucket,
        window_capacity: int = 8,
        max_dirty_bytes: int = 32 * MiB,
    ):
        self.sim = sim
        self.client_id = client_id
        self.server = server
        self.server_id = server.server_id
        self.node_id = f"client-{client_id}"
        self.fabric = fabric
        self.metrics = metrics
        self.rate_bucket = rate_bucket
        self.window = Resource(sim, capacity=window_capacity)
        self.cache = WriteCache(sim, max_dirty_bytes)
        self._flush_queue: Store = Store(sim)
        self._pending: Dict[int, Event] = {}

        # Secondary performance indicators (paper §4.1, items 7-9).
        self.ack_ewma = EWMA(GAP_EWMA_ALPHA)
        self.send_ewma = EWMA(GAP_EWMA_ALPHA)
        self._last_reply_time: Optional[float] = None
        self._last_replied_send: Optional[float] = None
        self._min_pt: Optional[float] = None
        self._last_pt: float = 0.0

        # Completion counters; monitoring agents read per-tick deltas.
        self.read_bytes_done = Counter()
        self.write_bytes_done = Counter()
        self.rpcs_sent = Counter()
        # Registry counters this OSC feeds, looked up once rather than by
        # formatted name on every RPC.
        self._cluster_read = metrics.counter("cluster.bytes_read")
        self._cluster_written = metrics.counter("cluster.bytes_written")
        self._client_read = metrics.counter(f"client.{client_id}.bytes_read")
        self._client_written = metrics.counter(f"client.{client_id}.bytes_written")
        self._client_meta = metrics.counter(f"client.{client_id}.meta_ops")

        sim.spawn(self._flusher(), name=f"{self.node_id}->s{self.server_id}.flush")

    # -- public I/O API (used by the striped filesystem) -----------------
    def read(self, obj_id: int, offset: int, size: int) -> Generator:
        """Synchronous read; completes when the data has arrived.

        The generator's value is ``size``, like the filesystem's.
        """
        return self._data_rpc(RequestKind.READ, obj_id, offset, size)

    def write(self, obj_id: int, offset: int, size: int) -> Generator:
        """Write-back write; completes once the cache accepted the bytes.

        The generator's value is ``size``, like the filesystem's.
        """
        reservation = self.cache.reserve(size)
        try:
            yield reservation
        except BaseException:
            self.cache.cancel(reservation, size)
            raise
        self._flush_queue.put((obj_id, offset, size))
        return size

    def meta(self, obj_id: int) -> Generator:
        """Synchronous metadata operation (stat/create/delete)."""
        return self._data_rpc(RequestKind.META, obj_id, 0, 0)

    def flush_barrier(self) -> Generator:
        """Wait until every currently dirty byte has been committed."""
        while self.cache.dirty > 0 or len(self._flush_queue) > 0:
            yield self.sim.timeout(0.01)

    # -- flusher pipeline --------------------------------------------------
    def _flusher(self):
        while True:
            chunk = yield self._flush_queue.get()
            yield self.rate_bucket.acquire(1.0)
            yield self.window.acquire()
            # A flushed RPC is two continuations, not a process: this start
            # hop (the Timeout(0) a spawned process would push) sends the
            # request, and _write_done finishes it.
            self.sim._succeeded(chunk).callbacks.append(self._start_write)

    def _start_write(self, start: Event) -> None:
        obj_id, offset, size = start._value
        done = self._send_request(RequestKind.WRITE, obj_id, offset, size)
        done.callbacks.append(self._write_done)

    def _write_done(self, done: Event) -> None:
        size = done._value.request.size
        self.window.release()
        self.cache.commit(size)
        self.write_bytes_done.add(size)
        self._cluster_written.add(size)
        self._client_written.add(size)
        # The exit event a per-RPC process pushed: nothing waits on it,
        # but its sequence number orders every later same-time push.
        self.sim._hop()

    # -- shared RPC plumbing -----------------------------------------------
    def _data_rpc(self, kind: RequestKind, obj_id: int, offset: int, size: int):
        """A synchronous RPC, the one generator :meth:`read` and :meth:`meta`
        return: rate token, window slot, round trip, then the op's
        completion counters.  A read's value is ``size``."""
        # An interrupt while queued must not leave the claim behind: a
        # token or slot granted later would be held by nobody.
        token = self.rate_bucket.acquire(1.0)
        try:
            yield token
        except BaseException:
            self.rate_bucket.cancel(token, 1.0)
            raise
        slot = self.window.acquire()
        try:
            yield slot
        except BaseException:
            self.window.cancel(slot)
            raise
        done = self._send_request(kind, obj_id, offset, size)
        # The slot is the RPC's, not the waiter's: it is released when the
        # reply arrives (just before the waiter resumes), also when the
        # waiter was interrupted in the meantime.
        done.callbacks.append(self._release_slot)
        yield done
        if kind is RequestKind.READ:
            self.read_bytes_done.add(size)
            self._cluster_read.add(size)
            self._client_read.add(size)
            return size
        self._client_meta.add(1)
        return None

    def _release_slot(self, _done: Event) -> None:
        self.window.release()

    def _send_request(
        self, kind: RequestKind, obj_id: int, offset: int, size: int
    ) -> Event:
        """Put one RPC on the wire; the returned event fires with its reply."""
        req = Request(
            kind=kind,
            obj_id=obj_id,
            offset=offset,
            size=size,
            client_id=self.client_id,
            server_id=self.server_id,
        )
        req.send_time = self.sim.now
        self.rpcs_sent.add(1)
        done = Event(self.sim)
        self._pending[req.req_id] = done
        self.fabric.send(
            self.node_id,
            self.server.node_id,
            req.wire_size,
            req,
            self._request_delivered,
        )
        return done

    def _request_delivered(self, sent: Event) -> None:
        self.server.deliver(sent._value)

    def on_reply(self, reply: Reply) -> None:
        """Fabric delivery callback: update PIs, wake the waiter."""
        now = self.sim.now
        if self._last_reply_time is not None:
            self.ack_ewma.update(now - self._last_reply_time)
        self._last_reply_time = now
        st = reply.request.send_time
        if self._last_replied_send is not None:
            self.send_ewma.update(st - self._last_replied_send)
        self._last_replied_send = st
        pt = reply.process_time
        if pt > 0:
            self._last_pt = pt
            if self._min_pt is None or pt < self._min_pt:
                self._min_pt = pt
        waiter = self._pending.pop(reply.request.req_id, None)
        if waiter is None:
            raise KeyError(f"reply for unknown request {reply.request.req_id}")
        waiter.succeed(reply)

    # -- indicators -----------------------------------------------------------
    @property
    def in_flight(self) -> int:
        return self.window.in_use

    @property
    def pt_ratio(self) -> float:
        """Current process time / shortest process time seen so far."""
        if self._min_pt is None or self._min_pt <= 0:
            return 1.0
        return self._last_pt / self._min_pt

    @property
    def ping_latency(self) -> float:
        """RTT estimate including current wire backlog (the ping PI)."""
        return self.fabric.ping_rtt_estimate(self.node_id, self.server.node_id)


class ClientNode:
    """One compute/application node with an OSC per server."""

    def __init__(
        self,
        sim: Simulator,
        client_id: int,
        servers,
        fabric: Fabric,
        metrics: MetricRegistry,
        window_capacity: int = 8,
        io_rate_limit: float = 10_000.0,
        rate_burst: float = 64.0,
        max_dirty_bytes: int = 32 * MiB,
    ):
        self.sim = sim
        self.client_id = client_id
        self.node_id = f"client-{client_id}"
        self.metrics = metrics
        fabric.register(self.node_id)
        self.rate_bucket = TokenBucket(sim, rate=io_rate_limit, capacity=rate_burst)
        self._window_capacity = int(window_capacity)
        self.oscs: Dict[int, OSC] = {}
        for server in servers:
            osc = OSC(
                sim,
                client_id,
                server,
                fabric,
                metrics,
                self.rate_bucket,
                window_capacity=window_capacity,
                max_dirty_bytes=max_dirty_bytes,
            )
            self.oscs[server.server_id] = osc
            server.register_client(client_id, osc)

    # -- tunable parameters (the paper's two knobs) ------------------------
    @property
    def max_rpcs_in_flight(self) -> int:
        return self._window_capacity

    def set_max_rpcs_in_flight(self, value: int) -> None:
        check_positive("max_rpcs_in_flight", value)
        self._window_capacity = int(value)
        for osc in self.oscs.values():
            osc.window.set_capacity(int(value))

    @property
    def io_rate_limit(self) -> float:
        return self.rate_bucket.rate

    def set_io_rate_limit(self, value: float) -> None:
        check_positive("io_rate_limit", value)
        self.rate_bucket.set_rate(float(value))

    # -- convenience ----------------------------------------------------------
    def flush_barrier(self) -> Generator:
        """Wait until all OSC write caches have fully drained."""
        for osc in self.oscs.values():
            yield from osc.flush_barrier()
