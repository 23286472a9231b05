"""Network fabric: serial NIC links with propagation latency.

Each node owns a full-duplex NIC modelled as two independent serial
links (egress and ingress).  A message transmission:

1. occupies the sender's egress link for ``size / bandwidth`` seconds
   (serialisation), queuing FIFO behind earlier messages;
2. propagates for a fixed ``latency``;
3. occupies the receiver's ingress link for its serialisation time —
   this is where *incast* congestion appears when five clients push
   writes at four servers simultaneously, the dominant network effect in
   the paper's write-heavy experiments;
4. is delivered.

Per-link serialisation automatically caps aggregate fabric throughput at
the sum of NIC rates, matching the testbed's measured ~500 MB/s without
a separate global limiter.  Queueing delay at the ingress links is what
the Ack-EWMA performance indicator picks up as congestion builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush
from typing import Any, Callable, Dict, List, Optional

from repro.sim.engine import Event, Simulator
from repro.util.units import mb_per_s
from repro.util.validation import check_nonnegative, check_positive


@dataclass
class LinkStats:
    """Cumulative per-link counters."""

    messages: int = 0
    bytes: int = 0
    queue_delay: float = 0.0  # total time spent waiting for the wire
    busy_time: float = 0.0


class Link:
    """A serial transmission line with FIFO queueing.

    Bookkeeping is a single ``busy_until`` timestamp — no process or
    queue object needed, which keeps the per-message event count low
    (important: the cluster pushes ~10³ messages per simulated second).
    """

    def __init__(self, sim: Simulator, bandwidth: float, name: str = "link"):
        check_positive("bandwidth", bandwidth)
        self.sim = sim
        self.bandwidth = float(bandwidth)
        self.name = name
        self._busy_until = 0.0
        self.stats = LinkStats()

    @property
    def queue_depth_seconds(self) -> float:
        """How far ahead of now the link is already committed."""
        return max(0.0, self._busy_until - self.sim.now)

    def reserve(self, size: int) -> float:
        """Book ``size`` bytes onto the wire; return the completion time."""
        if not size >= 0:  # validated only when it fails; also rejects NaN
            check_nonnegative("size", size)
        now = self.sim.now
        start = self._busy_until
        if start < now:
            start = now
        ser = size / self.bandwidth
        stats = self.stats
        stats.messages += 1
        stats.bytes += size
        stats.queue_delay += start - now
        stats.busy_time += ser
        self._busy_until = done = start + ser
        return done


class Fabric:
    """All NICs plus the propagation delay between any two nodes.

    ``register(node_id)`` creates the node's link pair; ``send`` moves a
    message from one node to another and hands the payload to its
    ``on_delivery`` callback on arrival.
    """

    def __init__(
        self,
        sim: Simulator,
        nic_mbps: float = 117.0,
        latency_s: float = 0.0002,
    ):
        check_nonnegative("latency_s", latency_s)
        self.sim = sim
        self.nic_bw = mb_per_s(nic_mbps)
        self.latency = float(latency_s)
        self._egress: Dict[Any, Link] = {}
        self._ingress: Dict[Any, Link] = {}

    def register(self, node_id: Any) -> None:
        if node_id in self._egress:
            raise ValueError(f"node {node_id!r} already registered")
        self._egress[node_id] = Link(self.sim, self.nic_bw, f"{node_id}.out")
        self._ingress[node_id] = Link(self.sim, self.nic_bw, f"{node_id}.in")

    def ingress_link(self, node_id: Any) -> Link:
        return self._ingress[node_id]

    def links(self) -> List[Link]:
        """Every registered link (egress then ingress, insertion order).

        The mutation surface fabric-wide perturbations act on — e.g.
        :class:`repro.scenarios.events.NetworkCongestionWindow` scales
        each link's bandwidth for a bounded window.
        """
        return list(self._egress.values()) + list(self._ingress.values())

    def ping_rtt_estimate(self, src: Any, dst: Any, probe_bytes: int = 256) -> float:
        """Instantaneous RTT estimate for a small probe, *including* the
        current queue backlogs — this is the 'ping latency' PI."""
        out_q = self._egress[src].queue_depth_seconds
        in_q = self._ingress[dst].queue_depth_seconds
        back_out = self._egress[dst].queue_depth_seconds
        back_in = self._ingress[src].queue_depth_seconds
        ser = 4 * probe_bytes / self.nic_bw
        return out_q + in_q + back_out + back_in + 2 * self.latency + ser

    def send(
        self,
        src: Any,
        dst: Any,
        size: int,
        payload: Any,
        on_delivery: Optional[Callable[[Event], None]] = None,
    ) -> None:
        """Transmit ``size`` bytes of ``payload`` from ``src`` to ``dst``.

        On delivery ``on_delivery(event)`` runs, if given, with
        ``event.value`` the payload.
        """
        egress = self._egress.get(src)
        if egress is None:
            raise KeyError(f"unregistered sender {src!r}")
        ingress = self._ingress.get(dst)
        if ingress is None:
            raise KeyError(f"unregistered receiver {dst!r}")
        sim = self.sim
        hop = _Transit(sim, ingress, size, payload, on_delivery)
        now = sim.now
        t = egress.reserve(size) + self.latency
        heappush(sim._heap, (now + (t - now), sim._seq, hop))
        sim._seq += 1


class _Transit(Event):
    """A message on the fabric: one object, pushed three times.

    Three events per message — end of egress serialisation plus
    propagation, end of ingress serialisation, delivery — and the last,
    zero-delay one is not overhead: it decides the order of messages
    whose wire times tie exactly.  The two timed pushes have keys
    ``now + (t - now)``, as ``Simulator.call_at`` has always made them;
    the delivery push is the one ``succeed(payload)`` makes, and carries
    ``on_delivery`` as the hop's only callback.
    """

    __slots__ = ("ingress", "size", "payload", "on_delivery")

    def __init__(
        self,
        sim: Simulator,
        ingress: Link,
        size: int,
        payload: Any,
        on_delivery: Optional[Callable[[Event], None]],
    ):
        self.sim = sim
        self.callbacks = [_at_receiver]
        self._value = None
        self._ok = True
        self.ingress = ingress
        self.size = size
        self.payload = payload
        self.on_delivery = on_delivery


def _at_receiver(hop: _Transit) -> None:
    sim = hop.sim
    now = sim.now
    t = hop.ingress.reserve(hop.size)
    hop.callbacks = [_deliver]
    heappush(sim._heap, (now + (t - now), sim._seq, hop))
    sim._seq += 1


def _deliver(hop: _Transit) -> None:
    on_delivery = hop.on_delivery
    hop.callbacks = None if on_delivery is None else [on_delivery]
    hop._value = hop.payload
    sim = hop.sim
    heappush(sim._heap, (sim.now, sim._seq, hop))
    sim._seq += 1
