"""Tests for the network fabric (repro.cluster.network)."""

import pytest

from repro.cluster.network import Fabric, Link
from repro.sim import Simulator
from repro.util.units import MiB, mb_per_s


class TestLink:
    def test_serialization_delay(self):
        sim = Simulator()
        link = Link(sim, bandwidth=mb_per_s(100))
        done = link.reserve(MiB)
        assert done == pytest.approx(0.01)

    def test_fifo_queueing(self):
        sim = Simulator()
        link = Link(sim, bandwidth=mb_per_s(100))
        first = link.reserve(MiB)
        second = link.reserve(MiB)
        assert second == pytest.approx(first + 0.01)
        assert link.stats.queue_delay == pytest.approx(0.01)

    def test_idle_gap_resets_queue(self):
        sim = Simulator()
        link = Link(sim, bandwidth=mb_per_s(100))
        link.reserve(MiB)
        sim.timeout(1.0)
        sim.run()
        done = link.reserve(MiB)
        assert done == pytest.approx(1.01)

    def test_queue_depth_seconds(self):
        sim = Simulator()
        link = Link(sim, bandwidth=mb_per_s(1))
        assert link.queue_depth_seconds == 0.0
        link.reserve(2 * MiB)
        assert link.queue_depth_seconds == pytest.approx(2.0)

    def test_stats(self):
        sim = Simulator()
        link = Link(sim, bandwidth=mb_per_s(100))
        link.reserve(MiB)
        link.reserve(MiB)
        assert link.stats.messages == 2
        assert link.stats.bytes == 2 * MiB

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            Link(Simulator(), bandwidth=0)


class TestFabric:
    def make(self):
        sim = Simulator()
        fab = Fabric(sim, nic_mbps=100.0, latency_s=0.001)
        fab.register("a")
        fab.register("b")
        return sim, fab

    def test_delivery_time_includes_both_serializations(self):
        sim, fab = self.make()
        got = []
        fab.send(
            "a", "b", MiB, "payload", lambda e: got.append((sim.now, e.value))
        )
        sim.run()
        # 0.01 egress + 0.001 latency + 0.01 ingress
        assert got[0][0] == pytest.approx(0.021)
        assert got[0][1] == "payload"

    def test_incast_contention_at_receiver(self):
        """Two senders to one receiver serialize at the ingress link."""
        sim = Simulator()
        fab = Fabric(sim, nic_mbps=100.0, latency_s=0.0)
        for n in ("a", "b", "dst"):
            fab.register(n)
        times = []
        fab.send("a", "dst", MiB, 1, lambda e: times.append(sim.now))
        fab.send("b", "dst", MiB, 2, lambda e: times.append(sim.now))
        sim.run()
        assert times[0] == pytest.approx(0.02)
        assert times[1] == pytest.approx(0.03)  # waited behind the first

    def test_distinct_receivers_do_not_contend(self):
        sim = Simulator()
        fab = Fabric(sim, nic_mbps=100.0, latency_s=0.0)
        for n in ("a", "b1", "b2"):
            fab.register(n)
        times = []
        fab.send("a", "b1", MiB, 1, lambda e: times.append(sim.now))
        fab.send("a", "b2", MiB, 2, lambda e: times.append(sim.now))
        sim.run()
        # Egress serializes (0.01 each), ingress links are independent.
        assert times == [pytest.approx(0.02), pytest.approx(0.03)]

    def test_unregistered_nodes_rejected(self):
        sim, fab = self.make()
        with pytest.raises(KeyError):
            fab.send("nope", "b", 1, None)
        with pytest.raises(KeyError):
            fab.send("a", "nope", 1, None)

    def test_double_registration_rejected(self):
        sim, fab = self.make()
        with pytest.raises(ValueError):
            fab.register("a")

    def test_ping_rtt_reflects_backlog(self):
        sim, fab = self.make()
        idle = fab.ping_rtt_estimate("a", "b")
        fab.send("a", "b", 10 * MiB, None)
        busy = fab.ping_rtt_estimate("a", "b")
        assert busy > idle

    def test_message_order_preserved_per_pair(self):
        sim, fab = self.make()
        got = []
        for i in range(5):
            fab.send("a", "b", 1000, i, lambda e: got.append(e.value))
        sim.run()
        assert got == [0, 1, 2, 3, 4]
