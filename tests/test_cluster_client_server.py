"""Integration tests: OSC <-> server round trips, caches, tunables."""

from collections import deque

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.cluster.client import WriteCache
from repro.sim import Simulator, Timeout
from repro.util.units import KiB, MiB


def small_cluster(**overrides):
    cfg = ClusterConfig(
        n_servers=2,
        n_clients=2,
        **overrides,
    )
    sim = Simulator()
    return sim, Cluster(sim, cfg)


class TestWriteCache:
    def test_reserve_within_capacity_immediate(self):
        sim = Simulator()
        c = WriteCache(sim, max_dirty_bytes=10)
        done = []

        def proc():
            yield c.reserve(6)
            done.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert done == [0.0] and c.dirty == 6

    def test_reserve_blocks_until_commit(self):
        sim = Simulator()
        c = WriteCache(sim, max_dirty_bytes=10)
        log = []

        def writer():
            yield c.reserve(8)
            yield c.reserve(8)  # must wait for the commit below
            log.append(sim.now)

        def committer():
            yield Timeout(3.0)
            c.commit(8)

        sim.spawn(writer())
        sim.spawn(committer())
        sim.run()
        assert log == [3.0]

    def test_cancel_withdraws_a_queued_reservation(self):
        sim = Simulator()
        c = WriteCache(sim, max_dirty_bytes=10)
        c.reserve(8)
        queued = c.reserve(8)
        behind = c.reserve(2)
        c.cancel(queued, 8)
        sim.run()
        assert not queued.triggered and behind.processed and c.dirty == 10

    def test_cancel_returns_granted_bytes(self):
        sim = Simulator()
        c = WriteCache(sim, max_dirty_bytes=10)
        granted = c.reserve(8)
        waiter = c.reserve(8)
        c.cancel(granted, 8)
        sim.run()
        assert waiter.processed and c.dirty == 8

    def test_fifo_reservations(self):
        sim = Simulator()
        c = WriteCache(sim, max_dirty_bytes=10)
        order = []

        def filler():
            yield c.reserve(10)

        def w(name, size, delay):
            yield Timeout(delay)
            yield c.reserve(size)
            order.append(name)

        sim.spawn(filler())
        sim.spawn(w("big", 9, 0.1))
        sim.spawn(w("small", 1, 0.2))

        def committer():
            yield Timeout(1.0)
            c.commit(10)

        sim.spawn(committer())
        sim.run()
        assert order == ["big", "small"]

    def test_oversized_write_rejected(self):
        sim = Simulator()
        c = WriteCache(sim, max_dirty_bytes=10)
        with pytest.raises(ValueError):
            c.reserve(11)

    def test_overcommit_rejected(self):
        sim = Simulator()
        c = WriteCache(sim, max_dirty_bytes=10)
        with pytest.raises(ValueError):
            c.commit(1)


class TestReadPath:
    def test_read_completes_and_counts_bytes(self):
        sim, cluster = small_cluster()
        fs = cluster.fs(0)

        def app():
            yield from fs.read(obj_id=1, offset=0, size=64 * KiB)

        p = sim.spawn(app())
        sim.run()
        assert p.ok
        assert cluster.total_bytes_read() == 64 * KiB

    def test_multi_stripe_read_fans_out(self):
        sim, cluster = small_cluster()
        fs = cluster.fs(0)

        def app():
            yield from fs.read(obj_id=1, offset=0, size=3 * MiB)

        sim.spawn(app())
        sim.run()
        # 3 MiB over 2 servers at 1 MiB stripes: both servers touched.
        r0 = cluster.metrics.value("server.0.bytes_read")
        r1 = cluster.metrics.value("server.1.bytes_read")
        assert r0 > 0 and r1 > 0 and r0 + r1 == 3 * MiB

    def test_read_updates_secondary_indicators(self):
        sim, cluster = small_cluster()
        fs = cluster.fs(0)

        def app():
            for i in range(5):
                yield from fs.read(obj_id=1, offset=i * 32 * KiB, size=32 * KiB)

        sim.spawn(app())
        sim.run()
        osc = cluster.clients[0].oscs[0]
        assert osc.ack_ewma.count >= 1
        assert osc.send_ewma.count >= 1
        assert osc.pt_ratio >= 1.0


class TestWritePath:
    def test_write_returns_at_cache_speed_then_drains(self):
        sim, cluster = small_cluster()
        fs = cluster.fs(0)
        cached_at = []

        def app():
            yield from fs.write(obj_id=1, offset=0, size=256 * KiB)
            cached_at.append(sim.now)
            yield from cluster.clients[0].flush_barrier()

        p = sim.spawn(app())
        sim.run()
        assert p.ok
        # Caching is quick relative to the disk flush.
        assert cached_at[0] < sim.now
        assert cluster.total_bytes_written() == 256 * KiB

    def test_dirty_bytes_bounded_by_cache(self):
        sim, cluster = small_cluster(max_dirty_bytes=1 * MiB)
        fs = cluster.fs(0)

        def app():
            for i in range(32):
                yield from fs.write(obj_id=1, offset=i * 512 * KiB, size=512 * KiB)
            yield from cluster.clients[0].flush_barrier()

        sim.spawn(app())
        max_dirty_seen = 0

        def probe():
            nonlocal max_dirty_seen
            while True:
                yield Timeout(0.005)
                for osc in cluster.clients[0].oscs.values():
                    max_dirty_seen = max(max_dirty_seen, osc.cache.dirty)

        probe_p = sim.spawn(probe())
        sim.run(until=60.0)
        assert max_dirty_seen <= 1 * MiB
        assert cluster.total_bytes_written() == 16 * MiB


class TestTunables:
    def test_window_applies_to_all_oscs(self):
        sim, cluster = small_cluster()
        cluster.set_max_rpcs_in_flight(3)
        for c in cluster.clients:
            assert c.max_rpcs_in_flight == 3
            for osc in c.oscs.values():
                assert osc.window.capacity == 3

    def test_rate_limit_applies(self):
        sim, cluster = small_cluster()
        cluster.set_io_rate_limit(123.0)
        for c in cluster.clients:
            assert c.io_rate_limit == 123.0

    def test_get_set_parameter_roundtrip(self):
        sim, cluster = small_cluster()
        cluster.set_parameter("max_rpcs_in_flight", 5)
        assert cluster.get_parameter("max_rpcs_in_flight") == 5.0
        cluster.set_parameter("io_rate_limit", 250.0)
        assert cluster.get_parameter("io_rate_limit") == 250.0

    def test_unknown_parameter_rejected(self):
        sim, cluster = small_cluster()
        with pytest.raises(KeyError):
            cluster.get_parameter("nope")
        with pytest.raises(KeyError):
            cluster.set_parameter("nope", 1)

    def test_window_limits_inflight_rpcs(self):
        sim, cluster = small_cluster(max_rpcs_in_flight=2)
        fs = cluster.fs(0)

        # Saturate with writes; in-flight per OSC must never exceed 2.
        def app():
            for i in range(64):
                yield from fs.write(obj_id=1, offset=i * 128 * KiB, size=128 * KiB)

        sim.spawn(app())
        max_inflight = 0

        def probe():
            nonlocal max_inflight
            while True:
                yield Timeout(0.001)
                for osc in cluster.clients[0].oscs.values():
                    max_inflight = max(max_inflight, osc.in_flight)

        sim.spawn(probe())
        sim.run(until=5.0)
        assert 0 < max_inflight <= 2

    def test_rate_limit_throttles_throughput(self):
        def run(rate):
            sim, cluster = small_cluster(io_rate_limit=rate, rate_burst=1.0)
            fs = cluster.fs(0)

            def app():
                i = 0
                while True:
                    yield from fs.write(
                        obj_id=1, offset=i * 32 * KiB, size=32 * KiB
                    )
                    i += 1

            sim.spawn(app())
            sim.run(until=10.0)
            return cluster.total_bytes_written()

        slow = run(5.0)
        fast = run(500.0)
        assert slow < 0.5 * fast


class TestMetaPath:
    def test_meta_ops_complete(self):
        sim, cluster = small_cluster()
        fs = cluster.fs(1)

        def app():
            yield from fs.create(obj_id=7)
            yield from fs.stat(obj_id=7)
            yield from fs.delete(obj_id=7)

        p = sim.spawn(app())
        sim.run()
        assert p.ok
        assert cluster.metrics.value("client.1.meta_ops") == 3


class TestPings:
    def test_ping_latency_positive_and_grows_under_load(self):
        sim, cluster = small_cluster()
        osc = cluster.clients[0].oscs[0]
        idle = osc.ping_latency
        cluster.fabric.send("client-0", "server-0", 50 * MiB, None)
        assert osc.ping_latency > idle > 0


class TestInterruptedIO:
    """An application interrupted while it queues for a window slot, a
    rate token or cache space must not leave that claim behind."""

    def test_churn_then_stop_returns_every_slot_and_dirty_byte(self):
        import numpy as np

        from repro.workloads import RandomReadWrite

        sim = Simulator()
        # A low rate limit backs the flushers up until writers queue for
        # cache space as well as for tokens and window slots.
        cluster = Cluster(
            sim,
            ClusterConfig(
                n_servers=2, n_clients=5, io_rate_limit=60.0, max_dirty_bytes=MiB
            ),
        )
        wl = RandomReadWrite(cluster, instances_per_client=5, read_fraction=0.2, seed=13)
        wl.start()
        rng = np.random.default_rng(99)
        oscs = [osc for c in cluster.clients for osc in c.oscs.values()]
        cache_waiters = 0
        t = 0.5
        for _ in range(5):
            sim.run(until=t)
            cache_waiters += sum(len(osc.cache._waiters) for osc in oscs)
            assert wl.pause_client(1) == 5
            sim.run(until=t + 0.25)
            wl.resume_client(1, rng)
            t += 0.5
        assert cache_waiters > 0, "no writer ever queued for cache space"
        wl.stop()
        sim.run(until=t + 30.0)
        for osc in oscs:
            assert osc._pending == {}
            assert osc.window.in_use == 0, (osc.node_id, osc.server_id)
            assert osc.window.queued == 0
            assert osc.cache.dirty == 0, (osc.node_id, osc.server_id)
        for client in cluster.clients:
            assert client.rate_bucket._waiters == deque()

    def test_an_interrupted_rpc_holds_its_window_slot_until_the_reply(self):
        """A synchronous RPC stays in flight after its waiter is stopped,
        so its slot must stay taken until the reply arrives: otherwise
        the window admits more than ``max_rpcs_in_flight``."""
        from repro.workloads import RandomReadWrite

        sim = Simulator()
        cluster = Cluster(sim, ClusterConfig(n_servers=2, n_clients=5))
        wl = RandomReadWrite(cluster, instances_per_client=5, read_fraction=0.9, seed=13)
        wl.start()
        oscs = [osc for c in cluster.clients for osc in c.oscs.values()]

        def check_in_flight():
            for osc in oscs:
                assert len(osc._pending) <= osc.window.in_use, (
                    osc.node_id,
                    osc.server_id,
                    len(osc._pending),
                    osc.window.in_use,
                )

        sim.run(until=1.0)
        check_in_flight()
        sim.run(until=2.0)
        check_in_flight()
        wl.stop()
        stopped_in_flight = sum(len(osc._pending) for osc in oscs)
        assert stopped_in_flight > 0, "no RPC was in flight at the stop"
        # The replies of the stopped reads arrive within milliseconds:
        # check after every event until the next tick.
        while sim.peek() <= 3.0:
            sim.step()
            check_in_flight()
        sim.run(until=10.0)
        for osc in oscs:
            assert osc._pending == {}
            assert osc.window.in_use == 0, (osc.node_id, osc.server_id)
