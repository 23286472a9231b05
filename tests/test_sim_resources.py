"""Tests for Resource, Store, TokenBucket (repro.sim.resources)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import Resource, Simulator, SimulationError, Store, Timeout, TokenBucket


class TestResource:
    def test_acquire_within_capacity_is_immediate(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        log = []

        def proc(name):
            yield res.acquire()
            log.append((sim.now, name))

        sim.spawn(proc("a"))
        sim.spawn(proc("b"))
        sim.run()
        assert [n for _, n in log] == ["a", "b"]
        assert res.in_use == 2

    def test_waiter_blocks_until_release(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        log = []

        def holder():
            yield res.acquire()
            yield Timeout(5.0)
            res.release()

        def waiter():
            yield Timeout(1.0)
            yield res.acquire()
            log.append(sim.now)
            res.release()

        sim.spawn(holder())
        sim.spawn(waiter())
        sim.run()
        assert log == [5.0]

    def test_fifo_ordering(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        order = []

        def holder():
            yield res.acquire()
            yield Timeout(10.0)
            res.release()

        def waiter(name, arrive):
            yield Timeout(arrive)
            yield res.acquire()
            order.append(name)
            res.release()

        sim.spawn(holder())
        sim.spawn(waiter("first", 1.0))
        sim.spawn(waiter("second", 2.0))
        sim.run()
        assert order == ["first", "second"]

    def test_release_without_acquire_raises(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        with pytest.raises(SimulationError):
            res.release()

    def test_capacity_growth_wakes_waiters(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        woken = []

        def holder():
            yield res.acquire()
            yield Timeout(100.0)
            res.release()

        def waiter():
            yield res.acquire()
            woken.append(sim.now)

        sim.spawn(holder())
        sim.spawn(waiter())

        def grow():
            yield Timeout(2.0)
            res.set_capacity(2)

        sim.spawn(grow())
        sim.run()
        assert woken == [2.0]

    def test_capacity_shrink_is_lazy(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)

        def holder():
            yield res.acquire()
            yield Timeout(10.0)
            res.release()

        sim.spawn(holder())
        sim.spawn(holder())
        sim.run(until=1.0)
        res.set_capacity(1)
        # Both slots stay held (no revocation)...
        assert res.in_use == 2
        sim.run()
        # ...but releases bring usage under the new cap.
        assert res.in_use == 0
        assert res.capacity == 1

    def test_queued_counter(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)

        def holder():
            yield res.acquire()
            yield Timeout(10.0)
            res.release()

        def waiter():
            yield res.acquire()
            res.release()

        sim.spawn(holder())
        sim.spawn(waiter())
        sim.run(until=1.0)
        assert res.queued == 1

    def test_cancel_withdraws_a_queued_request(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        res.acquire()
        queued = res.acquire()
        behind = res.acquire()
        res.cancel(queued)
        assert res.queued == 1
        res.release()
        sim.run()
        assert not queued.triggered and behind.processed
        assert res.in_use == 1

    def test_cancel_returns_a_granted_slot(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        granted = res.acquire()
        waiter = res.acquire()
        res.cancel(granted)  # triggered, never seen by its waiter
        sim.run()
        assert waiter.processed and res.in_use == 1

    def test_invalid_capacity(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)
        store.put("x")
        got = []

        def getter():
            item = yield store.get()
            got.append(item)

        sim.spawn(getter())
        sim.run()
        assert got == ["x"]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def getter():
            item = yield store.get()
            got.append((sim.now, item))

        def putter():
            yield Timeout(3.0)
            store.put("late")

        sim.spawn(getter())
        sim.spawn(putter())
        sim.run()
        assert got == [(3.0, "late")]

    def test_fifo_items(self):
        sim = Simulator()
        store = Store(sim)
        for x in (1, 2, 3):
            store.put(x)
        got = []

        def getter():
            for _ in range(3):
                got.append((yield store.get()))

        sim.spawn(getter())
        sim.run()
        assert got == [1, 2, 3]

    def test_peek_and_drain(self):
        sim = Simulator()
        store = Store(sim)
        store.put("a")
        store.put("b")
        assert store.peek_all() == ("a", "b")
        assert len(store) == 2
        assert store.drain() == ("a", "b")
        assert len(store) == 0


class TestTokenBucket:
    def test_cancel_withdraws_a_queued_request(self):
        sim = Simulator()
        tb = TokenBucket(sim, rate=1.0, capacity=1.0)
        tb.acquire(1.0)
        queued = tb.acquire(1.0)
        behind = tb.acquire(1.0)
        tb.cancel(queued, 1.0)
        sim.run(until=1.5)
        assert not queued.triggered and behind.processed
        assert tb.tokens == pytest.approx(0.5)

    def test_cancel_returns_granted_tokens(self):
        sim = Simulator()
        tb = TokenBucket(sim, rate=1.0, capacity=1.0)
        granted = tb.acquire(1.0)
        waiter = tb.acquire(1.0)
        tb.cancel(granted, 1.0)
        sim.run(until=0.5)  # served at once, not at the 1 s refill
        assert waiter.processed

    def test_initial_burst_is_free(self):
        sim = Simulator()
        tb = TokenBucket(sim, rate=10.0, capacity=5.0)
        times = []

        def proc():
            for _ in range(5):
                yield tb.acquire(1.0)
                times.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert times == [0.0] * 5

    def test_rate_limits_after_burst(self):
        sim = Simulator()
        tb = TokenBucket(sim, rate=2.0, capacity=1.0)  # 2 tokens/s, burst 1
        times = []

        def proc():
            for _ in range(4):
                yield tb.acquire(1.0)
                times.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert times == pytest.approx([0.0, 0.5, 1.0, 1.5])

    def test_set_rate_speeds_up_waiters(self):
        sim = Simulator()
        tb = TokenBucket(sim, rate=1.0, capacity=1.0)
        times = []

        def proc():
            yield tb.acquire(1.0)  # drains the burst
            yield tb.acquire(1.0)  # would complete at t=1.0 at rate 1
            times.append(sim.now)

        sim.spawn(proc())

        def tuner():
            yield Timeout(0.25)
            tb.set_rate(100.0)

        sim.spawn(tuner())
        sim.run()
        # 0.25 tokens accrued by t=0.25, remaining 0.75 at rate 100
        assert times[0] == pytest.approx(0.2575, abs=1e-6)

    def test_acquire_more_than_capacity_rejected(self):
        sim = Simulator()
        tb = TokenBucket(sim, rate=1.0, capacity=2.0)
        with pytest.raises(ValueError):
            tb.acquire(3.0)

    def test_acquire_nonpositive_rejected(self):
        sim = Simulator()
        tb = TokenBucket(sim, rate=1.0)
        with pytest.raises(ValueError):
            tb.acquire(0.0)

    def test_fifo_no_starvation(self):
        sim = Simulator()
        tb = TokenBucket(sim, rate=1.0, capacity=4.0)
        order = []

        def big():
            yield Timeout(0.0)
            yield tb.acquire(4.0)
            order.append("big")

        def small():
            yield Timeout(0.1)
            yield tb.acquire(0.5)
            order.append("small")

        # Drain bucket first so both must wait.
        def drain():
            yield tb.acquire(4.0)

        sim.spawn(drain())
        sim.spawn(big())
        sim.spawn(small())
        sim.run()
        assert order == ["big", "small"]

    def test_tokens_capped_at_capacity(self):
        sim = Simulator()
        tb = TokenBucket(sim, rate=100.0, capacity=3.0)
        sim.timeout(10.0)
        sim.run()
        assert tb.tokens == pytest.approx(3.0)


@given(
    rate=st.floats(min_value=0.5, max_value=50),
    n_requests=st.integers(min_value=1, max_value=20),
)
def test_token_bucket_never_exceeds_long_run_rate(rate, n_requests):
    """Property: k acquisitions of 1 token finish no earlier than
    (k - capacity)/rate — the bucket can never over-issue."""
    sim = Simulator()
    capacity = 2.0
    tb = TokenBucket(sim, rate=rate, capacity=capacity)
    times = []

    def proc():
        for _ in range(n_requests):
            yield tb.acquire(1.0)
            times.append(sim.now)

    sim.spawn(proc())
    sim.run()
    for k, t in enumerate(times, start=1):
        lower_bound = max(0.0, (k - capacity) / rate)
        assert t >= lower_bound - 1e-9
