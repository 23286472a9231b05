"""Tests for the discrete-event engine core (repro.sim.engine)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import Event, Simulator, SimulationError, Timeout


class TestEvent:
    def test_initially_pending(self):
        sim = Simulator()
        ev = sim.event()
        assert not ev.triggered
        with pytest.raises(SimulationError):
            _ = ev.value
        with pytest.raises(SimulationError):
            _ = ev.ok

    def test_succeed_carries_value(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(123)
        sim.run()
        assert ev.ok and ev.value == 123 and ev.processed

    def test_fail_requires_exception(self):
        sim = Simulator()
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_double_trigger_rejected(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()
        with pytest.raises(SimulationError):
            ev.fail(RuntimeError("x"))

    def test_callback_after_processing_runs_immediately(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed("v")
        sim.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == ["v"]


class TestSimulatorClock:
    def test_time_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_timeout_advances_clock(self):
        sim = Simulator()
        sim.timeout(2.5)
        sim.run()
        assert sim.now == 2.5

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        for delay in (3.0, 1.0, 2.0):
            sim.timeout(delay, value=delay).add_callback(
                lambda e: order.append(e.value)
            )
        sim.run()
        assert order == [1.0, 2.0, 3.0]

    def test_ties_break_in_creation_order(self):
        sim = Simulator()
        order = []
        for tag in "abc":
            t = sim.timeout(1.0, value=tag)
            t.add_callback(lambda e: order.append(e.value))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_run_until_advances_exactly_to_bound(self):
        sim = Simulator()
        sim.timeout(10.0)
        sim.run(until=4.0)
        assert sim.now == 4.0
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_until_past_raises(self):
        sim = Simulator()
        sim.timeout(5.0)
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_negative_timeout_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_nan_delay_rejected(self):
        """NaN compares false with everything, so ``delay < 0`` lets it
        through and it then breaks the heap invariant silently."""
        sim = Simulator()
        nan = float("nan")
        with pytest.raises(SimulationError):
            sim.timeout(nan)
        with pytest.raises(SimulationError):
            Timeout(nan)
        ev = sim.event()
        with pytest.raises(SimulationError):
            ev.succeed(delay=nan)
        with pytest.raises(SimulationError):
            ev.fail(RuntimeError("x"), delay=nan)
        assert not ev.triggered  # a rejected trigger leaves it pending
        assert sim.peek() == float("inf")

    def test_run_until_nan_raises(self):
        sim = Simulator()
        sim.timeout(5.0)
        with pytest.raises(SimulationError):
            sim.run(until=float("nan"))
        assert sim.now == 0.0 and sim.events_processed == 0

    def test_step_on_empty_queue_raises(self):
        with pytest.raises(SimulationError):
            Simulator().step()

    def test_peek(self):
        sim = Simulator()
        assert sim.peek() == float("inf")
        sim.timeout(3.0)
        assert sim.peek() == 3.0

    def test_call_at(self):
        sim = Simulator()
        hits = []
        sim.call_at(2.0, lambda: hits.append(sim.now))
        sim.run()
        assert hits == [2.0]

    def test_call_at_past_raises(self):
        sim = Simulator()
        sim.timeout(2.0)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(1.0, lambda: None)

    def test_call_at_nan_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.call_at(float("nan"), lambda: None)
        assert sim.peek() == float("inf")

    def test_call_at_fires_at_now_plus_the_remaining_delay(self):
        """``call_at(t)`` is a timeout of ``t - now``: when ``t > 2 * now``
        the subtraction rounds and the firing time can be one ulp off
        ``t``.  That, not ``t``, is the heap key the goldens were cut with."""
        sim = Simulator()
        now, t = 0.3622500435912449, 1.7199805992455157
        assert now + (t - now) != t
        sim.run(until=now)
        hits = []
        sim.call_at(t, lambda: hits.append(sim.now))
        sim.run()
        assert hits == [now + (t - now)]

    def test_call_at_returns_the_scheduled_timeout(self):
        sim = Simulator()
        sim.timeout(1.5)
        sim.run()
        ev = sim.call_at(4.0, lambda: None)
        assert isinstance(ev, Timeout) and ev.delay == 2.5
        sim.run()
        assert ev.processed and sim.now == 4.0

    def test_events_processed_exact_when_a_callback_raises(self):
        sim = Simulator()
        sim.timeout(1.0)

        def boom(_ev):
            raise RuntimeError("boom")

        sim.timeout(2.0).add_callback(boom)
        sim.timeout(3.0)
        with pytest.raises(RuntimeError, match="boom"):
            sim.run(until=10.0)
        assert sim.events_processed == 2 and sim.now == 2.0
        sim.run(until=10.0)
        assert sim.events_processed == 3 and sim.now == 10.0

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.timeout(1.0)
        sim.run()
        assert sim.events_processed == 5


@given(delays=st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=40))
def test_clock_is_monotone_under_arbitrary_timeouts(delays):
    """Property: processing order never moves the clock backwards."""
    sim = Simulator()
    observed = []
    for d in delays:
        sim.timeout(d).add_callback(lambda e: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


@given(
    delays=st.lists(
        st.floats(min_value=0, max_value=50), min_size=1, max_size=30
    ),
    bound=st.floats(min_value=0, max_value=60),
)
def test_run_until_processes_exactly_events_within_bound(delays, bound):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.timeout(d, value=d).add_callback(lambda e: fired.append(e.value))
    sim.run(until=bound)
    assert sorted(fired) == sorted(d for d in delays if d <= bound)
    assert sim.now == bound


# -- run() is a loop of step() ------------------------------------------------
#
# ``Simulator.run`` dispatches events in its own frame instead of calling
# ``step()``; the two must stay interchangeable.  A random "program" is
# built twice, once per driver, and the firing logs compared.


class _Boom(Exception):
    pass


# Few distinct values, so equal timestamps (and zero delays) are common.
_DELAYS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    st.floats(min_value=0, max_value=8, allow_nan=False),
)
_PICK = st.integers(min_value=0, max_value=1000)
_OPS = st.one_of(
    st.tuples(st.sampled_from(["timeout", "succeed", "fail", "call_at", "raiser"]), _DELAYS),
    st.tuples(st.just("late_callback"), _DELAYS, _PICK),
    st.tuples(
        st.just("process"),
        st.lists(_DELAYS, max_size=3),
        _PICK,
        st.booleans(),  # catches a failure of what it waits on
        st.booleans(),  # has a waiter (a crash fails it instead of raising)
    ),
)


def _build_program(ops):
    sim = Simulator()
    log = []
    made = []  # every event so far; later ops wait on / attach to them

    def note(tag):
        return lambda _ev: log.append((sim.now, tag))

    for i, op in enumerate(ops):
        kind = op[0]
        if kind == "timeout":
            ev = sim.timeout(op[1], value=i)
            ev.add_callback(note(i))
        elif kind == "succeed":
            ev = sim.event()
            ev.add_callback(note(i))
            ev.succeed(i, delay=op[1])
        elif kind == "fail":
            ev = sim.event()
            ev.add_callback(note(i))
            ev.fail(_Boom(i), delay=op[1])
        elif kind == "call_at":
            ev = sim.call_at(op[1], lambda i=i: log.append((sim.now, i)))
        elif kind == "raiser":
            ev = sim.timeout(op[1])

            def boom(_ev, i=i):
                log.append((sim.now, i))
                raise _Boom(i)

            ev.add_callback(boom)
            ev.add_callback(note((i, "never runs")))
        elif kind == "late_callback":
            _, at, pick = op
            target = made[pick % len(made)] if made else sim.event()
            ev = sim.timeout(at)
            ev.add_callback(
                lambda _ev, i=i, target=target: target.add_callback(note((i, "late")))
            )
        else:
            _, delays, pick, catches, watched = op
            waits_on = made[pick % len(made)] if made else None

            def proc(i=i, delays=delays, waits_on=waits_on, catches=catches):
                if waits_on is not None:
                    try:
                        yield waits_on
                    except _Boom:
                        log.append((sim.now, (i, "threw")))
                        if not catches:
                            raise
                    else:
                        log.append((sim.now, (i, "woke")))
                for d in delays:
                    yield Timeout(d)
                    log.append((sim.now, (i, d)))
                return i

            ev = sim.spawn(proc())
            if watched:
                ev.add_callback(note(i))
        made.append(ev)
    return sim, log


def _drive_by_run(sim, log, until):
    while True:
        try:
            sim.run(until=until)
            return
        except _Boom as exc:
            log.append((sim.now, "raised", exc.args))


def _drive_by_step(sim, log, until):
    # peek() is inf on an empty queue; until=None drains, as run() does.
    while sim.peek() <= (until if until is not None else 1e300):
        try:
            sim.step()
        except _Boom as exc:
            log.append((sim.now, "raised", exc.args))


@given(ops=st.lists(_OPS, min_size=1, max_size=25), until=st.floats(min_value=0, max_value=10))
def test_run_is_a_loop_of_step(ops, until):
    ran, ran_log = _build_program(ops)
    stepped, stepped_log = _build_program(ops)

    _drive_by_run(ran, ran_log, until)
    _drive_by_step(stepped, stepped_log, until)
    assert ran_log == stepped_log
    assert ran.events_processed == stepped.events_processed
    assert ran.peek() == stepped.peek()
    assert stepped.now <= ran.now == until

    # Drain what is left; only run(until) ever moves the clock past the
    # last event it fired.
    _drive_by_run(ran, ran_log, None)
    _drive_by_step(stepped, stepped_log, None)
    assert ran_log == stepped_log
    assert ran.events_processed == stepped.events_processed
    assert ran.peek() == stepped.peek() == float("inf")
    assert ran.now == max(until, stepped.now)
