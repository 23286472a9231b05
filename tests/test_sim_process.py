"""Tests for processes and combinators (repro.sim.process)."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Interrupted,
    Simulator,
    SimulationError,
    Timeout,
)


class TestProcess:
    def test_process_runs_and_returns_value(self):
        sim = Simulator()

        def proc():
            yield Timeout(1.0)
            yield Timeout(2.0)
            return "done"

        p = sim.spawn(proc())
        sim.run()
        assert p.ok and p.value == "done"
        assert sim.now == 3.0

    def test_yield_receives_timeout_value(self):
        sim = Simulator()
        got = []

        def proc():
            v = yield Timeout(1.0, value="payload")
            got.append(v)

        sim.spawn(proc())
        sim.run()
        assert got == ["payload"]

    def test_process_waits_on_process(self):
        sim = Simulator()

        def child():
            yield Timeout(5.0)
            return 42

        def parent():
            result = yield sim.spawn(child())
            assert result == 42
            return sim.now

        p = sim.spawn(parent())
        sim.run()
        assert p.value == 5.0

    def test_two_processes_interleave(self):
        sim = Simulator()
        trace = []

        def worker(name, period):
            for _ in range(3):
                yield Timeout(period)
                trace.append((sim.now, name))

        sim.spawn(worker("a", 1.0))
        sim.spawn(worker("b", 1.5))
        sim.run()
        # At the t=3.0 tie, "b" resumes first: its timeout was created at
        # t=1.5, before "a"'s was created at t=2.0 (FIFO tie-breaking).
        assert trace == [
            (1.0, "a"),
            (1.5, "b"),
            (2.0, "a"),
            (3.0, "b"),
            (3.0, "a"),
            (4.5, "b"),
        ]

    def test_yielding_non_event_raises(self):
        sim = Simulator()

        def bad():
            yield 42

        sim.spawn(bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_spawn_requires_generator(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.spawn(lambda: None)  # type: ignore[arg-type]

    def test_crash_with_no_waiter_propagates(self):
        sim = Simulator()

        def boom():
            yield Timeout(1.0)
            raise RuntimeError("crash")

        sim.spawn(boom())
        with pytest.raises(RuntimeError, match="crash"):
            sim.run()

    def test_crash_with_waiter_fails_waiter(self):
        sim = Simulator()

        def boom():
            yield Timeout(1.0)
            raise ValueError("inner")

        def outer():
            try:
                yield sim.spawn(boom())
            except ValueError as e:
                return f"caught {e}"

        p = sim.spawn(outer())
        sim.run()
        assert p.value == "caught inner"

    def test_is_alive(self):
        sim = Simulator()

        def proc():
            yield Timeout(2.0)

        p = sim.spawn(proc())
        assert p.is_alive
        sim.run()
        assert not p.is_alive


class TestInterrupt:
    def test_interrupt_delivers_cause(self):
        sim = Simulator()
        log = []

        def sleeper():
            try:
                yield Timeout(100.0)
            except Interrupted as i:
                log.append((sim.now, i.cause))

        p = sim.spawn(sleeper())

        def interrupter():
            yield Timeout(3.0)
            p.interrupt(cause="reconfig")

        sim.spawn(interrupter())
        sim.run()
        assert log == [(3.0, "reconfig")]

    def test_interrupted_process_that_carries_on_is_resumed_once(self):
        """The event a process was waiting on when it was interrupted must
        not wake it again: its value would land in a later ``yield``."""
        sim = Simulator()
        log = []

        def stubborn():
            try:
                v = yield Timeout(5.0, value="first")
                log.append(("resumed", sim.now, v))
            except Interrupted:
                log.append(("interrupted", sim.now))
            v = yield Timeout(10.0, value="second")
            log.append(("resumed", sim.now, v))
            v = yield Timeout(10.0, value="third")
            log.append(("resumed", sim.now, v))

        p = sim.spawn(stubborn())

        def interrupter():
            yield Timeout(1.0)
            p.interrupt()

        sim.spawn(interrupter())
        sim.run()
        assert log == [
            ("interrupted", 1.0),
            ("resumed", 11.0, "second"),
            ("resumed", 21.0, "third"),
        ]
        assert p.ok and not p.is_alive

    def test_interrupt_leaves_other_waiters_on_the_event(self):
        sim = Simulator()
        shared = sim.timeout(5.0, value="shared")
        log = []

        def waiter(name):
            try:
                v = yield shared
                log.append((name, sim.now, v))
            except Interrupted:
                log.append((name, sim.now, "interrupted"))

        a = sim.spawn(waiter("a"))
        sim.spawn(waiter("b"))

        def interrupter():
            yield Timeout(2.0)
            a.interrupt()

        sim.spawn(interrupter())
        sim.run()
        assert log == [("a", 2.0, "interrupted"), ("b", 5.0, "shared")]

    def test_interrupt_finished_process_raises(self):
        sim = Simulator()

        def quick():
            yield Timeout(1.0)

        p = sim.spawn(quick())
        sim.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_uncaught_interrupt_fails_process(self):
        sim = Simulator()

        def sleeper():
            yield Timeout(100.0)

        def outer():
            try:
                yield p
            except Interrupted:
                return "interrupted"

        p = sim.spawn(sleeper())
        o = sim.spawn(outer())

        def interrupter():
            yield Timeout(1.0)
            p.interrupt()

        sim.spawn(interrupter())
        sim.run()
        assert o.value == "interrupted"


class TestCombinators:
    def test_allof_collects_values_in_order(self):
        sim = Simulator()

        def proc():
            vals = yield AllOf(
                sim,
                [
                    sim.timeout(3.0, value="c"),
                    sim.timeout(1.0, value="a"),
                    sim.timeout(2.0, value="b"),
                ],
            )
            return vals

        p = sim.spawn(proc())
        sim.run()
        assert p.value == ["c", "a", "b"]
        assert sim.now == 3.0

    def test_allof_empty_fires_immediately(self):
        sim = Simulator()
        ev = AllOf(sim, [])
        sim.run()
        assert ev.ok and ev.value == []

    def test_allof_fails_on_first_child_failure(self):
        sim = Simulator()
        bad = sim.event()
        bad.fail(RuntimeError("nope"), delay=1.0)

        def proc():
            try:
                yield AllOf(sim, [sim.timeout(5.0), bad])
            except RuntimeError:
                return sim.now

        p = sim.spawn(proc())
        sim.run()
        assert p.value == 1.0

    def test_anyof_returns_first_winner(self):
        sim = Simulator()

        def proc():
            idx, val = yield AnyOf(
                sim,
                [sim.timeout(5.0, value="slow"), sim.timeout(1.0, value="fast")],
            )
            return idx, val, sim.now

        p = sim.spawn(proc())
        sim.run()
        assert p.value == (1, "fast", 1.0)

    def test_anyof_empty_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            AnyOf(sim, [])

    def test_combinators_bind_unbound_timeouts(self):
        sim = Simulator()

        def proc():
            vals = yield AllOf(sim, [Timeout(1.0, value=1), Timeout(2.0, value=2)])
            return vals

        p = sim.spawn(proc())
        sim.run()
        assert p.value == [1, 2]
