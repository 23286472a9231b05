"""Generator-driven simulation processes and event combinators.

A :class:`Process` drives a Python generator: each ``yield`` hands back an
:class:`~repro.sim.engine.Event` (or an unbound
:class:`~repro.sim.engine.Timeout`) to wait on; when the event fires the
generator resumes with the event's value, or the event's exception is
thrown into it.  A process is itself an event that fires when the
generator returns, so processes can wait on each other.

:class:`AllOf` / :class:`AnyOf` provide barrier and race composition, used
by the cluster model to fan RPCs out across stripes and wait for
completion.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, List, Optional

from repro.sim.engine import PENDING, Event, Simulator, Timeout
from repro.sim.errors import Interrupted, SimulationError


class Process(Event):
    """Event wrapper that executes a generator as a simulation process."""

    __slots__ = ("gen", "name", "_waiting_on")

    def __init__(self, sim: Simulator, gen: Generator, name: Optional[str] = None):
        super().__init__(sim)
        if not hasattr(gen, "send"):
            raise TypeError(
                f"Process needs a generator (did you forget to call the "
                f"process function?), got {gen!r}"
            )
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        # Kick off on the next event-loop iteration at the current time.
        start = Timeout(0.0, None, sim)
        start.callbacks.append(self._resume)
        self._waiting_on: Event = start

    @property
    def is_alive(self) -> bool:
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupted` into the process at the current time.

        A process cannot interrupt itself, and interrupting a finished
        process is an error (matching SimPy semantics).
        """
        if self._value is not PENDING:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        wake = Event(self.sim)
        wake.callbacks.append(self._deliver_interrupt)
        wake.fail(Interrupted(cause))

    def _deliver_interrupt(self, wake: Event) -> None:
        if self._value is not PENDING:  # finished in the meantime
            return
        # The process stops waiting on whatever it yielded: were _resume
        # left registered there, that event's value would later be sent
        # into whichever yield the process has moved on to.
        waiting = self._waiting_on.callbacks
        if waiting is not None:  # not fired yet
            waiting.remove(self._resume)
        self._resume(wake)

    # -- generator driving ----------------------------------------------
    def _resume(self, event: Event) -> None:
        """Send ``event``'s value into the generator (throw it if the event
        failed) and wait on whatever the generator yields next.

        One frame per wake-up: slots are read directly and nothing is
        delegated.  Do not cache the bound ``self._resume`` (or
        ``gen.send``) on the instance — the reference cycle keeps every
        finished short-lived process (a striped read's per-chunk process)
        alive until the cyclic collector runs, which costs more than the
        attribute lookups save.
        """
        if self._value is not PENDING:
            return
        try:
            if event._ok:
                target = self.gen.send(event._value)
            else:
                target = self.gen.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            # Propagate process crashes to waiters; if nobody is waiting,
            # failing the event still records it and run() keeps going —
            # re-raise instead so bugs never pass silently.
            if self.callbacks:
                self.fail(exc)
                return
            raise
        if type(target) is not Event:  # the common case needs no check
            if isinstance(target, Timeout):
                # Bind unbound timeouts created inside process code.
                if target.sim is None:
                    target._bind(self.sim)
            elif not isinstance(target, Event):
                raise SimulationError(
                    f"process {self.name!r} yielded {target!r}; processes must "
                    f"yield Event/Timeout/Process instances"
                )
        self._waiting_on = target
        callbacks = target.callbacks
        if callbacks is not None:
            callbacks.append(self._resume)
        else:
            # Already processed: carry on at once, as add_callback does.
            self._resume(target)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.is_alive else "done"
        return f"<Process {self.name!r} {state}>"


class AllOf(Event):
    """Fires when *all* child events have fired successfully.

    Value is the list of child values in construction order.  Fails as
    soon as any child fails (first failure wins).
    """

    __slots__ = ("_remaining", "_values", "_failed")

    def __init__(self, sim: Simulator, events: Iterable[Event]):
        super().__init__(sim)
        events = list(events)
        self._values: List[Any] = [None] * len(events)
        self._remaining = len(events)
        self._failed = False
        if not events:
            self.succeed([])
            return
        for i, ev in enumerate(events):
            if isinstance(ev, Timeout) and ev.sim is None:
                ev._bind(sim)
            ev.add_callback(self._make_cb(i))

    def _make_cb(self, index: int):
        def cb(ev: Event) -> None:
            if self._failed or self.triggered:
                return
            if not ev.ok:
                self._failed = True
                self.fail(ev.value)
                return
            self._values[index] = ev.value
            self._remaining -= 1
            if self._remaining == 0:
                self.succeed(list(self._values))

        return cb


class AnyOf(Event):
    """Fires when the *first* child event fires (success or failure).

    Value is ``(index, value)`` of the winning child.  A failing child
    fails the combinator.
    """

    __slots__ = ("_done",)

    def __init__(self, sim: Simulator, events: Iterable[Event]):
        super().__init__(sim)
        events = list(events)
        self._done = False
        if not events:
            raise SimulationError("AnyOf of zero events would never fire")
        for i, ev in enumerate(events):
            if isinstance(ev, Timeout) and ev.sim is None:
                ev._bind(sim)
            ev.add_callback(self._make_cb(i))

    def _make_cb(self, index: int):
        def cb(ev: Event) -> None:
            if self._done:
                return
            self._done = True
            if ev.ok:
                self.succeed((index, ev.value))
            else:
                self.fail(ev.value)

        return cb
