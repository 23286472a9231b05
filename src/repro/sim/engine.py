"""Event heap and simulator loop.

The engine follows the classic discrete-event pattern: a priority queue
of ``(time, sequence, event)`` entries drained in time order; firing an
entry runs the event's callbacks.  Two design points matter for the
reproduction:

- **Determinism.**  Ties in time are broken by a monotonically increasing
  sequence number, allocated when the event is triggered, so two runs
  with the same seeds replay identically.  (Reproducible runs are what
  make the Pilot-style statistics in :mod:`repro.stats` meaningful.)
  The heap key of every push is ``now + delay`` — also for
  :meth:`Simulator.call_at`, whose key is ``now + (t - now)`` and not
  ``t``; the two can differ in the last bit, and the golden digests
  were cut with the former.
- **Cheap hot path.**  ``heapq`` on plain tuples and one interpreter
  frame per event: :meth:`Simulator.run` pops and dispatches in its own
  frame, and triggering an event pushes its heap entry directly.  The
  cluster model fires ~3 000 events per simulated second; what each
  costs is an :class:`Event`, its callback list and its heap tuple
  (``call_at`` adds a closure over ``fn``).  See "DES hot path" in
  ``docs/ARCHITECTURE.md`` for the event-order contract.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.sim.errors import SimulationError

# An event that has not fired yet.
PENDING = object()


class Event:
    """A one-shot occurrence processes can wait on.

    An event starts *pending*; exactly once it is either succeeded with a
    value or failed with an exception.  Callbacks registered before the
    trigger run when the simulator reaches the trigger time; callbacks
    registered after it has been processed run immediately.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        # ``None`` once the callbacks have run: that *is* "processed".
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once succeed()/fail() has been called."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError("event has not been triggered yet")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Mark the event successful and schedule its callbacks."""
        if self._value is not PENDING:
            raise SimulationError("event already triggered")
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._value = value
        self._ok = True
        # Simulator._schedule, inlined: this is the hottest push.
        sim = self.sim
        heappush(sim._heap, (sim.now + delay, sim._seq, self))
        sim._seq += 1
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Mark the event failed; waiting processes will see ``exc`` raised."""
        if self._value is not PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        self.sim._schedule(self, delay)
        self._value = exc
        self._ok = False
        return self

    # -- callbacks -----------------------------------------------------
    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for fn in callbacks:
                fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "pending" if not self.triggered else ("ok" if self._ok else "failed")
        return f"<{type(self).__name__} {state} at t={self.sim.now:.6g}>"


class Timeout(Event):
    """Event that fires ``delay`` simulated seconds after creation.

    May be constructed unbound (``Timeout(3.0)``) inside process code and
    yielded; the driving :class:`~repro.sim.process.Process` binds it to
    its simulator.  This keeps workload generator code free of explicit
    simulator plumbing.
    """

    __slots__ = ("delay", "_pending_value")

    def __init__(self, delay: float, value: Any = None, sim: Optional["Simulator"] = None):
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"Timeout delay must be >= 0, got {delay}")
        self.delay = delay = float(delay)
        self.sim = sim  # type: ignore[assignment]
        self.callbacks = []
        if sim is not None:
            self._value = value
            self._ok = True
            heappush(sim._heap, (sim.now + delay, sim._seq, self))
            sim._seq += 1
        else:
            # Unbound: _bind() completes initialisation.
            self._value = PENDING
            self._ok = None
            self._pending_value = value

    def _bind(self, sim: "Simulator") -> None:
        if self.sim is not None:
            return
        self.sim = sim
        self._value = self._pending_value
        self._ok = True
        heappush(sim._heap, (sim.now + self.delay, sim._seq, self))
        sim._seq += 1


_new_event = object.__new__


class Simulator:
    """Discrete-event simulator: an event heap plus the current time.

    ``now`` — the current simulated time in seconds — is a plain
    attribute that :meth:`run` and :meth:`step` assign; model code reads
    it on nearly every event, so it is not a property.  Treat it as
    read-only.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        # What _hop pushes: an event already fired, with no callbacks.
        self._inert = inert = Event(self)
        inert._value, inert._ok, inert.callbacks = None, True, None

    @property
    def events_processed(self) -> int:
        """Total events processed so far (for engine benchmarks).

        Every push takes a sequence number and only ``run`` and ``step``
        pop, so this is pushes minus entries still queued: exact also
        when a callback raises, and nothing to count per event.
        """
        return self._seq - len(self._heap)

    # -- construction helpers ------------------------------------------
    def event(self) -> Event:
        """Create a new pending event bound to this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a timeout that fires ``delay`` seconds from now."""
        return Timeout(delay, value=value, sim=self)

    def spawn(self, gen: Generator, name: Optional[str] = None) -> "Process":
        """Run generator ``gen`` as a simulation process."""
        return Process(self, gen, name=name)

    # -- scheduling ------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        """Push ``event`` to fire ``delay`` seconds from now.

        The one definition of a push: key ``now + delay`` (so ``now`` for a
        zero delay), next sequence number.  ``Event.succeed``,
        ``Timeout``, :meth:`_hop`, :meth:`_succeeded` and the fabric's
        message hops inline exactly this.
        """
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heappush(self._heap, (self.now + delay, self._seq, event))
        self._seq += 1

    def _hop(self) -> None:
        """Push an entry at ``now`` that fires nothing.

        It stands in for a zero-delay event nobody waits on — the exit
        of a process whose work a continuation now does — whose
        sequence number still orders every later push at the same time.
        """
        heappush(self._heap, (self.now, self._seq, self._inert))
        self._seq += 1

    def _succeeded(self, value: Any = None) -> Event:
        """An event already succeeded with ``value``, pushed at ``now``.

        ``Event(sim).succeed(value)`` in one call: the immediate grant of
        a resource that has room.  The push is the one ``succeed`` makes
        (key ``now + 0.0``, which is ``now``; next sequence number).
        """
        ev = _new_event(Event)
        ev.sim = self
        ev.callbacks = []
        ev._value = value
        ev._ok = True
        heappush(self._heap, (self.now, self._seq, ev))
        self._seq += 1
        return ev

    def call_at(self, t: float, fn: Callable[[], None]) -> Event:
        """Invoke ``fn()`` at absolute time ``t`` (>= now).

        The heap key is ``now + (t - now)``, not ``t``: ``call_at`` has
        always been a timeout of ``t - now``, and when ``t > 2 * now`` the
        subtraction rounds, so the two can differ in the last bit.
        """
        now = self.now
        if not t >= now:  # also rejects NaN
            raise SimulationError(f"call_at({t}) is in the past (now={now})")
        ev = Timeout(t - now, None, self)
        ev.callbacks.append(lambda _e: fn())
        return ev

    # -- main loop -------------------------------------------------------
    def step(self) -> None:
        """Process the single next event."""
        if not self._heap:
            raise SimulationError("step() on empty event queue")
        t, _seq, event = heappop(self._heap)
        self.now = t
        event._run_callbacks()

    def peek(self) -> float:
        """Time of the next event, or ``inf`` if the queue is empty."""
        return self._heap[0][0] if self._heap else float("inf")

    def run(self, until: Optional[float] = None) -> None:
        """Drain events; stop at time ``until`` (exclusive of later events).

        With ``until=None``, runs until the queue empties.  When a bound
        is given the clock is advanced exactly to it, so back-to-back
        ``run(until=...)`` calls tile time seamlessly.

        Equivalent to ``while peek() <= until: step()``, dispatched in
        this frame.  The clock is *not* cached in a local: callbacks read
        ``sim.now``.
        """
        if until is None:
            bound = float("inf")
        elif not until >= self.now:  # also rejects NaN
            raise SimulationError(f"run(until={until}) is in the past (now={self.now})")
        else:
            bound = until
        heap = self._heap
        pop = heappop
        while heap and heap[0][0] <= bound:
            self.now, _seq, event = pop(heap)
            # Event._run_callbacks, inlined.
            callbacks = event.callbacks
            event.callbacks = None
            if callbacks:
                for fn in callbacks:
                    fn(event)
        if until is not None:
            self.now = float(until)


# process.py imports this module, so the cycle engine -> process -> engine
# is resolved here, below every name process.py needs, rather than by a
# function-local import on each spawn().
from repro.sim.process import Process  # noqa: E402
