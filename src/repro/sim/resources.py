"""Shared resources for simulation processes.

Three primitives cover everything the cluster model needs:

- :class:`Resource` — counting semaphore with a FIFO wait queue and a
  **runtime-adjustable capacity**.  The Lustre congestion window
  (``max_rpcs_in_flight``) is exactly this: CAPES actions resize the
  window while requests are in flight; shrinking takes effect lazily as
  holders release.
- :class:`Store` — unbounded FIFO of items with blocking ``get``; used
  for server request queues.
- :class:`TokenBucket` — classic token-bucket rate limiter; the paper's
  second tunable ("I/O rate limit: how many outgoing I/O requests are
  allowed per second") is a token bucket whose refill rate CAPES tunes.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional, Tuple

from repro.sim.engine import Event, Simulator
from repro.sim.errors import SimulationError
from repro.util.validation import check_positive


class Resource:
    """FIFO counting semaphore with adjustable capacity."""

    def __init__(self, sim: Simulator, capacity: int):
        check_positive("capacity", capacity)
        self.sim = sim
        self._capacity = int(capacity)
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def in_use(self) -> int:
        """Number of currently held slots (may exceed capacity transiently
        right after a capacity decrease)."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Number of processes waiting for a slot."""
        return len(self._waiters)

    def set_capacity(self, capacity: int) -> None:
        """Resize at runtime.  Growth wakes waiters immediately; shrink
        never revokes held slots — it back-pressures future acquires."""
        check_positive("capacity", capacity)
        self._capacity = int(capacity)
        self._wake_waiters()

    def acquire(self) -> Event:
        """Request one slot; yield the returned event to wait for it."""
        if self._in_use < self._capacity and not self._waiters:
            self._in_use += 1
            return self.sim._succeeded()
        ev = Event(self.sim)
        self._waiters.append(ev)
        return ev

    def cancel(self, request: Event) -> None:
        """Withdraw an :meth:`acquire` whose waiter gave up (interrupted).

        A request still queued leaves the queue; one already granted —
        its event triggered but not yet seen by the waiter — is released.
        """
        if request.triggered:
            self.release()
        else:
            self._waiters.remove(request)

    def release(self) -> None:
        """Return one slot and hand it to the oldest waiter if any fits."""
        if self._in_use <= 0:
            raise SimulationError("release() without matching acquire()")
        self._in_use -= 1
        self._wake_waiters()

    def _wake_waiters(self) -> None:
        while self._waiters and self._in_use < self._capacity:
            ev = self._waiters.popleft()
            self._in_use += 1
            ev.succeed()


class Store:
    """Unbounded FIFO store with blocking get.

    ``put`` never blocks (server request queues in the cluster model are
    bounded by the clients' congestion windows, not by the store).
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Yield the returned event to receive the oldest item."""
        if self._items:
            return self.sim._succeeded(self._items.popleft())
        ev = Event(self.sim)
        self._getters.append(ev)
        return ev

    def peek_all(self) -> Tuple[Any, ...]:
        """Snapshot of queued items, oldest first (for scheduler merging)."""
        return tuple(self._items)

    def drain(self) -> Tuple[Any, ...]:
        """Remove and return all queued items at once."""
        items = tuple(self._items)
        self._items.clear()
        return items


class TokenBucket:
    """Token-bucket rate limiter with runtime-adjustable rate.

    Tokens accrue continuously at ``rate`` per second up to ``capacity``.
    ``acquire(n)`` blocks the calling process until ``n`` tokens are
    available, serving waiters FIFO so a large request cannot be starved
    by a stream of small ones.
    """

    def __init__(
        self,
        sim: Simulator,
        rate: float,
        capacity: Optional[float] = None,
    ):
        check_positive("rate", rate)
        self.sim = sim
        self._rate = float(rate)
        self.capacity = float(capacity) if capacity is not None else float(rate)
        check_positive("capacity", self.capacity)
        self._tokens = self.capacity  # start full: first burst is free
        self._last_refill = sim.now
        self._waiters: Deque[Tuple[float, Event]] = deque()
        self._pump_scheduled = False
        # Invalidates in-flight wake-ups when the rate changes.
        self._generation = 0

    @property
    def rate(self) -> float:
        return self._rate

    @property
    def tokens(self) -> float:
        """Tokens currently available (after a virtual refill to now)."""
        self._refill()
        return self._tokens

    def set_rate(self, rate: float) -> None:
        """Change the refill rate; pending waiters are re-timed."""
        check_positive("rate", rate)
        self._refill()
        self._rate = float(rate)
        # Cancel any wake scheduled under the old rate and re-plan.
        self._generation += 1
        self._pump_scheduled = False
        self._pump()

    def acquire(self, n: float = 1.0) -> Event:
        """Take ``n`` tokens, waiting for refill if necessary."""
        if n <= 0:
            raise ValueError(f"token count must be > 0, got {n}")
        if n > self.capacity:
            raise ValueError(
                f"cannot acquire {n} tokens from a bucket of capacity "
                f"{self.capacity}"
            )
        self._refill()
        if not self._waiters and self._tokens >= n:
            self._tokens -= n
            return self.sim._succeeded()
        ev = Event(self.sim)
        self._waiters.append((float(n), ev))
        self._pump()
        return ev

    def cancel(self, request: Event, n: float = 1.0) -> None:
        """Withdraw an ``acquire(n)`` whose waiter gave up (interrupted).

        A request still queued leaves the queue; one already granted
        gives its ``n`` tokens back.  Either way whoever now fits is
        served.
        """
        if request.triggered:
            self._refill()
            self._tokens = min(self.capacity, self._tokens + n)
        else:
            self._waiters = deque(w for w in self._waiters if w[1] is not request)
        self._pump()

    # -- internals -------------------------------------------------------
    def _refill(self) -> None:
        now = self.sim.now
        dt = now - self._last_refill
        if dt > 0:
            self._tokens = min(self.capacity, self._tokens + dt * self._rate)
            self._last_refill = now

    #: Slack absorbing float rounding in refill arithmetic; without it a
    #: waiter can starve on an infinite sequence of ~1e-16 wake-ups.
    _EPS = 1e-9

    def _pump(self) -> None:
        """Serve whoever fits now; schedule a wake-up for the head waiter."""
        self._refill()
        while self._waiters and self._tokens + self._EPS >= self._waiters[0][0]:
            n, ev = self._waiters.popleft()
            self._tokens = max(0.0, self._tokens - n)
            ev.succeed()
        if self._waiters and not self._pump_scheduled:
            need = self._waiters[0][0] - self._tokens
            delay = max(need / self._rate, self._EPS)
            self._pump_scheduled = True
            gen = self._generation

            def wake(_ev: Event) -> None:
                if gen != self._generation:
                    return  # superseded by a set_rate re-plan
                self._pump_scheduled = False
                self._pump()

            self.sim.timeout(delay).add_callback(wake)
