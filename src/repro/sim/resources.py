"""Synchronization primitives built on events.

All primitives hand out wakeups in strict FIFO order, which keeps
simulations deterministic and makes starvation impossible — important
because the coarse-grain-lock serializer experiments (paper §V-A) measure
contention behaviour and must not depend on arbitrary queue order.

Usage from a process::

    yield from resource.acquire()
    ...critical section...
    resource.release()

    yield from store.put(item)
    item = yield from store.get()
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Generator, Optional

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

__all__ = ["Resource", "Semaphore", "Store"]


class Resource:
    """A counted resource (capacity ``n``); capacity 1 is a mutex.

    :meth:`acquire` is a generator meant for ``yield from``; it completes
    once a slot is held.  :meth:`release` is a plain call.
    """

    def __init__(self, sim: "Simulator", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Number of slots currently held."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of processes waiting for a slot."""
        return len(self._waiters)

    def try_acquire(self) -> bool:
        """Take a slot immediately if one is free; never waits."""
        if self._in_use < self.capacity:
            self._in_use += 1
            return True
        return False

    def acquire(self) -> Generator[Event, Any, None]:
        """Wait until a slot is free, then take it (``yield from``)."""
        if self._in_use < self.capacity:
            self._in_use += 1
            return
        ticket = Event(self.sim)
        self._waiters.append(ticket)
        yield ticket
        # Slot ownership was transferred by release(); nothing to do.

    def release(self) -> None:
        """Give back a slot; wakes the longest-waiting acquirer."""
        if self._in_use <= 0:
            raise RuntimeError("release() without matching acquire()")
        if self._waiters:
            # Hand the slot straight to the next waiter: _in_use stays
            # constant, so no third party can barge in between.
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1


class Semaphore:
    """A counting semaphore with FIFO wakeups.

    Unlike :class:`Resource` the counter may be raised past its initial
    value, which makes it suitable for signalling (post/wait pairs).
    """

    def __init__(self, sim: "Simulator", initial: int = 0) -> None:
        if initial < 0:
            raise ValueError("initial count must be >= 0")
        self.sim = sim
        self._count = initial
        self._waiters: Deque[Event] = deque()

    @property
    def count(self) -> int:
        """Current counter value (not counting queued waiters)."""
        return self._count

    def post(self, n: int = 1) -> None:
        """Increment the counter, waking up to ``n`` waiters."""
        if n < 1:
            raise ValueError("post count must be >= 1")
        for _ in range(n):
            if self._waiters:
                self._waiters.popleft().succeed()
            else:
                self._count += 1

    def wait(self) -> Generator[Event, Any, None]:
        """Wait for the counter to be positive, then decrement it."""
        if self._count > 0:
            self._count -= 1
            return
        ticket = Event(self.sim)
        self._waiters.append(ticket)
        yield ticket


class Store:
    """An unbounded FIFO buffer of items with blocking :meth:`get`.

    ``put`` never blocks (the NICs model backpressure explicitly with
    their own rate limiting, so an unbounded store is the right level of
    abstraction here).
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Append ``item``; wakes the oldest blocked getter, if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Generator[Event, Any, Any]:
        """Wait for and return the oldest item (``yield from``)."""
        if self._items:
            return self._items.popleft()
        ticket = Event(self.sim)
        self._getters.append(ticket)
        item = yield ticket
        return item

    def try_get(self) -> Optional[Any]:
        """Return the oldest item or ``None`` without blocking."""
        if self._items:
            return self._items.popleft()
        return None

    def peek_all(self) -> list:
        """Snapshot of buffered items (diagnostic)."""
        return list(self._items)
