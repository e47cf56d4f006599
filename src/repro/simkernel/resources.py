"""FIFO resources and stores.

:class:`Resource` is a counted FIFO lock (capacity >= 1).  ``request()``
returns an event that succeeds when a slot is granted; ``release()`` hands
the slot to the next waiter.

:class:`Store` is a FIFO queue of items whose ``get`` blocks, following the
same event discipline.  It is the building block for packet queues, event
rings and softirq work lists.  A bounded store never blocks a producer:
``try_put`` reports a full store and ``put`` raises on one.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.simkernel.errors import SimulationError
from repro.simkernel.event import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.scheduler import Simulator


class Resource:
    """A counted FIFO lock."""

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        # request() runs per BH packet / per core acquisition: precompute the
        # event label instead of building an f-string on every call.
        self._req_name = f"{name}.request" if name else "request"
        self._in_use = 0
        self._waiters: deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently-held slots."""
        return self._in_use

    @property
    def queue_len(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiters)

    def request(self) -> Event:
        """Ask for a slot; the returned event succeeds when granted."""
        ev = Event(self.sim, self._req_name)
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            ev.succeed(self)
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Give a slot back, waking the next FIFO waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters:
            nxt = self._waiters.popleft()
            nxt.succeed(self)  # slot transfers; _in_use unchanged
        else:
            self._in_use -= 1


class Store:
    """FIFO queue with a blocking get.

    ``capacity=None`` means unbounded; a bounded store takes
    :meth:`try_put`, and :meth:`put` on a full one raises.
    """

    def __init__(self, sim: "Simulator", capacity: Optional[int] = None, name: str = ""):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        # put()/get() run per packet: precompute the event labels.
        self._put_name = f"{name}.put" if name else "put"
        self._get_name = f"{name}.get" if name else "get"
        self._items: deque[object] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of queued items (oldest first)."""
        return tuple(self._items)

    def put(self, item: object) -> Event:
        """Queue ``item``; the returned event has already succeeded.

        Raises :class:`SimulationError` if the store is full.
        """
        if self._getters:
            self._getters.popleft().succeed(item)
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
        else:
            raise SimulationError(f"put on full store {self.name!r}")
        ev = Event(self.sim, self._put_name)
        ev.succeed(None)
        return ev

    def try_put(self, item: object) -> bool:
        """Non-blocking put; returns False if the store is full."""
        if self._getters:
            self._getters.popleft().succeed(item)
            return True
        if self.capacity is not None and len(self._items) >= self.capacity:
            return False
        self._items.append(item)
        return True

    def get(self) -> Event:
        """Dequeue the oldest item; the event succeeds with the item."""
        ev = Event(self.sim, self._get_name)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, object]:
        """Non-blocking get; returns ``(ok, item)``."""
        if self._items:
            return True, self._items.popleft()
        return False, None
