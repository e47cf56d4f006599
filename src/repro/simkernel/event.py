"""One-shot events: the unit of synchronisation in the kernel.

An :class:`Event` starts *pending*; it is later *succeeded* with a value or
*failed* with an exception.  Callbacks registered on a pending event run when
it triggers; callbacks registered on an already-triggered event run
immediately at the current simulation time (same-tick semantics), which keeps
"check then wait" code free of lost-wakeup races.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.simkernel.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.scheduler import Simulator

Callback = Callable[["Event"], None]

_PENDING = object()


class Event:
    """A one-shot condition that processes can wait on.

    Parameters
    ----------
    sim:
        The owning simulator.
    name:
        Optional label used in traces and repr.
    """

    __slots__ = ("sim", "name", "_value", "_exc", "callbacks")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._value: object = _PENDING
        self._exc: Optional[BaseException] = None
        self.callbacks: Optional[list[Callback]] = []

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has succeeded or failed."""
        return self._value is not _PENDING or self._exc is not None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (triggered without an exception)."""
        return self.triggered and self._exc is None

    @property
    def value(self) -> object:
        """The success value.  Raises if the event failed or is pending."""
        if self._exc is not None:
            raise self._exc
        if self._value is _PENDING:
            raise SimulationError(f"event {self!r} has not triggered yet")
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, or None."""
        return self._exc

    # -- triggering -------------------------------------------------------

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully, scheduling callbacks now."""
        # `self.triggered` inlined: succeed() runs once per timeout/grant.
        if self._value is not _PENDING or self._exc is not None:
            raise SimulationError(f"event {self!r} already triggered")
        self._value = value
        self.sim._dispatch(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception, scheduling callbacks now."""
        if self._value is not _PENDING or self._exc is not None:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exc = exc
        self.sim._dispatch(self)
        return self

    # -- waiting ----------------------------------------------------------

    def add_callback(self, cb: Callback) -> None:
        """Run ``cb(self)`` when the event triggers (immediately if it has)."""
        if self.callbacks is None:
            # Already dispatched: run at the current time via the scheduler
            # so ordering relative to other same-tick work stays FIFO.
            self.sim._push(self.sim.now, cb, (self,))
        else:
            self.callbacks.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "pending"
        if self.triggered:
            state = "failed" if self._exc is not None else "ok"
        label = self.name or self.__class__.__name__
        return f"<{label} {state} @{id(self):#x}>"


class Timeout(Event):
    """An event that succeeds ``delay`` ticks after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: int, value: object = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay}")
        # No name: timeouts are the hottest event kind, and __repr__ labels
        # them by their delay.
        super().__init__(sim)
        self.delay = int(delay)
        sim._schedule_timeout(self, self.delay, value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "ok" if self.triggered else "pending"
        return f"<timeout({self.delay}) {state} @{id(self):#x}>"


class AllOf(Event):
    """Succeeds when every one of ``events`` has triggered.

    The value is the list of child values in the original order.  The first
    failing child fails the composite.
    """

    __slots__ = ("events", "_n_done")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, "all_of")
        self.events = tuple(events)
        self._n_done = 0
        if not self.events:
            self.succeed([])
            return
        for ev in self.events:
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if ev.exception is not None:
            self.fail(ev.exception)
            return
        self._n_done += 1
        if self._n_done == len(self.events):
            self.succeed([e.value for e in self.events])
