"""A reusable broadcast condition built on one-shot events.

:class:`Signal`: ``wait()`` returns a fresh event that the next
``fire(value)`` call triggers.  Useful for "new event arrived in the ring"
notifications where many sleepers must all wake.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.simkernel.event import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.scheduler import Simulator


class Signal:
    """Broadcast wake-up; every waiter registered before ``fire`` wakes."""

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._wait_name = f"{name}.wait" if name else "wait"
        self._waiters: list[Event] = []
        #: number of fire() calls so far; handy for progress assertions
        self.fired_count = 0

    def wait(self) -> Event:
        """Return an event triggered by the next :meth:`fire`."""
        ev = Event(self.sim, self._wait_name)
        self._waiters.append(ev)
        return ev

    def fire(self, value: object = None) -> int:
        """Wake all current waiters; returns how many were woken."""
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            ev.succeed(value)
        self.fired_count += 1
        return len(waiters)

