"""Deterministic discrete-event simulation kernel.

This package is the substrate everything else runs on.  It provides:

* :class:`~repro.simkernel.scheduler.Simulator` — the event loop, with time
  measured in integer nanoseconds.
* :class:`~repro.simkernel.event.Event`, :class:`~repro.simkernel.event.Timeout`
  — one-shot triggerable conditions.
* :class:`~repro.simkernel.process.Process` — generator-coroutine processes
  (``yield`` an event to wait on it).
* :class:`~repro.simkernel.resources.Resource`,
  :class:`~repro.simkernel.resources.Store` — FIFO mutexes and queues.
* :class:`~repro.simkernel.cpu.Core` / :class:`~repro.simkernel.cpu.CpuSet`
  — CPU cores with per-category busy-time accounting (the basis of the
  paper's Fig. 9 CPU-usage measurements).
* :class:`~repro.simkernel.tracing.TraceRecorder` — structured event traces
  (the basis of Fig. 5/6-style timelines).

Design notes
------------
Events fire in (time, sequence) order: ties are broken by scheduling order,
so runs are fully deterministic.  The tie-break is pluggable
(:mod:`repro.simkernel.tiebreak`); the FIFO default is the documented
contract, and the seeded-shuffle policies exist so the race detector can
prove no layer depends on more than that contract.  Processes are plain
generators; they yield :class:`Event` instances and are resumed with the
event's value (or have the event's exception thrown into them).  A process
is itself an event that succeeds with the generator's return value,
enabling fork/join.
"""

from repro.simkernel.errors import Interrupted, SimulationError
from repro.simkernel.event import AllOf, Event, Timeout
from repro.simkernel.process import Process
from repro.simkernel.resources import Resource, Store
from repro.simkernel.scheduler import Simulator
from repro.simkernel.sync import Signal
from repro.simkernel.cpu import Core, CpuSet
from repro.simkernel.tiebreak import (
    FifoTieBreak,
    PrefixShuffleTieBreak,
    SeededShuffleTieBreak,
    TieBreakPolicy,
    default_tiebreak,
)
from repro.simkernel.tracing import TraceRecorder, TraceSpan

__all__ = [
    "AllOf",
    "Core",
    "CpuSet",
    "Event",
    "FifoTieBreak",
    "Interrupted",
    "PrefixShuffleTieBreak",
    "Process",
    "Resource",
    "SeededShuffleTieBreak",
    "Signal",
    "SimulationError",
    "Simulator",
    "Store",
    "TieBreakPolicy",
    "Timeout",
    "TraceRecorder",
    "TraceSpan",
    "default_tiebreak",
]
