"""CPU cores with per-category busy-time accounting.

The paper's Fig. 9 decomposes receive-side CPU usage into *user-library*,
*driver* (system-call command processing, including memory pinning) and
*BH receive* (bottom-half packet processing).  To reproduce it, every piece
of simulated CPU work runs on a :class:`Core` and is tagged with a category
string; the core accumulates busy ticks per category.

A core is a FIFO :class:`~repro.simkernel.resources.Resource` of capacity 1:
work segments queue and contention emerges naturally (e.g. a softirq and a
user process pinned to the same core slow each other down, as on the real
machine).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator, Optional

from repro.simkernel.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.scheduler import Simulator


@dataclass
class BusyCounters:
    """Accumulated busy time (ticks) per category since the last reset."""

    by_category: dict[str, int] = field(default_factory=dict)
    window_start: int = 0

    def add(self, category: str, ticks: int) -> None:
        self.by_category[category] = self.by_category.get(category, 0) + ticks

    def total(self) -> int:
        return sum(self.by_category.values())


class Core:
    """A single CPU core: FIFO execution with busy accounting."""

    def __init__(self, sim: "Simulator", cpu_id: int, socket: int = 0, die: int = 0):
        self.sim = sim
        self.cpu_id = cpu_id
        #: physical package index (Fig. 10 cross-socket placement)
        self.socket = socket
        #: die index within the socket; cores on one die share an L2 cache
        self.die = die
        self.res = Resource(sim, 1, name=f"core{cpu_id}")
        self.counters = BusyCounters()
        #: set by the host to the L2 cache shared by this core's die
        self.l2cache = None
        #: optional :class:`repro.obs.profiler.PhaseProfiler`; when attached,
        #: busy time is additionally attributed to fine-grained phases
        self.profiler = None

    # -- execution ---------------------------------------------------------

    def execute(self, duration: int, category: str) -> Generator:
        """Acquire the core, stay busy ``duration`` ticks, release.

        ``yield from`` this from a process.  Returns the actual completion
        time.
        """
        yield self.res.request()
        try:
            yield from self.busy(duration, category)
        finally:
            self.res.release()
        return self.sim.now

    def busy(self, duration: int, category: str, phase: Optional[str] = None) -> Generator:
        """Consume ``duration`` busy ticks; the caller must hold the core.

        ``phase`` optionally tags the work for an attached
        :class:`~repro.obs.profiler.PhaseProfiler` (no cost when none is).
        """
        if duration < 0:
            raise ValueError("negative duration")
        if duration:
            # Bare-int sleep: same schedule as `yield sim.timeout(duration)`
            # with zero Event/Timeout allocation — this line runs once per
            # simulated work segment, millions of times per figure.
            yield duration
        d = self.counters.by_category
        d[category] = d.get(category, 0) + duration
        if self.profiler is not None:
            self.profiler.record(self, category, phase, duration)
        return self.sim.now

    # -- accounting ---------------------------------------------------------

    def account(self, category: str, ticks: int, phase: Optional[str] = None) -> None:
        """Charge already-elapsed held-core time (busy-wait accounting).

        For paths that held the core across a wait and know the elapsed
        ticks after the fact (e.g. spinning on DMA completion) — the single
        accounting point shared by the category counters and the profiler.
        """
        d = self.counters.by_category
        d[category] = d.get(category, 0) + ticks
        if self.profiler is not None:
            self.profiler.record(self, category, phase, ticks)

    def reset_counters(self) -> None:
        """Start a fresh measurement window at the current time."""
        self.counters = BusyCounters(window_start=self.sim.now)
        if self.profiler is not None:
            self.profiler.on_reset(self)


class CpuSet:
    """All cores of a host, with topology helpers and aggregate accounting."""

    def __init__(
        self,
        sim: "Simulator",
        n_sockets: int = 2,
        dies_per_socket: int = 2,
        cores_per_die: int = 2,
    ):
        self.sim = sim
        self.cores: list[Core] = []
        cpu_id = 0
        for s in range(n_sockets):
            for d in range(dies_per_socket):
                for _ in range(cores_per_die):
                    self.cores.append(Core(sim, cpu_id, socket=s, die=s * dies_per_socket + d))
                    cpu_id += 1
        self.n_sockets = n_sockets
        self.dies_per_socket = dies_per_socket
        self.cores_per_die = cores_per_die

    def __len__(self) -> int:
        return len(self.cores)

    def __getitem__(self, i: int) -> Core:
        return self.cores[i]

    def on_die(self, die: int) -> list[Core]:
        """Cores sharing L2 cache ``die``."""
        return [c for c in self.cores if c.die == die]

    def reset_counters(self) -> None:
        for c in self.cores:
            c.reset_counters()

    def busy_by_category(self) -> dict[str, int]:
        """Aggregate busy ticks per category across all cores."""
        agg: dict[str, int] = {}
        for c in self.cores:
            for cat, ticks in c.counters.by_category.items():
                agg[cat] = agg.get(cat, 0) + ticks
        return agg

    def usage_percent(self, elapsed: int) -> dict[str, float]:
        """Busy percent *of one core* per category over ``elapsed`` ticks.

        This matches the paper's Fig. 9 presentation, where 100 % means one
        fully-saturated core.
        """
        if elapsed <= 0:
            return {}
        return {
            cat: 100.0 * ticks / elapsed
            for cat, ticks in self.busy_by_category().items()
        }
