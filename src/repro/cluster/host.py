"""One compute node: CPU complex, memory system, I/OAT engine, NIC, OS.

Reproduces the paper's machines (Fig. 4): two quad-core packages — each
package is two dual-core dies with a 4 MiB shared L2 — attached through the
front-side bus to the 5000X chipset, which hosts both the memory controller
(where NIC DMA and CPU copy traffic contend) and the I/OAT DMA engine.

Core 0 takes the NIC interrupts (BH work); user processes should be placed
on other cores via :meth:`Host.user_core`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ethernet.driver import SoftirqEngine
from repro.ethernet.nic import Nic
from repro.ethernet.skbuff import SkbuffPool
from repro.health.breaker import HostHealth
from repro.ioat.api import IoatDmaApi
from repro.ioat.engine import IoatEngine
from repro.memory.buffers import AddressSpace
from repro.memory.bus import MemoryBus
from repro.memory.cache import CacheDirectory
from repro.memory.copyengine import CpuCopier
from repro.memory.pinning import Pinner
from repro.memory.regcache import RegistrationCache
from repro.obs.registry import MetricsRegistry
from repro.params import Platform
from repro.simkernel.cpu import Core, CpuSet
from repro.simkernel.tracing import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.scheduler import Simulator


class Host:
    """A simulated node of the testbed."""

    def __init__(self, sim: "Simulator", platform: Platform, name: str = "",
                 host_id: int = 1):
        self.sim = sim
        self.platform = platform
        self.params = platform.host
        #: the NIC's MAC and the host part of every endpoint address; the
        #: testbed factories number a testbed's hosts 1..N in spec order
        self.host_id = host_id
        self.name = name or f"node{self.host_id}"

        hp = self.params
        self.cpus = CpuSet(sim, hp.n_sockets, hp.dies_per_socket, hp.cores_per_die)
        n_dies = hp.n_sockets * hp.dies_per_socket
        self.caches = CacheDirectory(hp.cache, n_dies)
        for core in self.cpus.cores:
            core.l2cache = self.caches[core.die]

        self.bus = MemoryBus(sim, hp.bus)
        self.pinner = Pinner(hp)
        self.copier = CpuCopier(hp, self.bus, self.caches)
        self.regcache = RegistrationCache(self.pinner, enabled=platform.omx.regcache_enabled)

        self.ioat_engine = IoatEngine(sim, hp.ioat, caches=self.caches)
        self.ioat = IoatDmaApi(self.ioat_engine)

        self.kernel_space = AddressSpace(f"{self.name}.kernel")
        self.skb_pool = SkbuffPool(self.kernel_space)
        self.nic = Nic(
            sim, platform.nic, mac=self.host_id, pool=self.skb_pool,
            bus=self.bus, caches=self.caches,
        )
        self.softirq = SoftirqEngine(
            sim, platform.nic, irq_core=self.irq_core,
            dispatch_cost=hp.interrupt_dispatch_cost,
        )
        self.nic.softirq = self.softirq
        self.softirq.nics.append(self.nic)
        self.trace = TraceRecorder(sim, enabled=False)
        self.softirq.trace = self.trace
        self.nic.trace = self.trace

        #: per-channel I/OAT circuit breakers (repro.health, DESIGN.md §12)
        self.health = HostHealth(self)
        #: every DMA engine of the host, the chipset's first, then those a
        #: copy backend (repro.core.backends) adds; fault injectors and
        #: sanitizers enumerate channels through this list
        self.dma_engines: list[IoatEngine] = []
        self.add_dma_engine(self.ioat_engine)

        #: per-host metrics registry: every component publishes its counters
        #: here; :func:`repro.core.counters.collect_counters` snapshots it
        self.metrics = MetricsRegistry()
        self._register_metrics()

    def _register_metrics(self) -> None:
        reg = self.metrics
        reg.counter("sim", "sim_events_processed",
                    lambda: self.sim.events_processed)
        self.nic.register_metrics(reg)
        self.softirq.register_metrics(reg)
        self.ioat_engine.register_metrics(reg)
        self.copier.register_metrics(reg)
        self.pinner.register_metrics(reg)
        reg.counter("regcache", "regcache_hits", lambda: self.regcache.hits)
        reg.counter("regcache", "regcache_misses", lambda: self.regcache.misses)
        reg.counter("ioat", "ioat_copies_submitted",
                    lambda: self.ioat.copies_submitted)
        reg.counter("ioat", "ioat_descriptors_submitted",
                    lambda: self.ioat.descriptors_submitted)
        reg.gauge("skbuff", "skbuffs_outstanding",
                  lambda: self.skb_pool.outstanding)
        reg.gauge("skbuff", "skbuffs_peak",
                  lambda: self.skb_pool.peak_outstanding)
        reg.counter("trace", "trace_dropped_spans",
                    lambda: self.trace.dropped_spans,
                    "spans evicted by the recorder's ring-buffer cap")
        self.health.register_metrics(reg)

    def add_dma_engine(self, engine: IoatEngine) -> IoatEngine:
        """Wire ``engine``'s channels into this host: the trace recorder
        and a circuit breaker each.  The one way a DMA channel joins."""
        for channel in engine.channels:
            channel.trace = self.trace
            self.health.adopt(channel)
        self.dma_engines.append(engine)
        return engine

    # -- topology helpers ---------------------------------------------------

    @property
    def irq_core(self) -> Core:
        """The core that services NIC interrupts (BH work)."""
        return self.cpus[0]

    def user_core(self, index: int) -> Core:
        """The ``index``-th core reserved for user processes (skips the IRQ
        core)."""
        return self.cpus[1 + index]

    def core_same_die_pair(self) -> tuple[Core, Core]:
        """Two cores sharing an L2 (Fig. 10's "same dual-core subchip"),
        away from the IRQ core's die."""
        die1 = self.cpus.on_die(1)
        return die1[0], die1[1]

    def core_cross_socket_pair(self) -> tuple[Core, Core]:
        """Two cores on different packages (Fig. 10's cross-socket case)."""
        die1 = self.cpus.on_die(1)  # socket 0
        remote = self.cpus.on_die(self.params.dies_per_socket)  # socket 1
        return die1[0], remote[0]

    def user_space(self, label: str) -> AddressSpace:
        """A fresh user-process address space."""
        return AddressSpace(f"{self.name}.{label}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Host {self.name} id={self.host_id}>"
