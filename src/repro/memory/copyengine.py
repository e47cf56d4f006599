"""CPU memcpy cost model.

A CPU copy's duration depends on where the data is:

* both ends resident in the executing core's L2 → ``cached_copy_bw``
  (~6 GiB/s sustained; Fig. 10 plateau);
* resident only in a *remote* die's cache, or not resident at all →
  uncached bandwidth (~1.55 GiB/s), further scaled by
  ``remote_socket_factor`` for cross-socket sources and throttled by
  memory-bus contention with NIC ingress (see :mod:`repro.memory.bus`);
* every chunk pays a fixed ``setup_cost`` (Fig. 7's memcpy curves).

Copies have side effects: real bytes move, and the touched pages enter the
executing core's L2 (cache pollution — the reason multi-megabyte memcpys
evict everything, §V).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.memory.buffers import MemoryRegion, copy_bytes
from repro.memory.bus import MemoryBus
from repro.memory.cache import CacheDirectory
from repro.memory.layout import count_page_aligned_chunks
from repro.units import PAGE_SIZE, SEC

if TYPE_CHECKING:  # pragma: no cover
    from repro.params import HostParams
    from repro.simkernel.cpu import Core


class CpuCopier:
    """Performs CPU copies with calibrated costs and cache side effects."""

    def __init__(self, params: "HostParams", bus: MemoryBus, caches: CacheDirectory):
        self.params = params
        self.bus = bus
        self.caches = caches
        #: lifetime bytes copied by the CPU (diagnostics / Fig. 9 analysis)
        self.bytes_copied = 0
        self.calls = 0

    def register_metrics(self, reg) -> None:
        """Publish CPU-copy statistics into a metrics registry."""
        reg.counter("copier", "cpu_bytes_copied", lambda: self.bytes_copied)
        reg.counter("copier", "cpu_copy_calls", lambda: self.calls)

    # -- cost arithmetic -----------------------------------------------------

    def _blended_bw(self, core: "Core", src: MemoryRegion, src_off: int,
                    dst: MemoryRegion, dst_off: int, length: int) -> float:
        """Bandwidth for this copy given current cache/bus state."""
        p = self.params
        local = self.caches[core.die]
        # The copy rate is governed by where the *source* lives: loads from
        # memory stall the pipeline, while stores are buffered/allocated
        # regardless.  (Receive-path sources are skbuffs freshly invalidated
        # by NIC DMA, hence always cold — the §II-B bottleneck.)
        warm = local.residency(src.addr + src_off, length)

        uncached = self.bus.effective_copy_bw(p.memcpy.uncached_bw)
        # A cold source that lives warm in another socket's cache is served
        # by a slow FSB cache-to-cache transfer.
        if warm < 1.0 and self._resident_remote_socket(core, src.addr + src_off, length):
            uncached *= p.memcpy.remote_socket_factor

        cached = p.cache.cached_copy_bw
        # Harmonic blend: time per byte is the mix of per-byte times.
        per_byte = warm / cached + (1.0 - warm) / uncached
        return 1.0 / per_byte

    def _resident_remote_socket(self, core: "Core", addr: int, length: int) -> bool:
        dies_per_socket = self.params.dies_per_socket
        my_socket = core.die // dies_per_socket
        for cache in self.caches.caches:
            if cache.die // dies_per_socket != my_socket and cache.residency(addr, length) > 0.5:
                return True
        return False

    def copy_cost(self, core: "Core", src: MemoryRegion, src_off: int,
                  dst: MemoryRegion, dst_off: int, length: int,
                  chunk: Optional[int] = None) -> int:
        """Predicted CPU ticks for this copy (no side effects).

        ``chunk`` overrides the chunking: by default copies split at page
        boundaries of either buffer (the DMA-address constraint applies to
        the skbuff layout the data came in, so memcpy inherits the same
        segmentation in the BH path).
        """
        if length <= 0:
            return 0
        if chunk is not None:
            if chunk <= 0:
                raise ValueError("chunk must be positive")
            n_chunks = -(-length // chunk)  # ceil division
        else:
            n_chunks = count_page_aligned_chunks(src.addr + src_off, dst.addr + dst_off, length)
        bw = self._blended_bw(core, src, src_off, dst, dst_off, length)
        move = int(round(length * SEC / bw))
        return n_chunks * self.params.memcpy.setup_cost + max(move, 1)

    # -- execution ---------------------------------------------------------------

    def memcpy(self, core: "Core", src: MemoryRegion, src_off: int,
               dst: MemoryRegion, dst_off: int, length: int, category: str,
               chunk: Optional[int] = None,
               phase: Optional[str] = None) -> Generator:
        """Copy with CPU time charged to ``category``; caller holds ``core``.

        Moves the real bytes and applies cache pollution.  ``phase`` tags
        the work for an attached profiler.  Returns the cost in ticks.
        """
        cost = self.copy_cost(core, src, src_off, dst, dst_off, length, chunk)
        if cost:
            yield cost  # bare-int sleep (schedule-identical to core.busy)
        self.commit(core, src, src_off, dst, dst_off, length, category, cost,
                    phase)
        return cost

    def commit(self, core: "Core", src: MemoryRegion, src_off: int,
               dst: MemoryRegion, dst_off: int, length: int, category: str,
               cost: int, phase: Optional[str] = None) -> None:
        """Post-sleep half of :meth:`memcpy`: accounting + side effects.

        Split out so fragment-sized hot paths can run plan/yield/commit in
        their own frame instead of delegating into a fresh generator per
        copy; the caller must already have slept ``cost`` ticks (obtained
        from :meth:`copy_cost`) while holding ``core``.
        """
        core.account(category, cost, phase or "memcpy")
        copy_bytes(src, src_off, dst, dst_off, length)
        cache = self.caches[core.die]
        cache.touch(src.addr + src_off, length)
        dsta = dst.addr + dst_off
        cache.touch(dsta, length)
        # Stores take the destination lines exclusive: every other cache's
        # copy is invalidated (MESI).  This is what keeps ping-pong copies
        # between sockets permanently slow (Fig. 10): each side's data is
        # dirty in the other side's cache.  (The invalidate_all loop minus
        # the copying die, inline: this runs once per BH copy.)
        first = dsta // PAGE_SIZE
        last = (dsta + length - 1) // PAGE_SIZE
        for other in self.caches.caches:
            if other is cache:
                continue
            resident = other._resident
            if not resident:
                continue
            pop = resident.pop
            for p in range(first, last + 1):
                pop(p, None)
        self.bytes_copied += length
        self.calls += 1
