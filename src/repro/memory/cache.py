"""Per-die shared L2 cache residency model.

Clovertown packages two dual-core dies per socket; each die shares a 4 MiB
L2.  Three phenomena in the paper hinge on this cache:

* warm copies run at ~6 GiB/s sustained vs ~1.55 GiB/s uncached (Fig. 10's
  shared-cache plateau and its collapse once messages exceed the cache);
* CPU copies *pollute* the cache — a multi-megabyte memcpy evicts everything
  (§V discussion), while I/OAT copies bypass the cache entirely;
* NIC DMA writes invalidate the touched lines, so BH copy sources are
  always cache-cold.

The model tracks page-granular residency per L2 with LRU eviction.  It is a
cost model only: no data lives here (data lives in
:class:`~repro.memory.buffers.MemoryRegion`).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.params import CacheParams
from repro.units import PAGE_SIZE


class L2Cache:
    """One shared L2: page-granular LRU residency tracking."""

    def __init__(self, params: CacheParams, die: int = 0):
        self.params = params
        self.die = die
        self.capacity_pages = params.capacity // PAGE_SIZE
        self._resident: "OrderedDict[int, None]" = OrderedDict()
        # statistics
        self.insertions = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._resident)

    # -- queries -------------------------------------------------------------

    def residency(self, addr: int, length: int) -> float:
        """Fraction of the byte range currently resident (0.0 .. 1.0)."""
        if length <= 0:
            return 1.0
        first = addr // PAGE_SIZE
        n = (addr + length - 1) // PAGE_SIZE - first + 1
        if not self._resident:
            return 0.0
        resident = self._resident
        hit = sum(1 for p in range(first, first + n) if p in resident)
        return hit / n

    # -- updates ---------------------------------------------------------------

    def touch(self, addr: int, length: int) -> None:
        """Bring the range into the cache (CPU load/store side effects).

        This is the pollution mechanism: touching more than the capacity
        LRU-evicts older pages.
        """
        if length <= 0:
            return
        resident = self._resident
        last = (addr + length - 1) // PAGE_SIZE
        for p in range(addr // PAGE_SIZE, last + 1):
            if p in resident:
                resident.move_to_end(p)
            else:
                resident[p] = None
                self.insertions += 1
                if len(resident) > self.capacity_pages:
                    resident.popitem(last=False)
                    self.evictions += 1


class CacheDirectory:
    """All L2 caches of a host, indexed by die, with global invalidation."""

    def __init__(self, params: CacheParams, n_dies: int):
        self.caches = [L2Cache(params, die=d) for d in range(n_dies)]

    def __getitem__(self, die: int) -> L2Cache:
        return self.caches[die]

    def __len__(self) -> int:
        return len(self.caches)

    def invalidate_all(self, addr: int, length: int) -> None:
        """Invalidate a range in every cache (NIC / I-OAT DMA writes snoop
        every die's cache)."""
        if length <= 0:
            return
        first = addr // PAGE_SIZE
        last = (addr + length - 1) // PAGE_SIZE
        # Runs once per DMA write, i.e. once per received frame: skip the
        # page walk for every cache that holds nothing.
        for c in self.caches:
            resident = c._resident
            if not resident:
                continue
            pop = resident.pop
            for p in range(first, last + 1):
                pop(p, None)
