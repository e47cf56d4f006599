"""Socket buffers.

Two flavours matter to the paper:

* **Receive skbuffs** own kernel pages; the NIC DMAs incoming frame data
  into them.  Because they are allocated before anyone knows which message
  the data belongs to, the payload must later be *copied* to its real
  destination — the copy this whole paper is about.
* **Transmit skbuffs** may carry *page fragments*: references to pinned
  user pages attached without copying ("attach user-level physical pages to
  skbuffs in order to achieve zero-copy", §II-A), so the send side is cheap.

The pool tracks outstanding buffers; tests assert it drains back to zero
(no skbuff leaks, incl. the deferred-release path of §III-B).
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.memory.buffers import AddressSpace, MemoryRegion
from repro.units import PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.ethernet.frame import EthernetFrame


class _MappedRegion(MemoryRegion):
    """A region whose storage, made on first use, is an anonymous mapping.

    The OS zero-fills a mapping page by page as it is first touched, so
    only the pages written become resident.  ``np.zeros`` does not promise
    that: the C allocator may hand back reused heap memory and clear all
    of it, and numpy advises transparent huge pages for arrays of 4 MiB
    and more, under which one write makes 2 MiB resident.
    """

    __slots__ = ()

    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            self._data = np.frombuffer(mmap.mmap(-1, self._size), dtype=np.uint8)
        return self._data


@dataclass
class PageFrag:
    """A zero-copy reference to bytes in a (pinned) user region."""

    region: MemoryRegion
    offset: int
    length: int


class Skbuff:
    """One socket buffer."""

    __slots__ = ("pool", "head", "data_len", "frags", "frame", "freed")

    def __init__(self, pool: "SkbuffPool", head: Optional[MemoryRegion]):
        self.pool = pool
        #: linear kernel-page buffer (receive data lands here)
        self.head = head
        #: valid bytes in ``head``
        self.data_len = 0
        #: zero-copy page fragments (transmit path)
        self.frags: list[PageFrag] = []
        #: the frame this skbuff was received from / will be sent as
        self.frame: Optional["EthernetFrame"] = None
        self.freed = False

    @property
    def total_len(self) -> int:
        """Linear bytes plus fragment bytes."""
        return self.data_len + sum(f.length for f in self.frags)

    def add_frag(self, region: MemoryRegion, offset: int, length: int) -> None:
        """Attach user pages without copying (zero-copy transmit)."""
        if length <= 0:
            raise ValueError("fragment length must be positive")
        self.frags.append(PageFrag(region, offset, length))

    def free(self) -> None:
        """Return the buffer to its pool.  Double-free is an error."""
        if self.freed:
            raise RuntimeError("skbuff double free")
        self.freed = True
        self.pool._on_free(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Skbuff len={self.total_len} frags={len(self.frags)} "
            f"{'FREED' if self.freed else 'live'}>"
        )


class SkbuffPool:
    """Kernel skbuff allocator with outstanding-buffer accounting."""

    def __init__(self, kernel_space: AddressSpace, buf_pages: int = 3):
        self.space = kernel_space
        #: pages per receive buffer (jumbo frame needs 3 × 4 kB)
        self.buf_pages = buf_pages
        self._free: list[MemoryRegion] = []
        #: currently-live skbuffs (allocated, not yet freed)
        self.outstanding = 0
        #: high-water mark of live skbuffs (bounds §III-B's pending pool)
        self.peak_outstanding = 0
        self.total_allocated = 0
        #: optional :class:`repro.analysis.sanitizers.Sanitizer` hook; when
        #: set, it is notified of every alloc/free (leak tracking)
        self.observer = None

    def alloc_rx(self) -> Skbuff:
        """A receive skbuff with linear kernel pages."""
        region = self._free.pop() if self._free else self.space.alloc_pages(self.buf_pages)
        return self._track(Skbuff(self, region))

    def carve_rx(self, n: int) -> list[Skbuff]:
        """``n`` receive skbuffs whose heads are consecutive subregions of
        one page allocation: a NIC's initial ring fill.

        The heads get the addresses of ``n`` back-to-back :meth:`alloc_rx`
        calls on an empty free list.  The allocation's storage is a
        :class:`_MappedRegion`'s, so only the pages a payload is stored in
        become resident (phantom mode stores payloads of 64 B or less).
        """
        size = self.buf_pages * PAGE_SIZE
        pages = self.space.alloc_pages(self.buf_pages * n)
        ring = _MappedRegion(pages.addr, len(pages), self.space)
        return [self._track(Skbuff(self, ring.subregion(i * size, size)))
                for i in range(n)]

    def alloc_tx(self) -> Skbuff:
        """A transmit skbuff (headers only; data rides in page frags)."""
        return self._track(Skbuff(self, None))

    def _track(self, skb: Skbuff) -> Skbuff:
        n = self.outstanding + 1
        self.outstanding = n
        self.total_allocated += 1
        if n > self.peak_outstanding:
            self.peak_outstanding = n
        if self.observer is not None:
            self.observer.on_skb_alloc(self, skb)
        return skb

    def _on_free(self, skb: Skbuff) -> None:
        self.outstanding -= 1
        if skb.head is not None:
            self._free.append(skb.head)
        if self.observer is not None:
            self.observer.on_skb_free(self, skb)
