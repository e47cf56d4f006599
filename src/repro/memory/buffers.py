"""Numpy-backed memory regions and address spaces.

Every buffer in the simulator is a :class:`MemoryRegion`: a slice of real
``uint8`` storage plus a unique virtual address.  Copies between regions move
real bytes, so end-to-end data integrity is testable for every protocol path.

An :class:`AddressSpace` is a bump allocator handing out page-aligned virtual
addresses; each simulated process (and the kernel) owns one.  Virtual
addresses are globally unique across the whole simulation, which doubles as
the "DMA address" space (identity-mapped physical memory).
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from repro.memory import phantom
from repro.memory.layout import page_range
from repro.units import PAGE_SIZE

# Global allocator for unique address ranges across all address spaces.
_ADDR_COUNTER = itertools.count(start=1)
_SPACE_STRIDE = 1 << 40  # 1 TiB of virtual space per AddressSpace


class MemoryRegion:
    """A contiguous byte range with real backing storage.

    Parameters
    ----------
    addr:
        Starting virtual address (globally unique).
    data:
        The backing ``uint8`` array (owned or a view).
    owner:
        The address space this region belongs to, if any.
    """

    __slots__ = ("addr", "_data", "_size", "owner", "_parent")

    def __init__(self, addr: int, data: "np.ndarray | int",
                 owner: Optional["AddressSpace"] = None):
        if isinstance(data, int):
            # Lazy backing: the zeros (a subregion's view of its parent) are
            # materialized on first data access.  Phantom-mode workloads allocate
            # megabytes they never touch (every big write/copy is elided), so
            # most regions stay virtual.
            self._data: Optional[np.ndarray] = None
            self._size = data
        else:
            if data.dtype != np.uint8:
                raise TypeError("MemoryRegion backing must be uint8")
            self._data = data
            self._size = int(data.size)
        self.addr = addr
        self.owner = owner
        self._parent: Optional[MemoryRegion] = None

    @property
    def data(self) -> np.ndarray:
        d = self._data
        if d is None:
            parent = self._parent
            if parent is None:
                d = np.zeros(self._size, dtype=np.uint8)
            else:
                d = parent.data[self.addr - parent.addr : self.end - parent.addr]
            self._data = d
        return d

    # -- geometry -----------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def end(self) -> int:
        return self.addr + len(self)

    def pages(self) -> range:
        """Page frame numbers spanned by this region."""
        return page_range(self.addr, len(self))

    def subregion(self, offset: int, length: int) -> "MemoryRegion":
        """A view of ``[offset, offset+length)`` sharing the same storage."""
        if offset < 0 or length < 0 or offset + length > len(self):
            raise ValueError(
                f"subregion [{offset}, {offset + length}) outside region of "
                f"size {len(self)}"
            )
        if self._data is None:
            sub = MemoryRegion(self.addr + offset, int(length), self.owner)
            sub._parent = self
            return sub
        return MemoryRegion(self.addr + offset, self._data[offset : offset + length], self.owner)

    # -- data access ----------------------------------------------------------

    def write(self, offset: int, payload: bytes | np.ndarray) -> None:
        """Store ``payload`` at ``offset`` (elided above the phantom floor)."""
        n = len(payload) if isinstance(payload, (bytes, bytearray)) else int(payload.size)
        if offset < 0 or offset + n > len(self):
            raise ValueError("write outside region")
        if phantom.elide(n):
            return
        buf = np.frombuffer(payload, dtype=np.uint8) if isinstance(payload, (bytes, bytearray)) else payload
        self.data[offset : offset + n] = buf

    def read(self, offset: int = 0, length: Optional[int] = None) -> np.ndarray:
        """A view of ``length`` bytes at ``offset``."""
        if length is None:
            length = len(self) - offset
        if offset < 0 or length < 0 or offset + length > len(self):
            raise ValueError("read outside region")
        return self.data[offset : offset + length]

    def copy_from(self, offset: int, src: "MemoryRegion", src_off: int,
                  length: int) -> None:
        """Store ``length`` bytes of ``src`` at ``src_off`` here at ``offset``."""
        self.read(offset, length)[:] = src.read(src_off, length)

    def accumulate(self, offset: int, src: "MemoryRegion", src_off: int,
                   length: int) -> None:
        """Add ``length`` bytes of ``src`` at ``src_off`` into this region at
        ``offset``: a float32 sum when ``length`` is a multiple of 4, else a
        wrapping uint8 sum."""
        a = self.read(offset, length)
        b = src.read(src_off, length)
        if length % 4 == 0 and length:
            fa = a.view(np.float32)
            fb = b.view(np.float32)
            # Benchmark buffers carry arbitrary bit patterns; NaN/inf results
            # are acceptable (IMB does not check values either).
            with np.errstate(invalid="ignore", over="ignore"):
                fa += fb
        else:
            a += b  # uint8 wraps, still deterministic and verifiable

    def tobytes(self) -> bytes:
        return self.data.tobytes()

    def fill_pattern(self, seed: int = 0) -> None:
        """Fill with a cheap deterministic pattern (for tests/benchmarks)."""
        n = len(self)
        if phantom.elide(n):
            return
        idx = np.arange(n, dtype=np.uint32)
        self.data[:] = ((idx * 2654435761 + seed * 97) >> 8).astype(np.uint8)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MemoryRegion addr={self.addr:#x} len={len(self)}>"


def copy_bytes(src: MemoryRegion, src_off: int, dst: MemoryRegion, dst_off: int, length: int) -> None:
    """Move real bytes between regions (the data plane of every copy path).

    In phantom mode the store is elided above the integrity floor; the
    caller's cost/cache/bus accounting is unaffected (content-blind model).
    """
    if length == 0 or phantom.elide(length):
        return
    dst.data[dst_off : dst_off + length] = src.data[src_off : src_off + length]


class AddressSpace:
    """Bump allocator for page-aligned, globally-unique virtual ranges."""

    def __init__(self, name: str = ""):
        self.name = name
        self.base = next(_ADDR_COUNTER) * _SPACE_STRIDE
        self._brk = self.base
        #: total bytes ever allocated (diagnostics)
        self.allocated = 0

    def alloc(self, length: int, align: int = PAGE_SIZE, fill: Optional[int] = None) -> MemoryRegion:
        """Allocate ``length`` bytes aligned to ``align``.

        ``fill`` optionally initialises every byte to a constant.
        """
        if length < 0:
            raise ValueError("negative allocation")
        if align < 1 or (align & (align - 1)):
            raise ValueError("alignment must be a power of two")
        addr = (self._brk + align - 1) & ~(align - 1)
        self._brk = addr + max(length, 1)
        self.allocated += length
        region = MemoryRegion(addr, length, owner=self)
        if fill is not None:
            region.data[:] = fill
        return region

    def alloc_pages(self, n_pages: int) -> MemoryRegion:
        """Allocate ``n_pages`` whole pages (kernel page allocator model)."""
        return self.alloc(n_pages * PAGE_SIZE, align=PAGE_SIZE)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<AddressSpace {self.name!r} base={self.base:#x}>"
