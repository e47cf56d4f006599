"""The dmaengine-style host API used by the Open-MX driver.

Mirrors the Linux DMA-engine programming interface [9]: the driver submits
``memcpy`` operations that get split into page-contained descriptors (the
hardware takes DMA addresses), each costing ~350 ns of CPU to submit; it then
either returns immediately (asynchronous use, §III-A) or busy-polls for
completion (synchronous use, §III-C — the hardware cannot interrupt).

A :class:`DmaCookie` identifies a submitted copy by its channel and last
descriptor cookie; in-order completion makes "is my last descriptor done"
equivalent to "is my whole copy done".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional, Sequence

from repro.ioat.channel import DmaChannel
from repro.ioat.descriptor import CopyDescriptor
from repro.ioat.engine import IoatEngine
from repro.memory.buffers import MemoryRegion
from repro.memory.layout import count_page_aligned_chunks, page_aligned_chunks

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.cpu import Core


@dataclass(frozen=True)
class DmaCookie:
    """Handle for one submitted (possibly multi-descriptor) copy."""

    channel: DmaChannel
    last_cookie: int
    nbytes: int
    n_descriptors: int

    @property
    def done(self) -> bool:
        return self.channel.is_complete(self.last_cookie)

    @property
    def failed(self) -> bool:
        """True if the channel aborted any descriptor of this copy.

        Failed copies still report :attr:`done` (the status poll advances
        past aborted descriptors) — callers that care about the data must
        check this and redo the copy with memcpy.
        """
        return self.channel.copy_failed(self.last_cookie, self.n_descriptors)


def descriptor_pieces(src_addr: int, dst_addr: int, length: int):
    """``(n_descriptors, pieces)`` of one copy, each piece a page-contained
    ``(src_off, dst_off, length)`` chunk relative to the copy's start.

    The single-chunk case (the common one — pull fragments are page-sized
    and the skbuff source is page aligned) needs no chunk generator.
    """
    n = count_page_aligned_chunks(src_addr, dst_addr, length)
    if n == 1:
        return 1, ((0, 0, length),)
    return n, page_aligned_chunks(src_addr, dst_addr, length)


def wait_ring_slot(core: "Core", ch: DmaChannel, category: str) -> Generator:
    """Wait until ``ch``'s descriptor ring has a free slot.

    Callers test ``ch.ring.free_slots == 0`` first, so the common case
    costs no generator frame.  A full ring (multi-megabyte synchronous
    copies) first reaps the completed prefix; if nothing has retired yet
    the core spins until the hardware signals — the wait is charged as
    busy CPU, there is no completion interrupt (§VI).
    """
    while ch.ring.free_slots == 0:
        ch.reap()
        if ch.ring.free_slots:
            break
        start = core.sim.now
        yield ch.wait_completion().wait()
        core.account(category, core.sim.now - start, phase="dma_wait")


class IoatDmaApi:
    """Submission/polling facade over the engine."""

    def __init__(self, engine: IoatEngine):
        self.engine = engine
        self.params = engine.params
        # statistics
        self.copies_submitted = 0
        self.descriptors_submitted = 0

    # -- submission ---------------------------------------------------------------

    def submit_cost(self, n_descriptors: int) -> int:
        """CPU ticks to submit ``n_descriptors``."""
        return n_descriptors * self.params.submit_cost

    def submit_copy(
        self,
        core: "Core",
        src: MemoryRegion,
        src_off: int,
        dst: MemoryRegion,
        dst_off: int,
        length: int,
        category: str,
        channel: Optional[DmaChannel] = None,
    ) -> Generator:
        """Submit an asynchronous copy; returns a :class:`DmaCookie`.

        Charges the per-descriptor submission cost (~350 ns each) to
        ``category`` on ``core`` (which the caller must hold), then returns
        immediately — the engine copies in the background.
        """
        if length <= 0:
            raise ValueError("cannot submit empty copy")
        ch = channel if channel is not None else self.engine.allocate_channel()
        n_chunks, pieces = descriptor_pieces(src.addr + src_off,
                                             dst.addr + dst_off, length)
        sc = self.params.submit_cost
        last = -1
        for rel_src, rel_dst, n in pieces:
            if ch.ring.free_slots == 0:
                yield from wait_ring_slot(core, ch, category)
            if sc:
                yield sc
            core.account(category, sc, "dma_submit")
            last = ch.submit(
                CopyDescriptor(src, src_off + rel_src, dst, dst_off + rel_dst, n)
            )
        self.copies_submitted += 1
        self.descriptors_submitted += n_chunks
        return DmaCookie(ch, last, length, n_chunks)

    def submit_copy_striped(
        self,
        core: "Core",
        src: MemoryRegion,
        src_off: int,
        dst: MemoryRegion,
        dst_off: int,
        length: int,
        category: str,
        first: int = 0,
        channels: Optional[Sequence[DmaChannel]] = None,
    ) -> Generator:
        """Stripe one copy across ``channels`` (default: all of the engine's),
        page chunk ``i`` on channel ``first + i`` (modulo their count).
        §V: up to +40 % raw copy throughput per [22]; Open-MX deliberately
        does NOT do this, assigning one channel per message instead.

        Returns one :class:`DmaCookie` per channel used, in first-use
        order; the copy is done when all of them are.
        """
        if length <= 0:
            raise ValueError("cannot submit empty copy")
        chans = self.engine.channels if channels is None else channels
        n_chunks, pieces = descriptor_pieces(src.addr + src_off,
                                             dst.addr + dst_off, length)
        sc = self.params.submit_cost
        last: dict[DmaChannel, int] = {}
        counts: dict[DmaChannel, int] = {}
        sizes: dict[DmaChannel, int] = {}
        for i, (rel_src, rel_dst, n) in enumerate(pieces):
            ch = chans[(first + i) % len(chans)]
            if ch.ring.free_slots == 0:
                yield from wait_ring_slot(core, ch, category)
            if sc:
                yield sc
            core.account(category, sc, "dma_submit")
            last[ch] = ch.submit(
                CopyDescriptor(src, src_off + rel_src, dst, dst_off + rel_dst, n)
            )
            counts[ch] = counts.get(ch, 0) + 1
            sizes[ch] = sizes.get(ch, 0) + n
        self.copies_submitted += 1
        self.descriptors_submitted += n_chunks
        return [DmaCookie(ch, cookie, sizes[ch], counts[ch])
                for ch, cookie in last.items()]

    # -- completion -----------------------------------------------------------------

    def poll_once(self, core: "Core", channel: DmaChannel, category: str) -> Generator:
        """One cheap status read; returns the highest completed cookie."""
        yield from core.busy(self.params.poll_cost, category, phase="dma_poll")
        return channel.poll()

    def busy_wait(self, core: "Core", cookie: DmaCookie, category: str) -> Generator:
        """Spin on the core until ``cookie`` completes (synchronous use).

        The CPU is charged for the entire wall-clock wait: the core is held
        and the elapsed time is accounted to ``category`` — exactly the
        overlap-killing busy poll the paper laments in §IV-C/§VI.
        """
        start = core.sim.now
        while not cookie.done:
            yield cookie.channel.wait_completion().wait()
        core.account(category, core.sim.now - start, phase="dma_wait")
        # Completion observation tax: status writeback + cold status read.
        yield from core.busy(self.params.completion_latency + self.params.poll_cost,
                             category, phase="dma_poll")
        return core.sim.now

    def predicted_completion_delay(self, cookie: DmaCookie) -> int:
        """Estimate of remaining ticks until ``cookie`` completes.

        Supports the paper's §VI future-work idea: benchmark the engine,
        predict the copy duration, sleep instead of spinning.  The estimate
        sums service times of the still-queued descriptors ahead of (and
        including) ours.
        """
        ch = cookie.channel
        remaining = 0
        for d in ch.ring._ring:  # noqa: SLF001 - model-internal introspection
            if d.done:
                continue
            if d.cookie > cookie.last_cookie:
                break
            remaining += ch.service_time(d.length)
        return remaining

    def sleep_wait(self, core: "Core", cookie: DmaCookie, category: str) -> Generator:
        """Predictive-sleep completion wait (extension, §VI).

        Releases the core while sleeping for the predicted duration, then
        re-acquires it and polls; falls back to short re-sleeps if early.
        """
        while not cookie.done:
            delay = max(self.predicted_completion_delay(cookie), self.params.poll_cost)
            core.res.release()
            yield core.sim.timeout(delay)
            yield core.res.request()
            yield from core.busy(self.params.poll_cost, category, phase="dma_poll")
        yield from core.busy(self.params.completion_latency, category,
                             phase="dma_poll")
        return core.sim.now
