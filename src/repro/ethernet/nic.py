"""The NIC: pre-posted receive ring, DMA fill, interrupts, zero-copy send.

The receive design is the crux of the paper (§II-B): the driver keeps a ring
of anonymous skbuffs; the NIC consumes them **in order**, DMA-writes each
incoming frame into the next one and notifies the driver.  Since nobody can
know which message a frame belongs to before it arrives, the data always
lands in the wrong place and must be copied by the host — unless that copy
is offloaded, which is the contribution under study.

NIC DMA writes are accounted on the memory bus and snoop-invalidate CPU
caches (so receive-copy sources are always cache-cold).

A ``frame_sink`` hook lets the native-MX baseline replace the whole skbuff
path with its firmware model (zero-copy deposit), sharing the link and frame
format — mirroring the real Myri-10G board's two personalities.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from repro.ethernet.frame import EthernetFrame
from repro.ethernet.skbuff import Skbuff, SkbuffPool
from repro.memory import phantom
from repro.params import NicParams

if TYPE_CHECKING:  # pragma: no cover
    from repro.ethernet.driver import SoftirqEngine
    from repro.ethernet.link import _Direction
    from repro.memory.bus import MemoryBus
    from repro.memory.cache import CacheDirectory
    from repro.simkernel.scheduler import Simulator


class Nic:
    """One 10G Ethernet port (Myri-10G in native Ethernet mode)."""

    def __init__(
        self,
        sim: "Simulator",
        params: NicParams,
        mac: int,
        pool: SkbuffPool,
        bus: "MemoryBus",
        caches: "CacheDirectory",
    ):
        self.sim = sim
        self.params = params
        self.mac = mac
        self.pool = pool
        self.bus = bus
        self.caches = caches
        self._egress: Optional["_Direction"] = None  # set by Link.attach
        self.softirq: Optional["SoftirqEngine"] = None
        #: native-firmware hook: when set, frames bypass the skbuff path
        self.frame_sink: Optional[Callable[[EthernetFrame], None]] = None
        #: pre-posted receive buffers (FIFO: NIC consumes in post order)
        self._rx_ring: deque[Skbuff] = deque()
        #: fault hook: when set and ``blocks(now)`` is true, incoming frames
        #: are dropped as if the rx ring were exhausted (refill starvation)
        self.rx_fault = None
        #: optional TraceRecorder: drops/CRC errors become instant events
        self.trace = None
        # statistics
        self.rx_frames = 0
        self.tx_frames = 0
        self.rx_dropped = 0
        self.rx_crc_errors = 0
        #: lowest rx-ring fill level ever observed — the backpressure
        #: headroom metric (0 means the ring actually ran dry)
        self.rx_ring_min_fill = params.rx_ring_size
        # The initial fill is carved from one region; refill() allocates
        # (or reuses) one head per buffer.
        self._rx_ring.extend(pool.carve_rx(params.rx_ring_size))

    def register_metrics(self, reg) -> None:
        """Publish NIC statistics into a :class:`~repro.obs.registry.MetricsRegistry`."""
        reg.counter("nic", "nic_tx_frames", lambda: self.tx_frames)
        reg.counter("nic", "nic_rx_frames", lambda: self.rx_frames)
        reg.counter("nic", "nic_rx_dropped", lambda: self.rx_dropped,
                    "frames dropped: exhausted rx ring or no driver")
        reg.counter("nic", "nic_rx_crc_errors", lambda: self.rx_crc_errors,
                    "frames dropped in hardware with a bad FCS")
        reg.gauge("nic", "nic_rx_ring_min_fill",
                  lambda: self.rx_ring_min_fill,
                  "lowest observed rx-ring fill (backpressure headroom)")

    # -- receive ----------------------------------------------------------

    def refill(self) -> None:
        """Driver-side ring replenishment (runs logically in the BH)."""
        while len(self._rx_ring) < self.params.rx_ring_size:
            self._rx_ring.append(self.pool.alloc_rx())

    def on_frame(self, frame: EthernetFrame) -> None:
        """Link delivery: DMA the frame into the next posted skbuff."""
        if frame.corrupted:
            # Bad FCS: real NICs drop these in hardware, before any DMA.
            self.rx_crc_errors += 1
            if self.trace is not None and self.trace.enabled:
                self.trace.instant("NIC", "rx CRC error", "fault")
            return
        if self.frame_sink is not None:
            self.frame_sink(frame)
            return
        if not self._rx_ring or (
            self.rx_fault is not None and self.rx_fault.blocks(self.sim.now)
        ):
            self.rx_dropped += 1
            if self.trace is not None and self.trace.enabled:
                self.trace.instant("NIC", "rx ring exhausted: drop", "fault")
            return
        ring = self._rx_ring
        skb = ring.popleft()
        fill = len(ring)
        if fill < self.rx_ring_min_fill:
            self.rx_ring_min_fill = fill
        payload = frame.payload
        head = skb.head
        head_size = head._size
        # Data-bearing payloads expose ``data_length`` (MxPacket); anything
        # else (opaque test payloads, None) takes the linear-copy branch.
        n = getattr(payload, "data_length", None)
        if n is not None:
            if phantom.elide(n):
                # Phantom mode: the DMA/cache accounting below is all the
                # cost model reads; skip gathering and storing the bytes.
                if n > head_size:
                    n = head_size
            else:
                raw = payload.gather_data()
                n = raw.size
                if n > head_size:
                    n = head_size
                if n:
                    head.write(0, raw[:n])
            skb.data_len = n
        else:
            n = frame.payload_len
            skb.data_len = n = n if n < head_size else head_size
        skb.frame = frame
        # DMA side effects: bus traffic + cache snoop invalidation.
        self.bus.record_dma_write(frame.frame_len)
        self.caches.invalidate_all(head.addr, n if n > 0 else 1)
        self.rx_frames += 1
        if self.softirq is not None:
            self.softirq.enqueue(skb)
        else:  # no driver attached: drop politely
            skb.free()
            self.rx_dropped += 1

    # -- transmit (driven by ``OmxDriver._xmit_packet``) -------------------

    def _doorbell(self, frame: EthernetFrame, skb: Skbuff) -> None:
        """Descriptor fetch done: hand the frame to the link serializer."""
        self._egress.send(frame, self._tx_complete, skb)

    def _tx_complete(self, skb: Skbuff, delivered: bool) -> None:
        self.tx_frames += 1
        skb.free()  # TX completion releases the buffer (and page frags)
