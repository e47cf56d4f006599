"""Shared precomputed cost tables for fabric-scale hosts.

The full :class:`~repro.cluster.host.Host` object graph (cores, caches,
bus, skbuff pool, I/OAT channels, softirq engine...) costs real memory and
construction time per host; at 1024 hosts that is the "per-host Python
object blowup" ROADMAP item 1 forbids.  A :class:`CostTable` collapses the
per-chunk costs those models would charge into a handful of scalars derived
from the *same* :func:`~repro.params.clovertown_5000x` numbers the full
models read, and is shared by every host of a fabric (one table per
backend, memoized).

What each host pays per delivered chunk:

* **sender CPU** — library call + syscall + driver command, plus the
  driver's per-frame transmit cost;
* **receive CPU** — the BH per-frame base cost plus the receive copy:
  * ``memcpy``: the copy itself runs on the CPU at the *bus-contended*
    rate (the NIC is streaming at line rate into the same memory during a
    collective, exactly the Fig. 3 regime);
  * ``ioat``: the CPU only submits a descriptor and polls once; the copy
    runs on the DMA engine (a separate serializer), overlapped with the
    next chunk's BH — the paper's offload overlap at fabric scale.

Wire serialization is *not* here: it depends on the link a chunk crosses,
so the network layer computes it per port from the link's rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.params import Platform, clovertown_5000x
from repro.units import (
    ETHERNET_HEADER_LEN,
    ETHERNET_WIRE_OVERHEAD,
    KiB,
    transfer_time,
)

#: chunk granularity of the fabric flow model: two pull blocks' worth of
#: wire (16 KiB ~ 2 jumbo frames), coarse enough to keep 1024-host event
#: counts tractable, fine enough to pipeline store-and-forward hops
CELL = 16 * KiB

BACKENDS = ("memcpy", "ioat")


@dataclass(frozen=True)
class CostTable:
    """Per-chunk cost scalars shared by every host of a fabric."""

    backend: str
    mtu: int
    #: sender CPU ticks: fixed per message / per frame
    send_base: int
    send_per_frame: int
    #: receiver CPU ticks per frame (BH base, before the copy)
    rx_per_frame: int
    #: receiver CPU copy rate (bytes/s); 0 when the copy is offloaded
    rx_copy_bw: float
    #: receiver CPU fixed cost per chunk copy (memcpy setup, or I/OAT
    #: submit + poll when offloaded)
    rx_copy_base: int
    #: DMA engine rate (bytes/s) and per-descriptor cost; 0/0 disables the
    #: engine stage (memcpy backend)
    dma_bw: float
    dma_base: int

    # -- per-chunk derived costs ----------------------------------------

    def frames(self, nbytes: int) -> int:
        return max(1, -(-nbytes // self.mtu))

    def wire_bytes(self, nbytes: int) -> int:
        """Bytes a chunk occupies on the wire (payload + framing)."""
        return nbytes + self.frames(nbytes) * (
            ETHERNET_HEADER_LEN + ETHERNET_WIRE_OVERHEAD)

    def send_cpu(self, nbytes: int) -> int:
        """Sender CPU ticks to post one whole message of ``nbytes``."""
        return self.send_base + self.send_per_frame * self.frames(nbytes)

    def rx_cpu(self, nbytes: int) -> int:
        """Receiver CPU serializer ticks for one chunk."""
        ticks = self.rx_per_frame * self.frames(nbytes) + self.rx_copy_base
        if self.rx_copy_bw:
            ticks += transfer_time(nbytes, self.rx_copy_bw)
        return max(ticks, 1)

    def rx_dma(self, nbytes: int) -> int:
        """DMA engine serializer ticks for one chunk (0 = no engine stage)."""
        if not self.dma_bw:
            return 0
        return max(self.dma_base + transfer_time(nbytes, self.dma_bw), 1)

    def chunk_sizes(self, nbytes: int) -> list[int]:
        """Split a message into :data:`CELL`-sized chunks (>= 1 chunk)."""
        if nbytes <= CELL:
            return [max(nbytes, 1)]
        full, rem = divmod(nbytes, CELL)
        out = [CELL] * full
        if rem:
            out.append(rem)
        return out


def _contended_copy_bw(platform: Platform) -> float:
    """CPU copy rate while the NIC streams at line rate (Fig. 3 regime).

    The bus model gives the copy ``(total_bw - nic_rate) / multiplier``
    when ingress is saturating, floored at ``min_copy_bw`` and capped at
    the uncached memcpy rate.
    """
    bus = platform.host.bus
    nic_rate = platform.nic.link_bw
    share = (bus.total_bw - nic_rate) / bus.traffic_multiplier
    return min(platform.host.memcpy.uncached_bw,
               max(share, bus.min_copy_bw))


@lru_cache(maxsize=None)
def cost_table(backend: str) -> CostTable:
    """The shared cost table for one backend on the paper's testbed."""
    platform = clovertown_5000x()
    if backend not in BACKENDS:
        raise ValueError(f"unknown fabric backend {backend!r}; "
                         f"expected one of {BACKENDS}")
    host = platform.host
    send_base = (host.library_call_cost + host.syscall_cost
                 + host.driver_command_cost)
    send_per_frame = platform.nic.tx_frame_cost
    if backend == "ioat":
        ioat = host.ioat
        return CostTable(
            backend=backend, mtu=platform.nic.mtu,
            send_base=send_base, send_per_frame=send_per_frame,
            rx_per_frame=host.bh_base_cost,
            rx_copy_bw=0.0,
            rx_copy_base=ioat.submit_cost + ioat.poll_cost,
            dma_bw=ioat.engine_bw,
            dma_base=ioat.per_descriptor_cost,
        )
    return CostTable(
        backend=backend, mtu=platform.nic.mtu,
        send_base=send_base, send_per_frame=send_per_frame,
        rx_per_frame=host.bh_base_cost,
        rx_copy_bw=_contended_copy_bw(platform),
        rx_copy_base=host.memcpy.setup_cost,
        dma_bw=0.0,
        dma_base=0,
    )
