"""Scatter-gather descriptor chains (Di Girolamo et al., network-
accelerated non-contiguous transfers).

The chipset I/OAT model charges the CPU a full ~350 ns submission per
descriptor, which is why the vectored workload (``workloads/vectored.py``)
collapses for sub-kilobyte segments.  An SG-DMA engine instead takes a
*chain*: the CPU builds the descriptor list once (a fixed chain setup plus
a small per-element append), rings one doorbell, and the engine prefetches
elements itself.  Per-element engine cost stays — the hardware still walks
the chain — so the win is all on the submission side, exactly where
highly-vectorial buffers hurt.

The backend keeps the host engine's bandwidth but submits whole fragments
as chains; ``min_frag`` drops to 256 B because the crossover against
memcpy moves down when submission is amortized.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Generator

from repro.core.backends.base import LaneBackend, register_backend
from repro.ioat.api import DmaCookie, descriptor_pieces, wait_ring_slot
from repro.ioat.descriptor import CopyDescriptor
from repro.units import ns

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.host import Host
    from repro.core.offload import MessageOffloadState
    from repro.memory.buffers import MemoryRegion
    from repro.params import IoatParams, OmxConfig
    from repro.simkernel.cpu import Core

#: CPU cost of starting a descriptor chain (list head + doorbell)
CHAIN_SETUP_COST = ns(480)
#: CPU cost of appending one element to the chain
ELEMENT_COST = ns(45)


@register_backend
class SgdmaBackend(LaneBackend):
    """Chained-descriptor submission: pay per chain, not per descriptor."""

    name = "sgdma"
    index_base = 300

    def lane_params(self, host: "Host") -> "IoatParams":
        base = host.params.ioat
        # Same mover silicon as the chipset engine; element prefetch is
        # cheaper than per-descriptor fetch because the chain is walked
        # sequentially from a cached list.
        return replace(
            base,
            channels=2,
            submit_cost=ELEMENT_COST,
            per_descriptor_cost=ns(260),
        )

    def __init__(self, host: "Host", config: "OmxConfig"):
        super().__init__(host, config)
        #: descriptor chains submitted / elements linked into them
        self.chains_submitted = 0
        self.elements_chained = 0

    def min_frag(self, config: "OmxConfig") -> int:
        # Amortized submission moves the memcpy crossover well below the
        # I/OAT engine's ~1 kB threshold.
        return min(config.ioat_min_frag, 256)

    def submit_fragment(
        self,
        core: "Core",
        state: "MessageOffloadState",
        skb,
        skb_off: int,
        dst: "MemoryRegion",
        dst_off: int,
        length: int,
    ) -> Generator:
        ch = state.channel
        src = skb.head
        n_chunks, pieces = descriptor_pieces(src.addr + skb_off,
                                             dst.addr + dst_off, length)
        # Build the whole chain up front: one CPU charge for setup plus
        # per-element appends, then the doorbell; the engine fetches the
        # elements itself — no per-descriptor CPU yield.
        build = CHAIN_SETUP_COST + n_chunks * ELEMENT_COST
        yield build
        core.account("bh", build, "dma_submit")
        last = -1
        for rel_src, rel_dst, n in pieces:
            if ch.ring.free_slots == 0:
                yield from wait_ring_slot(core, ch, "bh")
            last = ch.submit(CopyDescriptor(
                src, skb_off + rel_src, dst, dst_off + rel_dst, n
            ))
        self.api.copies_submitted += 1
        self.api.descriptors_submitted += n_chunks
        self.chains_submitted += 1
        self.elements_chained += n_chunks
        return DmaCookie(ch, last, length, n_chunks)

    def register_metrics(self, reg) -> None:
        super().register_metrics(reg)
        reg.counter("backend", "backend_sgdma_chains",
                    lambda: self.chains_submitted)
        reg.counter("backend", "backend_sgdma_elements",
                    lambda: self.elements_chained)
