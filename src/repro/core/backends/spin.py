"""sPIN-style in-NIC handler processing (Hoefler et al.).

sPIN runs tiny user-defined handlers on NIC packet processors (HPUs):
each arriving fragment is *consumed where it lands* instead of being
copied later in the BH.  Modeled as a few HPU lanes close to the wire:

* the host CPU only posts a fragment pointer to the HPU work queue —
  one cheap submission per fragment, never per page chunk (the handler
  walks the fragment itself, there is no host-side descriptor split);
* each HPU invocation pays a fixed scheduling/entry cost and then moves
  the fragment at NIC-memory bandwidth.

Because the per-fragment fixed cost is small and there is no per-chunk
CPU price, the §IV-A thresholds collapse: every fragment of every sized
message is worth handling on arrival, so :meth:`min_msg`/:meth:`min_frag`
return 1.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Generator

from repro.core.backends.base import LaneBackend, register_backend
from repro.ioat.api import DmaCookie, wait_ring_slot
from repro.ioat.descriptor import CopyDescriptor
from repro.units import GiB, ns

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.host import Host
    from repro.core.offload import MessageOffloadState
    from repro.memory.buffers import MemoryRegion
    from repro.params import IoatParams, OmxConfig
    from repro.simkernel.cpu import Core


@register_backend
class SpinBackend(LaneBackend):
    """Per-fragment handlers on NIC packet processors."""

    name = "spin"
    index_base = 200

    def lane_params(self, host: "Host") -> "IoatParams":
        base = host.params.ioat
        # Posting to an HPU queue is a store, not a descriptor build;
        # the handler pays its scheduling cost on the NIC, per fragment.
        return replace(
            base,
            channels=4,
            submit_cost=ns(80),
            per_descriptor_cost=ns(650),
            engine_bw=2.8 * GiB,
            completion_latency=ns(300),
        )

    # -- policy: handlers consume everything on arrival ------------------

    def min_msg(self, config: "OmxConfig") -> int:
        return 1

    def min_frag(self, config: "OmxConfig") -> int:
        return 1

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
        # One handler invocation per fragment: no page-chunk split, the
        # handler walks the fragment on the NIC side.
        if ch.ring.free_slots == 0:
            yield from wait_ring_slot(core, ch, "bh")
        sc = self.api.params.submit_cost
        if sc:
            yield sc
        core.account("bh", sc, "dma_submit")
        last = ch.submit(CopyDescriptor(src, skb_off, dst, dst_off, length))
        self.api.copies_submitted += 1
        self.api.descriptors_submitted += 1
        self.handler_invocations += 1
        return DmaCookie(ch, last, length, 1)

    def __init__(self, host: "Host", config: "OmxConfig"):
        super().__init__(host, config)
        #: fragments consumed by an in-NIC handler
        self.handler_invocations = 0

    def register_metrics(self, reg) -> None:
        super().register_metrics(reg)
        reg.counter("backend", "backend_spin_handler_invocations",
                    lambda: self.handler_invocations)
