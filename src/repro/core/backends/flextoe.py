"""FlexTOE-style fine-grained parallel data path (Shashidhara et al.).

FlexTOE refactors the offload into many lightweight pipeline stages that
each do a small slice of work with tiny per-unit overhead.  Modeled here
as a group of slow-but-cheap copy lanes: each lane moves bytes at a
fraction of the chipset engine's bandwidth, but descriptor setup and
submission cost a fraction too, and one fragment's page chunks are
*striped across lanes in parallel* — the fine-grained pipelining that is
the design's whole point.  Aggregate bandwidth beats the single I/OAT
channel once a fragment spans multiple pages; single-chunk fragments see
the lighter submission cost but a slower individual lane.

The striping cursor lives per message (``state.backend_state``) so
consecutive fragments continue round the lane ring instead of all
starting at lane 0 — the same herding mistake the breaker-reroute bugfix
removed from channel assignment.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Generator

from repro.core.backends.base import LaneBackend, LaneTicket, register_backend
from repro.units import GiB, ns

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.host import Host
    from repro.core.offload import MessageOffloadState
    from repro.memory.buffers import MemoryRegion
    from repro.params import IoatParams
    from repro.simkernel.cpu import Core


@register_backend
class FlexToeBackend(LaneBackend):
    """Many lightweight lanes; page chunks of one fragment run in parallel."""

    name = "flextoe"
    index_base = 100

    def lane_params(self, host: "Host") -> "IoatParams":
        base = host.params.ioat
        # Lightweight stages: ~1/3 the submission and descriptor setup
        # cost of the chipset engine, ~40% of its per-lane bandwidth —
        # the aggregate over 6 lanes exceeds one I/OAT channel.
        return replace(
            base,
            channels=6,
            submit_cost=ns(120),
            per_descriptor_cost=ns(180),
            engine_bw=1.45 * GiB,
            completion_latency=ns(400),
        )

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
        # The offload gates passed the message's own lane only; stripe over
        # every lane that is up and CLOSED, so a failed or tripped lane gets
        # no descriptor (the message's lane is always among them).
        usable = self.host.health.usable
        lanes = [ch for ch in self.engine.channels if usable(ch)]
        cursor = state.backend_state or 0
        parts = yield from self.api.submit_copy_striped(
            core, skb.head, skb_off, dst, dst_off, length, "bh", first=cursor,
            channels=lanes)
        state.backend_state = ((cursor + sum(p.n_descriptors for p in parts))
                               % len(lanes))
        return LaneTicket(parts=tuple(parts), nbytes=length)

    # -- completion: tickets span lanes, so poll/drain cover the group --

    def poll_pending(self, core: "Core",
                     state: "MessageOffloadState") -> Generator:
        yield from core.busy(self.api.params.poll_cost, "bh",
                             phase="dma_poll")
        for ch in self.engine.channels:
            ch.poll()
        return None

    def ticket_done(self, ticket, token) -> bool:
        return ticket.done

    def drain_state(self, core: "Core",
                    state: "MessageOffloadState") -> Generator:
        # Wait on every pending entry: per-lane FIFOs are independent, so
        # an earlier fragment may still be running on a lane the last
        # fragment never touched.
        start = core.sim.now
        for entry in state.pending:
            for part in entry.cookie.parts:
                while not part.done:
                    yield part.channel.wait_completion().wait()
        core.account("bh", core.sim.now - start, phase="dma_wait")
        yield from core.busy(
            self.api.params.completion_latency + self.api.params.poll_cost,
            "bh", phase="dma_poll",
        )

    def reap_state(self, state: "MessageOffloadState") -> None:
        for ch in self.engine.channels:
            ch.reap()
