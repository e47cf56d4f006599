"""The 4-channel I/OAT engine and its channel-allocation policy.

Open-MX "assigns a single channel per message and only relies on multiple
channels to handle multiple outstanding messages" (§V), trading peak
single-copy throughput for management simplicity.  The engine therefore
exposes round-robin channel checkout keyed by a flow (message) identity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.ioat.channel import DmaChannel
from repro.params import IoatParams

if TYPE_CHECKING:  # pragma: no cover
    from repro.memory.cache import CacheDirectory
    from repro.simkernel.scheduler import Simulator


class IoatEngine:
    """A set of in-order DMA channels: the chipset's, or a copy backend's
    lanes (:mod:`repro.core.backends`).

    Channels are numbered ``index_base + i``; a backend's base keeps its
    lane indices (and thus trace lane names, metric names and breaker
    identities) disjoint from the chipset's.  An engine joins a host
    through :meth:`repro.cluster.host.Host.add_dma_engine`.
    """

    def __init__(
        self,
        sim: "Simulator",
        params: IoatParams,
        caches: Optional["CacheDirectory"] = None,
        index_base: int = 0,
    ):
        self.sim = sim
        self.params = params
        self.channels = [
            DmaChannel(sim, params, index=index_base + i, caches=caches)
            for i in range(params.channels)
        ]
        self._rr = 0

    def __len__(self) -> int:
        return len(self.channels)

    def __getitem__(self, i: int) -> DmaChannel:
        return self.channels[i]

    def register_metrics(self, reg) -> None:
        """Publish engine aggregates plus every channel's own metrics."""
        reg.counter("ioat", "ioat_bytes_copied", lambda: self.bytes_copied)
        reg.counter("ioat", "ioat_descriptors", lambda: self.descriptors_completed)
        reg.counter("ioat", "ioat_descriptors_failed",
                    lambda: self.descriptors_failed,
                    "descriptors aborted by channel failure")
        reg.counter("ioat", "ioat_stalls", lambda: self.stalls)
        reg.counter("ioat", "ioat_recoveries", lambda: self.recoveries,
                    "channels brought back after a hard failure")
        for channel in self.channels:
            channel.register_metrics(reg)

    def allocate_channel(self) -> DmaChannel:
        """Round-robin checkout: one channel per flow/message."""
        ch = self.channels[self._rr % len(self.channels)]
        self._rr += 1
        return ch

    # -- aggregate statistics ------------------------------------------------

    @property
    def bytes_copied(self) -> int:
        return sum(c.bytes_copied for c in self.channels)

    @property
    def descriptors_completed(self) -> int:
        return sum(c.descriptors_completed for c in self.channels)

    @property
    def busy_ticks(self) -> int:
        return sum(c.busy_ticks for c in self.channels)

    @property
    def descriptors_failed(self) -> int:
        return sum(c.descriptors_failed for c in self.channels)

    @property
    def stalls(self) -> int:
        return sum(c.stalls for c in self.channels)

    @property
    def recoveries(self) -> int:
        return sum(c.recoveries for c in self.channels)
