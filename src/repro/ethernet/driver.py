"""Softirq bottom-half dispatch.

Received skbuffs queue for the interrupt core; a daemon models the
hardirq → NAPI-poll → protocol-callback chain: after an idle period it pays
the interrupt dispatch latency once, then drains a batch of packets while
holding the core, invoking the registered per-ethertype handler for each.
Handlers are generators running *in BH context* — they hold the interrupt
core for however long their processing (and any synchronous copying) takes,
which is exactly how the receive copy saturates a core in the paper's Fig. 9.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator

from repro.ethernet.skbuff import Skbuff
from repro.params import NicParams
from repro.simkernel.resources import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.cpu import Core
    from repro.simkernel.scheduler import Simulator

#: max packets drained per BH activation (Linux NAPI default)
NAPI_BUDGET = 64

Handler = Callable[["Core", Skbuff], Generator]


class SoftirqEngine:
    """Per-host BH machinery bound to one interrupt core."""

    def __init__(
        self,
        sim: "Simulator",
        params: NicParams,
        irq_core: "Core",
        dispatch_cost: int,
    ):
        self.sim = sim
        self.params = params
        self.irq_core = irq_core
        self.dispatch_cost = dispatch_cost
        self.queue: Store = Store(sim, name="softirq")
        self._handlers: dict[int, Handler] = {}
        #: NICs whose rx rings this BH replenishes after each batch
        self.nics: list = []
        #: optional TraceRecorder (Fig. 5/6-style timelines)
        self.trace = None
        # statistics
        self.packets_handled = 0
        self.batches = 0
        self.unhandled = 0
        sim.daemon(self._daemon(), name="softirq-daemon")

    def register_metrics(self, reg) -> None:
        """Publish BH statistics into a :class:`~repro.obs.registry.MetricsRegistry`."""
        reg.counter("softirq", "softirq_packets", lambda: self.packets_handled)
        reg.counter("softirq", "softirq_batches", lambda: self.batches,
                    "BH activations (NAPI poll rounds)")
        reg.counter("softirq", "softirq_unhandled", lambda: self.unhandled,
                    "packets with no registered ethertype handler")

    def register_handler(self, ethertype: int, handler: Handler) -> None:
        """Install the protocol receive callback for ``ethertype``."""
        self._handlers[ethertype] = handler

    def enqueue(self, skb: Skbuff) -> None:
        """NIC-side: queue a filled skbuff for BH processing."""
        # try_put: the queue is unbounded so it always succeeds, and unlike
        # put() it allocates no ack Event (which nobody ever waited on).
        self.queue.try_put(skb)

    def _daemon(self) -> Generator:
        core = self.irq_core
        queue = self.queue
        handlers = self._handlers
        while True:
            skb = yield queue.get()
            # We were idle: model hardirq + softirq scheduling latency
            # (bare-int sleep: no Timeout allocation, this runs per batch).
            yield self.params.interrupt_coalesce
            yield core.res.request()
            try:
                # hardirq entry + softirq switch, paid per batch
                dispatch = self.dispatch_cost
                if dispatch:
                    yield dispatch
                core.account("bh", dispatch, "irq_dispatch")
                batch = 1
                while True:
                    frame = skb.frame
                    handler = handlers.get(frame.ethertype if frame else -1)
                    if handler is None:
                        self.unhandled += 1
                        skb.free()
                    else:
                        # A BH span is built only while a recorder is on,
                        # so tracing costs nothing when off.
                        tr = self.trace
                        if tr is not None and tr.enabled:
                            start = self.sim.now
                            label = getattr(frame.payload, "describe",
                                            lambda: "pkt")()
                            yield from handler(core, skb)
                            tr.record(f"CPU#{core.cpu_id}", label.split(" ")[0],
                                      start, self.sim.now, "bh")
                        else:
                            yield from handler(core, skb)
                        self.packets_handled += 1
                    if batch >= NAPI_BUDGET:
                        break
                    ok, skb = queue.try_get()
                    if not ok:
                        break
                    batch += 1
                self.batches += 1
                # NAPI poll replenishes the receive ring with fresh skbuffs.
                for nic in self.nics:
                    nic.refill()
            finally:
                core.res.release()
