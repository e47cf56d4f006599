"""The pluggable copy-engine backend contract (DESIGN.md §15).

The offload manager used to speak to exactly one engine — the host's I/OAT
DMA model — through calls scattered over ``copy_fragment``/``cleanup``/
``wait_all``.  This module narrows that contact surface to one interface:

* **policy** — :meth:`CopyBackend.min_msg`/:meth:`~CopyBackend.min_frag`
  (the §IV-A thresholds, which a backend with different fixed costs may
  override) and :attr:`CopyBackend.offloads` (False = the memcpy baseline);
* **submission** — :meth:`CopyBackend.submit_fragment`, a generator run in
  BH context that charges CPU submission cost and queues the copy, handing
  back a *ticket* (a :class:`~repro.ioat.api.DmaCookie` or a multi-lane
  :class:`LaneTicket`) that the manager files as pending;
* **completion** — :meth:`CopyBackend.poll_pending` (one cheap status
  read), :meth:`CopyBackend.ticket_done` (is this pending entry finished,
  given the poll's token), :meth:`CopyBackend.drain_state` (the
  last-fragment busy wait) and :meth:`CopyBackend.reap_state`;
* **failure** — tickets expose ``.failed`` and ``.channel``; the manager's
  heal path redoes aborted copies with memcpy and feeds the owning lane's
  circuit breaker, whatever backend submitted them.

Backends that bring their own execution lanes (FlexTOE, sPIN, SG-DMA)
build them as one more :class:`~repro.ioat.engine.IoatEngine` with
re-derived parameters and a disjoint ``index_base``, and wire it in with
:meth:`repro.cluster.host.Host.add_dma_engine` like the chipset's: the
lanes get the trace hook and a circuit breaker there, and sanitizers and
fault injectors reach them through ``host.dma_engines``.  Lane
construction allocates no simulator events and no kernel-space memory —
selecting the I/OAT backend is schedule-identical to the pre-refactor
code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from repro.ioat.api import DmaCookie, IoatDmaApi
from repro.ioat.channel import DmaChannel
from repro.ioat.engine import IoatEngine

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.host import Host
    from repro.core.offload import MessageOffloadState
    from repro.memory.buffers import MemoryRegion
    from repro.params import IoatParams, OmxConfig
    from repro.simkernel.cpu import Core


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

BACKENDS: dict[str, type] = {}


def register_backend(cls):
    """Class decorator: make ``cls`` selectable via ``OmxConfig.copy_backend``."""
    BACKENDS[cls.name] = cls
    return cls


def backend_names() -> list[str]:
    """Every registered backend name, sorted (the shootout's roster)."""
    return sorted(BACKENDS)


def create_backend(host: "Host", config: "OmxConfig") -> "CopyBackend":
    """Instantiate the backend named by ``config.copy_backend``."""
    try:
        cls = BACKENDS[config.copy_backend]
    except KeyError:
        raise ValueError(
            f"unknown copy backend {config.copy_backend!r}; "
            f"registered: {', '.join(backend_names())}"
        ) from None
    return cls(host, config)


# ---------------------------------------------------------------------------
# multi-lane plumbing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaneTicket:
    """Completion handle for one fragment striped over several lanes.

    Mirrors the :class:`~repro.ioat.api.DmaCookie` surface the manager
    relies on (``done`` / ``failed`` / ``channel``), aggregating one
    per-lane cookie per lane touched.
    """

    parts: tuple[DmaCookie, ...]
    nbytes: int

    @property
    def done(self) -> bool:
        return all(p.done for p in self.parts)

    @property
    def failed(self) -> bool:
        return any(p.failed for p in self.parts)

    @property
    def channel(self) -> DmaChannel:
        """The lane to blame: the first failed part's, else the first."""
        for p in self.parts:
            if p.failed:
                return p.channel
        return self.parts[0].channel


# ---------------------------------------------------------------------------
# the contract
# ---------------------------------------------------------------------------


class CopyBackend:
    """One copy engine behind the offload manager.

    Single-lane default implementations (submit / poll / done-test / drain
    / reap against ``state.channel``) are the dmaengine-style I/OAT
    semantics; other engines override what they model differently.  All
    generator methods run in BH context — the caller holds ``core``.
    """

    #: registry key and display name
    name = "abstract"
    #: False = never offload (the manager memcpys every fragment)
    offloads = True

    def __init__(self, host: "Host", config: "OmxConfig"):
        self.host = host
        self.config = config
        #: channel source for per-message assignment (round-robin): the
        #: host's chipset engine, or a lane backend's own engine
        self.engine = host.ioat_engine
        #: submission/polling facade whose params price this backend
        self.api = host.ioat

    # -- policy ---------------------------------------------------------

    def min_msg(self, config: "OmxConfig") -> int:
        """Smallest message worth offloading (§IV-A: 64 kB for I/OAT)."""
        return config.ioat_min_msg

    def min_frag(self, config: "OmxConfig") -> int:
        """Smallest fragment worth offloading (§IV-A: ~1 kB for I/OAT)."""
        return config.ioat_min_frag

    # -- execution (BH context) -----------------------------------------

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
        """Queue one fragment copy and return its ticket; the manager files
        the pending entry.  The default submits page-contained descriptors
        to the message's channel through :meth:`IoatDmaApi.submit_copy`."""
        return self.api.submit_copy(core, skb.head, skb_off, dst, dst_off,
                                    length, "bh", state.channel)

    def poll_pending(self, core: "Core",
                     state: "MessageOffloadState") -> Generator:
        """One cheap status read; returns the completion token that
        :meth:`ticket_done` interprets."""
        yield from self.api.poll_once(core, state.channel, "bh")
        return state.channel.poll()

    def ticket_done(self, ticket, token) -> bool:
        """Did ``ticket`` complete, given :meth:`poll_pending`'s token?"""
        return ticket.last_cookie <= token

    def drain_state(self, core: "Core",
                    state: "MessageOffloadState") -> Generator:
        """Busy-wait until every pending copy of this message completed
        (the §III-A last-fragment discipline)."""
        last = state.pending[-1].cookie
        yield from self.api.busy_wait(core, last, "bh")

    def reap_state(self, state: "MessageOffloadState") -> None:
        """Release ring slots of completed descriptors."""
        state.channel.reap()

    # -- integration hooks ----------------------------------------------

    def register_metrics(self, reg) -> None:
        """Publish backend-owned counters (lane backends add theirs)."""


class LaneBackend(CopyBackend):
    """A backend that brings its own lanes: an :class:`~repro.ioat.engine.
    IoatEngine` built from ``lane_params()`` (whose ``channels`` is the lane
    count), numbered from ``index_base`` and added to the host.

    Submission is still the subclass's to model.
    """

    index_base = 100

    def __init__(self, host: "Host", config: "OmxConfig"):
        super().__init__(host, config)
        self.engine = host.add_dma_engine(IoatEngine(
            host.sim, self.lane_params(host), caches=host.caches,
            index_base=self.index_base))
        self.api = IoatDmaApi(self.engine)

    def lane_params(self, host: "Host") -> "IoatParams":
        raise NotImplementedError

    def register_metrics(self, reg) -> None:
        name = self.name
        reg.counter("backend", f"backend_{name}_bytes",
                    lambda: self.engine.bytes_copied)
        reg.counter("backend", f"backend_{name}_descriptors",
                    lambda: self.engine.descriptors_completed)
        reg.counter("backend", f"backend_{name}_descriptors_failed",
                    lambda: self.engine.descriptors_failed)
        reg.counter("backend", f"backend_{name}_copies_submitted",
                    lambda: self.api.copies_submitted)
        reg.counter("backend", f"backend_{name}_descriptors_submitted",
                    lambda: self.api.descriptors_submitted)
        for ch in self.engine.channels:
            ch.register_metrics(reg)
