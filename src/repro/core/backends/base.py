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
build them as :class:`LaneGroup`\\ s of ordinary
:class:`~repro.ioat.channel.DmaChannel` servers with re-derived parameters:
the channels keep their trace/observer/health hooks, so Perfetto lanes,
sanitizers, circuit breakers (adopted via
:meth:`repro.health.breaker.HostHealth.adopt`) and fault injectors all work
on every backend for free.  Lane construction allocates no simulator events
and no kernel-space memory — selecting the I/OAT backend is
schedule-identical to the pre-refactor code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from repro.ioat.api import DmaCookie, IoatDmaApi
from repro.ioat.channel import DmaChannel

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


class LaneGroup:
    """A private set of DMA lanes owned by one backend.

    Quacks like :class:`~repro.ioat.engine.IoatEngine` (``params``,
    ``channels``, ``allocate_channel``) so :class:`~repro.ioat.api.
    IoatDmaApi` and the manager's round-robin assignment work unchanged.
    ``index_base`` keeps lane indices (and thus trace lane names, metric
    names and breaker identities) disjoint from the host engine's channels.
    """

    def __init__(self, host: "Host", params: "IoatParams", n_lanes: int,
                 index_base: int):
        self.sim = host.sim
        self.params = params
        self.channels = [
            DmaChannel(host.sim, params, index=index_base + i,
                       caches=host.caches)
            for i in range(n_lanes)
        ]
        self._rr = 0
        for ch in self.channels:
            ch.trace = host.trace
            # Published on the host so fault injectors and sanitizers
            # enumerate backend lanes exactly like engine channels.
            host.extra_dma_channels.append(ch)
            host.health.adopt(ch)

    def __len__(self) -> int:
        return len(self.channels)

    def __getitem__(self, i: int) -> DmaChannel:
        return self.channels[i]

    def allocate_channel(self) -> DmaChannel:
        ch = self.channels[self._rr % len(self.channels)]
        self._rr += 1
        return ch

    @property
    def bytes_copied(self) -> int:
        return sum(c.bytes_copied for c in self.channels)

    @property
    def descriptors_completed(self) -> int:
        return sum(c.descriptors_completed for c in self.channels)

    @property
    def descriptors_failed(self) -> int:
        return sum(c.descriptors_failed for c in self.channels)


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
        #: channel source for per-message assignment (round-robin); the
        #: host engine by default, a private LaneGroup for lane backends
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
    """Shared machinery for backends that own a private :class:`LaneGroup`.

    Subclasses define ``lane_params()``, ``n_lanes`` and ``index_base``;
    submission is still theirs to model.
    """

    n_lanes = 1
    index_base = 100

    def __init__(self, host: "Host", config: "OmxConfig"):
        super().__init__(host, config)
        self.lanes = LaneGroup(host, self.lane_params(host), self.n_lanes,
                               self.index_base)
        self.engine = self.lanes
        self.api = IoatDmaApi(self.lanes)

    def lane_params(self, host: "Host") -> "IoatParams":
        raise NotImplementedError

    def register_metrics(self, reg) -> None:
        name = self.name
        reg.counter("backend", f"backend_{name}_bytes",
                    lambda: self.lanes.bytes_copied)
        reg.counter("backend", f"backend_{name}_descriptors",
                    lambda: self.lanes.descriptors_completed)
        reg.counter("backend", f"backend_{name}_descriptors_failed",
                    lambda: self.lanes.descriptors_failed)
        for ch in self.lanes.channels:
            ch.register_metrics(reg)
