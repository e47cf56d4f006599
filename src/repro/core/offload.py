"""The copy-offload manager: the heart of the paper's contribution (§III).

For each large-message fragment arriving in the BH, decide:

* **memcpy** — when I/OAT is disabled, the message is below ``ioat_min_msg``
  (64 kB), or the fragment below ``ioat_min_frag`` (1 kB): copy now on the
  CPU and free the skbuff immediately.
* **I/OAT offload** — replace the copy with descriptor submissions (~350 ns
  each) on the message's assigned DMA channel and release the CPU at once;
  the skbuff stays alive until the hardware finishes (§III-A, Fig. 6).

Resource tracking (§III-B): pending (skbuff, ticket) pairs are kept per
message; :meth:`OffloadManager.cleanup` polls the backend once and frees the
skbuffs of every completed copy.  It is called whenever a new pull block is
requested and when the retransmission timer fires — bounding the pool of
queued skbuffs.  ``max_pending_skbuffs`` is a hard cap: beyond it the
fragment is copied synchronously instead (memory-starvation guard).

Since DESIGN.md §15 the engine itself is pluggable: the manager decides
*whether* to copy on the CPU (policy, thresholds, breaker gating, healing)
while a :class:`~repro.core.backends.CopyBackend` decides *how* an
offloaded fragment is executed (which lanes, what submission shape).  The
``"ioat"`` backend reproduces the paper's engine schedule-identically.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from repro.core.backends import create_backend
from repro.ethernet.skbuff import Skbuff
from repro.ioat.channel import DmaChannel
from repro.memory.buffers import MemoryRegion

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.host import Host
    from repro.params import OmxConfig
    from repro.simkernel.cpu import Core


@dataclass
class PendingCopy:
    """One fragment awaiting asynchronous completion.

    The copy geometry is retained so that a channel failure can be healed:
    if the engine aborted this copy, the reaper redoes it with memcpy
    before freeing the skbuff (graceful degradation — the transfer still
    completes, just without the offload win).
    """

    #: completion handle: a DmaCookie or a multi-lane LaneTicket — both
    #: expose ``done`` / ``failed`` / ``channel``
    cookie: object
    skb: Skbuff
    skb_off: int
    dst: MemoryRegion
    dst_off: int
    length: int


class MessageOffloadState:
    """Per-large-message offload context: one DMA channel, pending frags."""

    def __init__(self, channel: DmaChannel):
        self.channel = channel
        self.pending: deque[PendingCopy] = deque()
        self.offloaded_bytes = 0
        self.copied_bytes = 0
        #: every breaker was open at assignment time: copy this whole
        #: message on the CPU instead of submitting to a tripped channel
        self.memcpy_only = False
        #: backend-private per-message scratch (e.g. a lane-striping cursor)
        self.backend_state = None

    @property
    def pending_count(self) -> int:
        return len(self.pending)


class OffloadManager:
    """Decides and executes per-fragment copies for the receive path."""

    def __init__(self, host: "Host", config: "OmxConfig"):
        self.host = host
        self.config = config
        #: the engine executing offloaded copies (DESIGN.md §15)
        self.backend = create_backend(host, config)
        # statistics
        self.frags_offloaded = 0
        self.frags_memcpy = 0
        self.cleanups = 0
        self.skbuffs_reaped = 0
        self.starvation_fallbacks = 0
        #: copies redone on the CPU because the DMA channel aborted them
        self.fallback_copies = 0
        #: offloads refused because the channel's circuit breaker is open
        self.breaker_shortcircuits = 0
        #: messages steered off a tripped channel at assignment time
        self.breaker_reroutes = 0
        #: messages degraded to memcpy because every breaker was open
        self.breaker_exhausted = 0

    def register_metrics(self, reg) -> None:
        """Publish offload decisions into a metrics registry."""
        reg.counter("offload", "offload_frags_dma", lambda: self.frags_offloaded)
        reg.counter("offload", "offload_frags_memcpy", lambda: self.frags_memcpy)
        reg.counter("offload", "offload_cleanups", lambda: self.cleanups)
        reg.counter("offload", "offload_skbuffs_reaped",
                    lambda: self.skbuffs_reaped)
        reg.counter("offload", "offload_starvation_fallbacks",
                    lambda: self.starvation_fallbacks,
                    "fragments copied synchronously at the skbuff cap")
        reg.counter("offload", "offload_fallback_copies",
                    lambda: self.fallback_copies,
                    "copies redone on the CPU after a channel failure")
        reg.counter("offload", "offload_breaker_shortcircuits",
                    lambda: self.breaker_shortcircuits,
                    "offloads refused while the channel breaker was open")
        reg.counter("offload", "offload_breaker_reroutes",
                    lambda: self.breaker_reroutes,
                    "messages assigned away from a tripped channel")
        reg.counter("offload", "offload_breaker_exhausted",
                    lambda: self.breaker_exhausted,
                    "messages degraded to memcpy with every breaker open")
        self.backend.register_metrics(reg)

    # -- policy -------------------------------------------------------------

    def new_message_state(self) -> MessageOffloadState:
        """Per-message context; channels are assigned round-robin per
        message (§V: one channel per message), steering around channels
        whose circuit breaker is open."""
        engine = self.backend.engine
        channel = engine.allocate_channel()
        health = self.host.health
        if not health.allows_offload(channel):
            # Continue the round-robin draw instead of restarting the scan
            # from channels[0], which herded every rerouted message onto
            # the first healthy channel: drawing keeps advancing the
            # cursor, so rerouted messages spread over all healthy
            # channels.  At most n-1 further draws — each channel is seen
            # once.
            for _ in range(len(engine.channels) - 1):
                candidate = engine.allocate_channel()
                if health.allows_offload(candidate):
                    self.breaker_reroutes += 1
                    return MessageOffloadState(candidate)
            # Every breaker is open: degrade the whole message to memcpy
            # rather than silently submitting to a tripped channel.
            self.breaker_exhausted += 1
            state = MessageOffloadState(channel)
            state.memcpy_only = True
            return state
        return MessageOffloadState(channel)

    def should_offload(self, state: MessageOffloadState, msg_len: int, frag_len: int) -> bool:
        """The §IV-A thresholds, gated by the channel's circuit breaker."""
        if not self.config.ioat_enabled or self.config.ignore_bh_copy:
            return False
        backend = self.backend
        if not backend.offloads or not self.channel_usable(state):
            return False
        if (msg_len < backend.min_msg(self.config)
                or frag_len < backend.min_frag(self.config)):
            return False
        if state.pending_count >= self.config.max_pending_skbuffs:
            self.starvation_fallbacks += 1
            return False
        return True

    def channel_usable(self, state: MessageOffloadState) -> bool:
        """The channel half of :meth:`should_offload`: False when the
        message is memcpy-only, its channel failed, or the channel's
        breaker is open — each refusal counted and fed to the breaker.
        Callers with their own size rule (kernel matching) call this after
        it, so every offload passes the same gates."""
        health = self.host.health
        if state.memcpy_only:
            # Assignment found every breaker open.  Each refused fragment
            # still signals offload demand so recovery probes keep flowing.
            health.allows_offload(state.channel)
            self.breaker_shortcircuits += 1
            return False
        if state.channel.failed:
            # Dead channel: stop submitting to it, copy on the CPU instead —
            # and feed the refusal into the breaker's failure history, so a
            # channel that stays dead trips to OPEN and recovery is probed
            # (the abort events alone only cover copies in flight at the
            # moment of failure).
            health.record_fallback(state.channel)
            return False
        if not health.allows_offload(state.channel):
            # Breaker open: memcpy-only until a half-open probe re-opens it.
            self.breaker_shortcircuits += 1
            return False
        return True

    # -- execution (BH context: caller holds the core) ------------------------

    def copy_fragment(
        self,
        core: "Core",
        state: MessageOffloadState,
        skb: Skbuff,
        skb_off: int,
        dst: MemoryRegion,
        dst_off: int,
        length: int,
        msg_len: int,
    ) -> Generator:
        """Copy one fragment by the chosen mechanism.

        Returns True if the fragment was offloaded (skbuff retained), False
        if it was copied synchronously (skbuff freed by the caller).
        """
        if self.config.ignore_bh_copy:
            # Fig. 3 prediction mode: the copy is skipped entirely.
            return False
        if self.should_offload(state, msg_len, length):
            yield from self.offload_fragment(core, state, skb, skb_off, dst,
                                             dst_off, length)
            self.frags_offloaded += 1
            return True
        copier = self.host.copier
        src = skb.head
        cost = copier.copy_cost(core, src, skb_off, dst, dst_off, length)
        if cost:
            yield cost  # bare-int sleep, as memcpy itself would
        copier.commit(core, src, skb_off, dst, dst_off, length, "bh", cost,
                      phase="frag_copy")
        state.copied_bytes += length
        self.frags_memcpy += 1
        return False

    def offload_fragment(
        self,
        core: "Core",
        state: MessageOffloadState,
        skb: Skbuff,
        skb_off: int,
        dst: MemoryRegion,
        dst_off: int,
        length: int,
    ) -> Generator:
        """Submit one fragment through the backend and file it as pending:
        the skbuff stays alive until the copy is reaped (§III-B)."""
        ticket = yield from self.backend.submit_fragment(
            core, state, skb, skb_off, dst, dst_off, length
        )
        state.pending.append(
            PendingCopy(ticket, skb, skb_off, dst, dst_off, length)
        )
        state.offloaded_bytes += length
        return ticket

    def cleanup(self, core: "Core", state: MessageOffloadState) -> Generator:
        """§III-B cleanup routine: poll once, free completed skbuffs.

        Invoked when a new block request is sent and when the retransmit
        timer expires.  Returns the number of skbuffs released.
        """
        if not state.pending:
            return 0
        backend = self.backend
        token = yield from backend.poll_pending(core, state)
        self.cleanups += 1
        freed = 0
        while state.pending and backend.ticket_done(state.pending[0].cookie,
                                                    token):
            entry = state.pending.popleft()
            yield from self._heal_if_failed(core, state, entry)
            entry.skb.free()
            freed += 1
        self.skbuffs_reaped += freed
        backend.reap_state(state)
        return freed

    def wait_all(self, core: "Core", state: MessageOffloadState) -> Generator:
        """Last-fragment path (§III-A): busy-poll until every pending copy
        of this message completed, then free the remaining skbuffs."""
        if not state.pending:
            return 0
        yield from self.backend.drain_state(core, state)
        freed = 0
        while state.pending:
            entry = state.pending.popleft()
            yield from self._heal_if_failed(core, state, entry)
            entry.skb.free()
            freed += 1
        self.skbuffs_reaped += freed
        self.backend.reap_state(state)
        return freed

    def _heal_if_failed(
        self, core: "Core", state: MessageOffloadState, entry: PendingCopy
    ) -> Generator:
        """Redo an aborted DMA copy with memcpy (channel-failure fallback)."""
        if not entry.cookie.failed:
            return
        yield from self.host.copier.memcpy(
            core, entry.skb.head, entry.skb_off, entry.dst, entry.dst_off,
            entry.length, "bh", phase="fallback_copy",
        )
        state.offloaded_bytes -= entry.length
        state.copied_bytes += entry.length
        self.fallback_copies += 1
        # Thread the failure into the owning lane's breaker: without this,
        # repeated heals never accumulate history and a permanently dead
        # channel keeps being picked, healed, and picked again forever.
        # Multi-lane tickets blame the lane that actually aborted.
        self.host.health.record_fallback(entry.cookie.channel)
