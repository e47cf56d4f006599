"""In-kernel matching for eager messages (extension; paper §III-C / §VI).

The stock Open-MX receive path reports one event *per medium fragment* to
user space, which forces every 4 kB fragment copy to be synchronous and
makes the medium range the part the paper could not improve ("we are now
working on deporting the matching from user-space into the driver so that a
single completion event per medium message will be needed, making the
aforementioned overlapping possible", §VI).

``OmxConfig.kernel_matching = True`` enables exactly that rework:

* ``irecv`` additionally *posts* the receive to the driver, pinning the
  buffer (the price of the scheme: pinning moves to post time);
* the BH matches incoming tiny/small/medium traffic against the posted
  receives and copies fragments **straight into the application buffer** —
  one copy instead of two — using asynchronous I/OAT offload when enabled
  and the fragment qualifies;
* only the last fragment reports a single completion event (after waiting
  for this message's outstanding DMA copies, like the large path);
* traffic that matches nothing falls back to the classic eager-ring path,
  and the library tells the driver when it consumes a posted receive
  through that path (``unpost``).

Large messages (rendezvous) are untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

from repro.core.offload import MessageOffloadState
from repro.core.types import EvType, OmxEvent, OmxRequest
from repro.mx.wire import EndpointAddr, MxPacket, match_accepts

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.driver import OmxDriver
    from repro.core.endpoint import OmxEndpoint
    from repro.ethernet.skbuff import Skbuff
    from repro.simkernel.cpu import Core


@dataclass
class _PostedRecv:
    req: OmxRequest
    pinned: object


@dataclass
class _KernelAssembly:
    """Driver-side reassembly of one kernel-matched eager message."""

    posted: _PostedRecv
    peer: EndpointAddr
    msg_id: int
    msg_len: int
    offload: Optional[MessageOffloadState]
    received: int = 0

    @property
    def complete(self) -> bool:
        return self.received >= self.msg_len


class KernelMatcher:
    """Driver-side posted-receive list and eager fast path."""

    def __init__(self, driver: "OmxDriver"):
        self.driver = driver
        self.host = driver.host
        self.config = driver.config
        self._posted: dict[int, list[_PostedRecv]] = {}
        self._assemblies: dict[tuple[int, EndpointAddr, int], _KernelAssembly] = {}
        # statistics
        self.kernel_matches = 0
        self.fallbacks = 0
        self.frags_offloaded = 0

    # ------------------------------------------------------------------
    # syscall context
    # ------------------------------------------------------------------

    def cmd_post_recv(self, core: "Core", ep: "OmxEndpoint", req: OmxRequest) -> Generator:
        """Register (and pin) a receive with the driver."""
        yield from self.driver._enter_syscall(core)
        try:
            pinned = None
            if req.length:
                sub = req.region.subregion(req.offset, req.length)
                pinned = yield from self.host.regcache.acquire(core, sub, "driver")
            self._posted.setdefault(ep.addr.endpoint, []).append(
                _PostedRecv(req, pinned)
            )
        finally:
            core.res.release()
        return None

    def cmd_close_endpoint(self, core: "Core", ep: "OmxEndpoint") -> Generator:
        """Endpoint teardown: drain in-flight assemblies, drop posted recvs.

        The caller (``OmxDriver.cmd_close_endpoint``) holds the core.  Any
        assembly still awaiting asynchronous copies gets the same last-
        fragment treatment as normal completion (wait, free skbuffs, reap),
        and the pin references of still-posted receives are released.
        """
        ep_id = ep.addr.endpoint
        doomed = [k for k in self._assemblies if k[0] == ep_id]
        for key in doomed:
            asm = self._assemblies.pop(key)
            if asm.offload is not None:
                yield from self.driver.offload.wait_all(core, asm.offload)
            if asm.posted.pinned is not None:
                yield from self.host.regcache.release(core, asm.posted.pinned, "driver")
        for entry in self._posted.pop(ep_id, []):
            if entry.pinned is not None:
                yield from self.host.regcache.release(core, entry.pinned, "driver")
        return None

    def unpost(self, ep: "OmxEndpoint", req: OmxRequest) -> None:
        """Library consumed this receive through the classic path."""
        entries = self._posted.get(ep.addr.endpoint, [])
        for i, entry in enumerate(entries):
            if entry.req is req:
                del entries[i]
                if entry.pinned is not None:
                    entry.pinned.refcount -= 1  # deferred unpin (regcache)
                return

    # ------------------------------------------------------------------
    # BH context
    # ------------------------------------------------------------------

    def _match(self, ep_id: int, send_match: int) -> Optional[_PostedRecv]:
        entries = self._posted.get(ep_id, [])
        for i, entry in enumerate(entries):
            if match_accepts(entry.req.match_info, entry.req.mask, send_match):
                return entries.pop(i)
        return None

    def try_deliver(self, core: "Core", ep: "OmxEndpoint", skb: "Skbuff",
                    pkt: MxPacket) -> Generator:
        """Attempt the kernel fast path for one eager fragment.

        Returns True when consumed (skbuff ownership taken), False to fall
        back to the classic ring path.
        """
        key = (ep.addr.endpoint, pkt.src, pkt.msg_id)
        asm = self._assemblies.get(key)
        if asm is None:
            if pkt.frag_index != 0:
                # Mid-message fragment with no kernel assembly: the first
                # fragment went through the classic path (no receive was
                # posted then); keep the whole message there for coherence.
                self.fallbacks += 1
                return False
            posted = self._match(ep.addr.endpoint, pkt.match_info)
            if posted is None:
                self.fallbacks += 1
                return False
            # The library must not match this request a second time.
            ep.remove_posted(posted.req)
            offload = None
            if (self.config.ioat_enabled and not self.config.ignore_bh_copy
                    and self.driver.offload.backend.offloads):
                offload = self.driver.offload.new_message_state()
            asm = _KernelAssembly(posted, pkt.src, pkt.msg_id, pkt.msg_len, offload)
            if pkt.frag_count > 1:
                self._assemblies[key] = asm
            self.kernel_matches += 1

        req = asm.posted.req
        n = min(pkt.data_length, max(req.length - pkt.offset, 0))
        offloaded = False
        if n and not self.config.ignore_bh_copy:
            manager = self.driver.offload
            state = asm.offload
            # Own size rule first (never the last fragment: it completes the
            # message), then the manager's channel and breaker gates.
            if (
                state is not None
                and n >= manager.backend.min_frag(self.config)
                and state.pending_count < self.config.max_pending_skbuffs
                and pkt.frag_index < pkt.frag_count - 1
                and manager.channel_usable(state)
            ):
                yield from manager.offload_fragment(
                    core, state, skb, 0, req.region, req.offset + pkt.offset, n,
                )
                self.frags_offloaded += 1
                offloaded = True
            else:
                yield from self.host.copier.memcpy(
                    core, skb.head, 0, req.region, req.offset + pkt.offset, n, "bh"
                )
        if not offloaded:
            skb.free()
        asm.received += pkt.data_length

        if asm.complete or pkt.frag_count == 1:
            self._assemblies.pop(key, None)
            if asm.offload is not None:
                # Last fragment: wait for this message's outstanding copies
                # (the same discipline as the large-message path, Fig. 6).
                yield from self.driver.offload.wait_all(core, asm.offload)
            if asm.posted.pinned is not None:
                yield from self.host.regcache.release(core, asm.posted.pinned, "bh")
            req.xfer_length = min(asm.msg_len, req.length)
            ep.post_event(OmxEvent(
                EvType.RECV_LARGE_DONE, peer=asm.peer, msg_len=asm.msg_len, req=req,
            ))
            # The message is fully consumed: acknowledge immediately so the
            # sender's completion (and its retransmit state) releases now
            # instead of waiting for the delayed-ack timer.
            rx = self.driver._rx_session(ep.addr.endpoint, asm.peer)
            self.driver._queue_ack(ep.addr, asm.peer, rx.piggyback())
        return True
