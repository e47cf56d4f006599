"""The Open-MX kernel driver.

Three execution contexts, matching the real module:

* **syscall context** — command processing on the calling process's core
  (category ``driver``): eager sends, rendezvous announcements, pull setup,
  local (shared-memory) transfers, including memory pinning;
* **BH context** — the receive callback invoked by the softirq engine on
  the interrupt core (category ``bh``): eager deposit into the ring,
  pull-reply copying (memcpy or I/OAT offload), pull-request serving,
  acks/notifies;
* **kernel timers** — retransmissions and pull watchdogs, executed on the
  interrupt core as BH work.

The driver talks to user space only through per-endpoint event rings
(:class:`~repro.core.types.OmxEvent`), exactly like the real stack.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

from repro.core.errors import DeliveryFailed, PullAborted, RemoteAborted
from repro.core.offload import OffloadManager
from repro.core.pull import PullHandle, handles_for_peer
from repro.core.reliability import RxSession, TxSession
from repro.health.backpressure import BusyGate
from repro.health.liveness import PeerLivenessMonitor
from repro.core.types import EvType, OmxEvent, OmxRequest
from repro.ethernet.frame import ETHERTYPE_MX, EthernetFrame
from repro.ethernet.skbuff import Skbuff
from repro.mx.wire import EndpointAddr, MxPacket, PktType
from repro.simkernel.resources import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.host import Host
    from repro.core.endpoint import OmxEndpoint
    from repro.params import OmxConfig
    from repro.simkernel.cpu import Core


@dataclass
class _LargeSendState:
    """Sender-side context of a rendezvous'd message."""

    req: OmxRequest
    endpoint: "OmxEndpoint"
    pinned: object


class OmxDriver:
    """Per-host kernel module instance."""

    def __init__(self, host: "Host", config: "OmxConfig"):
        config.validate()
        self.host = host
        self.sim = host.sim
        self.config = config
        self.params = host.params
        self.endpoints: dict[int, "OmxEndpoint"] = {}
        self.offload = OffloadManager(host, config)
        self.host.regcache.enabled = config.regcache_enabled

        self._tx_sessions: dict[tuple[int, EndpointAddr], TxSession] = {}
        self._rx_sessions: dict[tuple[int, EndpointAddr], RxSession] = {}
        self._pulls: dict[int, PullHandle] = {}
        self._pull_ids = itertools.count()
        self._msg_ids = itertools.count()
        self._large_sends: dict[int, _LargeSendState] = {}
        self._local_large_sends: dict[int, OmxRequest] = {}

        from repro.core.shm import ShmEngine

        #: intra-node delivery engine (§III-C)
        self.shm = ShmEngine(self)

        #: optional in-kernel eager matching (§VI extension)
        self.kmatch = None
        if config.kernel_matching:
            from repro.core.kmatch import KernelMatcher

            self.kmatch = KernelMatcher(self)

        #: control packets queued for kernel-timer-context transmission
        self._ctl_queue: Store = Store(self.sim, name=f"omx{host.host_id}.ctl")
        self.sim.daemon(self._ctl_daemon(), name=f"omx{host.host_id}-ctl")

        #: dead-lettered packets awaiting kernel-timer-context cleanup
        #: (pin release needs a core, so it cannot run in the retx timer)
        self._dead_queue: Store = Store(self.sim, name=f"omx{host.host_id}.dead")
        self.sim.daemon(self._dead_daemon(), name=f"omx{host.host_id}-dead")

        # -- health supervision (repro.health, DESIGN.md §12) --
        self.liveness = PeerLivenessMonitor(self)
        self.busy_gate = BusyGate(self.sim)
        #: peers declared dead awaiting kernel-timer-context teardown
        self._peer_death_queue: Store = Store(
            self.sim, name=f"omx{host.host_id}.peerdead")
        self.sim.daemon(self._peer_death_daemon(),
                        name=f"omx{host.host_id}-peerdead")

        host.softirq.register_handler(ETHERTYPE_MX, self._rx_callback)

        # Hot-path attribute caches (one send runs per wire frame; the
        # three-level host.platform.nic chains add up at fig. 11 scale).
        self._skb_pool = host.skb_pool
        self._nic = host.nic
        self._tx_frame_cost = host.platform.nic.tx_frame_cost

        #: BH header-processing cost; reduced when the NIC uses Direct
        #: Cache Access (§II-C) to warm the interrupt core's cache
        self._bh_base_cost = self.params.bh_base_cost
        if host.platform.nic.dca_enabled:
            self._bh_base_cost = int(
                self._bh_base_cost * (1.0 - host.platform.nic.dca_savings)
            )

        # statistics
        self.eager_rx = 0
        self.pull_replies_rx = 0
        self.ring_drops = 0
        self.dead_letters = 0
        self.pull_aborts = 0
        self.requests_failed = 0
        self.busy_rx = 0
        #: attempts to fail an already-terminal request (watchdog-abort vs
        #: peer-death race); the first typed error always wins
        self.duplicate_failures = 0

        self._register_metrics(host.metrics)

    def _register_metrics(self, reg) -> None:
        """Publish protocol-layer statistics into the host registry."""
        from repro.core.pull import register_pull_metrics
        from repro.core.reliability import register_reliability_metrics

        reg.counter("omx", "eager_rx", lambda: self.eager_rx)
        reg.counter("omx", "pull_replies_rx", lambda: self.pull_replies_rx)
        reg.counter("omx", "eager_ring_drops", lambda: self.ring_drops,
                    "eager fragments dropped on ring exhaustion")
        reg.counter("omx", "dead_letters", lambda: self.dead_letters)
        reg.counter("omx", "pull_aborts", lambda: self.pull_aborts)
        reg.counter("omx", "requests_failed", lambda: self.requests_failed)
        reg.counter("omx", "duplicate_failures", lambda: self.duplicate_failures,
                    "failure attempts on already-terminal requests")
        reg.counter("health", "busy_rx", lambda: self.busy_rx,
                    "BUSY backpressure signals received from peers")
        self.liveness.register_metrics(reg)
        self.busy_gate.register_metrics(reg)
        register_reliability_metrics(reg, self)
        register_pull_metrics(reg, self)
        self.offload.register_metrics(reg)
        reg.counter("shm", "shm_eager", lambda: self.shm.local_eager)
        reg.counter("shm", "shm_large", lambda: self.shm.local_large)
        reg.counter("shm", "shm_ioat_copies", lambda: self.shm.ioat_copies)
        if self.kmatch is not None:
            reg.counter("kmatch", "kmatch_matches",
                        lambda: self.kmatch.kernel_matches)
            reg.counter("kmatch", "kmatch_fallbacks",
                        lambda: self.kmatch.fallbacks)
            reg.counter("kmatch", "kmatch_frags_offloaded",
                        lambda: self.kmatch.frags_offloaded)
        #: completed-pull size distribution (power-of-two buckets)
        self._pull_bytes = reg.histogram("omx", "pull_bytes",
                                         "bytes moved per completed pull")

    # ------------------------------------------------------------------
    # endpoint management
    # ------------------------------------------------------------------

    def register_endpoint(self, ep: "OmxEndpoint") -> None:
        if ep.addr.endpoint in self.endpoints:
            raise ValueError(f"endpoint {ep.addr.endpoint} already open")
        self.endpoints[ep.addr.endpoint] = ep

    def _tx_session(self, local_ep: int, peer: EndpointAddr) -> TxSession:
        key = (local_ep, peer)
        sess = self._tx_sessions.get(key)
        if sess is None:
            sess = TxSession(
                self.sim, peer, self._queue_resend, self.config.retransmit_timeout,
                on_dead=self._on_dead_letter,
                backoff_seed=f"backoff:{self.host.host_id}:{local_ep}:{peer}",
            )
            self._tx_sessions[key] = sess
        # Outbound reliable traffic means pending work: supervise the peer.
        self.liveness.ensure_armed()
        return sess

    def _rx_session(self, local_ep: int, peer: EndpointAddr) -> RxSession:
        key = (local_ep, peer)
        sess = self._rx_sessions.get(key)
        if sess is None:
            sess = RxSession(
                self.sim, EndpointAddr(self.host.host_id, local_ep), peer,
                self._queue_ack,
            )
            self._rx_sessions[key] = sess
        return sess

    # ------------------------------------------------------------------
    # transmit plumbing
    # ------------------------------------------------------------------

    def _xmit_packet(self, core: "Core", pkt: MxPacket, category: str) -> Generator:
        """Build a (zero-copy) skbuff for ``pkt`` and hand it to the NIC.

        The caller must hold ``core``.  Any pending cumulative ack for the
        destination is piggybacked.
        """
        rx = self._rx_sessions.get((pkt.src.endpoint, pkt.dst))
        if rx is not None:
            pkt.ack_seqnum = rx.piggyback()
        skb = self._skb_pool.alloc_tx()
        if pkt.data_region is not None and pkt.data_length:
            skb.add_frag(pkt.data_region, pkt.data_offset, pkt.data_length)
        frame = EthernetFrame(
            src_mac=self.host.host_id, dst_mac=pkt.dst.host,
            ethertype=ETHERTYPE_MX, payload=pkt, payload_len=pkt.wire_payload_len,
        )
        tx_cost = self._tx_frame_cost
        if tx_cost:
            yield tx_cost
        core.account(category, tx_cost, "tx")
        # The NIC's transmit half, run in this frame (no generator per wire
        # frame); its tx_frame_cost is the same platform parameter as above.
        # The CPU is released at the doorbell, before serialization.
        nic = self._nic
        if nic._egress is None:
            raise RuntimeError("NIC has no link attached")
        if tx_cost:
            yield tx_cost
        core.account("driver", tx_cost)
        skb.frame = frame
        sim = nic.sim
        sim._push(sim.now + nic.params.per_frame_cost,
                  nic._doorbell, (frame, skb))
        return None

    def _queue_resend(self, pkt: MxPacket) -> None:
        """Retransmission callback from a TX session timer."""
        trace = self.host.trace
        if trace is not None and trace.enabled:
            trace.instant("events", f"retransmit {pkt.ptype.name}",
                          "retransmit")
        self._ctl_queue.put(pkt)

    def _queue_ack(self, owner: EndpointAddr, peer: EndpointAddr, ack_seqnum: int) -> None:
        """Delayed-ack callback from an RX session."""
        self._ctl_queue.put(MxPacket(
            ptype=PktType.ACK, src=owner, dst=peer, ack_seqnum=ack_seqnum,
        ))

    def _ctl_daemon(self) -> Generator:
        """Kernel-timer context: transmit queued control/retransmit packets
        on the interrupt core as BH work."""
        core = self.host.irq_core
        while True:
            pkt = yield self._ctl_queue.get()
            yield core.res.request()
            try:
                yield from self._xmit_packet(core, pkt, "bh")
            finally:
                core.res.release()

    # ------------------------------------------------------------------
    # dead letters: the reliability layer gave up on a packet
    # ------------------------------------------------------------------

    def _on_dead_letter(self, pkt: MxPacket, err: DeliveryFailed) -> None:
        """TX-session hook: a packet exhausted MAX_RETRIES.

        Runs in the retx-timer daemon (no core held), so anything needing
        driver/BH CPU — pin release for a dead rendezvous — is queued for
        the dead-letter daemon.  Requests whose completion is watcher-based
        (mediums) are failed directly by the session's watcher callbacks.
        """
        self.dead_letters += 1
        trace = self.host.trace
        if trace is not None and trace.enabled:
            trace.instant("events", f"dead letter {pkt.ptype.name}", "fault")
        if pkt.ptype in (PktType.RNDV, PktType.NACK):
            self._dead_queue.put((pkt, err))
        # NOTIFY dead-lettering has nothing to clean locally: the pull (and
        # its request) completed before the notify was sent; the peer's
        # sender request is failed by its own RNDV/pull machinery.

    def _dead_daemon(self) -> Generator:
        """Kernel-timer context: tear down state owned by dead packets."""
        core = self.host.irq_core
        while True:
            pkt, err = yield self._dead_queue.get()
            yield core.res.request()
            try:
                if pkt.ptype is PktType.RNDV:
                    yield from self._fail_large_send(core, pkt.msg_id, err)
            finally:
                core.res.release()

    # ------------------------------------------------------------------
    # peer death: the liveness monitor gave up on a silent peer
    # ------------------------------------------------------------------

    def _queue_peer_death(self, peer: EndpointAddr, err: Exception) -> None:
        """Liveness hook (no core held): queue the teardown as BH work."""
        self._peer_death_queue.put((peer, err))

    def _peer_death_daemon(self) -> Generator:
        """Kernel-timer context: tear down all state owned by a dead peer."""
        core = self.host.irq_core
        while True:
            peer, err = yield self._peer_death_queue.get()
            yield core.res.request()
            try:
                yield from self._fail_peer(core, peer, err)
            finally:
                core.res.release()

    def _fail_peer(self, core: "Core", peer: EndpointAddr, err: Exception) -> Generator:
        """Deterministically fail every pending request involving ``peer``.

        Pulls are drained through the §III-B offload cleanup (skbuffs behind
        in-flight I/OAT copies are released, pins dropped); large sends
        release their pins; TX sessions fail all pending packets so armed
        ack-watchers fire their typed-failure callbacks.  No NACK/NOTIFY is
        sent — the peer is dead, there is nobody to tell.
        """
        for handle in handles_for_peer(self._pulls, peer):
            yield from self._drain_pull(core, handle, "bh")
            self._fail_request(handle.endpoint, handle.req, err)
        for msg_id in sorted(m for m, s in self._large_sends.items()
                             if s.req.peer == peer):
            yield from self._fail_large_send(core, msg_id, err)
        for (local_ep, p), sess in sorted(self._tx_sessions.items()):
            if p == peer:
                self.dead_letters += sess.fail_all(err)
        return None

    def _fail_large_send(self, core: "Core", msg_id: int,
                         err: Exception) -> Generator:
        """Release a dead rendezvous' pins and fail its request loudly."""
        state = self._large_sends.pop(msg_id, None)
        if state is None:
            return None
        yield from self._release_send_pins(core, state)
        self._fail_request(state.endpoint, state.req, err)
        return None

    def _release_send_pins(self, core: "Core", state: _LargeSendState) -> Generator:
        """Release a large send's pins: one region, or one per segment."""
        pins = state.pinned if isinstance(state.pinned, list) else [state.pinned]
        for p in pins:
            yield from self.host.regcache.release(core, p, "bh")

    def _fail_request(self, ep: "OmxEndpoint", req: OmxRequest, err: Exception) -> None:
        """Surface a typed error on ``req`` and complete it via the ring.

        Idempotent: the pull watchdog and the peer-death teardown can race
        to fail the same request; the first typed error wins and later
        attempts only count ``duplicate_failures``.
        """
        if req is None:
            return
        if req.done or req.error is not None:
            self.duplicate_failures += 1
            return
        req.error = err
        self.requests_failed += 1
        ep.post_event(OmxEvent(EvType.FAILED, peer=req.peer, req=req))

    # ------------------------------------------------------------------
    # syscall-context commands (caller does NOT hold the core)
    # ------------------------------------------------------------------

    def _enter_syscall(self, core: "Core") -> Generator:
        yield core.res.request()
        yield from core.busy(
            self.params.syscall_cost + self.params.driver_command_cost, "driver",
            phase="syscall",
        )
        return None

    def cmd_send_eager(self, core: "Core", ep: "OmxEndpoint", req: OmxRequest) -> Generator:
        """Send a tiny/small/medium message (zero-copy fragments)."""
        yield from self._enter_syscall(core)
        try:
            req.msg_id = next(self._msg_ids)
            sess = self._tx_session(ep.addr.endpoint, req.peer)
            frag = self.config.medium_frag
            pieces = list(req.iter_pieces(0, req.length, frag)) or [
                (0, req.region, req.offset, 0)
            ]
            count = len(pieces)
            last_seq = -1
            for i, (off, region, roff, n) in enumerate(pieces):
                if req.length <= 32:
                    ptype = PktType.TINY
                elif count == 1 and req.length <= self.config.small_max:
                    ptype = PktType.SMALL
                else:
                    ptype = PktType.MEDIUM_FRAG
                pkt = MxPacket(
                    ptype=ptype, src=ep.addr, dst=req.peer,
                    match_info=req.match_info, msg_id=req.msg_id,
                    msg_len=req.length, frag_index=i, frag_count=count,
                    offset=off, data_region=region,
                    data_offset=roff, data_length=n,
                )
                last_seq = sess.stamp(pkt)
                yield from self._xmit_packet(core, pkt, "driver")
            if req.length <= self.config.small_max:
                # tiny/small are buffered by the stack: complete immediately
                ep.post_event(OmxEvent(EvType.SEND_DONE, peer=req.peer, req=req))
            else:
                # mediums reference user pages: complete on cumulative ack;
                # a dead-lettered fragment fails the request instead of
                # leaving the watcher armed (and the sender hung) forever
                sess.watch_ack(
                    last_seq,
                    lambda: ep.post_event(OmxEvent(EvType.SEND_DONE, peer=req.peer, req=req)),
                    on_fail=lambda err: self._fail_request(ep, req, err),
                )
        finally:
            core.res.release()
        return None

    def cmd_send_rndv(self, core: "Core", ep: "OmxEndpoint", req: OmxRequest) -> Generator:
        """Announce a large message; data will be pulled by the receiver."""
        yield from self._enter_syscall(core)
        try:
            req.msg_id = next(self._msg_ids)
            if req.segments is not None:
                pinned = []
                for region, seg_off, seg_len in req.segments:
                    if seg_len:
                        p = yield from self.host.regcache.acquire(
                            core, region.subregion(seg_off, seg_len), "driver"
                        )
                        pinned.append(p)
            else:
                send_region = req.region.subregion(req.offset, req.length)
                pinned = yield from self.host.regcache.acquire(core, send_region, "driver")
            req.pinned = pinned
            self._large_sends[req.msg_id] = _LargeSendState(req, ep, pinned)
            pkt = MxPacket(
                ptype=PktType.RNDV, src=ep.addr, dst=req.peer,
                match_info=req.match_info, msg_id=req.msg_id, msg_len=req.length,
            )
            self._tx_session(ep.addr.endpoint, req.peer).stamp(pkt)
            yield from self._xmit_packet(core, pkt, "driver")
        finally:
            core.res.release()
        return None

    def cmd_start_pull(
        self, core: "Core", ep: "OmxEndpoint", req: OmxRequest,
        peer: EndpointAddr, msg_id: int, msg_len: int,
    ) -> Generator:
        """Rendezvous matched in the library: set up and start the pull."""
        total = min(msg_len, req.length)
        yield from self._enter_syscall(core)
        try:
            dest = req.region.subregion(req.offset, total) if total else None
            pinned = None
            if dest is not None and total:
                pinned = yield from self.host.regcache.acquire(core, dest, "driver")
            handle = PullHandle(
                handle_id=next(self._pull_ids), req=req, peer=peer, msg_id=msg_id,
                total=total,
                block_bytes=self.config.large_frag * self.config.pull_block_frags,
                offload=self.offload.new_message_state(), pinned=pinned,
                endpoint=ep,
            )
            handle.last_progress = self.sim.now
            self._pulls[handle.id] = handle
            # A pull holds peer state without reliable TX traffic of its
            # own: make sure the liveness monitor watches the sender.
            self.liveness.ensure_armed()
            if total == 0:
                yield from self._finish_pull(core, ep, handle, category="driver")
            else:
                for _ in range(self.config.pull_outstanding_blocks):
                    yield from self._request_block(core, ep, handle, "driver")
                self.sim.daemon(self._pull_watchdog(ep, handle), name=f"pullwd{handle.id}")
        finally:
            core.res.release()
        return None

    def cmd_close_endpoint(self, core: "Core", ep: "OmxEndpoint") -> Generator:
        """Close an endpoint, abandoning its in-flight pulls.

        The §III-B cleanup routine runs for every pull the endpoint still
        owns — and :meth:`OffloadManager.wait_all` for whatever it could not
        release — so skbuffs queued behind in-flight I/OAT copies can never
        be stranded past the endpoint's lifetime (the ``max_pending_skbuffs``
        accounting returns to zero).  Abandoned pulls never complete their
        request; close is forceful, like releasing the endpoint fd.
        """
        yield from self._enter_syscall(core)
        try:
            mine = [h for h in self._pulls.values() if h.endpoint is ep]
            for handle in mine:
                yield from self._drain_pull(core, handle, "driver")
            if self.kmatch is not None:
                yield from self.kmatch.cmd_close_endpoint(core, ep)
        finally:
            core.res.release()
        self.endpoints.pop(ep.addr.endpoint, None)
        return None

    # ------------------------------------------------------------------
    # pull engine
    # ------------------------------------------------------------------

    def _request_block(self, core: "Core", ep: "OmxEndpoint", handle: PullHandle,
                       category: str) -> Generator:
        """Send the next block request; §III-B: also run the cleanup routine."""
        yield from self.offload.cleanup(core, handle.offload)
        block = handle.next_unrequested()
        if block is None:
            return None
        block.requested = True
        pkt = MxPacket(
            ptype=PktType.PULL_REQ, src=ep.addr, dst=handle.peer,
            msg_id=handle.msg_id, pull_handle=handle.id,
            req_offset=block.offset, req_length=block.length,
        )
        yield from self._xmit_packet(core, pkt, category)
        return None

    def _pull_watchdog(self, ep: "OmxEndpoint", handle: PullHandle) -> Generator:
        """Re-request stalled blocks after the retransmission timeout."""
        core = self.host.irq_core
        timeout = self.config.retransmit_timeout
        while not handle.done:
            yield timeout  # bare-int sleep
            if handle.done:
                break
            if self.sim.now - handle.last_progress < timeout:
                continue
            handle.retransmits += 1
            yield core.res.request()
            try:
                if handle.retransmits > self.config.pull_max_retries:
                    # Give up loudly: abandoning silently would leave the
                    # request hung and the §III-B resources stranded.
                    yield from self._abort_pull(core, ep, handle)
                    break
                # §III-B: the cleanup routine also runs on the retransmission
                # timeout path.
                yield from self.offload.cleanup(core, handle.offload)
                for block in handle.outstanding_incomplete():
                    pkt = MxPacket(
                        ptype=PktType.PULL_REQ, src=ep.addr, dst=handle.peer,
                        msg_id=handle.msg_id, pull_handle=handle.id,
                        req_offset=block.offset, req_length=block.length,
                    )
                    yield from self._xmit_packet(core, pkt, "bh")
            finally:
                core.res.release()
        return None

    def _abort_pull(self, core: "Core", ep: "OmxEndpoint", handle: PullHandle) -> Generator:
        """Tear down a hopeless pull: drain offload state, free resources,
        fail the request with :class:`PullAborted`, NACK the sender."""
        self.pull_aborts += 1
        yield from self._drain_pull(core, handle, "bh")
        self._fail_request(ep, handle.req, PullAborted(
            handle.peer, handle.msg_id, handle.received, handle.total,
            handle.retransmits,
        ))
        # Reliable NACK so the sender releases its pins and fails its
        # request too, instead of waiting forever for a NOTIFY.
        pkt = MxPacket(
            ptype=PktType.NACK, src=ep.addr, dst=handle.peer, msg_id=handle.msg_id,
        )
        self._tx_session(ep.addr.endpoint, handle.peer).stamp(pkt)
        yield from self._xmit_packet(core, pkt, "bh")
        return None

    def _drain_pull(self, core: "Core", handle: PullHandle,
                    category: str) -> Generator:
        """Abandon a pull: the §III-B cleanup, a wait for the copies it
        could not release, then retire the handle and release its pin."""
        yield from self.offload.cleanup(core, handle.offload)
        if handle.offload.pending:
            yield from self.offload.wait_all(core, handle.offload)
        handle.done = True
        self._pulls.pop(handle.id, None)
        if handle.pinned is not None:
            yield from self.host.regcache.release(core, handle.pinned, category)

    def _finish_pull(self, core: "Core", ep: "OmxEndpoint", handle: PullHandle,
                     category: str) -> Generator:
        """Last fragment: wait for async copies, notify both sides."""
        yield from self.offload.wait_all(core, handle.offload)
        handle.done = True
        self._pulls.pop(handle.id, None)
        self._pull_bytes.observe(handle.total)
        if handle.pinned is not None:
            yield from self.host.regcache.release(core, handle.pinned, category)
        handle.req.xfer_length = handle.total
        ep.post_event(OmxEvent(
            EvType.RECV_LARGE_DONE, peer=handle.peer, msg_len=handle.total,
            req=handle.req,
        ))
        pkt = MxPacket(
            ptype=PktType.NOTIFY, src=ep.addr, dst=handle.peer, msg_id=handle.msg_id,
        )
        self._tx_session(ep.addr.endpoint, handle.peer).stamp(pkt)
        yield from self._xmit_packet(core, pkt, category)
        return None

    # ------------------------------------------------------------------
    # BH receive callback (runs on the interrupt core, which is held)
    # ------------------------------------------------------------------

    def _rx_callback(self, core: "Core", skb: Skbuff) -> Generator:
        pkt: MxPacket = skb.frame.payload
        ptype = pkt.ptype
        if ptype is PktType.PULL_REPLY:
            # The large-fragment surcharge is merged into the base charge:
            # one timeout instead of two per fragment on the hottest path.
            hdr_cost = self._bh_base_cost + self.params.bh_large_frag_extra
        else:
            hdr_cost = self._bh_base_cost
        if hdr_cost:
            yield hdr_cost
        core.account("bh", hdr_cost, "bh_header")

        # Any arrival is proof of life for the sending endpoint.
        liveness = self.liveness
        liveness.last_heard[pkt.src] = liveness.sim.now
        liveness.dead.discard(pkt.src)

        # Piggybacked cumulative ack.
        if pkt.ack_seqnum >= 0 and ptype is not PktType.ACK:
            sess = self._tx_sessions.get((pkt.dst.endpoint, pkt.src))
            if sess is not None:
                sess.on_ack(pkt.ack_seqnum)

        ep = self.endpoints.get(pkt.dst.endpoint)
        if ep is None:
            skb.free()
            return None

        # Dispatch in descending traffic order: pull fragments and their
        # requests dwarf everything else once rendezvous is in play.
        if ptype is PktType.PULL_REPLY:
            yield from self._bh_pull_reply(core, ep, skb, pkt)
        elif ptype is PktType.PULL_REQ:
            yield from self._bh_pull_req(core, skb, pkt)
        elif ptype in (PktType.TINY, PktType.SMALL, PktType.MEDIUM_FRAG):
            yield from self._bh_eager(core, ep, skb, pkt)
        elif ptype is PktType.RNDV:
            if self.busy_gate.pulls_pressured(len(self._pulls)):
                # Pull-handle pool over the watermark: refuse *before* the
                # rx session sees the seqnum, so the sender's (reliable)
                # RNDV retransmits later — under BUSY backoff — instead of
                # the message being half-accepted.
                self._signal_busy(ep, pkt.src)
                skb.free()
                return None
            self._bh_reliable_ctl(ep, pkt, lambda: ep.post_event(OmxEvent(
                EvType.RNDV, peer=pkt.src, match_info=pkt.match_info,
                msg_id=pkt.msg_id, msg_len=pkt.msg_len,
            )))
            skb.free()
        elif ptype is PktType.NOTIFY:
            if self._rx_session(ep.addr.endpoint, pkt.src).accept(pkt):
                yield from self._bh_notify(core, ep, pkt)
            skb.free()
        elif ptype is PktType.NACK:
            # Peer aborted its pull: release our pins, fail the send.
            if self._rx_session(ep.addr.endpoint, pkt.src).accept(pkt):
                yield from self._fail_large_send(
                    core, pkt.msg_id, RemoteAborted(pkt.src, pkt.msg_id)
                )
            skb.free()
        elif ptype is PktType.ACK:
            sess = self._tx_sessions.get((pkt.dst.endpoint, pkt.src))
            if sess is not None:
                sess.on_ack(pkt.ack_seqnum)
            skb.free()
        elif ptype is PktType.KEEPALIVE:
            # Unsequenced proof-of-life probe: force a re-ack so the silent
            # half of the conversation hears us again.
            self.liveness.keepalives_rx += 1
            self._rx_session(ep.addr.endpoint, pkt.src).note_keepalive()
            skb.free()
        elif ptype is PktType.BUSY:
            # Receiver backpressure: escalate this session's backoff.
            self.busy_rx += 1
            sess = self._tx_sessions.get((pkt.dst.endpoint, pkt.src))
            if sess is not None:
                sess.note_busy()
            skb.free()
        else:
            skb.free()
        return None

    def _signal_busy(self, ep: "OmxEndpoint", peer: EndpointAddr) -> None:
        """Queue an unsequenced BUSY to ``peer`` (rate-limited per peer)."""
        if not self.busy_gate.should_signal(peer):
            return
        self._ctl_queue.put(MxPacket(ptype=PktType.BUSY, src=ep.addr, dst=peer))

    def _bh_reliable_ctl(self, ep: "OmxEndpoint", pkt: MxPacket, deliver) -> None:
        """Dedup-filtered delivery of a sequenced control packet."""
        if self._rx_session(ep.addr.endpoint, pkt.src).accept(pkt):
            deliver()

    def _bh_notify(self, core: "Core", ep: "OmxEndpoint", pkt: MxPacket) -> Generator:
        state = self._large_sends.pop(pkt.msg_id, None)
        if state is None:
            return None
        state.req.xfer_length = state.req.length
        yield from self._release_send_pins(core, state)
        ep.post_event(OmxEvent(EvType.SEND_DONE, peer=pkt.src, req=state.req))
        return None

    def _bh_eager(self, core: "Core", ep: "OmxEndpoint", skb: Skbuff, pkt: MxPacket) -> Generator:
        """Deposit an eager fragment into the endpoint's pinned ring."""
        if not self._rx_session(ep.addr.endpoint, pkt.src).accept(pkt):
            skb.free()
            return None
        if self.kmatch is not None:
            consumed = yield from self.kmatch.try_deliver(core, ep, skb, pkt)
            if consumed:
                self.eager_rx += 1
                return None
        slot = ep.ring.acquire_slot()
        if slot is None:
            # Ring exhausted: drop; the sender's retransmission recovers it
            # — but tell it to back off instead of hammering the timeout.
            self.ring_drops += 1
            self._signal_busy(ep, pkt.src)
            skb.free()
            return None
        if self.busy_gate.ring_pressured(ep.ring):
            # Low-watermark early warning: the fragment is delivered, but
            # senders should slow their retransmission pressure.
            self._signal_busy(ep, pkt.src)
        if pkt.data_length:
            if self.config.ignore_bh_copy:
                pass  # Fig. 3 prediction mode: skip the BH copy
            elif self.config.ioat_medium_sync and pkt.ptype is PktType.MEDIUM_FRAG:
                # §IV-C ablation: synchronous I/OAT copy for medium frags —
                # submit and spin; found to be a loss in the paper.
                cookie = yield from self.host.ioat.submit_copy(
                    core, skb.head, 0, ep.ring.slot_region(slot), 0,
                    pkt.data_length, "bh",
                )
                yield from self.host.ioat.busy_wait(core, cookie, "bh")
            else:
                # Plan/yield/commit in this frame (memcpy's generator is
                # pure overhead at one call per eager fragment).
                copier = self.host.copier
                dest = ep.ring.slot_region(slot)
                n = pkt.data_length
                cost = copier.copy_cost(core, skb.head, 0, dest, 0, n)
                if cost:
                    yield cost
                copier.commit(core, skb.head, 0, dest, 0, n, "bh", cost,
                              phase="eager_copy")
        self.eager_rx += 1
        skb.free()
        ep.post_event(OmxEvent(
            EvType.EAGER_FRAG, peer=pkt.src, match_info=pkt.match_info,
            msg_id=pkt.msg_id, msg_len=pkt.msg_len, frag_index=pkt.frag_index,
            frag_count=pkt.frag_count, offset=pkt.offset,
            length=pkt.data_length, ring_slot=slot,
        ))
        return None

    def _bh_pull_req(self, core: "Core", skb: Skbuff, pkt: MxPacket) -> Generator:
        """Sender side: stream the requested span as PULL_REPLY frames."""
        skb.free()
        state = self._large_sends.get(pkt.msg_id)
        if state is None:
            return None
        frag = self.config.large_frag
        span = min(pkt.req_offset + pkt.req_length, state.req.length) - pkt.req_offset
        # Fragments never cross a segment boundary of a vectored send, so a
        # highly-vectorial buffer produces the sub-kilobyte fragments of the
        # §IV-A discussion (which the receiver then declines to offload).
        for off, region, roff, n in state.req.iter_pieces(pkt.req_offset, span, frag):
            reply = MxPacket(
                ptype=PktType.PULL_REPLY, src=pkt.dst, dst=pkt.src,
                msg_id=pkt.msg_id, pull_handle=pkt.pull_handle,
                offset=off, msg_len=state.req.length,
                data_region=region, data_offset=roff, data_length=n,
            )
            yield from self._xmit_packet(core, reply, "bh")
        return None

    def _bh_pull_reply(self, core: "Core", ep: "OmxEndpoint", skb: Skbuff, pkt: MxPacket) -> Generator:
        """Receiver side: the copy this paper is about."""
        # (the bh_large_frag_extra charge is folded into _rx_callback's
        # base busy, saving one timeout per fragment)
        handle = self._pulls.get(pkt.pull_handle)
        if handle is None or handle.done:
            skb.free()
            return None
        if not handle.note_fragment(pkt.offset, pkt.data_length, self.sim.now):
            skb.free()  # duplicate reply (after a watchdog re-request)
            return None
        self.pull_replies_rx += 1
        dest = handle.req.region
        offloaded = yield from self.offload.copy_fragment(
            core, handle.offload, skb, 0,
            dest, handle.req.offset + pkt.offset, pkt.data_length,
            handle.total,
        )
        if not offloaded:
            skb.free()
        block = handle.block_of(pkt.offset)
        if block.complete and not handle.complete:
            yield from self._request_block(core, ep, handle, "bh")
        if handle.complete:
            yield from self._finish_pull(core, ep, handle, category="bh")
        return None


class OmxStack:
    """Convenience bundle: one driver + endpoint factory for a host."""

    def __init__(self, host: "Host", config: Optional["OmxConfig"] = None):
        self.host = host
        self.config = config if config is not None else host.platform.omx
        self.driver = OmxDriver(host, self.config)

    def open_endpoint(self, ep_id: int, space=None) -> "OmxEndpoint":
        from repro.core.endpoint import OmxEndpoint

        ep = OmxEndpoint(self.driver, ep_id, space=space)
        return ep
