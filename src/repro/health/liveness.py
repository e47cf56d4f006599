"""Peer liveness: keepalives, silence deadlines, typed peer death.

The reliability layer handles *per-packet* loss; what it cannot see is a
peer that stops talking while we hold state for it — the classic case is a
large send whose RNDV was acked: the sender then waits for a NOTIFY that a
dead receiver will never produce, with pinned pages held forever.

The monitor tracks, per remote endpoint we have pending work with, when we
last heard *anything* from it.  After :data:`KEEPALIVE_INTERVAL` of silence
an unsequenced KEEPALIVE is sent (whose arrival forces the peer to re-ack);
after :data:`PEER_DEAD_TIMEOUT` — chosen well beyond retransmit exhaustion
(8 x 500 us) and the pull watchdog budget — the peer is declared dead: a
typed :class:`~repro.core.errors.PeerDead` deterministically fails every
pending request to it and releases their skbuffs/pins.

The scan daemon is **demand-armed**: it starts when pending work appears
(:meth:`ensure_armed` from the driver's send/pull paths) and exits as soon
as no peer has pending work, so idle hosts add no events and ``sim.run()``
callers that expect full heap drainage still terminate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.mx.wire import EndpointAddr, MxPacket, PktType
from repro.units import ms

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.driver import OmxDriver

#: silence beyond which a keepalive is sent to a peer we have pending work
#: with; also the scan daemon's period
KEEPALIVE_INTERVAL = ms(4)
#: sustained silence after which the peer is declared dead (must exceed
#: retransmit exhaustion: 8 retries x 500 us = 4 ms)
PEER_DEAD_TIMEOUT = ms(20)


class PeerLivenessMonitor:
    """Per-driver keepalive/deadline tracking of remote endpoints."""

    def __init__(self, driver: "OmxDriver"):
        self.driver = driver
        self.sim = driver.sim
        #: when we last heard anything from each remote endpoint
        self.last_heard: dict[EndpointAddr, int] = {}
        #: when the current interest episode in a peer began (silence is
        #: measured from max(last_heard, first_interest) so a peer we never
        #: heard from is not declared dead retroactively)
        self._first_interest: dict[EndpointAddr, int] = {}
        self.dead: set[EndpointAddr] = set()
        self._armed = False
        # statistics
        self.keepalives_tx = 0
        self.keepalives_rx = 0
        self.peers_declared_dead = 0

    # -- driver-side notifications --------------------------------------

    def ensure_armed(self) -> None:
        """Start the scan daemon if pending work exists and it is idle."""
        if self._armed:
            return
        self._armed = True
        self.sim.daemon(self._scan_loop(),
                        name=f"liveness{self.driver.host.host_id}")

    # -- scan daemon ----------------------------------------------------

    def _pending_peers(self) -> dict[EndpointAddr, int]:
        """Peers we hold state for, mapped to a local endpoint id to speak
        from (lowest one with business toward the peer — deterministic)."""
        drv = self.driver
        peers: dict[EndpointAddr, int] = {}

        def note(peer: EndpointAddr, local_ep: int) -> None:
            if peer in self.dead:
                return
            cur = peers.get(peer)
            if cur is None or local_ep < cur:
                peers[peer] = local_ep

        for (local_ep, peer), sess in drv._tx_sessions.items():
            if sess.pending:
                note(peer, local_ep)
        for handle in drv._pulls.values():
            if not handle.done:
                note(handle.peer, handle.endpoint.addr.endpoint)
        for state in drv._large_sends.values():
            note(state.req.peer, state.endpoint.addr.endpoint)
        return peers

    def _scan_loop(self) -> Generator:
        while True:
            yield KEEPALIVE_INTERVAL  # bare-int sleep
            peers = self._pending_peers()
            if not peers:
                # Disarm: no pending work means nothing to supervise; the
                # next send/pull re-arms us.  Keeps the event heap drainable.
                self._armed = False
                self._first_interest.clear()
                return
            now = self.sim.now
            for stale in [p for p in self._first_interest if p not in peers]:
                del self._first_interest[stale]
            for peer in sorted(peers):
                base = self._first_interest.setdefault(peer, now)
                ref = self.last_heard.get(peer)
                if ref is None or ref < base:
                    ref = base
                silence = now - ref
                if silence >= PEER_DEAD_TIMEOUT:
                    self._declare_dead(peer, silence)
                elif silence >= KEEPALIVE_INTERVAL:
                    self._send_keepalive(peer, peers[peer])

    def _send_keepalive(self, peer: EndpointAddr, local_ep: int) -> None:
        self.keepalives_tx += 1
        # Transmitted in kernel-timer context; _xmit_packet piggybacks our
        # cumulative ack, so the keepalive doubles as a lost-ack repair.
        self.driver._ctl_queue.put(MxPacket(
            ptype=PktType.KEEPALIVE,
            src=EndpointAddr(self.driver.host.host_id, local_ep), dst=peer,
        ))

    def _declare_dead(self, peer: EndpointAddr, silence: int) -> None:
        # Imported here, not at module scope: repro.core.__init__ pulls in
        # the driver, which imports this module — the health package must
        # stay importable from either direction (host wiring or driver).
        from repro.core.errors import PeerDead

        self.dead.add(peer)
        self.peers_declared_dead += 1
        trace = self.driver.host.trace
        if trace is not None and trace.enabled:
            trace.instant("events", f"peer {peer} DEAD ({silence} ns silent)",
                          "fault")
        err = PeerDead(peer, silence, pending=self._count_pending(peer))
        self.driver._queue_peer_death(peer, err)

    def _count_pending(self, peer: EndpointAddr) -> int:
        drv = self.driver
        n = sum(len(s.pending) for (_, p), s in drv._tx_sessions.items()
                if p == peer)
        n += sum(1 for h in drv._pulls.values()
                 if h.peer == peer and not h.done)
        n += sum(1 for s in drv._large_sends.values() if s.req.peer == peer)
        return n

    def register_metrics(self, reg) -> None:
        reg.counter("health", "keepalives_tx", lambda: self.keepalives_tx,
                    "proof-of-life probes sent to silent peers")
        reg.counter("health", "keepalives_rx", lambda: self.keepalives_rx)
        reg.counter("health", "peers_declared_dead",
                    lambda: self.peers_declared_dead)
        reg.gauge("health", "peers_dead", lambda: len(self.dead))
