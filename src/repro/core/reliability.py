"""Seqnum / ack / retransmit sessions for eager and control packets.

Ethernet gives no delivery guarantee, so Open-MX runs its own lightweight
reliability for everything that is not covered by the pull protocol's own
block re-requests: tiny/small/medium fragments, rendezvous announcements and
completion notifies.

Design (modelled on the real liback machinery):

* every reliable packet carries a per-session (src endpoint → dst endpoint)
  sequence number;
* the receiver remembers recently-seen seqnums (dedup) and acknowledges
  cumulatively — piggybacked on any outbound packet to the same peer, with a
  delayed explicit ACK as fallback.  A **duplicate** arrival forces a re-ack
  even when the cumulative value has not advanced: a duplicate means the
  sender never saw our ack (it was lost), and without the re-ack it would
  retransmit until ``MAX_RETRIES`` and dead-letter a delivered packet;
* the sender keeps unacked packets (tiny/small keep their skbuff copy,
  mediums re-reference user pages) and retransmits ``retransmit_timeout``
  after each (re)transmission — the timer tracks the earliest per-packet
  deadline, so a packet stamped mid-interval is not retransmitted late;
* a packet that exhausts ``MAX_RETRIES`` is **dead-lettered loudly**: its
  ack-watchers' failure callbacks fire with a typed
  :class:`~repro.core.errors.DeliveryFailed` and the session's ``on_dead``
  hook tells the driver, which fails the owning request.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.core.errors import DeliveryFailed
from repro.health.backpressure import BACKOFF_MAX_LEVEL, backoff_delay
from repro.mx.wire import EndpointAddr, MxPacket

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.scheduler import Simulator

#: give up after this many retransmissions of one packet
MAX_RETRIES = 8

#: delayed-ack latency when no return traffic piggybacks the ack
DELAYED_ACK = 20_000  # 20 µs


@dataclass
class _Pending:
    packet: MxPacket
    #: time of the most recent (re)transmission — the retransmit deadline
    #: for this packet is ``last_sent + timeout``
    last_sent: int
    retries: int = 0


class TxSession:
    """Sender half: assigns seqnums, holds packets until acked."""

    def __init__(self, sim: "Simulator", peer: EndpointAddr,
                 resend: Callable[[MxPacket], None], timeout: int,
                 on_dead: Optional[Callable[[MxPacket, DeliveryFailed], None]] = None,
                 *, backoff_seed: str):
        self.sim = sim
        self.peer = peer
        self.resend = resend
        self.timeout = timeout
        #: driver hook fired once per dead-lettered packet (typed failure)
        self.on_dead = on_dead
        #: jitter RNG of the BUSY backoff curve (repro.health.backpressure);
        #: string-seeded so the curve is deterministic per seed
        self._backoff_rng = random.Random(backoff_seed)
        self.backoff_level = 0
        self._backoff_until = 0
        self.busy_backoffs = 0
        self.next_seq = 0
        self.pending: dict[int, _Pending] = {}
        self._timer_running = False
        self.retransmissions = 0
        self.dead: list[MxPacket] = []
        self.dead_letters = 0
        #: (on_ack, on_fail) callback pairs fired when a seqnum resolves
        self._ack_watchers: dict[
            int, list[tuple[Callable[[], None],
                            Optional[Callable[[DeliveryFailed], None]]]]
        ] = {}

    def stamp(self, pkt: MxPacket) -> int:
        """Assign the next seqnum and track the packet until acked."""
        pkt.seqnum = self.next_seq
        self.next_seq += 1
        self.pending[pkt.seqnum] = _Pending(pkt, self.sim.now)
        self._arm_timer()
        return pkt.seqnum

    def on_ack(self, ack_seqnum: int) -> None:
        """Cumulative ack: everything <= ack_seqnum is delivered."""
        acked = sorted(s for s in self.pending if s <= ack_seqnum)
        if acked:
            # Forward progress: the peer is keeping up again.
            self.backoff_level = 0
            self._backoff_until = 0
        for seq in acked:
            del self.pending[seq]
            for cb, _fail in self._ack_watchers.pop(seq, ()):
                cb()

    def note_busy(self) -> None:
        """The peer signalled overload (BUSY): hold off retransmissions.

        Each BUSY escalates the backoff level; the retransmit timer will not
        fire before ``_backoff_until``, replacing the retransmission hammer
        with an exponentially spaced, seeded-jitter probe schedule.
        """
        self.backoff_level = min(self.backoff_level + 1, BACKOFF_MAX_LEVEL)
        delay = backoff_delay(self.backoff_level, self._backoff_rng)
        self._backoff_until = max(self._backoff_until, self.sim.now + delay)
        self.busy_backoffs += 1

    def fail_all(self, err: Exception) -> int:
        """Peer declared dead: fail every pending packet with ``err``.

        Watchers' failure callbacks fire (typed error); the ``on_dead`` hook
        does not — the caller is the driver itself, tearing down peer state
        wholesale rather than one dead letter at a time.
        """
        seqs = sorted(self.pending)
        for seq in seqs:
            entry = self.pending.pop(seq)
            self.dead.append(entry.packet)
            self.dead_letters += 1
            for _cb, on_fail in self._ack_watchers.pop(seq, ()):
                if on_fail is not None:
                    on_fail(err)
        return len(seqs)

    def watch_ack(self, seqnum: int, cb: Callable[[], None],
                  on_fail: Optional[Callable[[DeliveryFailed], None]] = None) -> None:
        """Run ``cb`` once ``seqnum`` is acked (fires immediately if gone).

        ``on_fail`` (if given) runs instead when the packet dead-letters, so
        the watcher cannot stay armed forever on a lossy wire.
        """
        if seqnum not in self.pending:
            cb()
        else:
            self._ack_watchers.setdefault(seqnum, []).append((cb, on_fail))

    def collect_counters(self) -> dict[str, int]:
        """Per-session reliability counters (``omx_counters`` analogue)."""
        return {
            "retransmissions": self.retransmissions,
            "dead_letters": self.dead_letters,
            "pending": len(self.pending),
        }

    def _arm_timer(self) -> None:
        if self._timer_running:
            return
        self._timer_running = True
        self.sim.daemon(self._timer(), name=f"retx-{self.peer}")

    def _timer(self) -> Generator:
        while self.pending:
            now = self.sim.now
            deadline = min(e.last_sent for e in self.pending.values()) + self.timeout
            if self._backoff_until > deadline:
                # BUSY backoff: no retransmission before the backoff expires.
                deadline = self._backoff_until
            if deadline > now:
                # Sleep to the *earliest* per-packet deadline.  The old
                # fixed-period sleep retransmitted a packet stamped
                # mid-interval up to 2x the timeout late.
                yield deadline - now  # bare-int sleep
                continue  # acks may have landed while sleeping: re-evaluate
            for seq in sorted(self.pending):
                entry = self.pending.get(seq)
                if entry is None or now - entry.last_sent < self.timeout:
                    continue
                if entry.retries >= MAX_RETRIES:
                    self._dead_letter(seq, entry)
                    continue
                entry.retries += 1
                entry.last_sent = now
                self.retransmissions += 1
                self.resend(entry.packet)
        self._timer_running = False

    def _dead_letter(self, seq: int, entry: _Pending) -> None:
        """Give up on one packet — loudly (typed error, watchers fail)."""
        del self.pending[seq]
        self.dead.append(entry.packet)
        self.dead_letters += 1
        err = DeliveryFailed(self.peer, entry.packet, retries=entry.retries)
        for _cb, on_fail in self._ack_watchers.pop(seq, ()):
            if on_fail is not None:
                on_fail(err)
        if self.on_dead is not None:
            self.on_dead(entry.packet, err)


class RxSession:
    """Receiver half: duplicate filtering and cumulative-ack generation.

    Delivery is accepted in any order; ``cumulative`` tracks the highest
    seqnum below which everything has been seen (the value piggybacked on
    outbound traffic).
    """

    def __init__(self, sim: "Simulator", owner: EndpointAddr, peer: EndpointAddr,
                 send_ack: Callable[[EndpointAddr, EndpointAddr, int], None]):
        self.sim = sim
        #: the local endpoint this session belongs to (ACK source address)
        self.owner = owner
        self.peer = peer
        self.send_ack = send_ack
        self._seen: set[int] = set()
        self.cumulative = -1
        self._ack_scheduled = False
        self._acked_up_to = -1
        #: duplicates seen since the last ack actually went out; a truthy
        #: value forces the delayed ack even if ``cumulative`` is unchanged
        self._dup_since_ack = False
        self.duplicates = 0
        #: delayed acks whose only purpose was re-acking a duplicate
        self.reacks = 0

    def accept(self, pkt: MxPacket) -> bool:
        """True if this packet is new (deliver it); False for duplicates."""
        seq = pkt.seqnum
        if seq < 0:
            return True  # unsequenced packet (pull traffic)
        if seq <= self.cumulative or seq in self._seen:
            self.duplicates += 1
            self._dup_since_ack = True
            self._schedule_ack()  # re-ack so the sender stops resending
            return False
        self._seen.add(seq)
        while (self.cumulative + 1) in self._seen:
            self.cumulative += 1
            self._seen.remove(self.cumulative)
        self._schedule_ack()
        return True

    def piggyback(self) -> int:
        """Cumulative ack value to embed in an outbound packet."""
        self._acked_up_to = self.cumulative
        self._dup_since_ack = False
        return self.cumulative

    def note_keepalive(self) -> None:
        """An unsequenced KEEPALIVE arrived: the peer asks for proof of life.

        Force the delayed ack even when ``cumulative`` has not advanced —
        sustained mutual silence usually means our last ack was lost."""
        self._dup_since_ack = True
        self._schedule_ack()

    def collect_counters(self) -> dict[str, int]:
        """Per-session reliability counters (``omx_counters`` analogue)."""
        return {
            "duplicates": self.duplicates,
            "reacks": self.reacks,
            "cumulative": self.cumulative,
        }

    def _schedule_ack(self) -> None:
        if self._ack_scheduled:
            return
        self._ack_scheduled = True

        def delayed() -> Generator:
            yield DELAYED_ACK  # bare-int sleep
            self._ack_scheduled = False
            if self.cumulative > self._acked_up_to or self._dup_since_ack:
                # The duplicate case is the lost-ACK recovery path: without
                # it the sender livelocks into retransmitting a delivered
                # packet until MAX_RETRIES kills it.
                if self.cumulative <= self._acked_up_to:
                    self.reacks += 1
                self._acked_up_to = self.cumulative
                self._dup_since_ack = False
                self.send_ack(self.owner, self.peer, self.cumulative)

        self.sim.daemon(delayed(), name=f"delack-{self.peer}")


def register_reliability_metrics(reg, driver) -> None:
    """Publish driver-wide reliability sums into a metrics registry.

    Sessions come and go per peer, so the metrics aggregate over the
    driver's live session tables at read time.
    """
    reg.counter("reliability", "retransmissions",
                lambda: sum(s.retransmissions
                            for s in driver._tx_sessions.values()))
    reg.counter("reliability", "duplicates_filtered",
                lambda: sum(s.duplicates for s in driver._rx_sessions.values()))
    reg.counter("reliability", "reacks",
                lambda: sum(s.reacks for s in driver._rx_sessions.values()))
    reg.counter("reliability", "busy_backoffs",
                lambda: sum(s.busy_backoffs for s in driver._tx_sessions.values()),
                "BUSY-triggered sender backoff episodes")
