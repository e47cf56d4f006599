"""Typed transfer errors surfaced to the owning endpoint/request.

Ethernet gives no delivery guarantee; the reliability layer and the pull
watchdog retry for a while and then *must* give up.  Before this module
existed, giving up was silent: packets beyond ``MAX_RETRIES`` were appended
to ``TxSession.dead`` and forgotten, leaving ack-watchers armed forever and
the sender request hung.  Every abandonment now surfaces as one of these
typed errors on the request (``OmxRequest.error``), so callers — and the
fault-injection campaigns in :mod:`repro.faults` — can distinguish "still in
flight" from "failed loudly" from "hung" (the last being always a bug).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.mx.wire import EndpointAddr, MxPacket


class TransferError(Exception):
    """Base class for errors that fail a user-visible transfer."""


class DeliveryFailed(TransferError):
    """The reliability layer gave up on a packet after ``MAX_RETRIES``.

    Carries the peer and the packet that dead-lettered so diagnostics (and
    the campaign reports) can say *which* hop of *which* message died.
    """

    def __init__(self, peer: "EndpointAddr", packet: Optional["MxPacket"] = None,
                 retries: int = 0, detail: str = ""):
        self.peer = peer
        self.packet = packet
        self.retries = retries
        what = packet.ptype.name if packet is not None else "packet"
        msg = f"delivery to {peer} failed: {what} dead-lettered after {retries} retries"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class PullAborted(TransferError):
    """The receiver's pull watchdog gave up re-requesting stalled blocks."""

    def __init__(self, peer: "EndpointAddr", msg_id: int, received: int,
                 total: int, retransmits: int):
        self.peer = peer
        self.msg_id = msg_id
        self.received = received
        self.total = total
        self.retransmits = retransmits
        super().__init__(
            f"pull of msg {msg_id} from {peer} aborted after "
            f"{retransmits} watchdog re-requests ({received}/{total} bytes)"
        )


class RemoteAborted(TransferError):
    """The peer NACKed: its half of the transfer failed and was torn down."""

    def __init__(self, peer: "EndpointAddr", msg_id: int):
        self.peer = peer
        self.msg_id = msg_id
        super().__init__(f"peer {peer} aborted transfer of msg {msg_id}")


class FabricPartitioned(TransferError):
    """A fabric message lost its last live path to the destination.

    Raised by :class:`repro.fabric.network.FabricNetwork` when a link kill
    (or queue drop of an in-flight chunk) leaves a message with no live
    route and no retransmit layer to hide behind.  Carries enough identity
    for the fault campaign to assert *which* flow died, byte-identically
    per seed.
    """

    def __init__(self, src: str, dst: str, tag: int, where: str = "",
                 detail: str = ""):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.where = where
        msg = f"fabric transfer {src}->{dst} (tag {tag}) unreachable"
        if where:
            msg += f" at {where}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class RankDead(TransferError):
    """A fabric rank crash-stopped and took this operation with it.

    Declared by the fabric world's liveness check
    (:meth:`repro.fabric.mpi.FabricWorld._declare_rank_dead`, armed by
    ``_kill_rank_now``) a short grace window after a
    :class:`~repro.fabric.mpi.FabricRank` is killed: every
    request the survivors still have pending against the current collective
    epoch fails with this error, deterministically and all at once, so the
    abort drains instead of livelocking.  Collective-level recovery (the
    shrink-and-retry ring in :mod:`repro.fabric.resilience`) catches it;
    everything else surfaces it — "abort and report" is the default.
    """

    def __init__(self, rank: int, host: str = "", at: int = 0,
                 detail: str = ""):
        self.rank = rank
        self.host = host
        self.at = at
        msg = f"rank {rank}"
        if host:
            msg += f" ({host})"
        msg += f" crash-stopped at t={at}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class PeerDead(TransferError):
    """Sustained silence from a peer beyond the liveness deadline.

    Declared by :class:`repro.health.liveness.PeerLivenessMonitor` when a
    peer we have pending work with stays silent past ``peer_dead_timeout``
    (well beyond retransmit exhaustion).  Fails *every* pending request to
    that peer deterministically and releases their skbuffs/pins.
    """

    def __init__(self, peer: "EndpointAddr", silent_ns: int, pending: int = 0):
        self.peer = peer
        self.silent_ns = silent_ns
        self.pending = pending
        super().__init__(
            f"peer {peer.host}:{peer.endpoint} declared dead after "
            f"{silent_ns} ns of silence ({pending} request(s) failed)"
        )
