"""Point-to-point full-duplex Ethernet link with fault injection.

Each direction serializes frames at the link rate, then delivers after a
propagation delay.  Every frame takes one path: its serialization-done
action is scheduled when it is sent, and that action schedules one
delivery per copy the fault hook lets through.

A direction can carry one *frame fault hook* (see :meth:`Link.inject_fault`):
a per-frame verdict deciding drop, duplication, reordering (extra delivery
delay) and corruption (bad FCS, dropped by the receiving NIC).
:class:`LossInjector` is the plain dropping hook used by the tests that
exercise the pull protocol's retransmission path (§III-B: the cleanup
routine "is also invoked when the retransmission timeout expires in case of
packet loss"); :mod:`repro.faults` builds seeded, schedule-driven plans on
the same hook.  A hook is deliberately dumb and deterministic — it is
consulted once per serialized frame, in wire order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Generator, Optional, Protocol

from repro import units
from repro.ethernet.frame import EthernetFrame
from repro.simkernel.event import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.ethernet.nic import Nic
    from repro.simkernel.scheduler import Simulator

#: sentinel distinguishing "no callback argument" from an explicit None
_NO_ARG = object()


@dataclass(frozen=True)
class FrameVerdict:
    """What fault injection decided for one serialized frame."""

    #: deliver the frame at all (False == dropped on the wire)
    deliver: bool = True
    #: extra delivery delay in ticks (reordering: the frame arrives after
    #: frames serialized later)
    delay: int = 0
    #: additional deliveries of the same frame (duplication)
    duplicates: int = 0
    #: mark the frame's FCS bad; the receiving NIC drops it as a CRC error
    corrupt: bool = False


#: the no-fault verdict, shared (hooks return it for untouched frames)
DELIVER = FrameVerdict()
#: the plain drop verdict, shared by :class:`LossInjector`
_DROP = FrameVerdict(deliver=False)


class FrameFaultHook(Protocol):
    """Per-frame fault decision, consulted in serialization order."""

    def on_frame(self, frame: EthernetFrame, index: int, now: int) -> FrameVerdict:
        """Verdict for the ``index``-th frame of this direction at ``now``."""
        ...  # pragma: no cover


class LossInjector:
    """A frame fault hook that only drops frames.

    ``drop_indices`` drops the Nth transmitted frames (0-based, per link
    direction); ``predicate`` drops frames matching an arbitrary test.
    Arm it with :meth:`Link.inject_fault`; ``dropped`` counts the drops.
    """

    def __init__(
        self,
        drop_indices: Optional[set[int]] = None,
        predicate: Optional[Callable[[EthernetFrame, int], bool]] = None,
    ):
        self.drop_indices = drop_indices or set()
        self.predicate = predicate
        self.dropped = 0

    def on_frame(self, frame: EthernetFrame, index: int, now: int) -> FrameVerdict:
        if index in self.drop_indices or (
            self.predicate is not None and self.predicate(frame, index)
        ):
            self.dropped += 1
            return _DROP
        return DELIVER


class _Direction:
    """One direction of the link.

    The serializer is a timestamp FIFO (``_tx_free_at``) instead of a
    :class:`~repro.simkernel.resources.Resource`: frames queue in call
    order and each occupies the wire for its serialization time, but no
    generator :class:`~repro.simkernel.process.Process` (and no per-frame
    Event chain) is allocated.  Each frame costs one scheduler entry when
    it finishes serializing and one per delivered copy.  The fault hook
    and the trace recorder are consulted at serialization-done time, so a
    hook armed mid-burst sees every frame not yet serialized.
    """

    def __init__(self, sim: "Simulator", bw: float, delay: int, name: str):
        self.sim = sim
        self.bw = bw
        self.delay = delay
        self.name = name
        #: absolute time the serializer becomes idle (timestamp FIFO)
        self._tx_free_at = 0
        self.sink: Optional["Nic"] = None
        #: the one fault hook (drop/duplicate/reorder/corrupt)
        self.fault: Optional[FrameFaultHook] = None
        #: optional TraceRecorder: serialized frames become "wire:" spans,
        #: fault verdicts become instant events
        self.trace = None
        self.frames_sent = 0
        #: wire_len -> serialization ticks (a handful of distinct frame
        #: sizes per run; the div/round in transfer_time is hot otherwise)
        self._ser_cache: dict[int, int] = {}

    def _ser_ticks(self, wire_len: int) -> int:
        t = self._ser_cache.get(wire_len)
        if t is None:
            t = self._ser_cache[wire_len] = units.transfer_time(wire_len, self.bw)
        return t

    def send(self, frame: EthernetFrame,
             on_serialized: Optional[Callable[..., None]] = None,
             arg: object = _NO_ARG) -> None:
        """Serialize ``frame`` FIFO and schedule its delivery.

        ``on_serialized(ok)`` (if given) runs when the frame leaves the
        wire-side serializer; ``ok`` is False when the fault hook dropped
        the frame.  With ``arg`` the callback becomes ``on_serialized(arg,
        ok)`` — lets callers pass a bound method plus its operand instead
        of allocating a closure.  No Process objects are allocated.
        """
        sim = self.sim
        start = self._tx_free_at if self._tx_free_at > sim.now else sim.now
        frame.sent_at = start
        done_at = start + self._ser_ticks(frame.wire_len)
        self._tx_free_at = done_at
        sim._push(done_at, self._tx_finish, (frame, start, on_serialized, arg))

    def _tx_finish(self, frame: EthernetFrame, start: int,
                   cb: Optional[Callable[..., None]], arg: object) -> None:
        """TX-done for one frame: verdict, trace, delivery, callback."""
        sim = self.sim
        index = self.frames_sent
        self.frames_sent += 1
        verdict = DELIVER
        if self.fault is not None:
            verdict = self.fault.on_frame(frame, index, sim.now)
            if verdict.corrupt:
                frame.corrupted = True
        delivered = verdict.deliver
        tr = self.trace
        if tr is not None and tr.enabled:
            label = getattr(frame.payload, "describe", lambda: "frame")()
            lane = f"wire:{self.name}"
            tr.record(lane, label.split(" ")[0], start, sim.now, "wire")
            if not delivered:
                tr.instant(lane, "frame lost", "fault")
            elif verdict.duplicates or verdict.delay or frame.corrupted:
                tr.instant(lane, "frame faulted (dup/delay/corrupt)", "fault")
        if delivered:
            sink = self.sink
            if sink is not None:
                arrive = sim.now + self.delay + verdict.delay
                for _ in range(1 + verdict.duplicates):
                    sim._push(arrive, sink.on_frame, (frame,))
        if cb is not None:
            if arg is _NO_ARG:
                cb(delivered)
            else:
                cb(arg, delivered)

    def transmit(self, frame: EthernetFrame) -> Generator:
        """Generator façade over :meth:`send` (yieldable from processes).

        Returns True once the frame finished serializing, False if a fault
        hook dropped it.
        """
        done = Event(self.sim, "link.transmit")
        self.send(frame, done.succeed)
        delivered = yield done
        return delivered


class Link:
    """A back-to-back cable between two NICs (the paper's switchless setup)."""

    def __init__(self, sim: "Simulator", bw: float, propagation_delay: int, name: str = "link"):
        self.sim = sim
        self.name = name
        self.bw = bw
        self.a_to_b = _Direction(sim, bw, propagation_delay, f"{name}.a2b")
        self.b_to_a = _Direction(sim, bw, propagation_delay, f"{name}.b2a")

    def attach(self, nic_a: "Nic", nic_b: "Nic") -> None:
        """Plug the cable into two NICs."""
        self.a_to_b.sink = nic_b
        self.b_to_a.sink = nic_a
        nic_a._egress = self.a_to_b
        nic_b._egress = self.b_to_a

    def inject_fault(self, direction_a2b: bool, hook: FrameFaultHook) -> None:
        """Arm the frame fault hook of one direction.

        A direction carries one hook; arming a second raises
        :class:`ValueError` rather than silently replacing the first.
        """
        d = self.a_to_b if direction_a2b else self.b_to_a
        if d.fault is not None:
            raise ValueError(f"{d.name} already carries a frame fault hook")
        d.fault = hook
