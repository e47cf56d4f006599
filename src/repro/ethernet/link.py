"""Point-to-point full-duplex Ethernet link with fault injection.

Each direction serializes frames at the link rate (a transmitter resource),
then delivers after a propagation delay.  A :class:`LossInjector` can drop
selected frames — used by the tests that exercise the pull protocol's
retransmission path (§III-B: the cleanup routine "is also invoked when the
retransmission timeout expires in case of packet loss").

Beyond plain loss, a direction can carry a *frame fault hook* (see
:meth:`Link.inject_fault`): a per-frame verdict deciding drop, duplication,
reordering (extra delivery delay) and corruption (bad FCS, dropped by the
receiving NIC).  :mod:`repro.faults` builds seeded, schedule-driven plans on
top of this hook; the hook itself is deliberately dumb and deterministic —
it is consulted once per serialized frame, in wire order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Generator, Optional, Protocol

from repro import units
from repro.ethernet.frame import EthernetFrame
from repro.simkernel.event import Event
from repro.units import SEC

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


class FrameFaultHook(Protocol):
    """Per-frame fault decision, consulted in serialization order."""

    def on_frame(self, frame: EthernetFrame, index: int, now: int) -> FrameVerdict:
        """Verdict for the ``index``-th frame of this direction at ``now``."""
        ...  # pragma: no cover


class LossInjector:
    """Decides which frames to drop.

    ``drop_indices`` drops the Nth transmitted frames (0-based, per link
    direction); ``predicate`` drops frames matching an arbitrary test.
    """

    def __init__(
        self,
        drop_indices: Optional[set[int]] = None,
        predicate: Optional[Callable[[EthernetFrame, int], bool]] = None,
    ):
        self.drop_indices = drop_indices or set()
        self.predicate = predicate
        self.dropped = 0

    def should_drop(self, frame: EthernetFrame, index: int) -> bool:
        drop = index in self.drop_indices or (
            self.predicate is not None and self.predicate(frame, index)
        )
        if drop:
            self.dropped += 1
        return drop


class _Direction:
    """One direction of the link.

    The serializer is a timestamp FIFO (``_tx_free_at``) instead of a
    :class:`~repro.simkernel.resources.Resource`: frames queue in call
    order and each occupies the wire for its serialization time, but no
    generator :class:`~repro.simkernel.process.Process` (and no per-frame
    Event chain) is allocated.

    **Burst coalescing.**  While no loss injector, fault hook, trace
    recorder or tie-break policy is armed, back-to-back frames ride a
    *cursor train*: the per-frame completion records go on a plain deque
    and a single self-rescheduling scheduler entry (the cursor) walks the
    train, so a burst of N frames keeps at most one TX and one delivery
    entry in the timer wheel at a time instead of 2·N.  The cursor fires
    once per frame per stage — the executed action count is identical to
    the per-frame path.  The moment any hook is attached (``inject_loss``
    / ``inject_fault`` / tracing), new frames take the per-frame slow
    path; hooks are *consulted at serialization-done time* in both paths,
    so arming one mid-burst still sees every not-yet-serialized frame.
    """

    def __init__(self, sim: "Simulator", bw: float, delay: int, name: str):
        self.sim = sim
        self.bw = bw
        self.delay = delay
        self.name = name
        #: absolute time the serializer becomes idle (timestamp FIFO)
        self._tx_free_at = 0
        self.sink: Optional["Nic"] = None
        self.loss: Optional[LossInjector] = None
        #: generalized fault hook (drop/duplicate/reorder/corrupt)
        self.fault: Optional[FrameFaultHook] = None
        #: optional TraceRecorder: serialized frames become "wire:" spans,
        #: fault verdicts become instant events
        self.trace = None
        self.frames_sent = 0
        self.bytes_sent = 0
        #: wire_len -> serialization ticks (a handful of distinct frame
        #: sizes per run; the div/round in transfer_time is hot otherwise)
        self._ser_cache: dict[int, int] = {}
        #: coalesced TX completions: (done_at, start, frame, cb, arg)
        self._tx_train: deque = deque()
        self._tx_armed = False
        #: coalesced deliveries: (arrive, frame)
        self._rx_train: deque = deque()
        self._rx_armed = False

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
        wire-side serializer; ``ok`` is False when the loss injector dropped
        the frame.  With ``arg`` the callback becomes ``on_serialized(arg,
        ok)`` — lets callers pass a bound method plus its operand instead
        of allocating a closure.  No Process objects are allocated.
        """
        sim = self.sim
        start = self._tx_free_at if self._tx_free_at > sim.now else sim.now
        frame.sent_at = start
        done_at = start + self._ser_ticks(frame.wire_len)
        self._tx_free_at = done_at
        if (self.loss is None and self.fault is None and self.trace is None
                and sim.tiebreak is None):
            self._tx_train.append((done_at, start, frame, on_serialized, arg))
            if not self._tx_armed:
                self._tx_armed = True
                sim._push(done_at, self._tx_cursor)
        else:
            sim._push(done_at, self._tx_finish,
                      (frame, start, on_serialized, arg))

    def _tx_cursor(self) -> None:
        """Retire the head of the TX train, then re-arm for the next frame.

        Re-arming *after* the completion ran keeps the invariant simple: a
        send() performed synchronously by the callback lands behind the
        cursor's next stop, never ahead of it.
        """
        done_at, start, frame, cb, arg = self._tx_train.popleft()
        self._tx_finish(frame, start, cb, arg)
        if self._tx_train:
            self.sim._push(self._tx_train[0][0], self._tx_cursor)
        else:
            self._tx_armed = False

    def _tx_finish(self, frame: EthernetFrame, start: int,
                   cb: Optional[Callable[..., None]], arg: object) -> None:
        """TX-done for one frame: verdicts, trace, delivery, callback.

        Shared by the cursor train and the per-frame slow path; all hooks
        are re-checked here (at serialization-done time), which is when the
        historical per-frame closure consulted them.
        """
        sim = self.sim
        index = self.frames_sent
        self.frames_sent += 1
        self.bytes_sent += frame.wire_len
        delivered = not (
            self.loss is not None and self.loss.should_drop(frame, index)
        )
        extra_delay = 0
        copies = 1
        if delivered and self.fault is not None:
            verdict = self.fault.on_frame(frame, index, sim.now)
            delivered = verdict.deliver
            extra_delay = verdict.delay
            copies = 1 + verdict.duplicates
            if verdict.corrupt:
                frame.corrupted = True
        tr = self.trace
        if tr is not None and tr.enabled:
            label = getattr(frame.payload, "describe", lambda: "frame")()
            lane = f"wire:{self.name}"
            tr.record(lane, label.split(" ")[0], start, sim.now, "wire")
            if not delivered:
                tr.instant(lane, "frame lost", "fault")
            elif copies > 1 or extra_delay or frame.corrupted:
                tr.instant(lane, "frame faulted (dup/delay/corrupt)", "fault")
        if delivered:
            sink = self.sink
            if sink is not None:
                arrive = sim.now + self.delay + extra_delay
                if (self.loss is None and self.fault is None and tr is None
                        and sim.tiebreak is None):
                    # hooks clear => copies == 1, extra_delay == 0
                    self._rx_train.append((arrive, frame))
                    if not self._rx_armed:
                        self._rx_armed = True
                        sim._push(arrive, self._rx_cursor)
                else:
                    for _ in range(copies):
                        sim._push(arrive, sink.on_frame, (frame,))
        if cb is not None:
            if arg is _NO_ARG:
                cb(delivered)
            else:
                cb(arg, delivered)

    def _rx_cursor(self) -> None:
        """Deliver the head of the RX train, then re-arm for the next frame."""
        arrive, frame = self._rx_train.popleft()
        sink = self.sink
        if sink is not None:
            sink.on_frame(frame)
        if self._rx_train:
            self.sim._push(self._rx_train[0][0], self._rx_cursor)
        else:
            self._rx_armed = False

    def transmit(self, frame: EthernetFrame) -> Generator:
        """Generator façade over :meth:`send` (yieldable from processes).

        Returns True once the frame finished serializing, False if the loss
        injector dropped it.
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

    def inject_loss(self, direction_a2b: bool, injector: LossInjector) -> None:
        """Arm fault injection on one direction."""
        (self.a_to_b if direction_a2b else self.b_to_a).loss = injector

    def inject_fault(self, direction_a2b: bool, hook: FrameFaultHook) -> None:
        """Arm a generalized frame-fault hook on one direction.

        Composes with :meth:`inject_loss`: the loss injector is consulted
        first, the hook only sees frames the injector delivered.
        """
        (self.a_to_b if direction_a2b else self.b_to_a).fault = hook
