"""The event loop: a timer wheel + now-queue in front of a binary heap.

Entries are ``[when, seq, fn, args]`` lists; ``fn(*args)`` runs at absolute
time ``when``.  Two kinds of actions dominate:

* *timeouts* — trigger an :class:`Event` at a future time;
* *dispatches* — run the callback list of an already-triggered event, or a
  bare callable, at the *current* time.

Ties at equal times fire in scheduling order (monotonic sequence numbers), so
the simulation is deterministic regardless of hash ordering or allocation
addresses.  That FIFO order is the *documented* tie-break — and the only
schedule property layers above are allowed to rely on.  The tie-break is
pluggable (:mod:`repro.simkernel.tiebreak`): the race detector replays
scenarios under seeded permutations of same-timestamp ties to prove no
hidden schedule dependency crept in.

Storage is split three ways, FIFO-equivalent to a single seq-keyed heap:

* **now-queue** — a deque for entries pushed at exactly the current time
  (the same-tick dispatch hop: event callbacks, ``call_soon``).  Batched
  dispatch drains it without any heap traffic.  Correct because an entry
  pushed *at* time T was pushed *during* tick T, hence after — and with a
  larger sequence number than — every heap/wheel entry scheduled *for* T,
  all of which were pushed while ``now < T``.  So draining all scheduled
  entries at T first, then the now-queue in append order, is exactly the
  global ``(when, seq)`` order.
* **timer wheel** — 256 slots of 4096 ns for near-future timeouts (the
  overwhelmingly common case: serialization times, link delays, busy
  periods).  Each slot is a tiny heap, so pushes and pops touch a handful
  of entries instead of re-heapifying the global queue per event.  An
  entry goes to the wheel iff its slot tick is less than 256 slots ahead
  of the current one, which makes slot indices unique among live entries.
* **heap** — far-horizon entries (retransmit/watchdog timers) spill to the
  classic binary heap.  For one target time T, every heap entry was pushed
  while T was ≥ the horizon away and every wheel entry while T was nearer,
  so all heap entries at T precede all wheel entries at T in push order —
  running the heap's due entries first is exact FIFO order.

One drain loop (:meth:`Simulator._drain`) serves both entry points:
:meth:`~Simulator.run_until` stops it when its event triggers, and
:meth:`~Simulator.run` passes an event that never triggers and stops it
at ``until`` or when the queues drain.  When a tie-break policy is
installed the fast containers are bypassed entirely: every push goes
through the policy-keyed heap and the historical keyed loops run, so
permutation replays see every same-timestamp tie.  The keyed loops are
also the reference the fast loop is tested against.
"""

from __future__ import annotations

import gc
import heapq
from collections import deque
from typing import Callable, Generator, Optional

from repro.simkernel.errors import SimulationError
from repro.simkernel.event import _PENDING, Event, Timeout

#: timer-wheel geometry: 256 slots of 2**12 ns (~4.1 us) — a ~1 ms horizon.
_WHEEL_SHIFT = 12
_WHEEL_SLOTS = 256
_WHEEL_MASK = _WHEEL_SLOTS - 1


def _run_callbacks(ev: Event, callbacks: list) -> None:
    """Dispatch hop for events with more than one waiter."""
    for cb in callbacks:
        cb(ev)


class Simulator:
    """Discrete-event scheduler with integer-nanosecond time."""

    #: events processed by every Simulator instance in this process; the
    #: sweep cache tests assert a warm cache runs *zero* simulation, and the
    #: quick event-count gate pins the delta per experiment
    events_total: int = 0

    #: process-wide source of tie-break policies for simulators built
    #: without an explicit ``tiebreak`` argument; installed (and restored)
    #: by :func:`repro.simkernel.tiebreak.default_tiebreak` so the race
    #: detector reaches simulators constructed inside testbed factories.
    #: ``None`` (the default) keeps the FIFO fast path untouched.
    default_tiebreak_factory: Optional[Callable[[], object]] = None

    def __init__(self, tiebreak: Optional[object] = None) -> None:
        self.now: int = 0
        self._heap: list[list] = []
        #: same-tick entries (pushed at ``when == now``), drained FIFO
        self._now_q: deque[list] = deque()
        #: near-future entries, radix-partitioned into per-slot mini-heaps
        self._wheel: list[list[list]] = [[] for _ in range(_WHEEL_SLOTS)]
        #: entries currently in the wheel
        self._wheel_count: int = 0
        #: lower bound on the slot tick of the earliest wheel entry
        self._wheel_hint: int = 0
        self._seq: int = 0
        self._running = False
        #: number of events processed; useful for runaway detection in tests
        self.events_processed: int = 0
        #: callbacks run by :meth:`finish` (resource sanitizers and other
        #: end-of-simulation invariant checks register here)
        self._teardown_checks: list[Callable[[], None]] = []
        #: when not None, run()/run_until() append one ``(time, label)``
        #: entry per executed action — the race detector's schedule log
        self._schedule_log: Optional[list[tuple[int, str]]] = None
        if tiebreak is None and Simulator.default_tiebreak_factory is not None:
            tiebreak = Simulator.default_tiebreak_factory()
        #: the active tie-break policy; None means the built-in FIFO
        self.tiebreak = tiebreak
        if tiebreak is not None:
            # Shadow the class push with a keyed closure on this instance
            # only, so FIFO simulators never pay for the indirection.  The
            # keyed path routes *everything* (including same-tick pushes)
            # through the heap so the policy sees every tie.
            key = tiebreak.key
            heap = self._heap

            def push_keyed(when: int, fn: Callable, args: tuple = ()) -> None:
                if when < self.now:
                    raise SimulationError(
                        f"cannot schedule in the past ({when} < {self.now})"
                    )
                self._seq += 1
                heapq.heappush(heap, [when, key(self._seq), fn, args])

            self._push = push_keyed

    # -- construction helpers ---------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a fresh pending event."""
        return Event(self, name)

    def timeout(self, delay: int, value: object = None) -> Timeout:
        """Create an event that succeeds ``delay`` ticks from now."""
        return Timeout(self, delay, value)

    def process(self, gen: Generator, name: str = "") -> "Process":
        """Spawn a generator as a process; returns its completion event."""
        from repro.simkernel.process import Process

        return Process(self, gen, name)

    def daemon(self, gen: Generator, name: str = "") -> "Process":
        """Spawn a background service whose failure aborts the simulation.

        Daemons (softirq engines, DMA channels, protocol timers...) are
        never joined, so a plain process would swallow their exceptions and
        the simulation would silently wedge.  A daemon re-raises instead.
        """
        proc = self.process(gen, name)

        def check(ev: "Process") -> None:
            if ev.exception is not None:
                raise SimulationError(
                    f"daemon {name or gen!r} died: {ev.exception!r}"
                ) from ev.exception

        proc.add_callback(check)
        return proc

    # -- internal scheduling ----------------------------------------------

    def _push(self, when: int, fn: Callable, args: tuple = ()) -> None:
        now = self.now
        if when <= now:
            if when < now:
                raise SimulationError(
                    f"cannot schedule in the past ({when} < {now})"
                )
            self._now_q.append([when, 0, fn, args])
            return
        self._seq += 1
        entry = [when, self._seq, fn, args]
        tick = when >> _WHEEL_SHIFT
        if tick - (now >> _WHEEL_SHIFT) < _WHEEL_SLOTS:
            heapq.heappush(self._wheel[tick & _WHEEL_MASK], entry)
            self._wheel_count += 1
            if self._wheel_count == 1 or tick < self._wheel_hint:
                self._wheel_hint = tick
        else:
            heapq.heappush(self._heap, entry)

    def _schedule_timeout(self, ev: Event, delay: int, value: object) -> None:
        # succeed() defaults its value to None, so the bound method goes on
        # the heap directly with the value as its argument — no closure.
        self._push(self.now + delay, ev.succeed, (value,))

    def _dispatch(self, ev: Event) -> None:
        """Queue a triggered event's callbacks to run at the current time."""
        callbacks = ev.callbacks
        ev.callbacks = None  # marks "dispatched"; late add_callback self-schedules
        if not callbacks:
            # Nobody is waiting (e.g. a Store.put ack the producer dropped):
            # skip the empty dispatch hop.  Late add_callback still works —
            # it pushes the callback at the current time itself.
            return
        if len(callbacks) == 1:
            # The common case (one waiting process): the callback itself is
            # the dispatch action.
            fn, args = callbacks[0], (ev,)
        else:
            fn, args = _run_callbacks, (ev, callbacks)
        if self.tiebreak is None:
            # Same-tick push inlined (skips _push's routing): dispatch hops
            # always target the now-queue on the FIFO fast path.
            self._now_q.append([self.now, 0, fn, args])
        else:
            self._push(self.now, fn, args)

    # -- lightweight scheduling (fast paths) --------------------------------

    def call_at(self, when: int, fn: Callable, *args: object) -> None:
        """Run ``fn(*args)`` at absolute time ``when``.

        The zero-cost alternative to spawning a :class:`Process` for
        fire-and-forget work (link delivery, NIC TX completion, DMA
        retirement): one scheduler entry, no generator, no Event and no
        closure allocation.  The return value is ignored; an exception
        aborts the simulation (same contract as a daemon).
        """
        self._push(when, fn, args)

    def call_soon(self, fn: Callable, *args: object) -> None:
        """Run ``fn(*args)`` at the current time, FIFO after queued work."""
        self._push(self.now, fn, args)

    # -- run loop ----------------------------------------------------------

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run until the queues drain, ``until`` is reached, or ``max_events``.

        Returns the simulation time when the loop stopped.  The clock never
        goes backwards: an ``until`` earlier than ``now`` raises.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run back in time (until={until} < now={self.now})"
            )
        if self.tiebreak is not None:
            return self._run_keyed(until, max_events)
        # An event nothing triggers: the loop stops only when the queues
        # drain or the next tick lies beyond ``until``.
        self._drain(Event(self), until, max_events)
        if until is not None:
            self.now = until
        return self.now

    def run_until(self, ev: Event, max_events: Optional[int] = None) -> object:
        """Run until ``ev`` triggers; return its value (or raise its error)."""
        if self._running:
            raise SimulationError("simulator is not reentrant")
        if self.tiebreak is not None:
            return self._run_until_keyed(ev, max_events)
        self._drain(ev, None, max_events)
        if ev._value is _PENDING and ev._exc is None:
            raise SimulationError(
                f"deadlock: event {ev!r} cannot trigger, no pending events"
            )
        return ev.value

    def _drain(self, ev: Event, until: Optional[int],
               max_events: Optional[int]) -> None:
        """The FIFO drain loop behind :meth:`run` and :meth:`run_until`.

        Runs actions in ``(when, seq)`` order until ``ev`` triggers, the
        queues drain, or the next tick lies beyond ``until``; ``now`` is
        left at the last tick run.
        """
        self._running = True
        count = 0
        nq = self._now_q
        wheel = self._wheel
        heap = self._heap
        heappop = heapq.heappop
        log = self._schedule_log
        limit = max_events if max_events is not None else float("inf")
        #: False once the scheduled containers are known drained at `now`;
        #: stays valid within the tick because a push at the current time
        #: can only land on the now-queue, so the per-action wheel/heap peek
        #: is skipped for the whole same-tick dispatch batch.
        due = True
        # The drain loop allocates heavily (entry lists, generator frames)
        # but holds no cycles long enough to matter: pausing the cyclic GC
        # for the duration avoids collector sweeps mid-simulation.  Refcount
        # reclamation is unaffected; the pause nests safely (inner loops see
        # the collector already off and leave it off).
        gc_was_on = gc.isenabled()
        if gc_was_on:
            gc.disable()
        try:
            # `ev._value is _PENDING and ev._exc is None` is Event.triggered
            # inlined: this loop runs once per simulation event, and the
            # property call is measurable at fig. 11 event counts.
            while ev._value is _PENDING and ev._exc is None:
                if due:
                    now = self.now
                    # Far-horizon (heap) entries due now run before every
                    # wheel entry at the same time (smaller seqs: they were
                    # pushed while the time was beyond the horizon), so an
                    # int compare on the heap top replaces the cross-
                    # container (when, seq) merge.
                    if heap and heap[0][0] == now:
                        top = heappop(heap)
                        fn = top[2]
                        args = top[3]
                    else:
                        wtop = None
                        if self._wheel_count:
                            tick = self._wheel_hint
                            slot = wheel[tick & _WHEEL_MASK]
                            while not slot:
                                tick += 1
                                slot = wheel[tick & _WHEEL_MASK]
                            self._wheel_hint = tick
                            wtop = slot[0]
                        if wtop is None or wtop[0] != now:
                            due = False
                            continue
                        heappop(slot)
                        self._wheel_count -= 1
                        fn = wtop[2]
                        args = wtop[3]
                elif nq:
                    e = nq.popleft()
                    fn = e[2]
                    args = e[3]
                else:
                    # Tick exhausted: advance.  Re-peek (inlined peek) —
                    # the same-tick batch may have scheduled entries
                    # earlier than the stale top; only the minimum `when`
                    # matters here, so ints compare instead of entries.
                    when = None
                    if self._wheel_count:
                        tick = self._wheel_hint
                        slot = wheel[tick & _WHEEL_MASK]
                        while not slot:
                            tick += 1
                            slot = wheel[tick & _WHEEL_MASK]
                        self._wheel_hint = tick
                        when = slot[0][0]
                    if heap:
                        hwhen = heap[0][0]
                        if when is None or hwhen < when:
                            when = hwhen
                    if when is None or (until is not None and when > until):
                        break
                    self.now = when
                    due = True
                    continue
                if log is not None:
                    log.append((self.now, _action_label(fn)))
                fn(*args)
                count += 1
                if count >= limit:
                    raise SimulationError(f"exceeded max_events={max_events}")
        finally:
            if gc_was_on:
                gc.enable()
            self._running = False
            self.events_processed += count
            Simulator.events_total += count

    # -- keyed (tie-break policy) run loops ---------------------------------
    #
    # With a policy installed every entry lives on the single keyed heap;
    # these are the historical drain loops, kept verbatim so permutation
    # replays exercise exactly the documented semantics.

    def _run_keyed(self, until: Optional[int], max_events: Optional[int]) -> int:
        self._running = True
        count = 0
        heap = self._heap
        pop = heapq.heappop
        log = self._schedule_log
        limit = max_events if max_events is not None else float("inf")
        try:
            while heap:
                top = heap[0]
                when = top[0]
                if until is not None and when > until:
                    self.now = until
                    break
                pop(heap)
                fn = top[2]
                self.now = when
                if log is not None:
                    log.append((when, _action_label(fn)))
                fn(*top[3])
                count += 1
                if count >= limit:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; possible livelock"
                    )
            else:
                if until is not None and until > self.now:
                    self.now = until
        finally:
            self._running = False
            self.events_processed += count
            Simulator.events_total += count
        return self.now

    def _run_until_keyed(self, ev: Event, max_events: Optional[int]) -> object:
        self._running = True
        count = 0
        heap = self._heap
        pop = heapq.heappop
        log = self._schedule_log
        limit = max_events if max_events is not None else float("inf")
        try:
            while ev._value is _PENDING and ev._exc is None:
                if not heap:
                    raise SimulationError(
                        f"deadlock: event {ev!r} cannot trigger, no pending events"
                    )
                top = pop(heap)
                fn = top[2]
                self.now = top[0]
                if log is not None:
                    log.append((top[0], _action_label(fn)))
                fn(*top[3])
                count += 1
                if max_events is not None and count >= max_events:
                    raise SimulationError(f"exceeded max_events={max_events}")
        finally:
            self._running = False
            self.events_processed += count
            Simulator.events_total += count
        return ev.value

    def peek(self) -> Optional[int]:
        """Time of the next scheduled action, or None if nothing is pending."""
        if self._now_q:
            return self.now
        when = None
        if self._wheel_count:
            wheel = self._wheel
            tick = self._wheel_hint
            slot = wheel[tick & _WHEEL_MASK]
            while not slot:
                tick += 1
                slot = wheel[tick & _WHEEL_MASK]
            self._wheel_hint = tick
            when = slot[0][0]
        heap = self._heap
        if heap and (when is None or heap[0][0] < when):
            when = heap[0][0]
        return when

    def record_schedule(self) -> list[tuple[int, str]]:
        """Start logging every executed action as ``(time, label)``.

        Returns the (live) log list.  Used by the race detector's bisection
        to diff two runs' schedules around the first diverging event; the
        labels are action ``__qualname__``s — coarse, but stable across
        runs, which is what schedule diffing needs.
        """
        if self._schedule_log is None:
            self._schedule_log = []
        return self._schedule_log

    # -- teardown -----------------------------------------------------------

    def add_teardown_check(self, check: Callable[[], None]) -> None:
        """Register an end-of-simulation invariant check.

        Checks run (in registration order) when :meth:`finish` is called —
        typically by a test harness after the scenario has quiesced.  A
        check signals a violation by raising.
        """
        self._teardown_checks.append(check)

    def finish(self) -> None:
        """Run all registered teardown checks.

        This does not stop or drain the simulation; callers should first let
        it quiesce (e.g. ``sim.run()`` until the heap empties).
        """
        for check in self._teardown_checks:
            check()


def _action_label(action: Callable) -> str:
    """Stable-ish label for a scheduled action (schedule-log entries)."""
    label = getattr(action, "__qualname__", None)
    if label is not None:
        return label
    return type(action).__name__
