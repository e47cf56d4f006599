"""The event loop: one FIFO bucket of actions per pending timestamp.

``fn(*args)`` runs at absolute time ``when``.  Two kinds of actions
dominate:

* *timeouts* — trigger an :class:`Event` at a future time;
* *dispatches* — run the callback list of an already-triggered event, or a
  bare callable, at the *current* time.

Ties at equal times fire in scheduling order, so the simulation is
deterministic regardless of hash ordering or allocation addresses.  That
FIFO order is the *documented* tie-break — and the only schedule property
layers above are allowed to rely on.  The tie-break is pluggable
(:mod:`repro.simkernel.tiebreak`): the race detector replays scenarios
under seeded permutations of same-timestamp ties to prove no hidden
schedule dependency crept in.

Storage is a dict from each pending time to a list of its ``(fn, args)``
actions in push order, plus a binary heap of the distinct pending times.
That is exactly the ``(when, seq)`` order of a single heap keyed by a push
counter: an action pushed for time T was pushed after every action pushed
earlier for T, so push order within one bucket *is* sequence order, and no
entry carries or compares a sequence number.  The loop pops one int per
distinct time and walks that time's list; a list iterator sees appends
made during the walk, so same-tick pushes (event callbacks, ``call_soon``,
the resume hop of a sleep) run in the same pass.

One drain loop (:meth:`Simulator._drain`) serves both entry points:
:meth:`~Simulator.run_until` stops it when its event triggers, and
:meth:`~Simulator.run` passes an event that never triggers and stops it
at ``until`` or when nothing is pending.  When a tie-break policy is
installed no bucket is ever filed: every push goes through the
policy-keyed heap and the historical keyed loops run, so permutation
replays see every same-timestamp tie.  The keyed loops are also the
reference the fast loop is tested against.
"""

from __future__ import annotations

import gc
import heapq
import sys
from typing import Callable, Generator, Optional

from repro.simkernel.errors import SimulationError
from repro.simkernel.event import _PENDING, Event, Timeout


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
        #: pending time -> its ``(fn, args)`` actions, in push order
        self._buckets: dict[int, list[tuple]] = {}
        #: heap of the distinct pending times (the keys of ``_buckets``)
        self._times: list[int] = []
        #: the ``[when, key, fn, args]`` heap of a tie-break policy
        self._heap: list[list] = []
        #: the race detector's push count: pushes for a future time on the
        #: FIFO path, every push under a tie-break policy
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
            # through the heap so the policy sees every tie; it files no
            # bucket, so the inlined bucket appends always fall back here.
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
        if when > now:
            self._seq += 1
        elif when < now:
            raise SimulationError(
                f"cannot schedule in the past ({when} < {now})"
            )
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [(fn, args)]
            heapq.heappush(self._times, when)
        else:
            bucket.append((fn, args))

    def _schedule_timeout(self, ev: Event, delay: int, value: object) -> None:
        # succeed() defaults its value to None, so the bound method is filed
        # directly with the value as its argument — no closure.
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
        # Same-tick push inlined: while the loop walks the current time, its
        # bucket is filed, and the hop joins the walk.
        bucket = self._buckets.get(self.now)
        if bucket is None:
            self._push(self.now, fn, args)
        else:
            bucket.append((fn, args))

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
        """Run until nothing is pending, ``until`` is reached, or ``max_events``.

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
        # An event nothing triggers: the loop stops only when nothing is
        # pending or the next time lies beyond ``until``.
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

        Walks the buckets in time order until ``ev`` triggers, nothing is
        pending, or the next time lies beyond ``until``; ``now`` is left at
        the last time run.  Each action is logged before it runs, when a
        schedule log is recording, and ``max_events`` and the stop event are
        checked after it.  A walk that stops or raises part-way cuts the
        actions that ran from its bucket, so none reruns.
        """
        self._running = True
        count = 0
        buckets = self._buckets
        times = self._times
        heappop = heapq.heappop
        log = self._schedule_log
        limit = max_events if max_events is not None else sys.maxsize
        #: the bucket being walked, while a walk is in progress
        bucket = None
        # The drain loop allocates heavily (entry tuples, generator frames):
        # pausing the cyclic GC for the duration avoids collector sweeps
        # mid-simulation.  Only refcounting frees memory meanwhile, so this
        # relies on a rule: no finished operation (request, message, process)
        # may be left in a reference cycle, or it stays until the run ends
        # (tests/test_cyclic_garbage.py gates it).  The pause nests safely
        # (inner loops see the collector already off and leave it off).
        gc_was_on = gc.isenabled()
        if gc_was_on:
            gc.disable()
        try:
            # `ev._value is _PENDING and ev._exc is None` is Event.triggered
            # inlined: the loop tests it after every action.
            while ev._value is _PENDING and ev._exc is None and times:
                when = times[0]
                if until is not None and when > until:
                    break
                self.now = when
                bucket = buckets[when]
                walked = count
                for fn, args in bucket:
                    if log is not None:
                        log.append((when, _action_label(fn)))
                    fn(*args)
                    count += 1
                    if (count >= limit or ev._value is not _PENDING
                            or ev._exc is not None):
                        break
                else:
                    # A push for `when` during the walk appended to the
                    # bucket, so the time heap still has `when` on top.
                    heappop(times)
                    del buckets[when]
                    bucket = None
                    continue
                self._cut(bucket, count - walked)
                bucket = None
                if count >= limit:
                    raise SimulationError(f"exceeded max_events={max_events}")
        except BaseException:
            if bucket is not None:
                # The action that raised has run, but is not counted.
                self._cut(bucket, count - walked + 1)
            raise
        finally:
            if gc_was_on:
                gc.enable()
            self._running = False
            self.events_processed += count
            Simulator.events_total += count

    def _cut(self, bucket: list, ran: int) -> None:
        """Drop the first ``ran`` actions of the bucket at ``now``."""
        del bucket[:ran]
        if not bucket:
            heapq.heappop(self._times)
            del self._buckets[self.now]

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
        """Time of the next scheduled action, or None if nothing is pending.

        Inside an action it names ``now`` while the walk of ``now``'s bucket
        lasts, even after the bucket's last action has started.
        """
        # Only one heap is ever filled: the time heap on the FIFO path, the
        # keyed heap under a tie-break policy.
        if self._times:
            return self._times[0]
        return self._heap[0][0] if self._heap else None

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
