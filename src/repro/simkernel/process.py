"""Generator-coroutine processes.

A process wraps a generator.  The generator ``yield``\\ s :class:`Event`
instances; the process resumes it with the event's value once the event
triggers, or throws the event's exception into it.  The :class:`Process`
object is itself an :class:`Event` that succeeds with the generator's return
value (``StopIteration.value``), so processes can be joined by yielding them.

A generator may also yield a bare non-negative ``int``: sleep that many
ticks.  This is the allocation-free spelling of ``yield sim.timeout(n)`` —
no Timeout, no Event and no callback list are created; the process resumes
through two scheduler entries (the timer firing, then the same-tick resume
hop), exactly matching the entry count and FIFO position of the Timeout it
replaces, so schedules are bit-identical either way.  ``Core.busy`` and the
other per-packet hot loops use it.

Interrupts: :meth:`Process.interrupt` throws :class:`Interrupted` into the
generator at the current simulation time, detaching it from whatever event it
was waiting on.  The interrupted process may catch the exception and continue
(the event it was waiting on stays valid and can be re-yielded).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.simkernel.errors import Interrupted, SimulationError
from repro.simkernel.event import _PENDING, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.scheduler import Simulator


class Process(Event):
    """A running generator, joinable as an event."""

    __slots__ = ("_gen", "_target", "_waiting_cb", "_sleep_epoch",
                 "_fire_cb", "_resume_cb")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        if not hasattr(gen, "send"):
            raise TypeError(
                f"Process requires a generator, got {type(gen).__name__}; "
                "did you call the function instead of passing its generator?"
            )
        super().__init__(sim, name or getattr(gen, "__name__", "process"))
        self._gen = gen
        self._target: Optional[Event] = None
        self._waiting_cb = self._resume
        #: guards bare-int sleeps against stale timer wakeups: bumped on
        #: every new sleep and on interrupt delivery, and checked by the
        #: fire/resume callbacks (the int-sleep analogue of the ``_target``
        #: identity check)
        self._sleep_epoch = 0
        # Prebound sleep callbacks: a bound-method access allocates, and
        # the fire/resume pair runs twice per sleep on every hot loop.
        self._fire_cb = self._sleep_fire
        self._resume_cb = self._sleep_resume
        # Kick off at the current time (same-tick, FIFO with other work).
        sim._push(sim.now, self._step, (None, None))

    # -- state -------------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    # -- driving -----------------------------------------------------------

    def _resume(self, ev: Event) -> None:
        # interrupted-and-finished before callback ran? (inlined
        # `self.triggered` / `ev._exc`: this runs once per process wakeup)
        if self._value is not _PENDING or self._exc is not None:
            return
        if ev is not self._target:
            return  # stale wakeup after an interrupt re-targeted us
        self._target = None
        exc = ev._exc
        if exc is not None:
            self._step(None, exc)
        else:
            self._step(ev._value, None)

    def _step(self, value: object, exc: Optional[BaseException]) -> None:
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupted as uncaught:
            # An uncaught interrupt terminates the process "successfully
            # cancelled": it fails the join event with the interrupt.
            self.fail(uncaught)
            return
        except Exception as err:
            self.fail(err)
            return

        if type(target) is int and target >= 0:
            # Bare-int sleep: two scheduler entries (fire, then a same-tick
            # resume hop), the exact FIFO shape of the Timeout it replaces.
            self._sleep_epoch = epoch = self._sleep_epoch + 1
            # _push inlined (the sleep push is the single hottest scheduling
            # operation in the simulator): append to the bucket already
            # filed for the wake time.  A keyed simulator files no bucket,
            # so it always takes its policy-keyed _push.
            sim = self.sim
            when = sim.now + target
            bucket = sim._buckets.get(when)
            if bucket is None:
                sim._push(when, self._fire_cb, (epoch,))
            else:
                if target:
                    sim._seq += 1
                bucket.append((self._fire_cb, (epoch,)))
            return
        self._resolve_target(target)

    def _resolve_target(self, target: object) -> None:
        # Non-sleep yield targets (and the negative-sleep error), shared by
        # _step and the inlined dispatch in _sleep_resume.
        if type(target) is int:
            self._gen.close()
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded negative sleep {target}"
                )
            )
            return
        if not isinstance(target, Event):
            self._gen.close()
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {target!r}; processes must "
                    "yield Event instances or int sleep durations"
                )
            )
            return
        if target is self:
            self._gen.close()
            self.fail(SimulationError(f"process {self.name!r} waited on itself"))
            return
        self._target = target
        target.add_callback(self._waiting_cb)

    def _sleep_fire(self, epoch: int) -> None:
        # The timer leg of a bare-int sleep (stands in for Timeout.succeed).
        if epoch != self._sleep_epoch or self._value is not _PENDING or self._exc is not None:
            return  # interrupted (or finished) while asleep: stale timer
        # Same-tick push inlined (this is the hottest single action in the
        # simulator): the loop is walking the current time's bucket.  A
        # keyed simulator files no bucket; its _push sees every tie.
        sim = self.sim
        bucket = sim._buckets.get(sim.now)
        if bucket is None:
            sim._push(sim.now, self._resume_cb, (epoch,))
        else:
            bucket.append((self._resume_cb, (epoch,)))

    def _sleep_resume(self, epoch: int) -> None:
        # The same-tick dispatch leg (stands in for the callback-run hop).
        if epoch != self._sleep_epoch or self._value is not _PENDING or self._exc is not None:
            return
        # _step(None, None) inlined: sleep resumes are the single most
        # frequent dispatch in the simulator, and most resume straight into
        # the next bare-int sleep — skip the extra frame on that chain.
        try:
            target = self._gen.send(None)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupted as uncaught:
            self.fail(uncaught)
            return
        except Exception as err:
            self.fail(err)
            return
        if type(target) is int and target >= 0:
            self._sleep_epoch = epoch = self._sleep_epoch + 1
            sim = self.sim
            when = sim.now + target
            bucket = sim._buckets.get(when)
            if bucket is None:
                sim._push(when, self._fire_cb, (epoch,))
            else:
                if target:
                    sim._seq += 1
                bucket.append((self._fire_cb, (epoch,)))
            return
        self._resolve_target(target)

    # -- interrupts ----------------------------------------------------------

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupted` into the process at the current time."""
        if self.triggered:
            return

        def deliver() -> None:
            if self.triggered:
                return
            # Detach from the current wait; a stale wakeup is filtered in
            # _resume by the identity check on _target, and a pending
            # int-sleep timer by the epoch bump.
            self._target = None
            self._sleep_epoch += 1
            self._step(None, Interrupted(cause))

        self.sim.call_soon(deliver)
