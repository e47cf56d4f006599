"""Event-kernel fast paths: one FIFO bucket per pending timestamp.

The scheduler files each action under its time, in push order, next to a
heap of the distinct pending times; that must be observationally
identical to the single seq-keyed heap it replaced.  These tests pin the
contract from the outside: push order for timers far and near, batched
same-tick dispatch, a walk cut short by a raising action, re-entry, a
clock that never goes backwards, and a hypothesis differential of the one
fast drain loop against the keyed (historical) loops, through both entry
points and across stops by event, time, ``max_events`` and a raising
action.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.simkernel import Simulator
from repro.simkernel.errors import SimulationError
from repro.simkernel.tiebreak import FifoTieBreak

#: delay regimes kept from the timer-wheel kernel the buckets replaced: one
#: 4096-tick wheel slot, and the 1,048,576-tick horizon past which timers
#: spilled to a second heap
SLOT = 4096
HORIZON = 1_048_576


class TestFarHorizonSpill:
    """Timers far and near: one order, push order within a time, whatever
    the delay."""

    def test_heap_and_wheel_merge_in_fifo_order(self):
        """An action pushed for T while T is a horizon away and one pushed
        for T from close by run in push order."""
        sim = Simulator()
        log = []
        target = HORIZON + 500
        sim.call_at(target, log.append, "pushed-far")
        sim.call_at(target - 10, _advance_then, sim, target, log)
        sim.run()
        assert log == ["pushed-far", "pushed-near"]

    def test_spill_boundary(self):
        """Timers either side of the old horizon fire in time order."""
        sim = Simulator()
        log = []
        inside = HORIZON - SLOT
        outside = 2 * HORIZON
        sim.call_at(outside, log.append, "outside")
        sim.call_at(inside, log.append, "inside")
        sim.run()
        assert log == ["inside", "outside"]
        assert sim.now == outside

    def test_many_horizons_of_timers(self):
        """Timers spread over several horizons all fire, in order."""
        sim = Simulator()
        times = []
        whens = [i * (HORIZON // 3) + 1 for i in range(12)]
        for when in reversed(whens):
            sim.call_at(when, times.append, when)
        sim.run()
        assert times == sorted(whens)


def _advance_then(sim, target, log):
    # Runs at target-10: schedules for `target` after the far entry for the
    # same time was filed.
    sim.call_at(target, log.append, "pushed-near")


@pytest.mark.racecheck
class TestSameTickDispatch:
    """Batched same-tick dispatch under every tie-break policy.

    Under FIFO the order is append order; under the shuffle policies the
    *order* may legally differ, but the batch contents, the event count,
    and the final clock must be invariant — that is the contract layers
    above are allowed to rely on."""

    def test_same_tick_batch_runs_complete_and_on_time(self):
        sim = Simulator()
        log = []
        for i in range(64):
            sim.call_at(1000, log.append, i)
        sim.run()
        assert sorted(log) == list(range(64))
        assert sim.now == 1000
        assert sim.events_processed == 64
        if sim.tiebreak is None:
            assert log == list(range(64))  # documented FIFO tie-break

    def test_callbacks_scheduling_same_tick_work_join_the_batch(self):
        sim = Simulator()
        log = []

        def parent(i):
            log.append(("parent", i))
            sim.call_soon(log.append, ("child", i))

        for i in range(8):
            sim.call_at(500, parent, i)
        sim.run()
        assert sim.now == 500
        assert sorted(log) == sorted(
            [("parent", i) for i in range(8)] + [("child", i) for i in range(8)]
        )


class TestReentry:
    """``run`` and ``run_until`` share one not-reentrant guard, on the fast
    containers and on the keyed loops alike: a callback that drives the
    loop it runs in would drain entries out of order and move the clock
    under the outer loop."""

    @pytest.mark.parametrize("policy", [None, FifoTieBreak], ids=["fast", "keyed"])
    @pytest.mark.parametrize("inner", ["run", "run_until"])
    @pytest.mark.parametrize("outer", ["run", "run_until"])
    def test_nested_drive_raises_and_leaves_the_loop_usable(
            self, outer, inner, policy):
        sim = Simulator(tiebreak=policy() if policy is not None else None)
        done = sim.event()

        def nested():
            if inner == "run":
                sim.run(until=sim.now + 10)
            else:
                sim.run_until(sim.timeout(10))

        sim.call_at(5, nested)
        sim.call_at(6, done.succeed)
        with pytest.raises(SimulationError, match="not reentrant"):
            if outer == "run":
                sim.run()
            else:
                sim.run_until(done)
        assert sim.now == 5
        # the guard is cleared on the way out: the entry at 6 still runs
        sim.run_until(done)
        assert sim.now == 6


class TestWalkCutShort:
    """An action that raises has run: it leaves its bucket, uncounted, and
    the rest of the bucket waits for the next run, on the fast loop and the
    keyed loop alike."""

    @pytest.mark.parametrize("policy", [None, FifoTieBreak], ids=["fast", "keyed"])
    def test_raising_action_runs_once_and_is_not_counted(self, policy):
        sim = Simulator(tiebreak=policy() if policy is not None else None)
        log = []

        def boom():
            log.append("boom")
            sim.call_soon(log.append, "soon")
            raise RuntimeError("boom")

        sim.call_at(7, log.append, "a")
        sim.call_at(7, boom)
        sim.call_at(7, log.append, "c")
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert (log, sim.now, sim.events_processed, sim.peek()) == (
            ["a", "boom"], 7, 1, 7)
        assert sim.run() == 7
        assert log == ["a", "boom", "c", "soon"]
        assert (sim.events_processed, sim.peek()) == (3, None)


# ---------------------------------------------------------------------------
# differential oracle: the bucket map vs the keyed (historical) heap loops
# ---------------------------------------------------------------------------

#: one schedule instruction: (delay-ish value, spawn-children?).  Delays are
#: drawn across the regimes: 0 (the current time's bucket), a few ticks
#: (future buckets shared by several actions), within one slot, below and
#: beyond the horizon.
_op = st.tuples(
    st.one_of(
        st.just(0),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=SLOT),
        st.integers(min_value=1, max_value=HORIZON - 1),
        st.integers(min_value=HORIZON, max_value=3 * HORIZON),
    ),
    st.booleans(),
)


class _Boom(Exception):
    """The error of the drawn raising action, and of a failed stop event."""


def _run_program(sim: Simulator, program, entry: str, stop: int,
                 stop_fails: bool, resume_delay: int, raise_at,
                 max_events) -> tuple[list, list]:
    """Execute a schedule program through one entry point.

    ``entry`` is ``"run"`` (drain), ``"run_until"`` (stop once action
    ``stop`` has run; it fails the event if ``stop_fails``) or
    ``"run(until=)"`` (run to time ``stop``); that first run also gets
    ``max_events``.  Action ``raise_at`` raises after its pushes.  After
    the first run one more action is pushed ``resume_delay`` ahead, as a
    caller between two runs would, and ``run()`` resumes, again after each
    error, until nothing is pending.  Returns the log and one ``(error,
    log length, clock, event count, peek())`` mark per run.
    """
    log = []
    marks = []
    stopped = sim.event()

    def action(idx, delay, spawn):
        log.append((sim.now, idx))
        if entry == "run_until" and idx == stop:
            if stop_fails:
                stopped.fail(_Boom("stop"))
            else:
                stopped.succeed()
        if spawn:
            # re-schedule from inside a callback: same tick and future,
            # exercising the mid-drain push rules
            sim.call_soon(log.append, (sim.now, (idx, "soon")))
            sim.call_at(sim.now + 1 + (delay % 97), log.append,
                        (sim.now + 1 + (delay % 97), (idx, "later")))
        if idx == raise_at:
            raise _Boom(idx)

    def drive(run, *args):
        error = None
        try:
            run(*args)
        except (_Boom, SimulationError) as err:
            error = type(err).__name__
        marks.append((error, len(log), sim.now, sim.events_processed,
                      sim.peek()))

    for idx, (delay, spawn) in enumerate(program):
        sim.call_at(sim.now + delay, action, idx, delay, spawn)
    if entry == "run_until":
        drive(sim.run_until, stopped, max_events)
    else:
        drive(sim.run, stop, max_events)
    sim.call_at(sim.now + resume_delay, log.append, (sim.now, "resume"))
    while sim.peek() is not None:
        drive(sim.run)
    return log, marks


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=st.lists(_op, min_size=1, max_size=40),
       stop_at=st.integers(min_value=0, max_value=39),
       stop_fails=st.booleans(),
       until=st.integers(min_value=0, max_value=4 * HORIZON),
       resume_delay=st.sampled_from([0, 1, SLOT, HORIZON]),
       raise_at=st.none() | st.integers(min_value=0, max_value=39),
       max_events=st.none() | st.integers(min_value=1, max_value=80))
def test_bucket_map_identical_to_keyed_heap(program, stop_at, stop_fails,
                                            until, resume_delay, raise_at,
                                            max_events):
    """The bucket-map kernel replays any schedule program with the exact
    order, clock, event count and ``peek()`` of the single keyed heap (the
    historical drain loops, forced via an explicit FIFO policy), through
    each entry point: ``run()``, ``run_until(ev)`` stopped by a drawn
    action that succeeds or fails ``ev``, and ``run(until=T)``, each also
    cut short by a drawn ``max_events`` or a drawn raising action and then
    resumed by ``run()``."""
    for entry, stop in (("run", None), ("run_until", stop_at % len(program)),
                        ("run(until=)", until)):
        args = (program, entry, stop, stop_fails, resume_delay, raise_at,
                max_events)
        fast = _run_program(Simulator(), *args)
        keyed = _run_program(Simulator(tiebreak=FifoTieBreak()), *args)
        assert fast == keyed, entry


class TestClockNeverGoesBack:
    """``run(until=T)`` with ``T`` before ``now`` would rewind the clock
    and let a caller schedule into the past; it raises instead, on the
    fast loop and the keyed loop alike."""

    @pytest.mark.parametrize("policy", [None, FifoTieBreak], ids=["fast", "keyed"])
    def test_run_until_a_past_time_raises(self, policy):
        sim = Simulator(tiebreak=policy() if policy is not None else None)
        log = []
        sim.call_at(30, log.append, 30)
        assert sim.run(until=20) == 20
        with pytest.raises(SimulationError, match="back in time"):
            sim.run(until=5)
        assert sim.now == 20
        with pytest.raises(SimulationError, match="past"):
            sim.call_at(10, log.append, 10)
        assert sim.run(until=20) == 20  # the current time is not the past
        assert sim.run() == 30
        assert log == [30]
