"""Event-kernel fast paths: timer wheel and now-queue.

The scheduler keeps three containers (now-queue, timer wheel, binary heap)
that must be observationally identical to the single seq-keyed heap they
replaced.  These tests pin the contract from the outside: far-horizon
spill ordering, batched same-tick dispatch, re-entry, a clock that never
goes backwards, and a hypothesis differential of the one fast drain loop,
through both of its entry points, against the keyed (historical) loops.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.simkernel import Simulator
from repro.simkernel.errors import SimulationError
from repro.simkernel.scheduler import _WHEEL_SHIFT, _WHEEL_SLOTS
from repro.simkernel.tiebreak import FifoTieBreak

#: one wheel rotation in ticks; anything scheduled at least this far ahead
#: of ``now`` must spill to the binary heap
HORIZON = _WHEEL_SLOTS << _WHEEL_SHIFT


class TestFarHorizonSpill:
    def test_heap_and_wheel_merge_in_fifo_order(self):
        """Entries pushed beyond the horizon (heap) and within it (wheel)
        for the *same* target time run in push order: heap entries were
        pushed earlier (the time was farther away), so they go first."""
        sim = Simulator()
        log = []
        target = HORIZON + 500
        sim.call_at(target, log.append, "pushed-far")   # beyond horizon -> heap
        sim.call_at(target - 10, _advance_then, sim, target, log)
        sim.run()
        assert log == ["pushed-far", "pushed-near"]

    def test_spill_boundary(self):
        """One tick inside the horizon stays in the wheel; the first tick
        at the horizon spills — both fire, in time order."""
        sim = Simulator()
        log = []
        inside = ((_WHEEL_SLOTS - 1) << _WHEEL_SHIFT)
        outside = HORIZON << 1
        sim.call_at(outside, log.append, "outside")
        sim.call_at(inside, log.append, "inside")
        sim.run()
        assert log == ["inside", "outside"]
        assert sim.now == outside

    def test_many_horizons_of_timers(self):
        """Timers spread over several wheel rotations all fire, in order."""
        sim = Simulator()
        times = []
        whens = [i * (HORIZON // 3) + 1 for i in range(12)]
        for when in reversed(whens):
            sim.call_at(when, times.append, when)
        sim.run()
        assert times == sorted(whens)


def _advance_then(sim, target, log):
    # Runs at target-10: schedules for `target`, now *within* the horizon,
    # after the far entry for the same time already sits in the heap.
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


# ---------------------------------------------------------------------------
# differential oracle: fast containers vs the keyed (historical) heap loop
# ---------------------------------------------------------------------------

#: one schedule instruction: (delay-ish value, spawn-children?).  Delays are
#: drawn across all three container regimes: 0 (now-queue), small (wheel),
#: and beyond-horizon (heap spill).
_op = st.tuples(
    st.one_of(
        st.just(0),
        st.integers(min_value=1, max_value=1 << _WHEEL_SHIFT),
        st.integers(min_value=1, max_value=HORIZON - 1),
        st.integers(min_value=HORIZON, max_value=3 * HORIZON),
    ),
    st.booleans(),
)


def _run_program(sim: Simulator, program, entry: str, stop: int,
                 resume_delay: int) -> tuple[list, list]:
    """Execute a schedule program through one entry point.

    ``entry`` is ``"run"`` (drain), ``"run_until"`` (stop once action
    ``stop`` has run, then drain) or ``"run(until=)"`` (run to time
    ``stop``, then drain).  After a stop, one more action is pushed
    ``resume_delay`` ahead, as a caller between two runs would.  Returns
    the log and one ``(log length, clock, event count)`` mark per run.
    """
    log = []
    marks = []
    stopped = sim.event()

    def action(idx, delay, spawn):
        log.append((sim.now, idx))
        if entry == "run_until" and idx == stop:
            stopped.succeed()
        if spawn:
            # re-schedule from inside a callback: same tick and future,
            # exercising the mid-drain push rules
            sim.call_soon(log.append, (sim.now, (idx, "soon")))
            sim.call_at(sim.now + 1 + (delay % 97), log.append,
                        (sim.now + 1 + (delay % 97), (idx, "later")))

    for idx, (delay, spawn) in enumerate(program):
        sim.call_at(sim.now + delay, action, idx, delay, spawn)
    if entry != "run":
        if entry == "run_until":
            sim.run_until(stopped)
        else:
            sim.run(until=stop)
        marks.append((len(log), sim.now, sim.events_processed))
        sim.call_at(sim.now + resume_delay, log.append, (sim.now, "resume"))
    sim.run()
    marks.append((len(log), sim.now, sim.events_processed))
    return log, marks


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=st.lists(_op, min_size=1, max_size=40),
       stop_at=st.integers(min_value=0, max_value=39),
       until=st.integers(min_value=0, max_value=4 * HORIZON),
       resume_delay=st.sampled_from([0, 1, 1 << _WHEEL_SHIFT, HORIZON]))
def test_wheel_heap_nowq_identical_to_keyed_heap(program, stop_at, until,
                                                  resume_delay):
    """The three-container kernel replays any schedule program with the
    exact order, clock, and event count of the single keyed heap (the
    historical drain loops, forced via an explicit FIFO policy), through
    each entry point: ``run()``, ``run_until(ev)`` stopped by a drawn
    action, and ``run(until=T)``, each stop followed by ``run()``."""
    for entry, stop in (("run", None), ("run_until", stop_at % len(program)),
                        ("run(until=)", until)):
        fast = _run_program(Simulator(), program, entry, stop, resume_delay)
        keyed = _run_program(Simulator(tiebreak=FifoTieBreak()), program,
                             entry, stop, resume_delay)
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
