"""Event-kernel fast paths: timer wheel, now-queue, and cancellation.

The scheduler keeps three containers (now-queue, timer wheel, binary heap)
that must be observationally identical to the single seq-keyed heap they
replaced.  These tests pin the contract from the outside: cancellation
semantics, far-horizon spill ordering, batched same-tick dispatch, and a
hypothesis differential against the keyed (historical) drain loop.
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


class TestTimerHandleCancellation:
    def test_cancel_before_fire_suppresses_the_action(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(100, fired.append, "never")
        sim.call_at(200, fired.append, "after")
        handle.cancel()
        sim.run()
        assert fired == ["after"]
        assert sim.now == 200

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(50, fired.append, 1)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled
        sim.run()
        assert fired == []

    def test_cancelled_entries_are_not_counted_as_events(self):
        sim = Simulator()
        for _ in range(10):
            sim.schedule(5, lambda: None).cancel()
        live = sim.schedule(5, lambda: None)
        sim.run()
        assert not live.cancelled
        assert sim.events_processed == 1

    def test_cancel_far_horizon_timer(self):
        """Cancellation works the same for heap-resident (far) entries."""
        sim = Simulator()
        fired = []
        far = sim.schedule(2 * HORIZON, fired.append, "far")
        assert far.when == 2 * HORIZON
        sim.call_at(10, fired.append, "near")
        far.cancel()
        sim.run()
        assert fired == ["near"]

    def test_cancel_same_tick_entry(self):
        """Now-queue entries (when == now) honour cancellation too."""
        sim = Simulator()
        fired = []
        handle = sim.schedule(0, fired.append, "soon")
        handle.cancel()
        sim.call_soon(fired.append, "kept")
        sim.run()
        assert fired == ["kept"]

    def test_peek_skips_tombstones(self):
        sim = Simulator()
        sim.schedule(7, lambda: None).cancel()
        sim.schedule(9, lambda: None)
        assert sim.peek() == 9


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


def _run_program(sim: Simulator, program) -> tuple[list, int, int]:
    """Execute a schedule program; returns (log, end_time, event_count)."""
    log = []

    def action(idx, delay, spawn):
        log.append((sim.now, idx))
        if spawn:
            # re-schedule from inside a callback: same tick and future,
            # exercising the mid-drain push rules
            sim.call_soon(log.append, (sim.now, (idx, "soon")))
            sim.call_at(sim.now + 1 + (delay % 97), log.append,
                        (sim.now + 1 + (delay % 97), (idx, "later")))

    for idx, (delay, spawn) in enumerate(program):
        sim.call_at(sim.now + delay, action, idx, delay, spawn)
    sim.run()
    return log, sim.now, sim.events_processed


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=st.lists(_op, min_size=1, max_size=40))
def test_wheel_heap_nowq_identical_to_keyed_heap(program):
    """The three-container kernel replays any schedule program with the
    exact order, clock, and event count of the single keyed heap (the
    historical drain loop, forced via an explicit FIFO policy)."""
    fast = _run_program(Simulator(), program)
    keyed = _run_program(Simulator(tiebreak=FifoTieBreak()), program)
    assert fast == keyed


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=st.lists(_op, min_size=1, max_size=30),
       cancel_every=st.integers(min_value=2, max_value=5))
def test_cancellation_identical_to_keyed_heap(program, cancel_every):
    """Tombstoned timers perturb neither order nor event counts, on both
    kernels identically."""
    def run(sim):
        log = []
        handles = []
        for idx, (delay, _spawn) in enumerate(program):
            if idx % cancel_every == 0:
                handles.append(sim.schedule(sim.now + delay, log.append, idx))
            else:
                sim.call_at(sim.now + delay, log.append, idx)
        for h in handles:
            h.cancel()
        sim.run()
        return log, sim.now, sim.events_processed

    assert run(Simulator()) == run(Simulator(tiebreak=FifoTieBreak()))
