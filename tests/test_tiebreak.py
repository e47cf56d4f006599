"""Pluggable same-timestamp tie-break policies (repro.simkernel.tiebreak).

The contract under test, in order of importance:

1. the **default is bit-identical FIFO** — no policy installed means the
   class push path, one FIFO bucket per pending time, and the historical
   schedules;
2. an explicit :class:`FifoTieBreak` is observationally the same as the
   default;
3. :class:`SeededShuffleTieBreak` permutes only same-timestamp ties, is a
   pure function of its seed, and a known-symmetric workload still
   converges to the same counters under it;
4. :class:`PrefixShuffleTieBreak` bridges the two: limit 0 is FIFO, a
   large-enough limit is the full shuffle, and adjacent limits differ in
   exactly one tie assignment — the invariant the race-detector bisection
   stands on.
"""

import pytest

from repro.simkernel import (
    FifoTieBreak,
    PrefixShuffleTieBreak,
    SeededShuffleTieBreak,
    Simulator,
    default_tiebreak,
)


def _ordered_labels(sim):
    """Run five same-timestamp actions and return their firing order."""
    order = []
    for label in "abcde":
        sim.call_at(10, lambda l=label: order.append(l))
    sim.run()
    return order


def test_default_is_fifo():
    assert _ordered_labels(Simulator()) == list("abcde")


def test_default_path_is_untouched():
    """No policy → the class-level push: no per-push indirection, and each
    action filed as ``(fn, args)`` under its own time, in push order."""
    sim = Simulator()
    assert "_push" not in sim.__dict__  # class method, not a closure

    def f(*_):
        pass

    sim.call_at(5, f)
    assert sim._buckets == {5: [(f, ())]}
    assert sim._seq == 1
    # A timer 10 ms ahead files under its own time, like a near one.
    sim.call_at(10_000_000, f, 1)
    assert sim._buckets[10_000_000] == [(f, (1,))]
    assert sim._seq == 2
    # A same-tick push is filed too, but `_seq` counts future pushes only.
    sim.call_soon(f)
    assert sim._buckets[0] == [(f, ())]
    assert sim._seq == 2
    # A second push for a filed time appends; the time heap holds each
    # pending time once.
    sim.call_at(5, f, 2)
    assert sim._buckets[5] == [(f, ()), (f, (2,))]
    assert sim._seq == 3
    assert sorted(sim._times) == [0, 5, 10_000_000]
    assert sim.peek() == 0


def test_explicit_fifo_matches_default():
    assert _ordered_labels(Simulator(tiebreak=FifoTieBreak())) == list("abcde")


def test_shuffle_permutes_ties_deterministically():
    runs = [_ordered_labels(Simulator(tiebreak=SeededShuffleTieBreak(7)))
            for _ in range(2)]
    assert runs[0] == runs[1]  # pure function of the seed
    assert sorted(runs[0]) == list("abcde")
    other = _ordered_labels(Simulator(tiebreak=SeededShuffleTieBreak(8)))
    assert sorted(other) == list("abcde")
    # Not a hard guarantee for any *specific* pair of seeds, but these two
    # differ (and pin that the shuffle actually shuffles *something*).
    assert runs[0] != list("abcde") or other != list("abcde")


def test_shuffle_respects_time_ordering():
    """Only ties are permuted: distinct timestamps keep their order."""
    sim = Simulator(tiebreak=SeededShuffleTieBreak(3))
    order = []
    for t, label in [(30, "z"), (10, "a"), (20, "m")]:
        sim.call_at(t, lambda l=label: order.append(l))
    sim.run()
    assert order == ["a", "m", "z"]


def test_prefix_limit_zero_is_fifo():
    labels = _ordered_labels(Simulator(tiebreak=PrefixShuffleTieBreak(7, 0)))
    assert labels == list("abcde")


def test_prefix_full_limit_matches_shuffle():
    full = _ordered_labels(Simulator(tiebreak=SeededShuffleTieBreak(7)))
    prefixed = _ordered_labels(Simulator(tiebreak=PrefixShuffleTieBreak(7, 99)))
    assert prefixed == full


def test_adjacent_prefix_limits_flip_one_tie():
    """Runs at limit and limit-1 see identical priorities for their common
    prefix: the RNG stream is drawn for every push, used or not."""
    a = PrefixShuffleTieBreak(7, 3)
    b = PrefixShuffleTieBreak(7, 2)
    keys_a = [a.key(i) for i in range(1, 6)]
    keys_b = [b.key(i) for i in range(1, 6)]
    assert keys_a[:2] == keys_b[:2]        # shared shuffled prefix
    assert keys_a[2] != keys_b[2]          # exactly the flipped tie
    assert keys_a[3:] == keys_b[3:]        # both FIFO sentinels after


def test_default_tiebreak_context_manager():
    with default_tiebreak(lambda: SeededShuffleTieBreak(7)):
        inside = Simulator()
        assert isinstance(inside.tiebreak, SeededShuffleTieBreak)
        with default_tiebreak(None):  # nested: restore FIFO
            assert Simulator().tiebreak is None
        assert isinstance(Simulator().tiebreak, SeededShuffleTieBreak)
    assert Simulator().tiebreak is None
    assert Simulator.default_tiebreak_factory is None


def test_record_schedule():
    sim = Simulator()
    log = sim.record_schedule()

    def tick():
        pass

    sim.call_at(10, tick)
    sim.call_at(10, tick)
    sim.run()
    assert len(log) == 2
    assert all(t == 10 and "tick" in label for t, label in log)


def test_fifo_schedule_bit_identical_across_runs():
    """Two default-policy runs of the same program produce the same log."""
    def program():
        sim = Simulator()
        log = sim.record_schedule()
        for i in range(4):
            sim.call_at(5, lambda: None)
            sim.call_at(9, lambda: None)
        sim.run()
        return log

    assert program() == program()


@pytest.mark.racecheck
def test_pingpong_counters_policy_invariant():
    """A symmetric pingpong converges to identical outcomes under every
    tie-break policy the ``racecheck`` marker installs (FIFO + shuffles)."""
    from repro.analysis.races import workload_scenario

    obs = workload_scenario("pingpong", size=2048, iters=1)()
    assert set(obs.outcomes.values()) == {"completed"}
    for host, snap in obs.counters.items():
        assert snap["retransmissions"] == 0, host


def test_shuffled_pingpong_counters_match_fifo():
    """The seeded-shuffle run of a known-symmetric pingpong converges to
    the same counters as the FIFO baseline (volatile keys aside)."""
    from repro.analysis.races import VOLATILE_METRICS, workload_scenario
    from repro.obs.registry import diff_snapshots

    scenario = workload_scenario("pingpong", size=2048, iters=1)
    base = scenario()
    with default_tiebreak(lambda: SeededShuffleTieBreak(11)):
        shuffled = scenario()
    assert base.end_time == shuffled.end_time
    for host in base.counters:
        assert diff_snapshots(base.counters[host], shuffled.counters[host],
                              exclude=VOLATILE_METRICS) == {}
