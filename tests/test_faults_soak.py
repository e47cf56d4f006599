"""Soak acceptance: chained-fault endurance runs stay hang-free and leak-free.

The ISSUE's acceptance gate, as a tier-1 test: every soak spec in the
default suite, under two different seeds, must end with all transfers
terminal (completed or typed-failed, never hung), a clean sanitizer sweep,
and — because the whole layer is seeded — byte-identical reports per seed.
The suite runs in well under the ~30 s budget.
"""

import json

import pytest

from repro.faults import run_soak, run_soak_suite, soak_suite

pytestmark = pytest.mark.soak


@pytest.mark.parametrize("seed", ["soak", "soak-alt"])
def test_suite_is_hang_free_and_leak_free(seed):
    suite = run_soak_suite(seed=seed, iters=4)
    assert len(suite["runs"]) >= 3
    assert suite["totals"]["hung"] == 0
    assert suite["sanitizer_dirty_runs"] == []
    for run in suite["runs"]:
        assert run["hung_keys"] == []
        assert run["sanitizer"] == []
        terminal = run["outcomes"].get("completed", 0) + run["outcomes"].get("failed", 0)
        assert terminal == run["messages"]
        # The fault plan actually bit: every spec injects something.
        assert sum(run["injected"].values()) >= 1
        # Livelock checkpoints ran and the last one saw everything drain.
        assert run["checkpoints"]
        assert run["checkpoints"][-1]["nonterminal"] == 0


def test_ioat_flap_trips_and_reopens_breaker():
    spec = next(s for s in soak_suite(iters=4) if s.name == "ioat-flap")
    report = run_soak(spec)
    assert report["health"]["breaker_trips"] >= 1
    assert report["health"]["breaker_reopens"] >= 1
    # Degradation ended degraded-out: no channel left open at the end.
    assert report["health"]["breaker_open_channels"] == 0


def _canonical(report: dict) -> str:
    return json.dumps(report, sort_keys=True)


def test_reports_are_byte_identical_per_seed():
    spec = soak_suite(seed="det", iters=3)[0]
    a = _canonical(run_soak(spec))
    b = _canonical(run_soak(spec))
    assert a == b
    other = _canonical(run_soak(soak_suite(seed="det2", iters=3)[0]))
    assert a != other


def test_breaker_transitions_visible_in_trace():
    spec = next(s for s in soak_suite(iters=4) if s.name == "ioat-flap")
    report = run_soak(spec, trace=True)
    blob = json.dumps(report["trace_events"])
    assert "breaker TRIP" in blob
    assert "breaker REOPEN" in blob
