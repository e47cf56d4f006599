"""The schedule-race detector (repro.analysis.races).

The load-bearing test is the planted-bug regression: a scenario with a
deliberate order-dependent bug (first same-timestamp callback "wins" a
claim) must be *caught* — divergence reported, bisected to a minimal tie
flip, first diverging event localized — and the repaired version of the
same scenario (winner decided from data, not firing order) must sweep
clean.  A detector that cannot fail its target is not a detector.
"""

import json

import pytest

from repro.analysis.races import (
    Observation,
    RaceDetector,
    check_workload,
    workload_scenario,
)
from repro.simkernel import Simulator

pytestmark = pytest.mark.lint


# ---------------------------------------------------------------------------
# planted-bug scenario: same-timestamp claim race
# ---------------------------------------------------------------------------


def _claim_scenario(fixed):
    """Three peers race to claim a slot at t=10.

    Buggy flavor: each peer gets its own t=10 event and the *first to
    fire* wins — i.e. the winner is whatever the tie-break says, which
    under default FIFO is dict insertion order.  Fixed flavor: one event
    computes the winner from the data (``min``), so no ordering — FIFO or
    adversarial — can change it.
    """

    def scenario():
        sim = Simulator()
        schedule = sim.record_schedule()
        winner = []
        claims = {}
        for name in ("b", "a", "c"):  # insertion order is NOT sorted order
            claims[name] = name

        if fixed:
            def decide():
                winner.append(min(claims))
            sim.call_at(10, decide)
        else:
            for n in claims:
                def claim(n=n):
                    if not winner:
                        winner.append(n)
                claim.__qualname__ = f"claim_{n}"
                sim.call_at(10, claim)
        sim.run()
        return Observation(
            counters={"host0": {"winner": winner[0]}},
            digests={},
            end_time=sim.now,
            pushes=sim._seq,
            schedule=schedule,
        )

    return scenario


def test_detector_catches_planted_order_bug():
    det = RaceDetector(_claim_scenario(fixed=False), name="claim-race",
                       seeds=(1, 2, 3, 4, 5))
    report = det.run()
    assert not report.ok
    div = report.divergences[0]
    assert div.counter_diffs["host0"]["winner"][0] == "b"  # FIFO: insertion order
    assert div.counter_diffs["host0"]["winner"][1] != "b"
    rendered = report.format()
    assert "host0.winner" in rendered


def test_detector_bisects_to_minimal_tie_flip():
    det = RaceDetector(_claim_scenario(fixed=False), name="claim-race",
                       seeds=range(1, 10))
    report = det.run()
    assert not report.ok
    div = report.divergences[0]
    # The scenario pushes 3 claim events; the minimal flip must be one of
    # them, and re-running at (flip, flip-1) isolated the first diverging
    # dispatch with context from both schedules.
    assert div.flip_index is not None and div.flip_index <= 3
    assert div.diverge_at is not None
    base_labels = [l for _, l in div.baseline_window]
    var_labels = [l for _, l in div.variant_window]
    assert base_labels != var_labels
    assert any("claim_" in l for l in base_labels)
    assert "first diverging event" in div.format()


def test_fixed_scenario_sweeps_clean():
    det = RaceDetector(_claim_scenario(fixed=True), name="claim-fixed",
                       seeds=(1, 2, 3, 4, 5))
    report = det.run()
    assert report.ok, report.format()
    assert report.runs == 6  # baseline + 5 permutations, no bisection runs


# ---------------------------------------------------------------------------
# the standard corpus is clean
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["pingpong", "stream", "incast"])
def test_standard_workload_is_race_free(workload):
    report = check_workload(workload, size=2048, iters=1, seeds=(1, 2, 3))
    assert report.ok, report.format()


def test_workload_scenario_observation_shape():
    obs = workload_scenario("stream", size=2048, iters=1)()
    assert set(obs.outcomes.values()) == {"completed"}
    assert obs.pushes > 0 and obs.end_time > 0
    assert obs.schedule and obs.schedule[0][0] <= obs.schedule[-1][0]
    assert set(obs.counters) == set(obs.digests) == {"node0", "node1"}


def test_unknown_workload_rejected():
    with pytest.raises(ValueError):
        workload_scenario("warpdrive")


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------


def test_cli_races_clean_exit(capsys):
    from repro.analysis.cli import main

    assert main(["--races", "--seeds", "1", "--workloads", "stream",
                 "--size", "2048", "--iters", "1"]) == 0
    assert "ok" in capsys.readouterr().err


def test_cli_races_json(capsys):
    from repro.analysis.cli import main

    assert main(["--races", "--seeds", "1", "--workloads", "stream",
                 "--size", "2048", "--iters", "1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    (report,) = doc["reports"]
    assert report["ok"] is True and report["divergences"] == []


def test_cli_races_rejects_bad_args(capsys):
    from repro.analysis.cli import main

    assert main(["--races", "--workloads", "warpdrive"]) == 2
    assert main(["--races", "--seeds", "0"]) == 2


def test_cli_lint_json_nonzero_on_findings(tmp_path, capsys):
    from repro.analysis.cli import main

    dirty = tmp_path / "dirty.py"
    dirty.write_text(
        "def bh(pool):\n    skb = pool.alloc_rx()\n    skb.data_len = 1\n"
    )
    assert main(["--format", "json", str(dirty)]) == 1
    doc = json.loads(capsys.readouterr().out)
    (finding,) = doc["findings"]
    assert finding["code"] == "SKB001" and finding["line"] == 2
    assert doc["files"] == 1
