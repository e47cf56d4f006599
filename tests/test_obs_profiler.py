"""Tests for the simulated-time phase profiler and the Fig. 9 report."""

import pytest

from repro import build_testbed
from repro.cluster.testbed import build_single_node
from repro.obs.profiler import (
    PAPER_TARGETS,
    TOLERANCE_POINTS,
    PhaseProfiler,
    fig9_report,
    render_fig9,
)
from repro.reporting.sweeps import point_stream_usage
from repro.units import KiB, MiB
from repro.workloads import run_stream_usage

pytestmark = pytest.mark.obs


class TestPhaseProfiler:
    def test_attach_and_attribute_phases(self):
        tb = build_single_node()
        host = tb.hosts[0]
        prof = PhaseProfiler(tb.sim).attach(host.cpus)
        core = host.user_core(0)
        space = host.user_space("prof")
        src, dst = space.alloc(64 * KiB), space.alloc(64 * KiB)
        done = tb.sim.event()

        def work():
            yield core.res.request()
            yield from host.copier.memcpy(core, src, 0, dst, 0, 64 * KiB, "user")
            yield from core.busy(500, "user")  # untagged charge
            core.res.release()
            done.succeed()

        tb.sim.process(work())
        tb.sim.run_until(done)
        phases = prof.phases()
        assert phases["memcpy"] > 0
        assert phases["user:other"] == 500

    def test_untagged_charges_bucket_by_category(self):
        tb = build_single_node()
        host = tb.hosts[0]
        prof = PhaseProfiler(tb.sim).attach(host.cpus)
        core = host.user_core(0)
        done = tb.sim.event()

        def work():
            yield core.res.request()
            yield from core.busy(100, "bh")
            yield from core.busy(50, "driver")
            core.res.release()
            done.succeed()

        tb.sim.process(work())
        tb.sim.run_until(done)
        assert prof.phases() == {"bh:other": 100, "driver:other": 50}

    def test_reset_follows_core_counters(self):
        tb = build_single_node()
        host = tb.hosts[0]
        prof = PhaseProfiler(tb.sim).attach(host.cpus)
        core = host.user_core(0)
        done = tb.sim.event()

        def work():
            yield core.res.request()
            yield from core.busy(100, "user")
            host.cpus.reset_counters()
            yield from core.busy(40, "user")
            core.res.release()
            done.succeed()

        tb.sim.process(work())
        tb.sim.run_until(done)
        assert prof.phases() == {"user:other": 40}

    def test_detach_stops_recording(self):
        tb = build_single_node()
        host = tb.hosts[0]
        prof = PhaseProfiler(tb.sim).attach(host.cpus)
        prof.detach(host.cpus)
        core = host.user_core(0)
        done = tb.sim.event()

        def work():
            yield core.res.request()
            yield from core.busy(100, "user")
            core.res.release()
            done.succeed()

        tb.sim.process(work())
        tb.sim.run_until(done)
        assert prof.phases() == {}

    def test_percent_is_relative_to_elapsed(self):
        tb = build_single_node()
        prof = PhaseProfiler(tb.sim)
        core = tb.hosts[0].user_core(0)
        prof.record(core, "bh", "frag_copy", 250)
        assert prof.percent(1000) == {"frag_copy": 25.0}
        assert prof.percent(0) == {}


class TestStreamProfile:
    def test_stream_usage_reports_window(self):
        tb = build_testbed(ioat_enabled=False, regcache_enabled=False)
        u = run_stream_usage(tb, 128 * KiB, iterations=3)
        assert u.window_ticks > 0
        assert u.total_pct > 0

    def test_point_cpu_profile_decomposes_bands(self):
        r = point_stream_usage(1 * MiB, 3, True, False)
        assert r["total_pct"] > 0
        phases = r["phases_pct"]
        # offload path: fragment copies happen on the DMA engine, the CPU
        # submits descriptors and processes headers
        assert phases.get("dma_submit", 0) > 0
        assert phases.get("bh_header", 0) > 0
        # phases never exceed what the three bands account for (same ticks)
        assert sum(phases.values()) == pytest.approx(r["total_pct"], abs=0.5)

    def test_memcpy_profile_dominated_by_frag_copy(self):
        r = point_stream_usage(1 * MiB, 3, False, False)
        phases = r["phases_pct"]
        assert phases["frag_copy"] == max(phases.values())
        assert "dma_submit" not in phases


class TestFig9Report:
    def test_quick_report_within_paper_tolerance(self):
        report = fig9_report(quick=True)
        assert report["calibration_ok"], render_fig9(report)
        for c in report["calibration"]:
            assert abs(c["measured_pct"] - c["paper_pct"]) <= TOLERANCE_POINTS
        # the paper's qualitative claim at every size: I/OAT offload uses
        # less CPU than the memcpy path
        by_key = {(r["size"], r["mode"]): r for r in report["rows"]}
        for (size, mode), row in by_key.items():
            if mode == "ioat":
                assert row["total_pct"] < by_key[(size, "memcpy")]["total_pct"]

    def test_targets_cover_both_regimes(self):
        sizes = {size for size, _ in PAPER_TARGETS}
        assert sizes == {32 * KiB, 16 * MiB}

    def test_render_mentions_calibration(self):
        report = fig9_report(quick=True)
        text = render_fig9(report)
        assert "calibration_ok" in text
        assert "16 MiB" in text
