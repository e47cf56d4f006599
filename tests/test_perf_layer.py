"""Tests for the performance layer (phantom payloads, event fast paths,
cached/parallel sweep executor).

The determinism guarantees this PR rests on are proven here:

* phantom vs byte-moving payloads yield **bit-identical** figure data
  (the cost model is content-blind);
* serial vs ``REPRO_JOBS=4`` sweeps yield bit-identical results (points
  are independent simulations);
* a cache hit replays the stored result **without running any
  simulation** (asserted via the process-wide event counter);
* seven quick figure pipelines keep their pinned event counts and
  rendered output, so a refactor that claims to be schedule-identical
  is checked on every run.
"""

import hashlib

import pytest

from repro import build_testbed
from repro.core.counters import collect_counters
from repro.memory import phantom
from repro.reporting.experiments import EXPERIMENTS, fig7
from repro.reporting.sweeps import SweepExecutor, point, point_key
from repro.simkernel import Simulator
from repro.simkernel.errors import SimulationError
from repro.units import KiB, MiB


# ---------------------------------------------------------------------------
# event-loop fast paths
# ---------------------------------------------------------------------------


class TestEventFastPaths:
    def test_call_at_runs_in_time_order(self):
        sim = Simulator()
        seen = []
        sim.call_at(50, lambda: seen.append(("a", sim.now)))
        sim.call_at(10, lambda: seen.append(("b", sim.now)))
        sim.run()
        assert seen == [("b", 10), ("a", 50)]

    def test_call_soon_is_fifo_at_the_current_time(self):
        sim = Simulator()
        seen = []
        sim.call_soon(lambda: seen.append(1))
        sim.call_soon(lambda: seen.append(2))
        sim.call_at(0, lambda: seen.append(3))
        sim.run()
        assert seen == [1, 2, 3]

    def test_call_at_in_the_past_raises(self):
        sim = Simulator()
        sim.call_at(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(50, lambda: None)

    def test_events_processed_and_process_total_count(self):
        sim = Simulator()
        before_total = Simulator.events_total
        for t in (5, 10, 15):
            sim.call_at(t, lambda: None)
        sim.run()
        assert sim.events_processed == 3
        assert Simulator.events_total == before_total + 3

    def test_counters_surface_event_loop_stats(self):
        tb = build_testbed()
        ep0, ep1 = tb.open_endpoint(0, 0), tb.open_endpoint(1, 0)
        c0, c1 = tb.user_core(0), tb.user_core(1)
        sbuf, rbuf = ep0.space.alloc(4 * KiB), ep1.space.alloc(4 * KiB)
        done = tb.sim.event()

        def sender():
            req = yield from ep0.isend(c0, ep1.addr, 7, sbuf)
            yield from ep0.wait(c0, req)

        def receiver():
            req = yield from ep1.irecv(c1, 7, ~0, rbuf)
            yield from ep1.wait(c1, req)
            done.succeed()

        tb.sim.process(sender())
        tb.sim.process(receiver())
        tb.sim.run_until(done, max_events=1_000_000)
        c = collect_counters(tb.stacks[0])
        assert c["sim_events_processed"] > 0
        assert c["sim_events_processed"] == tb.sim.events_processed


# ---------------------------------------------------------------------------
# phantom payloads
# ---------------------------------------------------------------------------


class TestPhantomMode:
    def test_defaults_off_with_integrity_floor(self):
        assert not phantom.is_active()
        assert not phantom.elide(1 * MiB)  # inactive: never elide
        with phantom.phantom_payloads(True):
            assert phantom.is_active()
            assert phantom.elide(phantom.INTEGRITY_FLOOR + 1)
            assert not phantom.elide(phantom.INTEGRITY_FLOOR)
        assert not phantom.is_active()  # scope restored

    def test_phantom_and_byte_pingpong_bit_identical(self, tmp_path):
        """The tentpole determinism proof on the full network path:
        eager + pull + I/OAT offload, with and without real bytes."""
        pts = [
            point("pingpong", stack="omx", size=8 * KiB, iters=2, omx={}),
            point("pingpong", stack="omx", size=1 * MiB, iters=2,
                  omx={"ioat_enabled": True}),
        ]
        byte_mode = SweepExecutor(jobs=1, cache=False, phantom_mode=False)
        ghost_mode = SweepExecutor(jobs=1, cache=False, phantom_mode=True)
        assert byte_mode.run(pts) == ghost_mode.run(pts)

    def test_phantom_and_byte_figure_csv_identical(self, tmp_path):
        byte_fig = fig7(quick=True, executor=SweepExecutor(
            jobs=1, cache_dir=tmp_path / "byte", phantom_mode=False))
        ghost_fig = fig7(quick=True, executor=SweepExecutor(
            jobs=1, cache_dir=tmp_path / "ghost", phantom_mode=True))
        assert byte_fig.to_csv() == ghost_fig.to_csv()


# ---------------------------------------------------------------------------
# sweep executor
# ---------------------------------------------------------------------------


class TestSweepExecutor:
    POINTS = [
        point("memcpy_chunked", size=256 * KiB, chunk=4 * KiB),
        point("memcpy_chunked", size=256 * KiB, chunk=1 * KiB),
        point("ioat_chunked", size=256 * KiB, chunk=4 * KiB),
        point("pingpong", stack="omx", size=32 * KiB, iters=2, omx={}),
    ]

    def test_cache_hit_skips_simulation(self, tmp_path):
        cold = SweepExecutor(jobs=1, cache_dir=tmp_path)
        before = Simulator.events_total
        first = cold.run(self.POINTS)
        assert Simulator.events_total > before  # simulations actually ran
        assert cold.stats.computed == len(self.POINTS)

        warm = SweepExecutor(jobs=1, cache_dir=tmp_path)
        before = Simulator.events_total
        second = warm.run(self.POINTS)
        assert Simulator.events_total == before  # zero simulation on hits
        assert warm.stats.cache_hits == len(self.POINTS)
        assert warm.stats.computed == 0
        assert second == first

    def test_serial_vs_parallel_bit_identical(self, tmp_path, monkeypatch):
        serial = SweepExecutor(jobs=1, cache=False).run(self.POINTS)
        monkeypatch.setenv("REPRO_JOBS", "4")
        parallel_ex = SweepExecutor(cache=False)  # jobs from the environment
        assert parallel_ex.jobs == 4
        assert parallel_ex.run(self.POINTS) == serial

    def test_cache_keys_isolate_modes_and_params(self):
        base = point_key("pingpong", {"size": 1024}, True)
        assert point_key("pingpong", {"size": 1024}, False) != base
        assert point_key("pingpong", {"size": 2048}, True) != base
        assert point_key("imb_time", {"size": 1024}, True) != base
        assert point_key("pingpong", {"size": 1024}, True) == base

    def test_unknown_point_kind_rejected(self):
        with pytest.raises(KeyError):
            point("warp_drive", size=1)

    def test_results_in_declaration_order(self, tmp_path):
        pts = [
            point("memcpy_chunked", size=128 * KiB, chunk=256),
            point("memcpy_chunked", size=128 * KiB, chunk=4 * KiB),
        ]
        ex = SweepExecutor(jobs=1, cache_dir=tmp_path)
        fine, coarse = ex.run(pts)
        # both are MiB/s throughputs; 256 B chunks pay 16x the per-chunk
        # setup cost, so the pair must not come back swapped
        assert fine < coarse
        assert ex.run(pts) == [fine, coarse]  # cached replay, same order


# ---------------------------------------------------------------------------
# quick-mode event-count gate
# ---------------------------------------------------------------------------

#: quick-mode simulator events and rendered-output digest (sha256 prefix)
#: per experiment, each run alone on a fresh cache-off serial executor.
#: A change that moves one of these changed what the pipeline simulates.
QUICK_GATE = {
    "fig3": (270_572, "aba63afff2d298cf"),
    "fig7": (23_858, "ac6815a0e8cfa4a2"),
    "fig9": (203_041, "2cb766281ddd963a"),
    "fig10": (210_603, "240a53661478f29d"),
    "fig12": (140_932, "08cbd185398d2611"),
    "nas": (17_774, "4a162320b9fbd06d"),
    "engine_shootout": (227_798, "4c2b3085a2782a33"),
}


class TestQuickEventCountGate:
    @pytest.mark.parametrize("name", sorted(QUICK_GATE))
    def test_events_and_render_pinned(self, name):
        executor = SweepExecutor(jobs=1, cache=False)
        before = Simulator.events_total
        result = EXPERIMENTS[name](quick=True, executor=executor)
        events = Simulator.events_total - before
        digest = hashlib.sha256(result.render().encode()).hexdigest()[:16]
        assert (events, digest) == QUICK_GATE[name]
