"""Tests for the typed metrics registry and the registry-backed counters."""

import json

import pytest

from repro import build_testbed
from repro.core.counters import collect_counters, render_counters
from repro.obs.registry import Histogram, MetricsRegistry
from repro.units import KiB, MiB

pytestmark = pytest.mark.obs


#: the counter key set the hand-maintained collect_counters emitted before
#: the registry existed, less its host wall-clock entry — the
#: backward-compatibility contract
PRE_REGISTRY_KEYS = frozenset({
    "sim_events_processed",
    "nic_tx_frames", "nic_rx_frames", "nic_rx_dropped", "nic_rx_crc_errors",
    "softirq_packets", "softirq_batches",
    "eager_rx", "pull_replies_rx", "eager_ring_drops",
    "active_pulls", "active_large_sends",
    "retransmissions", "duplicates_filtered", "reacks", "dead_letters",
    "pull_retransmits", "pull_aborts", "requests_failed",
    "offload_frags_dma", "offload_frags_memcpy", "offload_cleanups",
    "offload_skbuffs_reaped", "offload_starvation_fallbacks",
    "offload_fallback_copies",
    "ioat_bytes_copied", "ioat_descriptors", "ioat_descriptors_failed",
    "cpu_bytes_copied",
    "regcache_hits", "regcache_misses", "pin_calls", "pages_pinned",
    "shm_eager", "shm_large", "shm_ioat_copies",
    "skbuffs_outstanding", "skbuffs_peak",
})


def run_traffic(tb, size):
    ep0, ep1 = tb.open_endpoint(0, 0), tb.open_endpoint(1, 0)
    c0, c1 = tb.user_core(0), tb.user_core(1)
    sbuf = ep0.space.alloc(size)
    rbuf = ep1.space.alloc(size)
    sbuf.fill_pattern(1)
    done = tb.sim.event()

    def sender():
        req = yield from ep0.isend(c0, ep1.addr, 1, sbuf)
        yield from ep0.wait(c0, req)

    def receiver():
        req = yield from ep1.irecv(c1, 1, ~0, rbuf)
        yield from ep1.wait(c1, req)
        done.succeed()

    tb.sim.process(sender())
    tb.sim.process(receiver())
    tb.sim.run_until(done, max_events=30_000_000)


class TestRegistry:
    def test_counter_reads_lazily(self):
        reg = MetricsRegistry()
        box = {"n": 0}
        reg.counter("c", "my_counter", lambda: box["n"])
        assert reg.snapshot()["my_counter"] == 0
        box["n"] = 7
        assert reg.snapshot()["my_counter"] == 7

    def test_every_registered_metric_appears_in_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("a", "one", lambda: 1)
        reg.gauge("b", "two", lambda: 2)
        reg.histogram("c", "sizes")
        snap = reg.snapshot()
        assert set(snap) == set(reg.snapshot_names())
        assert set(snap) == {"one", "two", "sizes_count", "sizes_sum"}

    def test_reregistration_replaces(self):
        reg = MetricsRegistry()
        reg.counter("a", "x", lambda: 1)
        reg.counter("a", "x", lambda: 2)
        assert len(reg) == 1
        assert reg.snapshot()["x"] == 2

    def test_component_filter_and_listing(self):
        reg = MetricsRegistry()
        reg.counter("nic", "rx", lambda: 3)
        reg.counter("omx", "tx", lambda: 4)
        assert reg.components() == ["nic", "omx"]
        assert reg.snapshot(component="nic") == {"rx": 3}


class TestHistogram:
    def test_power_of_two_buckets(self):
        h = Histogram("sizes")
        for v in (0, 1, 2, 3, 4, 1000):
            h.observe(v)
        assert h.count == 6
        assert h.sum == 1010
        assert h.buckets[0] == 1   # the 0
        assert h.buckets[1] == 1   # the 1
        assert h.buckets[2] == 1   # the 2
        assert h.buckets[4] == 2   # 3 and 4
        assert h.buckets[1024] == 1
        assert h.mean() == pytest.approx(1010 / 6)

    def test_snapshot_flattening_via_registry(self):
        reg = MetricsRegistry()
        h = reg.histogram("omx", "pull_bytes")
        h.observe(8 * KiB)
        h.observe(8 * KiB)
        snap = reg.snapshot()
        assert snap["pull_bytes_count"] == 2
        assert snap["pull_bytes_sum"] == 16 * KiB
        assert reg.get_histogram("pull_bytes") is h


class TestCollectCounters:
    def test_keys_superset_of_pre_registry_set(self):
        tb = build_testbed(ioat_enabled=True)
        run_traffic(tb, 1 * MiB)
        for stack in tb.stacks:
            missing = PRE_REGISTRY_KEYS - set(collect_counters(stack))
            assert not missing, f"registry lost historical keys: {sorted(missing)}"

    def test_every_host_registration_is_collected(self):
        # The satellite contract: a counter registered by any component is
        # in the collect_counters dump, with no hand-maintained scrape list
        # to forget it.
        tb = build_testbed(ioat_enabled=True)
        run_traffic(tb, 256 * KiB)
        for stack in tb.stacks:
            snap = collect_counters(stack)
            assert set(snap) == set(stack.host.metrics.snapshot_names())

    def test_values_track_components(self):
        tb = build_testbed(ioat_enabled=True)
        run_traffic(tb, 1 * MiB)
        rx = collect_counters(tb.stacks[1])
        host = tb.hosts[1]
        assert rx["pull_replies_rx"] == tb.stacks[1].driver.pull_replies_rx
        assert rx["ioat_bytes_copied"] == host.ioat_engine.bytes_copied
        assert rx["pull_bytes_count"] == 1
        assert rx["pull_bytes_sum"] == 1 * MiB

    def test_new_subsystem_counters_present(self):
        # keys that exist only because the registry collects them
        tb = build_testbed(ioat_enabled=True)
        run_traffic(tb, 1 * MiB)
        rx = collect_counters(tb.stacks[1])
        assert "trace_dropped_spans" in rx
        assert "ioat_ch0_busy_ticks" in rx
        assert "softirq_unhandled" in rx

    def test_render_still_printable(self):
        tb = build_testbed()
        run_traffic(tb, 64 * KiB)
        text = render_counters(tb.stacks[1])
        assert "pull_replies_rx" in text
        assert "omx_counters" in text


def test_cli_diff_prints_changed_key(tmp_path, capsys):
    """``repro-obs diff`` exits 0 and names the numeric leaf that moved."""
    from repro.obs.cli import main

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"run": {"mib_s": 1.5, "events": 10}}))
    b.write_text(json.dumps({"run": {"mib_s": 2.0, "events": 10}}))
    assert main(["diff", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "run.mib_s: 1.5 -> 2" in out
    assert "run.events" not in out
    assert "1 differing value(s)" in out
