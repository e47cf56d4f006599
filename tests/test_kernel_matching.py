"""Tests for the §VI in-kernel matching extension."""

import pytest

from repro import build_testbed
from repro.imb import run_imb
from repro.mpi import create_world
from repro.units import KiB, MiB


def transfer(tb, size, delay_recv=0, match=0x5):
    ep0, ep1 = tb.open_endpoint(0, 0), tb.open_endpoint(1, 0)
    c0, c1 = tb.user_core(0), tb.user_core(1)
    sbuf = ep0.space.alloc(max(size, 1))
    rbuf = ep1.space.alloc(max(size, 1), fill=0)
    sbuf.fill_pattern(size & 0xFF)
    done = tb.sim.event()

    def sender():
        req = yield from ep0.isend(c0, ep1.addr, match, sbuf, 0, size)
        yield from ep0.wait(c0, req)

    def receiver():
        if delay_recv:
            yield tb.sim.timeout(delay_recv)
        req = yield from ep1.irecv(c1, match, ~0, rbuf, 0, size)
        yield from ep1.wait(c1, req)
        done.succeed()

    tb.sim.process(sender())
    tb.sim.process(receiver())
    tb.sim.run_until(done, max_events=30_000_000)
    return sbuf, rbuf


class TestKernelMatching:
    @pytest.mark.parametrize("size", [1, 128, 4 * KiB, 16 * KiB, 32 * KiB])
    def test_posted_recv_delivers_via_kernel(self, size):
        tb = build_testbed(kernel_matching=True)
        sbuf, rbuf = transfer(tb, size)
        assert bytes(rbuf.read(0, size)) == bytes(sbuf.read(0, size))
        km = tb.stacks[1].driver.kmatch
        assert km.kernel_matches == 1

    def test_unexpected_falls_back_to_classic_path(self, ):
        tb = build_testbed(kernel_matching=True)
        sbuf, rbuf = transfer(tb, 16 * KiB, delay_recv=2_000_000)
        assert bytes(rbuf.read()) == bytes(sbuf.read())
        km = tb.stacks[1].driver.kmatch
        assert km.kernel_matches == 0
        assert km.fallbacks >= 1

    def test_large_messages_unchanged(self):
        tb = build_testbed(kernel_matching=True, ioat_enabled=True)
        sbuf, rbuf = transfer(tb, 1 * MiB)
        assert bytes(rbuf.read()) == bytes(sbuf.read())
        # rendezvous path, not kernel eager matching
        assert tb.stacks[1].driver.kmatch.kernel_matches == 0

    def test_single_event_per_medium_message(self):
        """The point of the rework: one completion event, not one per frag."""
        tb = build_testbed(kernel_matching=True)
        ep1_events = []
        sbuf, rbuf = transfer(tb, 32 * KiB)  # 8 medium fragments
        # The driver consumed the fragments; the library saw no EAGER_FRAG
        # events for them (only the single completion).
        d = tb.stacks[1].driver
        assert d.kmatch.kernel_matches == 1
        assert d.eager_rx == 8  # all fragments arrived
        ep = d.endpoints[0]
        assert ep.ring.free_slots == ep.ring.nslots  # ring never used

    def test_overlapped_medium_copies_with_ioat(self):
        tb = build_testbed(kernel_matching=True, ioat_enabled=True)
        sbuf, rbuf = transfer(tb, 32 * KiB)
        assert bytes(rbuf.read()) == bytes(sbuf.read())
        assert tb.stacks[1].driver.kmatch.frags_offloaded >= 1

    def test_medium_stream_improves(self):
        """Kernel matching + offload lifts the medium range the paper could
        not improve (16-32 kB): higher throughput, far lower BH load."""
        from repro.workloads import run_stream_usage

        def stream(**omx):
            tb = build_testbed(**omx)
            return run_stream_usage(tb, 32 * KiB, iterations=12, warmup=3)

        classic = stream(ioat_enabled=True)
        kernel = stream(ioat_enabled=True, kernel_matching=True)
        assert kernel.throughput_mib_s > 1.05 * classic.throughput_mib_s
        # The BH no longer performs the medium copies synchronously...
        assert kernel.bh_pct < classic.bh_pct - 15
        # ...and the library's second copy is gone entirely.
        assert kernel.user_pct < classic.user_pct / 3

    def test_mixed_matched_and_unexpected(self):
        """Two messages: one kernel-matched, one unexpected-then-claimed."""
        tb = build_testbed(kernel_matching=True)
        ep0, ep1 = tb.open_endpoint(0, 0), tb.open_endpoint(1, 0)
        c0, c1 = tb.user_core(0), tb.user_core(1)
        a_s = ep0.space.alloc(8 * KiB)
        b_s = ep0.space.alloc(8 * KiB)
        a_s.fill_pattern(1)
        b_s.fill_pattern(2)
        a_r = ep1.space.alloc(8 * KiB, fill=0)
        b_r = ep1.space.alloc(8 * KiB, fill=0)
        done = tb.sim.event()

        def sender():
            r1 = yield from ep0.isend(c0, ep1.addr, 0xA, a_s)
            yield from ep0.wait(c0, r1)
            r2 = yield from ep0.isend(c0, ep1.addr, 0xB, b_s)
            yield from ep0.wait(c0, r2)

        def receiver():
            ra = yield from ep1.irecv(c1, 0xA, ~0, a_r)  # pre-posted
            yield from ep1.wait(c1, ra)
            yield tb.sim.timeout(1_000_000)              # let 0xB arrive
            rb = yield from ep1.irecv(c1, 0xB, ~0, b_r)  # claimed late
            yield from ep1.wait(c1, rb)
            done.succeed()

        tb.sim.process(sender())
        tb.sim.process(receiver())
        tb.sim.run_until(done, max_events=30_000_000)
        assert bytes(a_r.read()) == bytes(a_s.read())
        assert bytes(b_r.read()) == bytes(b_s.read())

    def test_no_skbuff_leak(self):
        tb = build_testbed(kernel_matching=True, ioat_enabled=True)
        transfer(tb, 32 * KiB)
        tb.sim.run(until=tb.sim.now + 2_000_000)
        for host in tb.hosts:
            assert host.skb_pool.outstanding == host.platform.nic.rx_ring_size

    def test_dead_channels_are_not_offloaded_to(self):
        """Kernel-matched fragments pass the offload manager's channel and
        breaker gates: with every receiver I/OAT channel failed, nothing is
        submitted to them and nothing has to be healed."""
        tb = build_testbed(kernel_matching=True, ioat_enabled=True)
        for channel in tb.hosts[1].ioat_engine.channels:
            channel.fail("dead before the transfer")  # noqa: HLT001
        sbuf, rbuf = transfer(tb, 32 * KiB)
        tb.sim.run()
        assert bytes(rbuf.read()) == bytes(sbuf.read())
        snap = tb.hosts[1].metrics.snapshot()
        assert snap["kmatch_frags_offloaded"] == 0
        # the breaker's one recovery probe copy is the only DMA submitted
        assert snap["ioat_descriptors_failed"] == 1
        assert snap["offload_fallback_copies"] == 0
