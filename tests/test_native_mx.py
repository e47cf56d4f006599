"""Tests for the native MX/MXoE baseline stack."""

import pytest

from repro import build_testbed
from repro.imb import run_imb
from repro.mpi import create_world
from repro.mx.native import match_accepts
from repro.units import KiB, MiB, TEN_GBE_LINE_RATE_MIB_S, throughput_mib_s


def mx_pair():
    tb = build_testbed(stacks="mx")
    ep0 = tb.open_endpoint(0, 0)
    ep1 = tb.open_endpoint(1, 0)
    return tb, ep0, ep1


def transfer(tb, ep0, ep1, size, match=0x1, delay_recv=0):
    c0, c1 = tb.user_core(0), tb.user_core(1)
    space0 = tb.hosts[0].user_space("s")
    space1 = tb.hosts[1].user_space("r")
    sbuf = space0.alloc(max(size, 1))
    rbuf = space1.alloc(max(size, 1), fill=0)
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
    tb.sim.run_until(done, max_events=20_000_000)
    return sbuf, rbuf


class TestNativeMx:
    @pytest.mark.parametrize("size", [0, 16, 4 * KiB, 32 * KiB])
    def test_eager_delivery(self, size):
        tb, ep0, ep1 = mx_pair()
        sbuf, rbuf = transfer(tb, ep0, ep1, size)
        assert bytes(rbuf.read(0, size)) == bytes(sbuf.read(0, size))

    @pytest.mark.parametrize("size", [33 * KiB, 256 * KiB, 2 * MiB])
    def test_rendezvous_delivery(self, size):
        tb, ep0, ep1 = mx_pair()
        sbuf, rbuf = transfer(tb, ep0, ep1, size)
        assert bytes(rbuf.read()) == bytes(sbuf.read())

    def test_unexpected_eager(self):
        tb, ep0, ep1 = mx_pair()
        sbuf, rbuf = transfer(tb, ep0, ep1, 4 * KiB, delay_recv=1_000_000)
        assert bytes(rbuf.read()) == bytes(sbuf.read())

    def test_unexpected_rendezvous(self):
        tb, ep0, ep1 = mx_pair()
        sbuf, rbuf = transfer(tb, ep0, ep1, 256 * KiB, delay_recv=1_000_000)
        assert bytes(rbuf.read()) == bytes(sbuf.read())

    def test_zero_copy_receive_no_host_cpu(self):
        """The firmware deposits directly: host cores stay nearly idle."""
        tb, ep0, ep1 = mx_pair()
        tb.hosts[1].cpus.reset_counters()
        transfer(tb, ep0, ep1, 1 * MiB)
        busy = tb.hosts[1].cpus.busy_by_category()
        # Only post + completion costs; no copy time anywhere.
        assert sum(busy.values()) < 10_000  # < 10 us total

    def test_large_throughput_near_line_rate(self):
        tb, ep0, ep1 = mx_pair()
        c0, c1 = tb.user_core(0), tb.user_core(1)
        size = 2 * MiB
        space0 = tb.hosts[0].user_space("s")
        space1 = tb.hosts[1].user_space("r")
        sbuf, rbuf = space0.alloc(size), space1.alloc(size)
        marks = []
        done = tb.sim.event()

        def sender():
            for _ in range(4):
                req = yield from ep0.isend(c0, ep1.addr, 1, sbuf, 0, size)
                yield from ep0.wait(c0, req)

        def receiver():
            for _ in range(4):
                req = yield from ep1.irecv(c1, 1, ~0, rbuf, 0, size)
                yield from ep1.wait(c1, req)
                marks.append(tb.sim.now)
            done.succeed()

        tb.sim.process(sender())
        tb.sim.process(receiver())
        tb.sim.run_until(done, max_events=20_000_000)
        mib_s = throughput_mib_s(size * 3, marks[-1] - marks[0])
        # Paper: ~1140 MiB/s (we accept 92 %+ of line rate).
        assert mib_s > 0.92 * TEN_GBE_LINE_RATE_MIB_S

    def test_local_loopback_delivery(self):
        """Two endpoints on the same native-MX host (NIC loopback)."""
        tb = build_testbed(stacks="mx")
        ep0 = tb.stacks[0].open_endpoint(0)
        ep1 = tb.stacks[0].open_endpoint(1)
        c0, c1 = tb.user_core(0, 0), tb.user_core(0, 1)
        space = tb.hosts[0].user_space("loop")
        sbuf = space.alloc(64 * KiB)
        rbuf = space.alloc(64 * KiB, fill=0)
        sbuf.fill_pattern(4)
        done = tb.sim.event()

        def sender():
            req = yield from ep0.isend(c0, ep1.addr, 2, sbuf)
            yield from ep0.wait(c0, req)

        def receiver():
            req = yield from ep1.irecv(c1, 2, ~0, rbuf)
            yield from ep1.wait(c1, req)
            done.succeed()

        tb.sim.process(sender())
        tb.sim.process(receiver())
        tb.sim.run_until(done, max_events=20_000_000)
        assert bytes(rbuf.read()) == bytes(sbuf.read())

    def test_match_rule(self):
        assert match_accepts(0xAA00, 0xFF00, 0xAA42)
        assert not match_accepts(0xAA00, 0xFF00, 0xBB42)
        assert match_accepts(0, 0, 12345)  # zero mask matches anything

    @pytest.mark.parametrize("iterations", [10, 40])
    def test_finished_eager_sends_are_freed(self, iterations):
        """An eager send completes locally and gets no NOTIFY, so its
        completion must drop it from the endpoint's ``sends``."""
        tb = build_testbed(stacks="mx")
        comm = create_world(tb)
        run_imb(tb, comm, "PingPong", 16, iterations=iterations)
        assert [len(r.endpoint.sends) for r in comm.ranks] == [0, 0]

    def test_duplicate_endpoint_rejected(self):
        tb = build_testbed(stacks="mx")
        tb.stacks[0].open_endpoint(0)
        with pytest.raises(ValueError):
            tb.stacks[0].open_endpoint(0)
