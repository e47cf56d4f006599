"""Reliability: seqnum sessions, retransmission, and loss injection on the
wire — including the pull protocol's §III-B timeout path."""

import pytest

from repro import build_testbed
from repro.core.reliability import MAX_RETRIES, RxSession, TxSession
from repro.ethernet.link import LossInjector
from repro.mx.wire import EndpointAddr, MxPacket, PktType
from repro.simkernel import Simulator
from repro.units import KiB, MiB, us

A = EndpointAddr(1, 0)
B = EndpointAddr(2, 0)


def mkpkt(ptype=PktType.SMALL):
    return MxPacket(ptype=ptype, src=A, dst=B)


class TestTxSession:
    def test_stamp_assigns_increasing_seqnums(self):
        sim = Simulator()
        tx = TxSession(sim, B, resend=lambda p: None, timeout=us(100),
                       backoff_seed=f"backoff:{B}")
        seqs = [tx.stamp(mkpkt()) for _ in range(4)]
        assert seqs == [0, 1, 2, 3]
        assert len(tx.pending) == 4

    def test_cumulative_ack_clears_prefix(self):
        sim = Simulator()
        tx = TxSession(sim, B, resend=lambda p: None, timeout=us(100),
                       backoff_seed=f"backoff:{B}")
        for _ in range(4):
            tx.stamp(mkpkt())
        tx.on_ack(2)
        assert sorted(tx.pending) == [3]

    def test_retransmit_fires_until_acked(self):
        sim = Simulator()
        resent = []
        tx = TxSession(sim, B, resend=resent.append, timeout=us(50),
                       backoff_seed=f"backoff:{B}")
        pkt = mkpkt()
        tx.stamp(pkt)
        sim.run(until=us(120))
        assert len(resent) >= 1
        tx.on_ack(0)
        n = len(resent)
        sim.run(until=us(500))
        assert len(resent) == n  # no more after the ack

    def test_gives_up_after_max_retries(self):
        sim = Simulator()
        tx = TxSession(sim, B, resend=lambda p: None, timeout=us(10),
                       backoff_seed=f"backoff:{B}")
        pkt = mkpkt()
        tx.stamp(pkt)
        sim.run(until=us(10) * (MAX_RETRIES + 5))
        assert pkt in tx.dead
        assert not tx.pending

    def test_watch_ack_fires_on_ack(self):
        sim = Simulator()
        tx = TxSession(sim, B, resend=lambda p: None, timeout=us(100),
                       backoff_seed=f"backoff:{B}")
        tx.stamp(mkpkt())
        fired = []
        tx.watch_ack(0, lambda: fired.append(sim.now))
        assert not fired
        tx.on_ack(0)
        assert fired

    def test_watch_ack_immediate_when_already_acked(self):
        sim = Simulator()
        tx = TxSession(sim, B, resend=lambda p: None, timeout=us(100),
                       backoff_seed=f"backoff:{B}")
        tx.stamp(mkpkt())
        tx.on_ack(0)
        fired = []
        tx.watch_ack(0, lambda: fired.append(True))
        assert fired


class TestRxSession:
    def _rx(self, sim):
        acks = []
        rx = RxSession(sim, B, A, lambda o, p, c: acks.append((o, p, c)))
        return rx, acks

    def test_accepts_new_rejects_duplicate(self):
        sim = Simulator()
        rx, _ = self._rx(sim)
        pkt = mkpkt()
        pkt.seqnum = 0
        assert rx.accept(pkt)
        assert not rx.accept(pkt)
        assert rx.duplicates == 1

    def test_cumulative_advances_in_order(self):
        sim = Simulator()
        rx, _ = self._rx(sim)
        for seq in (0, 1, 2):
            p = mkpkt()
            p.seqnum = seq
            rx.accept(p)
        assert rx.cumulative == 2

    def test_out_of_order_held_until_gap_fills(self):
        sim = Simulator()
        rx, _ = self._rx(sim)
        p2 = mkpkt(); p2.seqnum = 2
        p0 = mkpkt(); p0.seqnum = 0
        p1 = mkpkt(); p1.seqnum = 1
        assert rx.accept(p2)
        assert rx.cumulative == -1
        rx.accept(p0)
        assert rx.cumulative == 0
        rx.accept(p1)
        assert rx.cumulative == 2

    def test_unsequenced_packets_always_accepted(self):
        sim = Simulator()
        rx, _ = self._rx(sim)
        pull = mkpkt(PktType.PULL_REPLY)  # seqnum stays -1
        assert rx.accept(pull)
        assert rx.accept(pull)

    def test_delayed_ack_emitted(self):
        sim = Simulator()
        rx, acks = self._rx(sim)
        p = mkpkt(); p.seqnum = 0
        rx.accept(p)
        sim.run(until=us(100))
        assert acks and acks[0] == (B, A, 0)


def _transfer_with_loss(size, drop_indices, direction_a2b=True, **omx):
    """One message node0 -> node1 with selected frames dropped."""
    tb = build_testbed(**omx)
    injector = LossInjector(drop_indices=drop_indices)
    tb.link.inject_fault(direction_a2b, injector)
    ep0 = tb.open_endpoint(0, 0)
    ep1 = tb.open_endpoint(1, 0)
    c0, c1 = tb.user_core(0), tb.user_core(1)
    sbuf = ep0.space.alloc(max(size, 1))
    rbuf = ep1.space.alloc(max(size, 1), fill=0)
    sbuf.fill_pattern(13)
    done = tb.sim.event()

    def sender():
        req = yield from ep0.isend(c0, ep1.addr, 0x3, sbuf, 0, size)
        yield from ep0.wait(c0, req)

    def receiver():
        req = yield from ep1.irecv(c1, 0x3, ~0, rbuf, 0, size)
        yield from ep1.wait(c1, req)
        done.succeed()

    tb.sim.process(sender())
    tb.sim.process(receiver())
    tb.sim.run_until(done, max_events=30_000_000)
    assert injector.dropped == len(drop_indices)
    return tb, bytes(sbuf.read(0, size)), bytes(rbuf.read(0, size))


class TestLossRecovery:
    def test_lost_small_message_retransmitted(self):
        tb, sent, got = _transfer_with_loss(64, {0})
        assert got == sent
        tx = list(tb.stacks[0].driver._tx_sessions.values())[0]
        assert tx.retransmissions >= 1

    def test_lost_medium_fragment_retransmitted(self):
        # Drop the 2nd of 4 medium fragments.
        tb, sent, got = _transfer_with_loss(16 * KiB, {1})
        assert got == sent

    def test_lost_rndv_recovered(self):
        tb, sent, got = _transfer_with_loss(256 * KiB, {0})  # frame 0 = RNDV
        assert got == sent

    def test_lost_pull_reply_recovered_by_watchdog(self):
        # Frames 1.. are pull replies; drop a couple of them.
        tb, sent, got = _transfer_with_loss(256 * KiB, {3, 7})
        assert got == sent
        driver = tb.stacks[1].driver
        assert driver.pull_replies_rx >= 32  # 256 KiB / 8 KiB fragments

    def test_lost_pull_reply_with_ioat_recovered(self):
        tb, sent, got = _transfer_with_loss(256 * KiB, {4}, ioat_enabled=True)
        assert got == sent

    def test_lost_pull_request_recovered(self):
        # Drop an early frame on the reverse direction (receiver -> sender):
        # that's a PULL_REQ; the pull watchdog must re-issue it.
        tb = build_testbed()
        injector = LossInjector(drop_indices={1})
        tb.link.inject_fault(False, injector)  # b_to_a carries PULL_REQs
        ep0 = tb.open_endpoint(0, 0)
        ep1 = tb.open_endpoint(1, 0)
        c0, c1 = tb.user_core(0), tb.user_core(1)
        size = 256 * KiB
        sbuf = ep0.space.alloc(size)
        rbuf = ep1.space.alloc(size, fill=0)
        sbuf.fill_pattern(5)
        done = tb.sim.event()

        def sender():
            req = yield from ep0.isend(c0, ep1.addr, 0x3, sbuf, 0, size)
            yield from ep0.wait(c0, req)

        def receiver():
            req = yield from ep1.irecv(c1, 0x3, ~0, rbuf, 0, size)
            yield from ep1.wait(c1, req)
            done.succeed()

        tb.sim.process(sender())
        tb.sim.process(receiver())
        tb.sim.run_until(done, max_events=30_000_000)
        assert bytes(rbuf.read()) == bytes(sbuf.read())

    def test_heavy_loss_still_delivers(self):
        # Drop every 9th frame in the data direction.
        tb = build_testbed()
        injector = LossInjector(predicate=lambda f, i: i % 9 == 4)
        tb.link.inject_fault(True, injector)
        ep0 = tb.open_endpoint(0, 0)
        ep1 = tb.open_endpoint(1, 0)
        c0, c1 = tb.user_core(0), tb.user_core(1)
        size = 1 * MiB
        sbuf = ep0.space.alloc(size)
        rbuf = ep1.space.alloc(size, fill=0)
        sbuf.fill_pattern(9)
        done = tb.sim.event()

        def sender():
            req = yield from ep0.isend(c0, ep1.addr, 0x3, sbuf, 0, size)
            yield from ep0.wait(c0, req)

        def receiver():
            req = yield from ep1.irecv(c1, 0x3, ~0, rbuf, 0, size)
            yield from ep1.wait(c1, req)
            done.succeed()

        tb.sim.process(sender())
        tb.sim.process(receiver())
        tb.sim.run_until(done, max_events=60_000_000)
        assert bytes(rbuf.read()) == bytes(sbuf.read())
        assert injector.dropped > 10

    def test_no_skbuff_leak_under_loss(self):
        tb, sent, got = _transfer_with_loss(512 * KiB, {2, 5, 9}, ioat_enabled=True)
        tb.sim.run(until=tb.sim.now + 5_000_000)
        for host in tb.hosts:
            assert host.skb_pool.outstanding == host.platform.nic.rx_ring_size
