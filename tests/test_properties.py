"""Property-based tests (hypothesis) on protocol invariants."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import build_testbed
from repro.core.pull import PullHandle
from repro.core.reliability import RxSession
from repro.core.types import EagerRing
from repro.core.offload import MessageOffloadState
from repro.memory.buffers import AddressSpace
from repro.mx.wire import EndpointAddr, MxPacket, PktType
from repro.simkernel import Simulator
from repro.units import KiB

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _transfer(size: int, src_off: int, dst_off: int, drops=frozenset()):
    """One transfer through the full stack; returns (sent, received)."""
    from repro.ethernet.link import LossInjector

    tb = build_testbed(ioat_enabled=True)
    if drops:
        tb.link.inject_fault(True, LossInjector(drop_indices=set(drops)))
    ep0, ep1 = tb.open_endpoint(0, 0), tb.open_endpoint(1, 0)
    c0, c1 = tb.user_core(0), tb.user_core(1)
    sbuf = ep0.space.alloc(src_off + max(size, 1))
    rbuf = ep1.space.alloc(dst_off + max(size, 1), fill=0)
    sbuf.fill_pattern(size & 0xFF)
    done = tb.sim.event()

    def sender():
        req = yield from ep0.isend(c0, ep1.addr, 0x5, sbuf, src_off, size)
        yield from ep0.wait(c0, req)

    def receiver():
        req = yield from ep1.irecv(c1, 0x5, ~0, rbuf, dst_off, size)
        yield from ep1.wait(c1, req)
        done.succeed()

    tb.sim.process(sender())
    tb.sim.process(receiver())
    tb.sim.run_until(done, max_events=40_000_000)
    return bytes(sbuf.read(src_off, size)), bytes(rbuf.read(dst_off, size))


class TestEndToEndIntegrity:
    @SLOW
    @given(
        size=st.integers(min_value=1, max_value=300_000),
        src_off=st.integers(min_value=0, max_value=4097),
        dst_off=st.integers(min_value=0, max_value=4097),
    )
    def test_any_size_and_offset_delivered(self, size, src_off, dst_off):
        """Arbitrary sizes spanning all message classes, arbitrary buffer
        alignment: the receiver always observes exactly the sent bytes."""
        sent, got = _transfer(size, src_off, dst_off)
        assert got == sent

    @SLOW
    @given(
        size=st.integers(min_value=70_000, max_value=400_000),
        drops=st.sets(st.integers(min_value=0, max_value=30), max_size=4),
    )
    def test_large_transfer_survives_any_loss_pattern(self, size, drops):
        """Dropping any small subset of the first frames (RNDV, pull
        replies...) never corrupts or loses a large message."""
        sent, got = _transfer(size, 0, 0, drops=frozenset(drops))
        assert got == sent


class TestEagerRingInvariant:
    @given(ops=st.lists(st.integers(min_value=0, max_value=1), max_size=200))
    def test_free_plus_busy_constant(self, ops):
        ring = EagerRing(AddressSpace(), nslots=8, slot_size=64)
        held = []
        for op in ops:
            if op == 0:
                slot = ring.acquire_slot()
                if slot is not None:
                    held.append(slot)
            elif held:
                ring.release_slot(held.pop())
            assert ring.free_slots + len(held) == 8
        # All slots distinct while held.
        assert len(set(held)) == len(held)

    def test_double_release_rejected(self):
        ring = EagerRing(AddressSpace(), nslots=2, slot_size=64)
        s = ring.acquire_slot()
        ring.release_slot(s)
        with pytest.raises(ValueError):
            ring.release_slot(s)


class TestPullGeometry:
    @settings(deadline=None)
    @given(
        total=st.integers(min_value=1, max_value=5_000_000),
        block=st.integers(min_value=1024, max_value=200_000),
    )
    def test_blocks_partition_message(self, total, block):
        handle = PullHandle(
            handle_id=0, req=None, peer=EndpointAddr(1, 0), msg_id=0,
            total=total, block_bytes=block,
            offload=None, pinned=None,
        )
        assert sum(b.length for b in handle.blocks) == total
        offsets = [b.offset for b in handle.blocks]
        assert offsets == sorted(offsets)
        for b in handle.blocks:
            assert 0 < b.length <= block
        # block_of maps every byte-offset to the right block
        for b in handle.blocks:
            assert handle.block_of(b.offset) is b
            assert handle.block_of(b.offset + b.length - 1) is b

    @settings(deadline=None)
    @given(
        frag=st.integers(min_value=256, max_value=9000),
        total=st.integers(min_value=1, max_value=500_000),
    )
    def test_duplicate_fragments_counted_once(self, frag, total):
        handle = PullHandle(
            handle_id=0, req=None, peer=EndpointAddr(1, 0), msg_id=0,
            total=total, block_bytes=64 * KiB, offload=None, pinned=None,
        )
        pos = 0
        while pos < total:
            n = min(frag, total - pos)
            assert handle.note_fragment(pos, n, now=1)
            assert not handle.note_fragment(pos, n, now=2)  # duplicate
            pos += n
        assert handle.complete
        assert handle.received == total


class TestRxSessionProperty:
    @given(
        order=st.permutations(list(range(12))),
        dup=st.lists(st.integers(min_value=0, max_value=11), max_size=6),
    )
    def test_any_arrival_order_delivers_each_once(self, order, dup):
        sim = Simulator()
        rx = RxSession(sim, EndpointAddr(1, 0), EndpointAddr(2, 0),
                       lambda o, p, c: None)
        delivered = []
        for seq in list(order) + list(dup):
            pkt = MxPacket(ptype=PktType.SMALL, src=EndpointAddr(2, 0),
                           dst=EndpointAddr(1, 0))
            pkt.seqnum = seq
            if rx.accept(pkt):
                delivered.append(seq)
        assert sorted(delivered) == list(range(12))
        assert rx.cumulative == 11
