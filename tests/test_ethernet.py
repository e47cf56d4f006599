"""Tests for the Ethernet substrate: frames, skbuffs, link, NIC, softirq."""

import pytest

from repro import build_testbed
from repro.ethernet.frame import ETHERTYPE_MX, EthernetFrame, frames_needed
from repro.ethernet.link import DELIVER, Link, LossInjector
from repro.imb import run_imb
from repro.ethernet.nic import Nic
from repro.ethernet.skbuff import SkbuffPool
from repro.memory.buffers import AddressSpace
from repro.memory.bus import MemoryBus
from repro.memory.cache import CacheDirectory
from repro.mpi import create_world
from repro.params import CacheParams, HostParams, NicParams
from repro.simkernel import Simulator
from repro.simkernel.tiebreak import FifoTieBreak, default_tiebreak
from repro import units
from repro.units import KiB, MiB


def frame(n=1000, src=1, dst=2):
    return EthernetFrame(src_mac=src, dst_mac=dst, ethertype=ETHERTYPE_MX,
                         payload=None, payload_len=n)


class TestFrameMath:
    def test_wire_len_includes_overheads(self):
        f = frame(1000)
        assert f.frame_len == 1014
        assert f.wire_len == 1014 + units.ETHERNET_WIRE_OVERHEAD

    def test_minimum_frame_padding(self):
        f = frame(1)
        assert f.frame_len == units.ETHERNET_HEADER_LEN + 46

    def test_serialization_time_at_line_rate(self):
        f = frame(8192)
        t = f.serialization_time(units.TEN_GBE_BYTES_PER_SECOND)
        # 8230 wire bytes at 1244 MB/s ~ 6.6 us
        assert 6000 < t < 7200

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            frame(-1)

    def test_frames_needed(self):
        assert frames_needed(0, 9000, 32) == 1
        assert frames_needed(8968, 9000, 32) == 1
        assert frames_needed(8969, 9000, 32) == 2
        with pytest.raises(ValueError):
            frames_needed(10, 32, 32)


class TestSkbuffPool:
    def test_alloc_free_accounting(self):
        pool = SkbuffPool(AddressSpace())
        a = pool.alloc_rx()
        b = pool.alloc_tx()
        assert pool.outstanding == 2
        a.free()
        b.free()
        assert pool.outstanding == 0
        assert pool.peak_outstanding == 2

    def test_double_free_rejected(self):
        pool = SkbuffPool(AddressSpace())
        skb = pool.alloc_rx()
        skb.free()
        with pytest.raises(RuntimeError):
            skb.free()

    def test_rx_pages_recycled(self):
        pool = SkbuffPool(AddressSpace())
        a = pool.alloc_rx()
        region = a.head
        a.free()
        b = pool.alloc_rx()  # noqa: SKB001 (pool unit test; deliberately left live)
        assert b.head is region

    def test_frag_attach_zero_copy(self):
        pool = SkbuffPool(AddressSpace())
        skb = pool.alloc_tx()  # noqa: SKB001 (pool unit test; deliberately left live)
        user = AddressSpace().alloc(8 * KiB)
        skb.add_frag(user, 100, 4000)
        assert skb.total_len == 4000
        with pytest.raises(ValueError):
            skb.add_frag(user, 0, 0)


def make_wired_pair():
    sim = Simulator()
    hp = HostParams()
    np_ = NicParams()
    caches = CacheDirectory(CacheParams(), 4)
    pools = [SkbuffPool(AddressSpace()) for _ in range(2)]
    buses = [MemoryBus(sim, hp.bus) for _ in range(2)]
    nics = [
        Nic(sim, np_, mac=i + 1, pool=pools[i], bus=buses[i], caches=caches)
        for i in range(2)
    ]
    link = Link(sim, np_.link_bw, np_.propagation_delay)
    link.attach(nics[0], nics[1])
    return sim, nics, link


class TestLink:
    def test_frames_serialize_in_fifo_order(self):
        sim, nics, link = make_wired_pair()
        arrivals = []
        nics[1].frame_sink = lambda f: arrivals.append((f.payload, sim.now))

        def tx():
            for i in range(3):
                f = frame(4000)
                f.payload = i
                yield from link.a_to_b.transmit(f)

        sim.run_until(sim.process(tx()))
        sim.run()
        assert [a[0] for a in arrivals] == [0, 1, 2]
        assert arrivals[0][1] < arrivals[1][1] < arrivals[2][1]

    def test_directions_are_independent(self):
        sim, nics, link = make_wired_pair()
        got = []
        nics[0].frame_sink = lambda f: got.append(("a", sim.now))
        nics[1].frame_sink = lambda f: got.append(("b", sim.now))

        def both():
            p1 = sim.process(link.a_to_b.transmit(frame(9000)))
            p2 = sim.process(link.b_to_a.transmit(frame(9000)))
            yield p1
            yield p2

        sim.run_until(sim.process(both()))
        sim.run()
        # Full duplex: both arrive at essentially the same time.
        assert len(got) == 2
        assert abs(got[0][1] - got[1][1]) < 100

    def test_loss_injector_counts(self):
        sim, nics, link = make_wired_pair()
        got = []
        nics[1].frame_sink = lambda f: got.append(f)
        inj = LossInjector(drop_indices={1})
        link.inject_fault(True, inj)

        def tx():
            for _ in range(3):
                yield from link.a_to_b.transmit(frame(100))

        sim.run_until(sim.process(tx()))
        sim.run()
        assert len(got) == 2
        assert inj.dropped == 1


class _PassThrough:
    """A fault hook that delivers every frame and counts what it saw."""

    def __init__(self):
        self.seen = 0

    def on_frame(self, frame, index, now):
        assert index == self.seen
        self.seen += 1
        return DELIVER


def _pingpong(size, hooked=False):
    """IMB PingPong on the I/OAT testbed; returns what it observed, the
    testbed and the pass-through hooks armed on both wire directions."""
    tb = build_testbed(ioat_enabled=True)
    hooks = []
    if hooked:
        for a2b in (True, False):
            hooks.append(_PassThrough())
            tb.link.inject_fault(a2b, hooks[-1])
    res = run_imb(tb, create_world(tb, ppn=1), "PingPong", size,
                  iterations=3, warmup=1)
    seen = (tb.sim.events_processed, tb.sim.now, res.mib_s,
            {h.name: h.metrics.snapshot() for h in tb.hosts})
    return seen, tb, hooks


class TestOneFramePath:
    @pytest.mark.parametrize("size", [4 * KiB, 1 * MiB])
    def test_hooks_and_policies_never_move_a_schedule(self, size):
        """Every frame takes one path whatever watches it: a pass-through
        hook on both directions, or the keyed FIFO policy, leaves events,
        clock, throughput and every host counter as in the plain run."""
        plain, _, _ = _pingpong(size)
        hooked, tb, hooks = _pingpong(size, hooked=True)
        with default_tiebreak(FifoTieBreak):
            keyed, _, _ = _pingpong(size)
        assert hooked == plain
        assert keyed == plain
        # the hook saw every frame each NIC put on its wire
        assert [h.seen for h in hooks] == [h.nic.tx_frames for h in tb.hosts]
        assert all(h.seen for h in hooks)


class TestNicRxRing:
    def test_ring_starts_full(self):
        sim, nics, link = make_wired_pair()
        assert len(nics[0]._rx_ring) == NicParams().rx_ring_size

    def test_frames_dropped_when_ring_empty(self):
        sim, nics, link = make_wired_pair()
        nics[1]._rx_ring.clear()
        nics[1].on_frame(frame(100))
        assert nics[1].rx_dropped == 1

    def test_refill_replenishes(self):
        sim, nics, link = make_wired_pair()
        while len(nics[1]._rx_ring) > 3:
            nics[1]._rx_ring.pop()
        nics[1].refill()
        assert len(nics[1]._rx_ring) == NicParams().rx_ring_size

    def test_initial_fill_is_carved_from_one_region(self):
        """The initial ring's heads are subregions of one region, at the
        addresses back-to-back three-page allocations would give them:
        consecutive from the start of the host's kernel space."""
        tb = build_testbed()
        stride = 3 * units.PAGE_SIZE
        for host in tb.hosts:
            heads = [skb.head for skb in host.nic._rx_ring]
            assert len(heads) == NicParams().rx_ring_size
            parent = heads[0]._parent
            assert parent is not None
            assert all(h._parent is parent for h in heads)
            assert len(parent) == len(heads) * stride
            assert [(h.addr, len(h)) for h in heads] == [
                (host.kernel_space.base + i * stride, stride)
                for i in range(len(heads))]

    def test_dma_records_bus_and_invalidates_cache(self):
        sim, nics, link = make_wired_pair()

        class P:
            def gather_data(self):
                import numpy as np

                return np.ones(500, dtype=np.uint8)

        f = frame(500)
        f.payload = P()
        before = nics[1].bus.total_ingress
        nics[1].on_frame(f)
        assert nics[1].bus.total_ingress > before
        # queued for softirq is None here -> dropped but counted as rx
        assert nics[1].rx_frames == 1
