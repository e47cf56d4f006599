"""Tests for the I/OAT DMA engine model and its host API."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ioat import CopyDescriptor, DescriptorRing, DmaChannel, IoatDmaApi, IoatEngine
from repro.memory.buffers import AddressSpace
from repro.memory.cache import CacheDirectory
from repro.params import CacheParams, HostParams, IoatParams
from repro.simkernel import Simulator
from repro.simkernel.cpu import Core
from repro.units import GiB, KiB, PAGE_SIZE, SEC


@pytest.fixture
def space():
    return AddressSpace()


def make_engine(caches=None):
    sim = Simulator()
    params = IoatParams()
    engine = IoatEngine(sim, params, caches=caches)
    core = Core(sim, 0)
    api = IoatDmaApi(engine)
    return sim, params, engine, core, api


class TestDescriptorRing:
    def test_cookie_assignment_monotonic(self, space):
        ring = DescriptorRing(8)
        src, dst = space.alloc(PAGE_SIZE), space.alloc(PAGE_SIZE)
        c0 = ring.push(CopyDescriptor(src, 0, dst, 0, 100))
        c1 = ring.push(CopyDescriptor(src, 0, dst, 0, 100))
        assert (c0, c1) == (0, 1)

    def test_full_ring_raises(self, space):
        ring = DescriptorRing(1)
        src, dst = space.alloc(PAGE_SIZE), space.alloc(PAGE_SIZE)
        ring.push(CopyDescriptor(src, 0, dst, 0, 10))
        with pytest.raises(BufferError):
            ring.push(CopyDescriptor(src, 0, dst, 0, 10))

    def test_reap_only_completed_prefix(self, space):
        ring = DescriptorRing(8)
        src, dst = space.alloc(PAGE_SIZE), space.alloc(PAGE_SIZE)
        descs = [CopyDescriptor(src, 0, dst, 0, 10) for _ in range(3)]
        for d in descs:
            ring.push(d)
        descs[0].completed_at = 5
        descs[2].completed_at = 5  # out-of-order completion is impossible in
        # hardware, but the ring must still only reap the contiguous prefix
        reaped = ring.reap_completed()
        assert len(reaped) == 1 and reaped[0] is descs[0]
        assert ring.last_completed_cookie() == 0

    def test_descriptor_validation(self, space):
        src, dst = space.alloc(16), space.alloc(16)
        with pytest.raises(ValueError):
            CopyDescriptor(src, 0, dst, 0, 0)
        with pytest.raises(ValueError):
            CopyDescriptor(src, 8, dst, 0, 16)
        with pytest.raises(ValueError):
            CopyDescriptor(src, 0, dst, 8, 16)


class TestDmaChannel:
    def test_copy_moves_bytes_in_background(self, space):
        sim, params, engine, core, api = make_engine()
        src, dst = space.alloc(PAGE_SIZE), space.alloc(PAGE_SIZE)
        src.fill_pattern(1)
        ch = engine[0]
        cookie = ch.submit(CopyDescriptor(src, 0, dst, 0, PAGE_SIZE))
        assert not ch.is_complete(cookie)
        sim.run()
        assert ch.is_complete(cookie)
        assert bytes(dst.read()) == bytes(src.read())

    def test_in_order_completion(self, space):
        sim, params, engine, core, api = make_engine()
        ch = engine[0]
        src, dst = space.alloc(4 * PAGE_SIZE), space.alloc(4 * PAGE_SIZE)
        cookies = [
            ch.submit(CopyDescriptor(src, i * PAGE_SIZE, dst, i * PAGE_SIZE, PAGE_SIZE))
            for i in range(4)
        ]
        completed_order = []
        done = sim.event()

        def watcher():
            while len(completed_order) < 4:
                val = yield ch.wait_completion().wait()
                completed_order.append(val)
            done.succeed()

        sim.process(watcher())
        sim.run_until(done)
        assert completed_order == cookies

    def test_service_time_model(self):
        sim, params, engine, core, api = make_engine()
        ch = engine[0]
        t = ch.service_time(PAGE_SIZE)
        expected = params.per_descriptor_cost + round(PAGE_SIZE * SEC / params.engine_bw)
        assert t == expected

    def test_throughput_at_4k_chunks_matches_paper(self, space):
        """Paper §IV-A: I/OAT sustains ~2.4 GiB/s with 4 kB chunks."""
        sim, params, engine, core, api = make_engine()
        ch = engine[0]
        n = 256 * KiB
        src, dst = space.alloc(n), space.alloc(n)
        start = sim.now
        for i in range(n // PAGE_SIZE):
            ch.submit(CopyDescriptor(src, i * PAGE_SIZE, dst, i * PAGE_SIZE, PAGE_SIZE))
        sim.run()
        bw_gib = n * SEC / (sim.now - start) / GiB
        assert 2.2 < bw_gib < 2.6

    def test_throughput_at_256b_chunks_degrades(self, space):
        """Paper Fig. 7: 256 B chunks collapse I/OAT throughput (~0.4 GiB/s)."""
        sim, params, engine, core, api = make_engine()
        ch = engine[0]
        n = 64 * KiB
        src, dst = space.alloc(n), space.alloc(n)
        for i in range(n // 256):
            ch.submit(CopyDescriptor(src, i * 256, dst, i * 256, 256))
        sim.run()
        bw_gib = n * SEC / sim.now / GiB
        assert bw_gib < 0.5

    def test_dma_write_invalidates_caches(self, space):
        caches = CacheDirectory(CacheParams(), n_dies=2)
        sim, params, engine, core, api = make_engine(caches=caches)
        src, dst = space.alloc(PAGE_SIZE), space.alloc(PAGE_SIZE)
        caches[0].touch(dst.addr, PAGE_SIZE)
        engine[0].submit(CopyDescriptor(src, 0, dst, 0, PAGE_SIZE))
        sim.run()
        assert caches[0].residency(dst.addr, PAGE_SIZE) == 0.0


class TestIoatEngine:
    def test_round_robin_allocation(self):
        sim, params, engine, core, api = make_engine()
        picked = [engine.allocate_channel().index for _ in range(8)]
        assert picked == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_four_channels(self):
        _, params, engine, _, _ = make_engine()
        assert len(engine) == params.channels == 4


class TestIoatDmaApi:
    def test_submit_charges_cpu_per_descriptor(self, space):
        sim, params, engine, core, api = make_engine()
        n = 4 * PAGE_SIZE
        src, dst = space.alloc(n), space.alloc(n)

        def work():
            yield core.res.request()
            cookie = yield from api.submit_copy(core, src, 0, dst, 0, n, "bh")
            core.res.release()
            return cookie

        cookie = sim.run_until(sim.process(work()))
        assert cookie.n_descriptors == 4
        assert core.counters.by_category["bh"] == 4 * params.submit_cost

    def test_busy_wait_charges_wall_time(self, space):
        sim, params, engine, core, api = make_engine()
        n = 64 * KiB
        src, dst = space.alloc(n), space.alloc(n)
        src.fill_pattern(9)

        def work():
            yield core.res.request()
            cookie = yield from api.submit_copy(core, src, 0, dst, 0, n, "shm")
            t0 = sim.now
            yield from api.busy_wait(core, cookie, "shm")
            core.res.release()
            return sim.now - t0

        waited = sim.run_until(sim.process(work()))
        assert waited > 0
        # All waiting time was charged as busy CPU.
        assert core.counters.by_category["shm"] >= waited
        assert bytes(dst.read()) == bytes(src.read())

    def test_sleep_wait_releases_core(self, space):
        sim, params, engine, core, api = make_engine()
        n = 256 * KiB
        src, dst = space.alloc(n), space.alloc(n)
        stolen = []

        def thief():
            # A second process gets the core while the waiter sleeps.
            yield core.res.request()
            stolen.append(sim.now)
            core.res.release()

        def work():
            yield core.res.request()
            cookie = yield from api.submit_copy(core, src, 0, dst, 0, n, "shm")
            sim.process(thief())
            yield from api.sleep_wait(core, cookie, "shm")
            core.res.release()

        sim.run_until(sim.process(work()))
        assert stolen, "sleep_wait never released the core"
        # Sleeping waiter burned almost no CPU compared to the copy duration.
        assert core.counters.by_category["shm"] < n * SEC / params.engine_bw / 2

    def test_cookie_done_property(self, space):
        sim, params, engine, core, api = make_engine()
        src, dst = space.alloc(PAGE_SIZE), space.alloc(PAGE_SIZE)

        def work():
            yield core.res.request()
            cookie = yield from api.submit_copy(core, src, 0, dst, 0, 128, "x")
            core.res.release()
            return cookie

        cookie = sim.run_until(sim.process(work()))
        assert not cookie.done
        sim.run()
        assert cookie.done

    @settings(max_examples=25, deadline=None)
    @given(
        length=st.integers(min_value=1, max_value=6 * PAGE_SIZE),
        src_off=st.integers(min_value=0, max_value=PAGE_SIZE),
        dst_off=st.integers(min_value=0, max_value=PAGE_SIZE),
    )
    def test_property_offloaded_copy_integrity(self, length, src_off, dst_off):
        """Any offset/length combination is copied byte-exact by the engine."""
        space = AddressSpace()
        sim, params, engine, core, api = make_engine()
        src = space.alloc(src_off + length)
        dst = space.alloc(dst_off + length)
        src.fill_pattern(seed=length)

        def work():
            yield core.res.request()
            cookie = yield from api.submit_copy(
                core, src, src_off, dst, dst_off, length, "t"
            )
            core.res.release()
            return cookie

        sim.run_until(sim.process(work()))
        sim.run()
        assert bytes(dst.read(dst_off, length)) == bytes(src.read(src_off, length))
