"""Tests for the L2 cache model, bus contention and the memcpy cost model."""

import pytest

from repro.memory.buffers import AddressSpace
from repro.memory.bus import MemoryBus
from repro.memory.cache import CacheDirectory, L2Cache
from repro.memory.copyengine import CpuCopier
from repro.params import CacheParams, HostParams
from repro.simkernel import Simulator
from repro.simkernel.cpu import CpuSet
from repro.units import GiB, KiB, MiB, PAGE_SIZE, SEC, us


@pytest.fixture
def cache():
    return L2Cache(CacheParams(capacity=16 * PAGE_SIZE))


class TestL2Cache:
    def test_initially_cold(self, cache):
        assert cache.residency(0, PAGE_SIZE) == 0.0

    def test_touch_warms(self, cache):
        cache.touch(0, 4 * PAGE_SIZE)
        assert cache.residency(0, 4 * PAGE_SIZE) == 1.0

    def test_partial_residency(self, cache):
        cache.touch(0, 2 * PAGE_SIZE)
        assert cache.residency(0, 4 * PAGE_SIZE) == pytest.approx(0.5)

    def test_lru_eviction(self, cache):
        cache.touch(0, 16 * PAGE_SIZE)  # fills capacity
        cache.touch(100 * PAGE_SIZE, PAGE_SIZE)  # evicts the oldest page
        assert cache.residency(0, PAGE_SIZE) == 0.0
        assert cache.residency(PAGE_SIZE, PAGE_SIZE) == 1.0

    def test_touch_refreshes_lru(self, cache):
        cache.touch(0, 16 * PAGE_SIZE)
        cache.touch(0, PAGE_SIZE)  # refresh page 0
        cache.touch(100 * PAGE_SIZE, PAGE_SIZE)
        assert cache.residency(0, PAGE_SIZE) == 1.0  # survived
        assert cache.residency(PAGE_SIZE, PAGE_SIZE) == 0.0  # page 1 evicted

    def test_invalidate(self):
        d = CacheDirectory(CacheParams(capacity=16 * PAGE_SIZE), n_dies=1)
        cache = d[0]
        cache.touch(0, 4 * PAGE_SIZE)
        d.invalidate_all(PAGE_SIZE, PAGE_SIZE)
        assert cache.residency(0, 4 * PAGE_SIZE) == pytest.approx(0.75)

    def test_empty_range_is_resident(self, cache):
        assert cache.residency(0, 0) == 1.0

    def test_directory_invalidate_all(self):
        d = CacheDirectory(CacheParams(), n_dies=4)
        for c in d.caches:
            c.touch(0, PAGE_SIZE)
        d.invalidate_all(0, PAGE_SIZE)
        assert all(c.residency(0, PAGE_SIZE) == 0.0 for c in d.caches)


class TestMemoryBus:
    def test_idle_bus_no_throttle(self):
        sim = Simulator()
        params = HostParams()
        bus = MemoryBus(sim, params.bus)
        assert bus.effective_copy_bw(params.memcpy.uncached_bw) == pytest.approx(
            params.memcpy.uncached_bw
        )

    def test_ingress_throttles_copies(self):
        sim = Simulator()
        params = HostParams()
        bus = MemoryBus(sim, params.bus)
        # Simulate line-rate ingress over the rate window: ~1.16 GiB/s.
        frame = 9 * KiB
        n = int(1.16 * GiB * (params.bus.rate_window / SEC) / frame)
        for i in range(n):
            sim.now = i * params.bus.rate_window // n
            bus.record_dma_write(frame)
        eff = bus.effective_copy_bw(params.memcpy.uncached_bw)
        assert eff < params.memcpy.uncached_bw
        assert eff >= params.bus.min_copy_bw

    def test_rate_window_expires(self):
        sim = Simulator()
        params = HostParams()
        bus = MemoryBus(sim, params.bus)
        bus.record_dma_write(1 * MiB)
        sim.now = params.bus.rate_window * 2
        assert bus.nic_ingress_rate() == 0.0

    def test_floor_respected(self):
        sim = Simulator()
        params = HostParams()
        bus = MemoryBus(sim, params.bus)
        # Absurd ingress: copies still get the floor.
        bus.record_dma_write(10 * GiB)
        eff = bus.effective_copy_bw(params.memcpy.uncached_bw)
        assert eff == pytest.approx(params.bus.min_copy_bw)


def make_copier():
    sim = Simulator()
    params = HostParams()
    cpus = CpuSet(sim, params.n_sockets, params.dies_per_socket, params.cores_per_die)
    caches = CacheDirectory(params.cache, params.n_sockets * params.dies_per_socket)
    bus = MemoryBus(sim, params.bus)
    copier = CpuCopier(params, bus, caches)
    return sim, params, cpus, caches, copier


def run_copy(sim, core, copier, src, dst, length, chunk=None):
    def work():
        yield core.res.request()
        cost = yield from copier.memcpy(core, src, 0, dst, 0, length, "test", chunk=chunk)
        core.res.release()
        return cost

    return sim.run_until(sim.process(work()))


class TestCpuCopier:
    def test_moves_real_bytes(self):
        sim, _, cpus, _, copier = make_copier()
        space = AddressSpace()
        src, dst = space.alloc(8 * KiB), space.alloc(8 * KiB)
        src.fill_pattern(3)
        run_copy(sim, cpus[0], copier, src, dst, 8 * KiB)
        assert bytes(dst.read()) == bytes(src.read())

    def test_cold_copy_near_uncached_bw(self):
        sim, params, cpus, _, copier = make_copier()
        space = AddressSpace()
        src, dst = space.alloc(1 * MiB), space.alloc(1 * MiB)
        cost = run_copy(sim, cpus[0], copier, src, dst, 1 * MiB)
        bw = 1 * MiB * SEC / cost
        assert bw == pytest.approx(params.memcpy.uncached_bw, rel=0.1)

    def test_warm_copy_much_faster(self):
        sim, params, cpus, caches, copier = make_copier()
        space = AddressSpace()
        src, dst = space.alloc(256 * KiB), space.alloc(256 * KiB)
        cold = run_copy(sim, cpus[0], copier, src, dst, 256 * KiB)
        warm = run_copy(sim, cpus[0], copier, src, dst, 256 * KiB)
        assert warm < cold / 2
        bw = 256 * KiB * SEC / warm
        assert bw == pytest.approx(params.cache.cached_copy_bw, rel=0.15)

    def test_copy_larger_than_cache_stays_slow(self):
        sim, params, cpus, _, copier = make_copier()
        space = AddressSpace()
        n = 16 * MiB  # 4x the L2
        src, dst = space.alloc(n), space.alloc(n)
        first = run_copy(sim, cpus[0], copier, src, dst, n)
        second = run_copy(sim, cpus[0], copier, src, dst, n)
        # Re-copying does not go cached: the working set was evicted.
        assert second >= first * 0.8

    def test_remote_socket_penalty(self):
        sim, params, cpus, caches, copier = make_copier()
        space = AddressSpace()
        src, dst = space.alloc(256 * KiB), space.alloc(256 * KiB)
        # Warm the source in a cache on the *other* socket (die index beyond
        # dies_per_socket) relative to core 0.
        remote_die = params.dies_per_socket  # first die of socket 1
        caches[remote_die].touch(src.addr, len(src))
        cost_remote = run_copy(sim, cpus[0], copier, src, dst, 256 * KiB)
        bw = 256 * KiB * SEC / cost_remote
        expected = params.memcpy.uncached_bw * params.memcpy.remote_socket_factor
        assert bw == pytest.approx(expected, rel=0.1)

    def test_chunking_adds_setup_cost(self):
        sim, params, cpus, _, copier = make_copier()
        space = AddressSpace()
        src, dst = space.alloc(64 * KiB), space.alloc(64 * KiB)
        big_chunks = copier.copy_cost(cpus[0], src, 0, dst, 0, 64 * KiB, chunk=4096)
        small_chunks = copier.copy_cost(cpus[0], src, 0, dst, 0, 64 * KiB, chunk=256)
        assert small_chunks > big_chunks
        n_extra = 64 * KiB // 256 - 64 * KiB // 4096
        assert small_chunks - big_chunks == n_extra * params.memcpy.setup_cost

    def test_pollution_evicts_other_data(self):
        sim, params, cpus, caches, copier = make_copier()
        space = AddressSpace()
        victim = space.alloc(1 * MiB)
        caches[0].touch(victim.addr, len(victim))
        assert caches[0].residency(victim.addr, len(victim)) == 1.0
        src, dst = space.alloc(4 * MiB), space.alloc(4 * MiB)
        run_copy(sim, cpus[0], copier, src, dst, 4 * MiB)
        # An 8 MiB working set blew the 4 MiB L2: victim evicted.
        assert caches[0].residency(victim.addr, len(victim)) < 0.25

    def test_zero_length_copy_free(self):
        sim, _, cpus, _, copier = make_copier()
        space = AddressSpace()
        src, dst = space.alloc(16), space.alloc(16)
        assert copier.copy_cost(cpus[0], src, 0, dst, 0, 0) == 0
