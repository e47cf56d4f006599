"""Tests for memory regions, address spaces, pinning and the reg cache."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.memory.buffers import AddressSpace, MemoryRegion, copy_bytes
from repro.memory.pinning import Pinner
from repro.memory.regcache import RegistrationCache
from repro.params import HostParams
from repro.simkernel import Simulator
from repro.simkernel.cpu import Core
from repro.units import PAGE_SIZE


@pytest.fixture
def space():
    return AddressSpace("test")


class TestAddressSpace:
    def test_alloc_page_aligned(self, space):
        r = space.alloc(100)
        assert r.addr % PAGE_SIZE == 0
        assert len(r) == 100

    def test_allocations_disjoint(self, space):
        a = space.alloc(5000)
        b = space.alloc(5000)
        assert a.end <= b.addr or b.end <= a.addr

    def test_spaces_disjoint(self):
        a = AddressSpace("a").alloc(10)
        b = AddressSpace("b").alloc(10)
        assert a.addr != b.addr

    def test_fill(self, space):
        r = space.alloc(16, fill=0xAB)
        assert bytes(r.read()) == b"\xab" * 16

    def test_alloc_pages(self, space):
        r = space.alloc_pages(3)
        assert len(r) == 3 * PAGE_SIZE

    def test_bad_align(self, space):
        with pytest.raises(ValueError):
            space.alloc(10, align=3)

    def test_negative_alloc(self, space):
        with pytest.raises(ValueError):
            space.alloc(-1)


class TestMemoryRegion:
    def test_write_read_roundtrip(self, space):
        r = space.alloc(64)
        r.write(10, b"hello")
        assert bytes(r.read(10, 5)) == b"hello"

    def test_write_out_of_bounds(self, space):
        r = space.alloc(4)
        with pytest.raises(ValueError):
            r.write(2, b"toolong")

    def test_subregion_shares_storage(self, space):
        r = space.alloc(100)
        sub = r.subregion(20, 10)
        sub.write(0, b"x" * 10)
        assert bytes(r.read(20, 10)) == b"x" * 10
        assert sub.addr == r.addr + 20

    def test_subregion_of_virtual_region_stays_virtual(self, space):
        r = space.alloc(1 << 20)
        sub = r.subregion(4096, 100).subregion(10, 20)
        assert r._data is None and sub._data is None
        sub.write(0, b"y" * 20)
        assert bytes(r.read(4106, 20)) == b"y" * 20
        assert bytes(r.subregion(4106, 20).read()) == b"y" * 20
        other = space.alloc(64)
        early = other.subregion(8, 8)
        other.write(8, b"z" * 8)
        assert bytes(early.read()) == b"z" * 8

    def test_subregion_bounds_checked(self, space):
        r = space.alloc(10)
        with pytest.raises(ValueError):
            r.subregion(5, 10)

    def test_requires_uint8(self):
        with pytest.raises(TypeError):
            MemoryRegion(0, np.zeros(4, dtype=np.int32))

    def test_fill_pattern_deterministic(self, space):
        a, b = space.alloc(256), space.alloc(256)
        a.fill_pattern(seed=7)
        b.fill_pattern(seed=7)
        assert bytes(a.read()) == bytes(b.read())
        b.fill_pattern(seed=8)
        assert bytes(a.read()) != bytes(b.read())

    @given(
        length=st.integers(min_value=1, max_value=3000),
        src_off=st.integers(min_value=0, max_value=500),
        dst_off=st.integers(min_value=0, max_value=500),
    )
    def test_copy_bytes_property(self, length, src_off, dst_off):
        space = AddressSpace()
        src = space.alloc(src_off + length)
        dst = space.alloc(dst_off + length, fill=0)
        src.fill_pattern(seed=length)
        copy_bytes(src, src_off, dst, dst_off, length)
        assert bytes(dst.read(dst_off, length)) == bytes(src.read(src_off, length))


class TestPinner:
    @pytest.fixture
    def env(self):
        sim = Simulator()
        core = Core(sim, 0)
        return sim, core, Pinner(HostParams()), AddressSpace()

    def test_pin_cost_scales_with_pages(self, env):
        _, _, pinner, space = env
        small = pinner.pin_cost(space.alloc(PAGE_SIZE))
        big = pinner.pin_cost(space.alloc(16 * PAGE_SIZE))
        assert big > small
        params = HostParams()
        assert big - small == 15 * params.pin_page_cost

    def test_pin_charges_core_time(self, env):
        sim, core, pinner, space = env
        region = space.alloc(8 * PAGE_SIZE)

        def work():
            yield core.res.request()
            pinned = yield from pinner.pin(core, region, "driver")
            core.res.release()
            return pinned

        pinned = sim.run_until(sim.process(work()))
        assert pinned.pinned
        assert pinned.n_pages == 8
        assert core.counters.by_category["driver"] == pinner.pin_cost(region)

    def test_double_unpin_rejected(self, env):
        sim, core, pinner, space = env

        def work():
            yield core.res.request()
            pinned = yield from pinner.pin(core, space.alloc(PAGE_SIZE), "driver")
            yield from pinner.unpin(core, pinned, "driver")
            core.res.release()
            return pinned

        pinned = sim.run_until(sim.process(work()))
        assert not pinned.pinned
        with pytest.raises(RuntimeError):
            pinned.unpin()


class TestRegistrationCache:
    def _run(self, enabled):
        sim = Simulator()
        core = Core(sim, 0)
        pinner = Pinner(HostParams())
        cache = RegistrationCache(pinner, enabled=enabled)
        space = AddressSpace()
        region = space.alloc(64 * PAGE_SIZE)

        def work():
            yield core.res.request()
            for _ in range(5):
                pinned = yield from cache.acquire(core, region, "driver")
                yield from cache.release(core, pinned, "driver")
            core.res.release()

        sim.run_until(sim.process(work()))
        return sim, pinner, cache

    def test_enabled_pins_once(self):
        _, pinner, cache = self._run(enabled=True)
        assert pinner.pin_calls == 1
        assert cache.hits == 4 and cache.misses == 1

    def test_disabled_pins_every_time(self):
        _, pinner, cache = self._run(enabled=False)
        assert pinner.pin_calls == 5
        assert cache.hits == 0

    def test_enabled_is_faster(self):
        sim_on, _, _ = self._run(enabled=True)
        sim_off, _, _ = self._run(enabled=False)
        assert sim_on.now < sim_off.now

    def test_invalidate_overlapping(self):
        sim = Simulator()
        core = Core(sim, 0)
        pinner = Pinner(HostParams())
        cache = RegistrationCache(pinner, enabled=True)
        space = AddressSpace()
        region = space.alloc(4 * PAGE_SIZE)

        def work():
            yield core.res.request()
            pinned = yield from cache.acquire(core, region, "driver")
            yield from cache.release(core, pinned, "driver")
            assert len(cache) == 1
            n = yield from cache.invalidate(core, region.addr, 1, "driver")
            assert n == 1
            assert len(cache) == 0
            # Next acquire must re-pin.
            yield from cache.acquire(core, region, "driver")
            core.res.release()

        sim.run_until(sim.process(work()))
        assert pinner.pin_calls == 2

    def test_lru_eviction_bounds_pages(self):
        sim = Simulator()
        core = Core(sim, 0)
        pinner = Pinner(HostParams())
        cache = RegistrationCache(pinner, enabled=True, max_pages=10)
        space = AddressSpace()

        def work():
            yield core.res.request()
            for _ in range(8):
                region = space.alloc(4 * PAGE_SIZE)
                pinned = yield from cache.acquire(core, region, "driver")
                yield from cache.release(core, pinned, "driver")
            core.res.release()

        sim.run_until(sim.process(work()))
        assert cache.cached_pages <= 12  # one in-flight entry of slack
