"""Conformance suite for pluggable copy backends (DESIGN.md §15).

Every backend in the registry must honour the same contract the offload
manager relies on: submit/poll ordering (completions observed in FIFO
order per message), fail→heal fallback (aborted copies healed by memcpy),
recovery after ``recover()``, sanitizer-clean drain (every skbuff and DMA
cookie returned), and breaker supervision on every lane — engine channels
and backend-private lanes alike.

The suite is parametrized over ``backend_names()``: registering a new
backend automatically subjects it to the whole contract.
"""

import pytest

from repro.analysis.sanitizers import Sanitizer
from repro.cluster.host import Host
from repro.cluster.testbed import build_single_node
from repro.core.backends import (
    BACKENDS,
    CopyBackend,
    LaneBackend,
    backend_names,
    create_backend,
)
from repro.core.offload import OffloadManager, PendingCopy
from repro.health import BreakerState
from repro.params import clovertown_5000x
from repro.simkernel import Simulator
from repro.units import KiB
from repro.workloads.vectored import run_vectored_transfer

ALL_BACKENDS = backend_names()
OFFLOADING = [b for b in ALL_BACKENDS if b != "memcpy"]
LANES = [b for b in ALL_BACKENDS if issubclass(BACKENDS[b], LaneBackend)]

MSG_LEN = 1 << 20  # always above ioat_min_msg


def make_env(backend, **omx):
    omx.setdefault("ioat_enabled", True)
    omx.setdefault("copy_backend", backend)
    omx.setdefault("ioat_min_msg", 1)
    omx.setdefault("ioat_min_frag", 1)
    omx.setdefault("max_pending_skbuffs", 64)
    plat = clovertown_5000x(**omx)
    sim = Simulator()
    host = Host(sim, plat)
    mgr = OffloadManager(host, plat.omx)
    return sim, host, mgr


def backend_channels(mgr, state):
    """Every DMA channel the backend may submit this message's copies to."""
    b = mgr.backend
    if isinstance(b, LaneBackend):
        return list(b.engine)
    return [state.channel]


def run_bh(sim, host, gen_fn):
    """Run ``gen_fn(core)`` holding the IRQ core, until it returns."""
    core = host.irq_core
    out = {}

    def work():
        yield core.res.request()
        out["value"] = yield from gen_fn(core)
        core.res.release()

    sim.run_until(sim.process(work()))
    return out.get("value")


def submit_fragments(sim, host, mgr, state, sizes, dst=None):
    """Offload one fragment per entry of ``sizes``; returns (skbs, dst)."""
    if dst is None:
        dst = host.user_space("conf").alloc(sum(sizes) + 8 * KiB)
    skbs = []

    def gen(core):
        off = 0
        for n in sizes:
            skb = host.skb_pool.alloc_rx()
            skb.data_len = n
            ok = yield from mgr.copy_fragment(
                core, state, skb, 0, dst, off, n, MSG_LEN
            )
            if ok:
                skbs.append(skb)
            else:
                skb.free()
            off += n
        return None

    run_bh(sim, host, gen)
    return skbs, dst


class TestRegistry:
    def test_all_expected_backends_registered(self):
        assert set(ALL_BACKENDS) >= {"memcpy", "ioat", "flextoe", "spin",
                                     "sgdma"}

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_create_resolves_every_name(self, name):
        _, _, mgr = make_env(name)
        assert mgr.backend.name == name
        assert isinstance(mgr.backend, CopyBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown copy backend"):
            make_env("warp-drive")

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_metrics_registered(self, name):
        _, host, mgr = make_env(name)
        mgr.register_metrics(host.metrics)
        assert "offload_breaker_exhausted" in host.metrics
        if isinstance(mgr.backend, LaneBackend):
            assert f"backend_{name}_bytes" in host.metrics

    @pytest.mark.parametrize("name", LANES)
    def test_lane_submissions_published(self, name):
        tb = build_single_node(copy_backend=name, ioat_enabled=True)
        run_vectored_transfer(tb, 64 * KiB, 4 * KiB)
        snap = tb.hosts[0].metrics.snapshot()
        submitted = snap[f"backend_{name}_descriptors_submitted"]
        assert submitted > 0
        assert submitted == snap[f"backend_{name}_descriptors"]
        assert snap[f"backend_{name}_copies_submitted"] > 0


class TestSubmitPollOrdering:
    @pytest.mark.parametrize("name", OFFLOADING)
    def test_fragments_offloaded_and_drained(self, name):
        sim, host, mgr = make_env(name)
        state = mgr.new_message_state()
        skbs, _ = submit_fragments(sim, host, mgr, state, [4 * KiB] * 4)
        assert len(skbs) == 4
        assert len(state.pending) == 4
        freed = run_bh(sim, host, lambda core: mgr.wait_all(core, state))
        assert freed == 4
        assert not state.pending
        assert mgr.fallback_copies == 0

    @pytest.mark.parametrize("name", OFFLOADING)
    def test_cleanup_frees_in_fifo_order(self, name):
        sim, host, mgr = make_env(name)
        state = mgr.new_message_state()
        submit_fragments(sim, host, mgr, state, [4 * KiB] * 6)
        order = [e.dst_off for e in state.pending]
        assert order == sorted(order)
        # Let the engine(s) finish everything, then one cleanup pass must
        # release a *prefix* of the pending deque, oldest first.
        sim.run()
        run_bh(sim, host, lambda core: mgr.cleanup(core, state))
        remaining = [e.dst_off for e in state.pending]
        assert remaining == order[len(order) - len(remaining):]

    @pytest.mark.parametrize("name", OFFLOADING)
    def test_offloaded_bytes_accounted(self, name):
        sim, host, mgr = make_env(name)
        state = mgr.new_message_state()
        submit_fragments(sim, host, mgr, state, [4 * KiB, 8 * KiB])
        assert state.offloaded_bytes == 12 * KiB
        run_bh(sim, host, lambda core: mgr.wait_all(core, state))
        assert state.offloaded_bytes == 12 * KiB  # no heals happened

    def test_memcpy_backend_never_offloads(self):
        sim, host, mgr = make_env("memcpy")
        state = mgr.new_message_state()
        skbs, _ = submit_fragments(sim, host, mgr, state, [4 * KiB] * 3)
        assert skbs == []
        assert not state.pending
        assert mgr.frags_memcpy == 3
        assert state.copied_bytes == 12 * KiB


class TestManagerFilesPending:
    """Backends only submit; the offload manager files the pending entry."""

    @pytest.mark.parametrize("name", OFFLOADING)
    def test_submit_fragment_returns_ticket_and_files_nothing(self, name):
        sim, host, mgr = make_env(name)
        state = mgr.new_message_state()
        dst = host.user_space("conf").alloc(8 * KiB)
        skb = host.skb_pool.alloc_rx()
        skb.data_len = 4 * KiB
        ticket = run_bh(sim, host, lambda core: mgr.backend.submit_fragment(
            core, state, skb, 0, dst, 0, 4 * KiB))
        assert not state.pending
        assert state.offloaded_bytes == 0
        assert ticket.channel in backend_channels(mgr, state)
        sim.run()
        assert ticket.done and not ticket.failed
        skb.free()

    @pytest.mark.parametrize("name", OFFLOADING)
    def test_copy_fragment_files_one_pending_copy_per_fragment(self, name):
        sim, host, mgr = make_env(name)
        state = mgr.new_message_state()
        sizes = [4 * KiB, 2 * KiB, 4 * KiB + 512]
        skbs, dst = submit_fragments(sim, host, mgr, state, sizes)
        assert mgr.frags_offloaded == len(sizes)
        assert all(isinstance(e, PendingCopy) for e in state.pending)
        assert [(e.skb, e.dst, e.dst_off, e.length) for e in state.pending] \
            == [(skb, dst, off, n) for skb, off, n
                in zip(skbs, [0, 4 * KiB, 6 * KiB], sizes)]
        assert state.offloaded_bytes == sum(sizes)
        run_bh(sim, host, lambda core: mgr.wait_all(core, state))


class TestFailHealRecover:
    @pytest.mark.parametrize("name", OFFLOADING)
    def test_fail_then_heal_fallback(self, name):
        sim, host, mgr = make_env(name)
        state = mgr.new_message_state()
        submit_fragments(sim, host, mgr, state, [4 * KiB] * 4)
        for lane in backend_channels(mgr, state):
            lane.fail("conformance fault")  # noqa: HLT001 (the fixture)
        freed = run_bh(sim, host, lambda core: mgr.wait_all(core, state))
        assert freed == 4
        assert not state.pending
        # Copies that completed before the fault stand; every aborted one
        # was healed by a fallback memcpy — no byte lost either way.
        assert mgr.fallback_copies >= 1
        assert state.copied_bytes == mgr.fallback_copies * 4 * KiB
        assert state.offloaded_bytes == 16 * KiB - state.copied_bytes

    @pytest.mark.parametrize("name", OFFLOADING)
    def test_recover_restores_offload(self, name):
        sim, host, mgr = make_env(name)
        state = mgr.new_message_state()
        submit_fragments(sim, host, mgr, state, [4 * KiB])
        lanes = backend_channels(mgr, state)
        for lane in lanes:
            lane.fail()  # noqa: HLT001
        run_bh(sim, host, lambda core: mgr.wait_all(core, state))
        for lane in lanes:
            lane.recover()
        state2 = mgr.new_message_state()
        skbs, _ = submit_fragments(sim, host, mgr, state2, [4 * KiB] * 2)
        assert len(state2.pending) == 2
        freed = run_bh(sim, host, lambda core: mgr.wait_all(core, state2))
        assert freed == 2
        assert mgr.fallback_copies == 1  # only the pre-recovery copy healed


class TestSanitizerDrain:
    @pytest.mark.parametrize("name", OFFLOADING)
    def test_drain_is_sanitizer_clean(self, name):
        sim, host, mgr = make_env(name)
        san = Sanitizer()
        san.watch_host(host)
        state = mgr.new_message_state()
        submit_fragments(sim, host, mgr, state, [4 * KiB] * 5)
        run_bh(sim, host, lambda core: mgr.wait_all(core, state))
        sim.run()
        san.assert_clean()

    @pytest.mark.parametrize("name", OFFLOADING)
    def test_backend_lanes_are_watched(self, name):
        _, host, mgr = make_env(name)
        san = Sanitizer()
        san.watch_host(host)
        if isinstance(mgr.backend, LaneBackend):
            for lane in mgr.backend.engine:
                assert lane.observer is san
        else:
            assert host.ioat_engine[0].observer is san


class TestBreakerSupervision:
    @pytest.mark.parametrize("name", OFFLOADING)
    def test_every_backend_lane_has_a_breaker(self, name):
        _, host, mgr = make_env(name)
        state = mgr.new_message_state()
        for lane in backend_channels(mgr, state):
            assert host.health.breaker_for(lane) is not None

    @pytest.mark.parametrize("name", OFFLOADING)
    def test_lane_breakers_trip_and_reopen(self, name):
        sim, host, mgr = make_env(name)
        state = mgr.new_message_state()
        lanes = backend_channels(mgr, state)
        # Enough aborted descriptors per lane to cross breaker_threshold.
        n_frags = 3 * max(len(lanes), 4)
        submit_fragments(sim, host, mgr, state, [4 * KiB] * n_frags)
        for lane in lanes:
            lane.fail()  # noqa: HLT001
        breakers = [host.health.breaker_for(lane) for lane in lanes]
        tripped = [b for b in breakers if b.state is BreakerState.OPEN]
        assert tripped, "aborting every pending copy must trip breakers"
        run_bh(sim, host, lambda core: mgr.wait_all(core, state))
        for lane in lanes:
            lane.recover()
        # Renewed demand re-arms the probe chain; the probes then complete
        # against the recovered lanes and the breakers re-close.
        for lane in lanes:
            host.health.allows_offload(lane)
        sim.run()
        assert all(b.state is BreakerState.CLOSED for b in breakers)
        assert sum(b.reopens for b in breakers) >= len(tripped)


class TestOneWiringPath:
    """Every DMA channel joins its host once, through ``add_dma_engine``,
    and striping addresses channels by object, not by index."""

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_vectored_run_wires_each_lane_once(self, name):
        tb = build_single_node(copy_backend=name, ioat_enabled=True)
        run_vectored_transfer(tb, 64 * KiB, 4 * KiB)
        host = tb.hosts[0]
        lanes = isinstance(tb.stacks[0].driver.offload.backend, LaneBackend)
        assert len(host.dma_engines) == (2 if lanes else 1)
        indices = [ch.index for e in host.dma_engines for ch in e.channels]
        assert len(indices) == len(set(indices))
        assert len(host.health.breakers) == len(indices)

    def test_striping_starts_at_first_on_a_lane_engine(self):
        sim, host, mgr = make_env("flextoe")
        api = mgr.backend.api
        space = host.user_space("stripe")
        src = space.alloc(20 * KiB, fill=0x5A)
        dst = space.alloc(20 * KiB)
        cookies = run_bh(sim, host, lambda core: api.submit_copy_striped(
            core, src, 0, dst, 0, 20 * KiB, "bh", first=4))
        assert [c.channel.index for c in cookies] == [104, 105, 100, 101, 102]
        assert [(c.n_descriptors, c.nbytes) for c in cookies] \
            == [(1, 4 * KiB)] * 5
        sim.run()
        assert all(c.done and not c.failed for c in cookies)
        assert bytes(dst.data) == bytes(src.data)


class TestStripingSkipsUnusableLanes:
    """FlexTOE stripes each fragment over its lanes, but the offload gates
    test only the message's own lane: a failed lane, or one whose breaker
    is OPEN, must get no descriptor from a message on a healthy lane."""

    @pytest.mark.parametrize("fault", ["failed", "open"])
    def test_healthy_message_puts_nothing_on_the_bad_lane(self, fault):
        sim, host, mgr = make_env("flextoe")
        bad = mgr.backend.engine.channels[3]
        assert bad.index == 103
        if fault == "failed":
            bad.fail()  # noqa: HLT001 (the fixture)
        else:
            host.health.breaker_for(bad).state = BreakerState.OPEN
        state = mgr.new_message_state()
        assert state.channel.index == 100
        frag = 8 * KiB
        dst = host.user_space("conf").alloc(8 * frag)
        sent = bytearray()

        def gen(core):
            for i in range(8):
                skb = host.skb_pool.alloc_rx()
                skb.data_len = frag
                skb.head.fill_pattern(i)
                sent.extend(skb.head.read(0, frag))
                assert (yield from mgr.copy_fragment(
                    core, state, skb, 0, dst, i * frag, frag, MSG_LEN))
            return (yield from mgr.wait_all(core, state))

        assert run_bh(sim, host, gen) == 8
        sim.run()
        assert (bad.descriptors_completed, bad.descriptors_failed) == (0, 0)
        assert mgr.fallback_copies == 0
        assert bytes(dst.read()) == bytes(sent)


@pytest.mark.racecheck
class TestParallelLaneRaces:
    """The FlexTOE backend stripes one fragment across lanes whose
    completions land at the same tick — the dispatch order must not change
    what the offload manager observes."""

    def test_flextoe_drain_invariant_under_tiebreak(self):
        sim, host, mgr = make_env("flextoe")
        state = mgr.new_message_state()
        # Page-straddling fragments split into multiple chunks, so each
        # fragment genuinely fans out over several lanes in parallel.
        submit_fragments(sim, host, mgr, state, [4 * KiB + 512] * 6)
        freed = run_bh(sim, host, lambda core: mgr.wait_all(core, state))
        assert freed == 6
        assert not state.pending
        assert mgr.fallback_copies == 0
        lanes = mgr.backend.engine
        # Every fragment straddles at least one page edge on the source
        # side, so each splits into 2+ striped chunks; the exact count is
        # deterministic in the destination offsets, and — the racecheck
        # invariant — identical under every tie-break policy.
        assert lanes.descriptors_completed >= 12
        assert lanes.descriptors_failed == 0
        assert lanes.bytes_copied == 6 * (4 * KiB + 512)
