"""Health supervision: breaker state machine, backpressure, liveness.

The graceful-degradation contract (DESIGN.md §12): repeated channel faults
trip a per-channel circuit breaker to memcpy-only and a half-open probe
copy re-opens it; an overloaded receiver says BUSY and senders back off on
a deterministic, seeded curve; a peer that goes silent while we hold state
for it is declared dead with a typed error and every resource drains.
"""

from types import SimpleNamespace

import pytest

from repro import build_testbed
from repro.core.counters import collect_counters, collect_health
from repro.core.errors import PeerDead, PullAborted
from repro.core.reliability import MAX_RETRIES, TxSession
from repro.ethernet.link import LossInjector
from repro.health import BreakerState, BusyGate, ChannelBreaker, backoff_delay
from repro.health import backpressure
from repro.health.backpressure import (
    BACKOFF_BASE,
    BACKOFF_JITTER,
    BACKOFF_MAX_DELAY,
    BACKOFF_MAX_LEVEL,
    BUSY_MIN_INTERVAL,
    MAX_ACTIVE_PULLS,
    RING_LOW_WATERMARK,
)
from repro.health.breaker import (
    BREAKER_PROBE_BYTES,
    BREAKER_PROBE_INTERVAL,
    BREAKER_THRESHOLD,
    BREAKER_WINDOW,
)
from repro.health.liveness import KEEPALIVE_INTERVAL, PEER_DEAD_TIMEOUT
from repro.ioat.channel import DmaChannel
from repro.memory.buffers import AddressSpace
from repro.mx.wire import EndpointAddr
from repro.params import IoatParams, OmxConfig
from repro.simkernel import Simulator
from repro.units import KiB, ms, us

import random

B = EndpointAddr(2, 0)


def _breaker_rig():
    """A bare simulator + one channel + its breaker (no host, no driver)."""
    sim = Simulator()
    ch = DmaChannel(sim, IoatParams())
    space = AddressSpace("rig")
    breaker = ChannelBreaker(
        sim, ch,
        probe_src=space.alloc(BREAKER_PROBE_BYTES, fill=0xA5),
        probe_dst=space.alloc(BREAKER_PROBE_BYTES),
    )
    ch.health = breaker
    return sim, ch, breaker, space


def _submit_copies(ch: DmaChannel, space: AddressSpace, n: int, length=4 * KiB):
    from repro.ioat.descriptor import CopyDescriptor

    src = space.alloc(length, fill=3)
    dst = space.alloc(length)
    return [ch.submit(CopyDescriptor(src, 0, dst, 0, length)) for _ in range(n)]


class TestBreakerStateMachine:
    def test_failure_burst_trips_to_open(self):
        sim, ch, breaker, space = _breaker_rig()
        _submit_copies(ch, space, 3)
        assert breaker.state is BreakerState.CLOSED
        ch.fail("chipset gone")  # noqa: HLT001 (direct fault is the fixture)
        # Three aborted descriptors inside one window: trip.
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 1
        assert not breaker.allows_offload()

    def test_probe_fails_while_channel_down_and_heap_drains(self):
        sim, ch, breaker, space = _breaker_rig()
        _submit_copies(ch, space, 3)
        ch.fail()  # noqa: HLT001
        # The probe chain is demand-armed: with nobody asking for offload,
        # exactly one probe fires, fails against the dead channel, and the
        # heap drains (sim.run() with no horizon must terminate).
        sim.run()
        assert breaker.state is BreakerState.OPEN
        assert breaker.probes == 1
        assert breaker.probe_failures == 1

    def test_recovered_channel_reopens_via_probe(self):
        sim, ch, breaker, space = _breaker_rig()
        _submit_copies(ch, space, 3)
        ch.fail()  # noqa: HLT001
        sim.run()  # first probe fails against the dead channel
        ch.recover()
        # Renewed offload demand re-arms the probe chain...
        assert not breaker.allows_offload()
        sim.run()
        # ...and this probe completes for real: breaker re-opens.
        assert breaker.state is BreakerState.CLOSED
        assert breaker.reopens == 1
        assert breaker.allows_offload()
        assert ch.recoveries == 1

    def test_transient_stall_trips_then_self_heals(self):
        sim, ch, breaker, _space = _breaker_rig()
        for _ in range(3):
            ch.stall(us(10))
        assert breaker.state is BreakerState.OPEN
        # By probe time the stall window has passed; the probe copy runs.
        sim.run()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.reopens == 1

    def test_sparse_failures_age_out_of_window(self):
        sim, ch, breaker, _space = _breaker_rig()
        gap = BREAKER_WINDOW + us(10)
        for k in range(5):
            sim.call_at(k * gap, lambda: breaker.on_stall(ch))
        sim.run()
        assert breaker.failures_recorded == 5
        assert breaker.trips == 0
        assert breaker.state is BreakerState.CLOSED


class TestBusyGate:
    def test_ring_watermark(self):
        gate = BusyGate(Simulator())
        wm = RING_LOW_WATERMARK
        assert gate.ring_pressured(SimpleNamespace(free_slots=wm))
        assert gate.ring_pressured(SimpleNamespace(free_slots=0))
        assert not gate.ring_pressured(SimpleNamespace(free_slots=wm + 1))

    def test_pull_watermark(self):
        gate = BusyGate(Simulator())
        assert gate.pulls_pressured(MAX_ACTIVE_PULLS)
        assert not gate.pulls_pressured(MAX_ACTIVE_PULLS - 1)

    def test_per_peer_rate_limit(self):
        sim = Simulator()
        gate = BusyGate(sim)
        assert gate.should_signal(B)
        assert not gate.should_signal(B)  # same instant: suppressed
        sim.run(until=BUSY_MIN_INTERVAL + 1)
        assert gate.should_signal(B)
        assert gate.busy_signalled == 2
        assert gate.busy_suppressed == 1


class TestBackoffDeterminism:
    def test_policy_curve_is_seeded(self):
        levels = range(1, BACKOFF_MAX_LEVEL + 1)
        a = [backoff_delay(lvl, random.Random("s1")) for lvl in levels]
        b = [backoff_delay(lvl, random.Random("s1")) for lvl in levels]
        c = [backoff_delay(lvl, random.Random("s2")) for lvl in levels]
        assert a == b          # same seed: byte-identical curve
        assert a != c          # different seed: jitter desynchronises
        # The deterministic part still dominates: exponential then capped.
        for lvl, d in zip(levels, a):
            base = min(BACKOFF_BASE << (lvl - 1), BACKOFF_MAX_DELAY)
            assert base <= d < base + int(base * BACKOFF_JITTER) + 1

    def _busy_trajectory(self, seed: str):
        sim = Simulator()
        tx = TxSession(sim, B, resend=lambda p: None, timeout=us(500),
                       backoff_seed=seed)
        out = []
        for _ in range(4):
            tx.note_busy()
            out.append((tx.backoff_level, tx._backoff_until))
        return out

    def test_session_backoff_deterministic_per_seed(self):
        a = self._busy_trajectory("backoff:1:0:peer")
        b = self._busy_trajectory("backoff:1:0:peer")
        c = self._busy_trajectory("backoff:9:3:other")
        assert a == b
        assert a != c
        # Levels escalate monotonically and the deadline never regresses.
        assert [lvl for lvl, _ in a] == [1, 2, 3, 4]
        untils = [u for _, u in a]
        assert untils == sorted(untils)

    def test_ack_resets_backoff(self):
        sim = Simulator()
        tx = TxSession(sim, B, resend=lambda p: None, timeout=us(500),
                       backoff_seed=f"backoff:{B}")
        from repro.mx.wire import MxPacket, PktType

        pkt = MxPacket(ptype=PktType.SMALL, src=B, dst=B)
        tx.stamp(pkt)
        tx.note_busy()
        assert tx.backoff_level == 1 and tx._backoff_until > 0
        tx.on_ack(0)
        assert tx.backoff_level == 0 and tx._backoff_until == 0
        assert tx.busy_backoffs == 1


class TestTimingRelations:
    def test_supervision_constants_keep_their_orderings(self):
        """The orderings the supervision constants must keep: a peer is
        declared dead only after keepalives had their chance and after
        the retransmit ladder (MAX_RETRIES x retransmit_timeout = 4 ms)
        is exhausted; jitter is a fraction; counts and spans are usable."""
        assert PEER_DEAD_TIMEOUT > KEEPALIVE_INTERVAL
        exhaustion = MAX_RETRIES * OmxConfig().retransmit_timeout
        assert exhaustion == ms(4)
        assert PEER_DEAD_TIMEOUT > exhaustion
        assert 0.0 <= BACKOFF_JITTER <= 1.0
        for value in (BREAKER_THRESHOLD, BREAKER_PROBE_BYTES,
                      MAX_ACTIVE_PULLS, BACKOFF_MAX_LEVEL):
            assert value >= 1
        assert RING_LOW_WATERMARK >= 0
        for span in (BREAKER_WINDOW, BREAKER_PROBE_INTERVAL, BACKOFF_BASE,
                     BUSY_MIN_INTERVAL):
            assert span > 0


class TestBackpressureEndToEnd:
    def test_watermark_busy_makes_sender_back_off(self, monkeypatch):
        """With the low watermark raised to the whole ring, every eager
        arrival signals BUSY — senders must register backoff episodes and
        the stream must still complete.  The gate reads the watermark at
        call time, so patching the module constant reaches the driver."""
        monkeypatch.setattr(backpressure, "RING_LOW_WATERMARK", 512)
        tb = build_testbed(ioat_enabled=True)
        ep0, ep1 = tb.open_endpoint(0, 0), tb.open_endpoint(1, 0)
        c0, c1 = tb.user_core(0), tb.user_core(1)
        size = 16 * KiB
        done = {}

        def receiver():
            for i in range(3):
                buf = ep1.space.alloc(size)
                req = yield from ep1.irecv(c1, i, ~0, buf, 0, size)
                done[f"r{i}"] = req
            for i in range(3):
                yield from ep1.wait(c1, done[f"r{i}"])

        def sender():
            buf = ep0.space.alloc(size)
            for i in range(3):
                req = yield from ep0.isend(c0, ep1.addr, i, buf, 0, size)
                done[f"s{i}"] = req
                yield from ep0.wait(c0, req)

        tb.sim.daemon(receiver(), name="bp-recv")
        tb.sim.daemon(sender(), name="bp-send")
        tb.sim.run(until=ms(60))

        for req in done.values():
            assert req.done and req.error is None
        rx_health = collect_health(tb.stacks[1])
        tx_health = collect_health(tb.stacks[0])
        assert rx_health["busy_signalled"] >= 1
        assert tx_health["busy_rx"] >= 1
        assert collect_counters(tb.stacks[0])["busy_backoffs"] >= 1


class TestPeerDeath:
    def test_severed_link_fails_large_send_with_peer_dead(self):
        """Cut both directions mid-pull: the receiver aborts its pull on
        the watchdog; the sender — whose NOTIFY can never arrive — is
        rescued by liveness with a typed PeerDead, and both hosts drain
        every skbuff, pin and DMA cookie."""
        from repro.analysis.sanitizers import Sanitizer

        tb = build_testbed(ioat_enabled=True)
        # A clean 256 KiB rendezvous completes at ~286 us and the RNDV is
        # acked by ~35 us: us(120) lands mid-pull with no unacked eager
        # traffic, so only liveness can rescue the sender.
        cut_at = us(120)
        dead = lambda f, i: tb.sim.now >= cut_at  # noqa: E731
        tb.link.inject_fault(True, LossInjector(predicate=dead))
        tb.link.inject_fault(False, LossInjector(predicate=dead))
        san = Sanitizer()
        for host in tb.hosts:
            san.watch_host(host)

        ep0, ep1 = tb.open_endpoint(0, 0), tb.open_endpoint(1, 0)
        c0, c1 = tb.user_core(0), tb.user_core(1)
        size = 256 * KiB
        reqs = {}

        def sender():
            buf = ep0.space.alloc(size)
            req = yield from ep0.isend(c0, ep1.addr, 0x5, buf, 0, size)
            reqs["send"] = req
            yield from ep0.wait(c0, req)

        def receiver():
            buf = ep1.space.alloc(size)
            req = yield from ep1.irecv(c1, 0x5, ~0, buf, 0, size)
            reqs["recv"] = req
            yield from ep1.wait(c1, req)

        tb.sim.daemon(sender(), name="pd-send")
        tb.sim.daemon(receiver(), name="pd-recv")
        tb.sim.run(until=ms(45), max_events=30_000_000)

        send_req, recv_req = reqs["send"], reqs["recv"]
        assert recv_req.done
        assert isinstance(recv_req.error, PullAborted)
        assert send_req.done
        assert isinstance(send_req.error, PeerDead)
        assert send_req.error.peer == ep1.addr
        assert send_req.error.pending >= 1

        health = collect_health(tb.stacks[0])
        assert health["keepalives_tx"] >= 1
        assert health["peers_declared_dead"] == 1
        assert health["peers_dead"] == 1
        # Peer death released everything: no leaked skbuffs/pins/cookies.
        assert [v.format() for v in san.check()] == []

    def test_clean_run_has_no_liveness_traffic(self):
        """A healthy short transfer finishes long before the keepalive
        interval: zero keepalives, zero deaths, and the scan daemon
        disarms (the run drains without a horizon)."""
        tb = build_testbed(ioat_enabled=True)
        ep0, ep1 = tb.open_endpoint(0, 0), tb.open_endpoint(1, 0)
        c0, c1 = tb.user_core(0), tb.user_core(1)
        size = 16 * KiB
        reqs = {}

        def sender():
            buf = ep0.space.alloc(size)
            req = yield from ep0.isend(c0, ep1.addr, 0x1, buf, 0, size)
            reqs["send"] = req
            yield from ep0.wait(c0, req)

        def receiver():
            buf = ep1.space.alloc(size)
            req = yield from ep1.irecv(c1, 0x1, ~0, buf, 0, size)
            reqs["recv"] = req
            yield from ep1.wait(c1, req)

        tb.sim.daemon(sender(), name="cl-send")
        tb.sim.daemon(receiver(), name="cl-recv")
        tb.sim.run()  # no horizon: demand-armed daemons must disarm
        assert reqs["send"].error is None and reqs["recv"].error is None
        for stack in tb.stacks:
            h = collect_health(stack)
            assert h["keepalives_tx"] == 0
            assert h["peers_declared_dead"] == 0


class TestDuplicateFailures:
    def test_second_failure_counts_duplicate_and_keeps_first_error(self):
        tb = build_testbed(ioat_enabled=True)
        drv = tb.stacks[0].driver
        ep = tb.open_endpoint(0, 0)
        from repro.core.types import OmxRequest

        req = OmxRequest(kind="recv", match_info=0, mask=~0, region=None,
                         offset=0, length=4 * KiB, peer=B)
        first = PullAborted(B, msg_id=1, received=0, total=4, retransmits=3)
        drv._fail_request(ep, req, first)
        assert req.error is first
        drv._fail_request(ep, req, PeerDead(B, ms(20), pending=1))
        assert req.error is first  # first typed error wins
        assert drv.duplicate_failures == 1
        drv._fail_request(ep, None, first)  # vanished request: harmless
        assert drv.duplicate_failures == 1
