"""Retransmit-path failure modes under adversarial schedules.

The bug class this file guards against is *silent* failure: a lost ACK
livelocking the sender, a hopeless message hanging its request forever, a
retransmit timer firing a whole period late.  Every scenario here must end
in either a completed transfer or a typed :class:`TransferError` surfaced
through ``ep.wait`` — never a hang."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import build_testbed
from repro.core.errors import (
    DeliveryFailed,
    PullAborted,
    RemoteAborted,
)
from repro.core.reliability import MAX_RETRIES, RxSession, TxSession
from repro.core.counters import collect_counters
from repro.ethernet.link import LossInjector
from repro.mx.wire import EndpointAddr, MxPacket, PktType
from repro.simkernel import Simulator
from repro.units import KiB, ms, us

A = EndpointAddr(1, 0)
B = EndpointAddr(2, 0)

SLOW = settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def mkpkt(ptype=PktType.SMALL):
    return MxPacket(ptype=ptype, src=A, dst=B)


class TestReackOnDuplicate:
    """A duplicate arrival must force a fresh ACK even when the cumulative
    seqnum has not advanced — the lost-ACK livelock fix."""

    def test_duplicate_forces_reack(self):
        sim = Simulator()
        acks = []
        rx = RxSession(sim, B, A, lambda o, p, c: acks.append((sim.now, c)))
        pkt = mkpkt()
        pkt.seqnum = 0
        assert rx.accept(pkt)
        sim.run(until=us(100))
        assert len(acks) == 1  # the ordinary delayed ack

        # The ACK was "lost": the sender retransmits, we see a duplicate.
        dup = mkpkt()
        dup.seqnum = 0
        assert not rx.accept(dup)
        sim.run(until=us(200))
        # Without the re-ack the sender would retransmit until dead-letter.
        assert len(acks) == 2
        assert acks[1][1] == 0  # same cumulative, re-announced
        assert rx.reacks == 1

    def test_piggyback_clears_reack_obligation(self):
        sim = Simulator()
        acks = []
        rx = RxSession(sim, B, A, lambda o, p, c: acks.append(c))
        pkt = mkpkt()
        pkt.seqnum = 0
        rx.accept(pkt)
        sim.run(until=us(100))
        dup = mkpkt()
        dup.seqnum = 0
        rx.accept(dup)
        # A data packet in the reverse direction carries the ack instead.
        rx.piggyback()
        sim.run(until=us(300))
        assert len(acks) == 1  # no redundant explicit re-ack

    def test_session_counters_exposed(self):
        sim = Simulator()
        tx = TxSession(sim, B, resend=lambda p: None, timeout=us(50),
                       backoff_seed=f"backoff:{B}")
        tx.stamp(mkpkt())
        sim.run(until=us(120))
        c = tx.collect_counters()
        assert c["retransmissions"] >= 1
        assert c["dead_letters"] == 0
        assert c["pending"] == 1

        rx = RxSession(sim, B, A, lambda o, p, c: None)
        p = mkpkt()
        p.seqnum = 0
        rx.accept(p)
        dup = mkpkt()
        dup.seqnum = 0
        sim.run(until=us(200))
        rx.accept(dup)
        sim.run(until=us(300))
        c = rx.collect_counters()
        assert c["duplicates"] == 1
        assert c["reacks"] == 1


class TestRetransmitTiming:
    """The timer sleeps to the earliest per-packet deadline: a packet
    stamped mid-interval retransmits exactly one timeout later, not up to
    two timeouts later as with the old fixed-period sleep."""

    def test_first_retransmit_exactly_one_timeout_late(self):
        sim = Simulator()
        times = []
        tx = TxSession(sim, B, resend=lambda p: times.append(sim.now),
                       timeout=us(100), backoff_seed=f"backoff:{B}")
        sim.call_at(us(37), lambda: tx.stamp(mkpkt()))
        sim.run(until=us(600))
        assert times[0] == us(137)
        assert times[1] == us(237)

    def test_staggered_packets_keep_individual_deadlines(self):
        sim = Simulator()
        times = []
        tx = TxSession(sim, B,
                       resend=lambda p: times.append((p.seqnum, sim.now)),
                       timeout=us(100), backoff_seed=f"backoff:{B}")
        sim.call_at(us(0), lambda: tx.stamp(mkpkt()))
        sim.call_at(us(60), lambda: tx.stamp(mkpkt()))
        sim.run(until=us(199))
        assert (0, us(100)) in times
        assert (1, us(160)) in times


def _endtoend(size, a2b_pred=None, b2a_pred=None, until=ms(60)):
    """One message node0 -> node1 with predicate-based frame loss.

    Returns (tb, send_req, recv_req); the simulation is run to ``until``
    so even a dead-lettered transfer reaches its typed-error end state.
    """
    tb = build_testbed(ioat_enabled=True)
    if a2b_pred is not None:
        tb.link.inject_fault(True, LossInjector(predicate=a2b_pred))
    if b2a_pred is not None:
        tb.link.inject_fault(False, LossInjector(predicate=b2a_pred))
    ep0, ep1 = tb.open_endpoint(0, 0), tb.open_endpoint(1, 0)
    c0, c1 = tb.user_core(0), tb.user_core(1)
    sbuf = ep0.space.alloc(max(size, 1))
    rbuf = ep1.space.alloc(max(size, 1), fill=0)
    sbuf.fill_pattern(7)
    reqs = {}

    def sender():
        req = yield from ep0.isend(c0, ep1.addr, 0x9, sbuf, 0, size)
        reqs["send"] = req
        yield from ep0.wait(c0, req)

    def receiver():
        req = yield from ep1.irecv(c1, 0x9, ~0, rbuf, 0, size)
        reqs["recv"] = req
        yield from ep1.wait(c1, req)

    tb.sim.daemon(sender(), name="t-sender")
    tb.sim.daemon(receiver(), name="t-receiver")
    tb.sim.run(until=until, max_events=30_000_000)
    return tb, reqs["send"], reqs["recv"]


class TestLostAckRecovery:
    def test_lost_acks_recovered_by_reack_not_dead_letter(self):
        """Dropping the first several ACKs must cost retransmissions, not
        the message: duplicates force re-acks until one gets through."""
        tb, send_req, recv_req = _endtoend(
            64,
            b2a_pred=lambda f, i: f.payload.ptype is PktType.ACK and i < 6,
        )
        assert send_req.done and send_req.error is None
        assert recv_req.done and recv_req.error is None
        tx_counters = collect_counters(tb.stacks[0])
        rx_counters = collect_counters(tb.stacks[1])
        assert tx_counters["retransmissions"] >= 1
        assert tx_counters["dead_letters"] == 0
        assert rx_counters["reacks"] >= 1


class TestTypedFailures:
    def test_dead_letter_surfaces_delivery_failed(self):
        """A medium whose every fragment copy is lost fails loudly through
        ``ep.wait`` with :class:`DeliveryFailed` — it never hangs.  (Tiny
        and small sends are stack-buffered and complete immediately, so
        the ack-watched medium path is where the error must surface.)"""
        tb, send_req, _recv_req = _endtoend(
            16 * KiB,
            a2b_pred=lambda f, i: f.payload.ptype is PktType.MEDIUM_FRAG,
        )
        assert send_req.done
        assert isinstance(send_req.error, DeliveryFailed)
        assert send_req.error.retries == MAX_RETRIES
        assert collect_counters(tb.stacks[0])["dead_letters"] >= 1

    def test_pull_abort_surfaces_typed_errors_both_sides(self):
        """A pull that never makes progress aborts with
        :class:`PullAborted` on the receiver and, via the NACK, fails the
        sender with :class:`RemoteAborted` — and strands no resources."""
        from repro.analysis.sanitizers import Sanitizer

        size = 256 * KiB
        tb, send_req, recv_req = _endtoend(
            size,
            a2b_pred=lambda f, i: f.payload.ptype is PktType.PULL_REPLY,
        )
        san = Sanitizer()
        for host in tb.hosts:
            san.watch_host(host)
        assert recv_req.done
        assert isinstance(recv_req.error, PullAborted)
        assert recv_req.error.received < size
        assert send_req.done
        assert isinstance(send_req.error, RemoteAborted)
        assert tb.stacks[1].driver.pull_aborts == 1
        assert collect_counters(tb.stacks[1])["pull_aborts"] == 1
        # Abort released every pin, skbuff and DMA cookie on both hosts.
        assert [v.format() for v in san.check()] == []


@pytest.mark.faults
class TestAdversarialProperty:
    @SLOW
    @given(
        drop_data=st.floats(min_value=0.0, max_value=0.12),
        drop_acks=st.floats(min_value=0.0, max_value=0.12),
        size=st.sampled_from((1 * KiB, 16 * KiB, 48 * KiB)),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_every_message_completes_or_fails_loudly(
        self, drop_data, drop_acks, size, seed
    ):
        """Under arbitrary bidirectional loss, every message pair reaches a
        terminal state (completed, or a typed error) and the run leaks
        nothing — the campaign's core invariant, hypothesis-driven."""
        from repro.faults.campaign import run_cell
        from repro.faults.plan import FaultPlan, LinkFaultSpec

        plan = FaultPlan(
            name="prop", seed=f"prop-{seed}",
            links=(
                LinkFaultSpec(direction_a2b=True, drop_rate=drop_data),
                LinkFaultSpec(direction_a2b=False, drop_rate=drop_acks),
            ),
        )
        cell = run_cell("stream", size, plan, iters=2)
        assert cell["outcomes"]["hung"] == 0
        assert cell["hung_keys"] == []
        total = cell["outcomes"]["completed"] + cell["outcomes"]["failed"]
        assert total == cell["messages"]
        assert cell["sanitizer"] == []


class TestSoakProperty:
    @SLOW
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        which=st.sampled_from((0, 1, 2)),
    )
    def test_soak_specs_terminate_clean_under_any_seed(self, seed, which):
        """The soak invariant, hypothesis-driven: any seeded chained-fault
        schedule (I/OAT flapping, link flapping, incast bursts) drains to
        all-terminal transfers with zero resource leaks — the seed may move
        *which* messages fail, never *whether* the run converges."""
        from repro.faults import run_soak, soak_suite

        spec = soak_suite(seed=f"prop-{seed}", iters=3)[which]
        report = run_soak(spec)
        assert report["outcomes"]["hung"] == 0
        assert report["hung_keys"] == []
        terminal = report["outcomes"]["completed"] + report["outcomes"]["failed"]
        assert terminal == report["messages"]
        assert report["sanitizer"] == []
        # The checkpoint trail closed with everything drained.
        assert report["checkpoints"][-1]["nonterminal"] == 0
