"""Gray-failure resilience acceptance (DESIGN.md §17).

The ISSUE's acceptance bars, as tier-1 tests:

* the gray axes (degrade / flap / lossy) arm against both the chunk-level
  :class:`~repro.fabric.network.FabricNetwork` and full-hardware
  :class:`~repro.ethernet.switch.EthernetSwitch` trunks, and fail with a
  typed :class:`~repro.faults.injectors.NoTrunksError` on topologies with
  no trunks to act on;
* the health estimator scores seeded windows, the breaker's hysteresis
  demotes a gray trunk once and refuses to track a flap
  (``fabric_route_flaps_suppressed > 0`` with stable final routes);
* crash-stop rank kills drain sanitizer-clean as the typed
  :class:`~repro.core.errors.RankDead` (abort-and-report) or shrink the
  ring over the survivors (``resilient_allreduce``), and the shrunk ring
  computes the survivors' sum on real bytes;
* the chaos campaign covers all five outcome classes, byte-identical per
  seed; random seeded flap schedules (hypothesis) never partition a
  still-connected fat-tree and never perturb determinism;
* the fabric soaks run to quiescence with live livelock checkpoints, and
  the shared stall watchdog trips on no progress;
* an attached but idle resilience layer leaves the simulation identical.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.errors import RankDead, TransferError
from repro.ethernet.switch import build_switched_testbed
from repro.fabric.build import build_fabric_testbed
from repro.fabric.mpi import launch_fabric_world
from repro.fabric.resilience import (
    HOLD_DOWN,
    REOPEN_SAMPLES,
    TRIP_SAMPLES,
    WINDOW,
    FabricResilience,
    LinkBreaker,
    LinkHealth,
    LinkHealthEstimator,
    resilient_allreduce,
)
from repro.fabric.sweep import (
    chaos_campaign,
    collective_body,
    make_topology,
    run_fabric_cell,
    run_imb_fabric,
)
from repro.faults import (
    FabricDegradeSpec,
    FabricFlapSpec,
    FabricLossySpec,
    FaultPlan,
    LivelockError,
    NoTrunksError,
    RankFaultSpec,
    arm_plan,
    fabric_soak_suite,
    flap_windows,
    run_fabric_soak,
    run_fabric_soak_suite,
)
from repro.faults.soak import _stall_watchdog
from repro.mpi import create_world
from repro.mpi.collectives import _allreduce_ring
from repro.simkernel import Simulator
from repro.simkernel.errors import SimulationError
from repro.units import KiB, us

MAXEV = 50_000_000

#: the canonical test fabric: 8 hosts behind 2 edges, 4 spines, 1:1 —
#: every single-trunk failure leaves it connected
FT2 = dict(topology="fat_tree2", hosts=8, oversubscription=1.0,
           hosts_per_edge=4)


def _trunks(**kw):
    spec = make_topology(kw.get("topology", "fat_tree2"), kw.get("hosts", 8),
                         kw.get("oversubscription", 1.0),
                         kw.get("hosts_per_edge", 4))
    return sorted(l.name for l in spec.trunk_links())


# ---------------------------------------------------------------------------
# units: flap schedules, estimator, breaker
# ---------------------------------------------------------------------------


class TestUnits:
    def test_flap_windows_seeded_and_ordered(self):
        spec = FabricFlapSpec(link="edge0~spine0", at=us(50),
                              period=us(400), duty=0.5, cycles=3,
                              jitter=0.2)
        w1 = flap_windows(spec, "s1")
        assert w1 == flap_windows(spec, "s1")  # seeded: same seed, same cuts
        assert w1 != flap_windows(spec, "s2")
        assert len(w1) == 3
        flat = [t for w in w1 for t in w]
        assert flat == sorted(flat)  # down/up alternation never overlaps
        assert flat[0] >= us(50)

    def test_estimator_scores_port_state(self):
        world = launch_fabric_world(make_topology(**{
            "topology": "fat_tree2", "hosts": 8, "oversubscription": 1.0,
            "hosts_per_edge": 4}))
        net = world.net
        trunk = _trunks()[0]
        ports = net.ports_of_link(trunk)
        est = LinkHealthEstimator(trunk, ports)
        assert est.sample() is LinkHealth.HEALTHY
        ports[0].service_scale = 4.0  # noqa: FAB001 — unit pokes the port
        assert est.sample() is LinkHealth.DEGRADED
        ports[0].service_scale = 1.0  # noqa: FAB001
        ports[0].alive = False
        assert est.sample() is LinkHealth.DEAD
        assert est.samples == 3

    def test_breaker_trips_holds_down_then_reopens(self):
        world = launch_fabric_world(make_topology(**FT2))
        net = world.net
        trunk = _trunks()[0]
        link = net.spec.link_named(trunk)
        res = FabricResilience(net, seed="unit")
        br = LinkBreaker(res, trunk, link.a, link.b)
        now = 0
        for _ in range(TRIP_SAMPLES):
            br.on_sample(LinkHealth.DEGRADED, now)
            now += WINDOW
        assert br.state == "open" and res.demotions == 1
        assert res.reroutes == 1
        # healthy inside the hold-down: refused, counted as suppressed
        for _ in range(REOPEN_SAMPLES + 2):
            br.on_sample(LinkHealth.HEALTHY, now)
            now += WINDOW
        assert br.state == "open"
        assert res.flaps_suppressed >= REOPEN_SAMPLES
        # past the hold-down AND a fresh healthy streak: restored
        now = br.tripped_at + HOLD_DOWN + 1
        br.healthy_streak = 0
        for _ in range(REOPEN_SAMPLES):
            br.on_sample(LinkHealth.HEALTHY, now)
            now += WINDOW
        assert br.state == "closed"
        assert res.restorations == 1 and res.reroutes == 2


# ---------------------------------------------------------------------------
# gray axes on the chunk-level fabric
# ---------------------------------------------------------------------------


class TestGrayAxes:
    def _plan(self, **axes):
        return FaultPlan(name="t-gray", seed="t", **axes).to_dict()

    def test_degrade_demotes_and_completes(self):
        trunk = _trunks()[0]
        out = run_fabric_cell(
            **FT2, size=16 * KiB, backend="memcpy",
            plan=self._plan(degrade=(
                FabricDegradeSpec(link=trunk, at=0, bw_factor=0.1),)))
        assert out["outcome"] == "degraded-completed"
        snap = out["resilience"]
        assert snap["demotions"] >= 1 and snap["reroutes"] >= 1
        assert snap["links"][trunk] == "degraded"
        assert out["net"]["msgs_failed"] == 0

    def test_lossy_retries_until_delivered(self):
        # every trunk lossy: whatever paths ECMP picks, drops happen
        out = run_fabric_cell(
            **FT2, size=16 * KiB, backend="memcpy",
            plan=self._plan(lossy=tuple(
                FabricLossySpec(link=t, drop_rate=0.3, at=0)
                for t in _trunks())))
        assert out["net"]["chunks_retried"] > 0
        assert out["net"]["msgs_failed"] == 0
        assert out["outcome"] in ("rerouted", "degraded-completed",
                                  "completed")

    def test_flap_is_suppressed_and_routes_settle(self):
        """The regression the ISSUE pins: a flapping trunk produces a
        positive suppressed-flap count and *stable* final routes — the
        breaker holds one demotion through the flap instead of racing
        the duty cycle, and the demotion lifts once the link settles."""
        trunk = _trunks()[0]
        plan = self._plan(flap=(
            FabricFlapSpec(link=trunk, at=us(20), period=us(120),
                           duty=0.5, cycles=4),))
        out = run_fabric_cell(**FT2, size=16 * KiB, backend="memcpy",
                              plan=plan)
        snap = out["resilience"]
        assert snap["flaps_suppressed"] > 0
        assert snap["demoted"] == []  # final routes: nothing left demoted
        assert 1 <= snap["demotions"] <= 4  # one-ish demotion, not 4 flaps
        assert out["net"]["msgs_failed"] == 0
        assert out == run_fabric_cell(**FT2, size=16 * KiB,
                                      backend="memcpy", plan=plan)

    def test_no_trunks_error_names_offenders(self):
        world = launch_fabric_world(make_topology("star", 4,
                                                  hosts_per_edge=4))
        plan = FaultPlan(name="bad", seed="t", degrade=(
            FabricDegradeSpec(link="node0~sw0", at=0),))
        with pytest.raises(NoTrunksError) as exc:
            arm_plan(world, plan)
        assert "node0~sw0" in str(exc.value)
        assert "no trunks" in str(exc.value)


# ---------------------------------------------------------------------------
# crash-stop ranks: abort-and-report and shrink-and-retry
# ---------------------------------------------------------------------------


class TestCrashStop:
    KILL = dict(size=16 * KiB, backend="memcpy",
                plan=FaultPlan(name="t-kill", seed="t", ranks=(
                    RankFaultSpec(rank=1, at=us(30)),)).to_dict())

    def test_abort_surfaces_typed_rank_dead(self):
        out = run_fabric_cell(**FT2, recovery="abort", **self.KILL)
        assert out["outcome"] == "failed:RankDead"
        assert out["liveness"]["deaths_declared"] == 1
        assert out["liveness"]["dead_ranks"] == [1]

    def test_shrink_completes_over_survivors(self):
        out = run_fabric_cell(**FT2, recovery="shrink", **self.KILL)
        assert out["outcome"] == "shrunk-completed"
        assert out["liveness"]["dead_ranks"] == [1]
        assert out["liveness"]["epoch"] == 1
        assert out == run_fabric_cell(**FT2, recovery="shrink", **self.KILL)

    def test_shrunk_allreduce_drains_clean_and_every_survivor_finishes(self):
        """Raw-world shrink: rank 1 dies mid-ring, the seven survivors
        all complete the retried ring (fabric payloads are phantom — the
        cost model, not the bytes, is what the chunk level simulates, so
        the check is structural: who finished, what epoch, clean drain)."""

        def run():
            world = launch_fabric_world(make_topology(**FT2),
                                        backend="memcpy")
            arm_plan(world, FaultPlan(name="t-kill", seed="t", ranks=(
                RankFaultSpec(rank=1, at=us(30)),)))
            n = 16 * KiB
            done = []

            def body(rank):
                sb = rank.space.alloc(n)
                rb = rank.space.alloc(n)
                yield from resilient_allreduce(rank, sb, rb)
                done.append(rank.rank)

            world.run_spmd(body, max_events=MAXEV)
            world.finish()  # sanitizer-clean drain
            return sorted(done), world.survivors(), world.epoch, world.sim.now

        done, survivors, epoch, end = run()
        assert survivors == [0, 2, 3, 4, 5, 6, 7]
        assert done == survivors  # every survivor finished, the dead did not
        assert epoch == 1
        assert run() == (done, survivors, epoch, end)  # deterministic

    @pytest.mark.parametrize("n", [4 * KiB, 4 * KiB + 4, 12, 8])
    def test_shrunk_ring_sums_real_bytes(self, n):
        """The shrunk ring is the normal ring over ``members``: on a
        byte-moving testbed, ranks 0, 1 and 3 end with 1 + 2 + 4 and rank
        2, outside the ring, keeps its own contribution.  4 KiB + 4 gives
        the last member a remainder block; 12 B is one float per block;
        8 B (below 4p) leaves two members with empty blocks."""
        comm = create_world(build_switched_testbed(4), ppn=1)
        members = [0, 1, 3]
        out = {}

        def body(rank):
            buf = rank.space.alloc(n)
            buf.read().view(np.float32)[:] = float(rank.rank + 1)
            if rank.rank in members:
                yield from _allreduce_ring(rank, buf, n, 0x4000_0000,
                                           members=members)
            out[rank.rank] = buf.read().view(np.float32).copy()

        comm.run_spmd(body, max_events=MAXEV)
        for r in members:
            assert np.all(out[r] == 7.0), r
        assert np.all(out[2] == 3.0)

    def test_send_checked_before_declaration_cannot_escape_it(self):
        """Regression: a send gated before the declaration wave whose send
        CPU ran past it used to enter the network anyway, and its epoch-0
        message outlived the stale drain (``fabric teardown: unconsumed
        messages``).  The gate now runs again after the send CPU."""
        spec = next(s for s in fabric_soak_suite("soak-0")
                    if s.name == "gray-crash")
        report = run_fabric_soak(dataclasses.replace(spec, rounds=4))
        assert report["sanitizer"] == []
        assert report["dead_ranks"] == [2] and report["epoch"] == 1


# ---------------------------------------------------------------------------
# the chaos campaign: every outcome class, byte-identical
# ---------------------------------------------------------------------------


class TestChaosCampaign:
    def test_covers_all_five_outcome_classes(self):
        report = chaos_campaign()
        assert report["outcomes"] == [
            "degraded-completed",
            "failed:FabricPartitioned",
            "failed:RankDead",
            "rerouted",
            "shrunk-completed",
        ]
        assert len(report["cells"]) == 18  # 3 topologies x 6 axes
        assert all(c["sanitizer"] == [] for c in report["cells"])

    def test_campaign_byte_identical(self):
        assert chaos_campaign() == chaos_campaign()


# ---------------------------------------------------------------------------
# hypothesis: random seeded flap schedules
# ---------------------------------------------------------------------------


class TestFlapProperty:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(trunk_idx=st.integers(0, 7),
           at=st.integers(0, 40),
           period=st.integers(60, 300),
           duty=st.sampled_from([0.25, 0.5, 0.75]),
           cycles=st.integers(1, 4),
           seed=st.integers(0, 2 ** 16))
    def test_flap_never_partitions_and_stays_deterministic(
            self, trunk_idx, at, period, duty, cycles, seed):
        """Any seeded flap of one trunk of a 1:1 fat-tree (which stays
        connected throughout) completes the collective — never a
        partition, never a hang — and two runs of the same schedule are
        byte-identical."""
        trunks = _trunks()
        plan = FaultPlan(name="prop-flap", seed=f"prop{seed}", flap=(
            FabricFlapSpec(link=trunks[trunk_idx % len(trunks)], at=us(at),
                           period=us(period), duty=duty, cycles=cycles),
        )).to_dict()
        out = run_fabric_cell(**FT2, size=8 * KiB, backend="memcpy",
                              plan=plan)
        assert not out["outcome"].startswith("failed:"), out["detail"]
        assert out["net"]["msgs_failed"] == 0
        assert out == run_fabric_cell(**FT2, size=8 * KiB,
                                      backend="memcpy", plan=plan)

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2 ** 16))
    def test_flapped_world_drains_sanitizer_clean(self, seed):
        """Same property, against the raw world: after a flapped
        allreduce the teardown sanitizers (no stuck process, no leaked
        message, quiesced ports) all pass."""
        world = launch_fabric_world(make_topology(**FT2), backend="memcpy")
        trunk = _trunks()[seed % 8]
        arm_plan(world, FaultPlan(name="prop-drain", seed=f"d{seed}", flap=(
            FabricFlapSpec(link=trunk, at=us(10 + seed % 30),
                           period=us(100 + seed % 100), duty=0.5,
                           cycles=2),)))
        world.run_spmd(collective_body("allreduce", 8 * KiB),
                       max_events=MAXEV)
        world.finish()


# ---------------------------------------------------------------------------
# full-hardware trunks: gray frame hooks
# ---------------------------------------------------------------------------


class TestHardwareGray:
    def _sums(self, tb, n=4 * KiB):
        comm = create_world(tb, ppn=1)
        out = {}

        def body(rank):
            sb = rank.space.alloc(n)
            rb = rank.space.alloc(n)
            sb.read().view(np.float32)[:] = float(rank.rank + 1)
            yield from rank.allreduce(sb, rb)
            out[rank.rank] = rb.read().view(np.float32).copy()

        comm.run_spmd(body, max_events=MAXEV)
        return out

    def test_gray_trunks_arm_and_health_observes(self):
        spec = make_topology("fat_tree2", 4, hosts_per_edge=2)
        tb = build_fabric_testbed(spec)
        trunk = sorted(tb.trunks)[0]
        armed = arm_plan(tb, FaultPlan(name="hw-gray", seed="t", lossy=(
            FabricLossySpec(link=trunk, drop_rate=0.2, at=0),), degrade=(
            FabricDegradeSpec(link=trunk, at=0, bw_factor=0.5),)))
        assert armed.fabric_armed == 2 and armed.gray_hooks
        out = self._sums(tb)
        expected = float(sum(range(1, 5)))
        assert all(np.all(v == expected) for v in out.values())
        # the retransmit stack absorbed the loss; the hooks really fired
        fired = sum(h.lossy_drops + h.delayed for h in armed.gray_hooks)
        assert fired > 0

    def test_kill_axis_rejected_on_hardware(self):
        from repro.faults import FabricFaultSpec
        spec = make_topology("fat_tree2", 4, hosts_per_edge=2)
        tb = build_fabric_testbed(spec)
        plan = FaultPlan(name="hw-kill", seed="t", fabric=(
            FabricFaultSpec(link=sorted(tb.trunks)[0], action="kill",
                            at=0),))
        with pytest.raises(ValueError):
            arm_plan(tb, plan)


class TestIdleAttachment:
    def test_unwatched_attachment_leaves_the_simulation_identical(self):
        """Construction registers two counters and schedules nothing, so a
        64-host allreduce runs the same events to the same clock, port by
        port, with or without a never-watched resilience layer."""
        def run(attach):
            world = launch_fabric_world(make_topology("fat_tree2", 64, 2.0),
                                        backend="memcpy")
            if attach:
                FabricResilience(world.net, seed="idle")
            world.run_spmd(collective_body("allreduce", 64 * KiB),
                           max_events=MAXEV)
            world.finish()
            net = world.net
            return (world.sim.events_processed, world.sim.now,
                    net.chunks_forwarded, net.chunks_dropped,
                    {p.name: p.stats() for p in net.ports()})

        bare = run(False)
        assert bare[0] > 0 and bare[2] > 0
        assert run(True) == bare


# ---------------------------------------------------------------------------
# fabric soak + IMB over the fabric
# ---------------------------------------------------------------------------


class TestFabricSoak:
    def test_suite_byte_identical_and_clean(self):
        a = run_fabric_soak_suite("t-soak")
        assert a == run_fabric_soak_suite("t-soak")
        assert a["sanitizer_dirty_runs"] == []
        names = {r["soak"] for r in a["runs"]}
        assert names == {"gray-churn", "gray-crash"}
        for run in a["runs"]:
            assert run["checkpoints"], "livelock checkpoints must run"
            last = run["checkpoints"][-1]
            assert last["open_msgs"] == 0
            assert run["resilience"]["flaps_suppressed"] > 0
        crash = next(r for r in a["runs"] if r["soak"] == "gray-crash")
        assert crash["dead_ranks"] == [2] and crash["epoch"] == 1
        assert crash["net"]["msgs_failed"] > 0  # the typed drain, counted


class TestStallWatchdog:
    def test_no_progress_raises_livelock_naming_the_run(self):
        sim = Simulator()
        samples = []

        def sample():
            samples.append(sim.now)
            return (0, 0)  # never moves

        _stall_watchdog(sim, "soak-checkpoint-stuck", 10, 3, sample)
        with pytest.raises(SimulationError) as exc:
            sim.run()
        cause = exc.value.__cause__
        assert isinstance(cause, LivelockError)
        assert "soak-checkpoint-stuck" in str(cause)
        # the first sample sets the marker; three unchanged ones trip
        assert samples == [10, 20, 30, 40]

    def test_done_sample_ends_the_daemon_and_drains(self):
        sim = Simulator()
        marks = iter([(1,), (1,), (2,), None])
        _stall_watchdog(sim, "soak-checkpoint-done", 10, 2,
                        lambda: next(marks))
        sim.run()  # returns: the daemon ended, nothing keeps the heap alive
        assert sim.now == 40


class TestImbFabric:
    def test_smoke_cell(self):
        out = run_imb_fabric(hosts=8, size=4 * KiB, iterations=2, warmup=1,
                             hosts_per_edge=4)
        assert out["t_avg_us"] > 0  # Allreduce is a latency test: no MiB/s
        assert out["test"] == "Allreduce" and out["hosts"] == 8
        assert out == run_imb_fabric(hosts=8, size=4 * KiB, iterations=2,
                                     warmup=1, hosts_per_edge=4)

    def test_allgatherv_rejected(self):
        with pytest.raises(ValueError):
            run_imb_fabric(test="Allgatherv")
