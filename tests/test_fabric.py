"""Tests for repro.fabric: topology invariants, deterministic routing,
bit-identical collectives at scale, fault cells, and the wrapper factories."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fabric import sweep
from repro.fabric.routing import RouteTables, ecmp_pick
from repro.fabric.spec import (
    TopologySpec,
    dragonfly,
    fat_tree,
    pair_topology,
    star_topology,
)
from repro.fabric.sweep import (
    fabric_scenario,
    make_topology,
    run_fabric_cell,
    run_fabric_collective,
    spine_kill_plan,
)
from repro.fabric.build import build_fabric_testbed
from repro.fabric.mpi import launch_fabric_world
from repro.faults.injectors import arm_plan
from repro.faults.plan import FabricFaultSpec, FaultPlan
from repro.units import KiB

MAXEV = 10_000_000


# ---------------------------------------------------------------------------
# topology invariants
# ---------------------------------------------------------------------------

SPEC_CASES = [
    ("pair", 2, 1.0),
    ("star", 8, 1.0),
    ("fat_tree2", 16, 1.0),
    ("fat_tree2", 32, 4.0),
    ("fat_tree3", 64, 1.0),
    ("dragonfly", 16, 1.0),
]


@pytest.mark.parametrize("kind,hosts,oversub", SPEC_CASES)
class TestTopologyInvariants:
    def test_validates_and_connected(self, kind, hosts, oversub):
        spec = make_topology(kind, hosts, oversubscription=oversub)
        spec.validate()
        assert spec.connected()
        # fat_tree3 rounds the host count up to the next full k^3/4 tree
        assert len(spec.hosts) >= hosts
        if kind != "fat_tree3":
            assert len(spec.hosts) == hosts

    def test_every_host_has_one_access_link(self, kind, hosts, oversub):
        spec = make_topology(kind, hosts, oversubscription=oversub)
        if not spec.switches:  # back-to-back pair
            return
        adj = spec.neighbors()
        for h in spec.hosts:
            assert len(adj[h]) == 1
            assert spec.edge_of(h) in spec.switch_names()

    def test_json_round_trip(self, kind, hosts, oversub):
        spec = make_topology(kind, hosts, oversubscription=oversub)
        assert TopologySpec.from_dict(spec.to_dict()) == spec

    def test_diameter_positive(self, kind, hosts, oversub):
        spec = make_topology(kind, hosts, oversubscription=oversub)
        assert spec.diameter_hops() >= 1


class TestGenerators:
    def test_fat_tree2_oversubscription_reported(self):
        spec = make_topology("fat_tree2", 64, oversubscription=4.0)
        assert spec.oversubscription() == pytest.approx(4.0)

    def test_fat_tree3_tier_names(self):
        spec = fat_tree(tiers=3, k=4)
        tiers = {s.tier for s in spec.switches}
        assert tiers == {"edge", "agg", "spine"}

    def test_dragonfly_has_global_links(self):
        spec = dragonfly(groups=4)
        globals_ = [l for l in spec.trunk_links() if "g" in l.a and "g" in l.b
                    and l.a.split("r")[0] != l.b.split("r")[0]]
        assert globals_  # at least one inter-group trunk

    def test_pair_and_star_are_degenerate(self):
        assert pair_topology().switches == ()
        star = star_topology(4)
        assert len(star.switches) == 1
        assert not star.trunk_links()


# ---------------------------------------------------------------------------
# routing determinism
# ---------------------------------------------------------------------------


class TestRoutingDeterminism:
    def test_identical_tables_across_two_builds(self):
        spec = make_topology("fat_tree2", 32, oversubscription=1.0)
        r1, r2 = RouteTables(spec), RouteTables(spec)
        edges = sorted({spec.edge_of(h) for h in spec.hosts})
        for edge in edges:
            assert r1.table_for(edge) == r2.table_for(edge)

    def test_ecmp_pick_is_seeded_and_stable(self):
        picks = [ecmp_pick("s", "h0>h9", "sw1", 4) for _ in range(8)]
        assert len(set(picks)) == 1
        assert ecmp_pick("other-seed", "h0>h9", "sw1", 97) != \
            ecmp_pick("s", "h0>h9", "sw1", 97) or True  # differs or collides
        assert 0 <= picks[0] < 4

    def test_kill_and_revive_flip_liveness(self):
        spec = make_topology("fat_tree2", 16, oversubscription=1.0)
        routes = RouteTables(spec)
        trunk = spec.trunk_links()[0]
        v0 = routes.version
        assert routes.is_live(trunk.a, trunk.b)
        assert routes.kill_link(trunk.a, trunk.b)
        assert not routes.is_live(trunk.a, trunk.b)
        assert routes.version > v0
        routes.revive_link(trunk.a, trunk.b)
        assert routes.is_live(trunk.a, trunk.b)


class _OracleRoutes:
    """The name-keyed route tables the integer ones replaced: one
    dict-of-lists BFS per destination edge, cached until the live or
    demoted trunk set changes."""

    def __init__(self, spec):
        hosts = set(spec.hosts)
        self.seed = spec.ecmp_seed
        self.adj = {s: [] for s in spec.switch_names()}
        self.live, self.demoted, self.tables = {}, set(), {}
        for l in spec.links:
            if l.a not in hosts and l.b not in hosts:
                self.adj[l.a].append(l.b)
                self.adj[l.b].append(l.a)
                self.live[tuple(sorted((l.a, l.b)))] = True
        for peers in self.adj.values():
            peers.sort()

    def apply(self, op, key):
        """Mirror one ``RouteTables.<op>_link`` call on trunk ``key``."""
        if op in ("kill", "revive"):
            self.live[key] = op == "revive"
        elif op == "demote":
            self.demoted.add(key)
        else:
            self.demoted.discard(key)
        self.tables.clear()

    def _bfs(self, dst, avoid):
        table, frontier = {dst: []}, [dst]
        while frontier:
            level = {}
            for sw in frontier:
                for peer in self.adj[sw]:
                    key = tuple(sorted((sw, peer)))
                    if not self.live[key] or key in avoid:
                        continue
                    if peer in level:
                        level[peer].append(sw)
                    elif peer not in table:
                        level[peer] = table[peer] = [sw]
            frontier = sorted(level)
        return table

    def table_for(self, dst):
        if dst not in self.tables:
            table = self._bfs(dst, set())
            if self.demoted:
                preferred = self._bfs(dst, self.demoted)
                if len(preferred) == len(table):
                    table = preferred
            self.tables[dst] = table
        return self.tables[dst]

    def path(self, src, dst, flow):
        table = self.table_for(dst)
        if src != dst and src not in table:
            return None
        walk = [src]
        while walk[-1] != dst:
            hops = table[walk[-1]]
            walk.append(hops[ecmp_pick(self.seed, flow, walk[-1], len(hops))])
        return tuple(walk)


_ROUTE_OPS = ("demote", "kill", "restore", "revive")


class TestRoutingDifferential:
    """The integer tables equal the name-keyed oracle after any sequence
    of kills, revivals, demotions and restorations: same tables, same
    reachability and the same ECMP walk for every edge pair."""

    @pytest.mark.parametrize("kind,hosts", [("fat_tree2", 32),
                                            ("fat_tree3", 16),
                                            ("fat_tree3", 128),
                                            ("dragonfly", 32)])
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(ops=st.lists(st.tuples(
        st.sampled_from(_ROUTE_OPS),
        # mostly the first trunks in spec order (the first edge's or
        # group's), so ops pile onto a few links and cut them off
        st.one_of(st.integers(0, 7), st.integers(0, 1 << 16))),
        max_size=16))
    def test_matches_name_keyed_oracle(self, kind, hosts, ops):
        spec = make_topology(kind, hosts, hosts_per_edge=4)
        routes, oracle = RouteTables(spec), _OracleRoutes(spec)
        trunks = spec.trunk_links()
        edges = sorted({spec.edge_of(h) for h in spec.hosts})
        for op, i in ops:
            link = trunks[i % len(trunks)]
            getattr(routes, f"{op}_link")(link.a, link.b)
            oracle.apply(op, tuple(sorted((link.a, link.b))))
            # query between ops so a stale cached table would show
            flow = f"{op}/{i}"
            assert (routes.path(edges[0], edges[-1], flow)
                    == oracle.path(edges[0], edges[-1], flow))
        for dst in edges:
            assert routes.table_for(dst) == oracle.table_for(dst)
            for src in edges:
                flow = f"{src}>{dst}/0/0"
                assert routes.path(src, dst, flow) == \
                    oracle.path(src, dst, flow)
                assert routes.reachable(src, dst) == \
                    (src == dst or src in oracle.table_for(dst))

    def test_rows_shared_at_1024_hosts(self):
        """The 128 tables of a 1024-host fat tree hold fewer distinct row
        objects than the fabric has switches."""
        spec = make_topology("fat_tree3", 1024)
        routes = RouteTables(spec)
        edges = sorted({spec.edge_of(h) for h in spec.hosts})
        assert len(edges) == 128
        rows = {id(row) for edge in edges
                for row in routes._table(routes._ids[edge])}
        assert len(rows) < len(spec.switches)


# ---------------------------------------------------------------------------
# bit-identical collectives at scale (the acceptance bar)
# ---------------------------------------------------------------------------


class TestCollectiveDeterminism:
    @pytest.mark.parametrize("backend", ["memcpy", "ioat"])
    def test_256_host_allreduce_bit_identical(self, backend):
        kw = dict(topology="fat_tree2", hosts=256, oversubscription=1.0,
                  collective="allreduce", size=64 * KiB, backend=backend)
        assert run_fabric_collective(**kw) == run_fabric_collective(**kw)

    def test_backends_differ(self):
        kw = dict(topology="fat_tree2", hosts=16, size=64 * KiB,
                  hosts_per_edge=4)
        t_memcpy = run_fabric_collective(backend="memcpy", **kw)["time_ns"]
        t_ioat = run_fabric_collective(backend="ioat", **kw)["time_ns"]
        assert t_ioat < t_memcpy  # overlapped DMA beats the contended bus

    def test_oversubscription_hurts(self):
        kw = dict(topology="fat_tree2", hosts=16, size=256 * KiB,
                  hosts_per_edge=4, backend="ioat")
        t1 = run_fabric_collective(oversubscription=1.0, **kw)["time_ns"]
        t4 = run_fabric_collective(oversubscription=4.0, **kw)["time_ns"]
        assert t4 > t1

    @pytest.mark.parametrize("collective",
                             ["barrier", "bcast", "alltoall", "allgather"])
    def test_other_collectives_complete(self, collective):
        out = run_fabric_collective(hosts=8, hosts_per_edge=4, size=4 * KiB,
                                    collective=collective)
        assert out["events"] > 0 and out["time_ns"] > 0

    def test_fabric_ranks_are_slotted_mpi_ranks(self):
        """A FabricRank is a Rank, and 1024 of them carry no __dict__."""
        from repro.mpi import Rank
        world = launch_fabric_world(make_topology("fat_tree2", 16,
                                                  hosts_per_edge=4))
        for r in world.ranks:
            assert isinstance(r, Rank)
            assert not hasattr(r, "__dict__")
            assert r.size == 16 and r.sim is world.sim


# ---------------------------------------------------------------------------
# fault cells: spine kill mid-allreduce
# ---------------------------------------------------------------------------


class TestFabricFaults:
    REROUTE_KW = dict(hosts=16, hosts_per_edge=4, oversubscription=2.0,
                      size=256 * KiB, kill_at=1_000_000)
    PARTITION_KW = dict(hosts=16, hosts_per_edge=4, oversubscription=4.0,
                        size=256 * KiB, kill_at=50_000)

    def test_spine_kill_reroutes(self):
        out = run_fabric_cell(**self.REROUTE_KW)
        assert out["outcome"] == "rerouted"
        assert out["fabric_faults_armed"] == 1
        assert out["net"]["chunks_rerouted"] > 0
        assert out["sanitizer"] == []

    def test_single_spine_kill_partitions(self):
        out = run_fabric_cell(**self.PARTITION_KW)
        assert out["outcome"] == "failed:FabricPartitioned"
        assert out["sanitizer"] == []

    @pytest.mark.parametrize("kw", [REROUTE_KW, PARTITION_KW],
                             ids=["reroute", "partition"])
    def test_cells_bit_identical(self, kw):
        assert run_fabric_cell(**kw) == run_fabric_cell(**kw)

    def test_plan_round_trip(self):
        spec = make_topology("fat_tree2", 16, oversubscription=2.0,
                             hosts_per_edge=4)
        plan = spine_kill_plan(spec, at=1_000_000)
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        assert plan.fabric[0].action == "kill"

    def test_bad_action_rejected(self):
        with pytest.raises(ValueError):
            FabricFaultSpec(link="a~b", action="explode")

    def test_unknown_link_rejected(self):
        spec = make_topology("fat_tree2", 8, hosts_per_edge=4)
        world = launch_fabric_world(spec)
        plan = FaultPlan(name="bad", fabric=(
            FabricFaultSpec(link="no~such", action="kill", at=0),))
        with pytest.raises(KeyError):
            arm_plan(world, plan)

    def test_fabric_plan_needs_fabric_testbed(self):
        from repro import build_testbed
        plan = FaultPlan(name="bad", fabric=(
            FabricFaultSpec(link="a~b", action="kill", at=0),))
        with pytest.raises(ValueError):
            arm_plan(build_testbed(), plan)


# ---------------------------------------------------------------------------
# the settle ledger: batching arbitration per tick moves only event counts
# ---------------------------------------------------------------------------

#: cell -> (sweep runner, kwargs, ledger digest, events).  The digest covers
#: simulated time, rank and fabric CPU ticks, the flow counters and every
#: port's ``stats()``: how arbitration is batched into kernel events may
#: change the event count, never these.  The event counts are pinned apart.
SETTLE_LEDGER = {
    "fat_tree3_128_ioat_allreduce": (
        "run_fabric_collective",
        dict(topology="fat_tree3", hosts=128, collective="allreduce",
             size=64 * KiB, backend="ioat"),
        "f586813dc177abac", 30_866),
    "fat_tree2_32_memcpy_alltoall": (
        "run_fabric_collective",
        dict(topology="fat_tree2", hosts=32, collective="alltoall",
             size=4 * KiB, backend="memcpy"),
        "751186485431947a", 9_793),
    "fat_tree2_16_spine_kill": (
        "run_fabric_cell", TestFabricFaults.REROUTE_KW,
        "1e930e278d2f39ef", 6_382),
}


class TestSettleLedger:
    """One settle per tick arbitrates every dirty port; no simulated time,
    byte or port counter may move with it."""

    @staticmethod
    def _run(name, monkeypatch):
        """Run one cell through its sweep runner; returns the ledger
        digest and the event count of the world it built."""
        runner, kw, _digest, _events = SETTLE_LEDGER[name]
        worlds = []

        def capture(spec, backend):
            worlds.append(launch_fabric_world(spec, backend=backend))
            return worlds[-1]

        monkeypatch.setattr(sweep, "launch_fabric_world", capture)
        getattr(sweep, runner)(**kw)
        (world,) = worlds
        net = world.net
        ledger = {
            "time_ns": world.sim.now,
            "cpu_ticks": {"rank": dict(sorted(world.cpu.items()))},
            "net": sweep._net_stats(world),
            "ports": {p.name: p.stats() for p in net.ports()},
        }
        blob = json.dumps(ledger, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16], world.sim.events_processed

    @pytest.mark.parametrize("name", sorted(SETTLE_LEDGER))
    def test_port_ledger_pinned(self, name, monkeypatch):
        digest, _events = self._run(name, monkeypatch)
        assert digest == SETTLE_LEDGER[name][2]

    @pytest.mark.parametrize("name", sorted(SETTLE_LEDGER))
    def test_event_count_pinned(self, name, monkeypatch):
        _digest, events = self._run(name, monkeypatch)
        assert events == SETTLE_LEDGER[name][3]


# ---------------------------------------------------------------------------
# race detector + teardown sanitizers
# ---------------------------------------------------------------------------


class TestFabricRaces:
    def test_small_fat_tree_allreduce_race_free(self):
        from repro.analysis.races import RaceDetector
        det = RaceDetector(fabric_scenario(hosts=8, size=4 * KiB),
                           name="fabric/4KiB", seeds=(1, 2))
        report = det.run()
        assert report.ok, report.format()

    def test_observation_covers_every_port(self, monkeypatch):
        """The race observation carries all six counters of every built
        port, flat in the one ``"fabric"`` entry."""
        worlds = []

        def capture(spec, backend):
            worlds.append(launch_fabric_world(spec, backend=backend))
            return worlds[-1]

        monkeypatch.setattr(sweep, "launch_fabric_world", capture)
        obs = fabric_scenario(hosts=8, size=4 * KiB)()
        (world,) = worlds
        ports = world.net.ports()
        snap = obs.counters["fabric"]
        assert list(obs.counters) == ["fabric"]
        assert len(snap) == len(world.net.metrics) + 6 * len(ports)
        for port in ports:
            assert snap[f"fabric_{port.name}_admitted"] == port.admitted
            assert snap[f"fabric_{port.name}_busy_ticks"] == port.busy_ticks

    def test_teardown_clean_at_128_hosts(self):
        spec = make_topology("fat_tree2", 128, oversubscription=1.0)
        world = launch_fabric_world(spec, backend="ioat")
        from repro.fabric.sweep import collective_body
        registered = len(world.net.metrics)
        world.run_spmd(collective_body("allreduce", 4 * KiB),
                       max_events=MAXEV)
        world.finish()  # sanitizers: no stuck process, no leaked message
        # per-port counters stay on the ports: no registry entry per port
        assert world.net.ports()
        assert len(world.net.metrics) == registered

    def test_teardown_flags_unreceived_message(self):
        """A run that completed keeps the leftover check: a message that
        no rank received fails the teardown."""
        world = launch_fabric_world(
            make_topology("fat_tree2", 4, hosts_per_edge=2))

        def body(rank):
            if rank.rank == 0:
                req = yield from rank.isend(1, rank.space.alloc(64), tag=7)
                yield from rank.wait(req)

        world.run_spmd(body, max_events=MAXEV)
        with pytest.raises(AssertionError, match="unconsumed messages"):
            world.finish()


# ---------------------------------------------------------------------------
# the full-hardware path: build_fabric_testbed + wrappers
# ---------------------------------------------------------------------------


class TestHardwareFabric:
    def _allreduce_sums(self, tb, algo="auto"):
        """Run a float32 allreduce of rank+1; returns {rank: ndarray}.

        Small integers sum exactly in float32, so the result is
        byte-identical whatever reduction order the algorithm uses.
        """
        from repro.mpi import create_world
        comm = create_world(tb, ppn=1)
        n = 4 * KiB
        out = {}

        def body(rank):
            sb = rank.space.alloc(n)
            rb = rank.space.alloc(n)
            sb.read().view(np.float32)[:] = float(rank.rank + 1)
            yield from rank.allreduce(sb, rb, algo=algo)
            out[rank.rank] = rb.read().view(np.float32).copy()

        comm.run_spmd(body, max_events=MAXEV)
        return out

    def _assert_sums(self, out, p):
        expected = sum(range(1, p + 1))
        assert len(out) == p
        for r, vals in out.items():
            assert np.all(vals == expected), f"rank {r}"

    def test_multi_switch_allreduce_all_ranks_agree(self):
        spec = make_topology("fat_tree2", 4, hosts_per_edge=2)
        tb = build_fabric_testbed(spec)
        assert len(tb.switches) > 1 and tb.trunks
        self._assert_sums(self._allreduce_sums(tb), 4)

    @pytest.mark.parametrize("algo", ["ring", "rd"])
    def test_explicit_algos_sum_correctly(self, algo):
        from repro.ethernet.switch import build_switched_testbed
        out = self._allreduce_sums(build_switched_testbed(4), algo=algo)
        self._assert_sums(out, 4)

    def test_trunk_ecmp_spreads_flows(self):
        """Both spines of a 1:1 fat tree carry frames under all-pairs load."""
        spec = make_topology("fat_tree2", 4, hosts_per_edge=2)
        tb = build_fabric_testbed(spec)
        self._assert_sums(self._allreduce_sums(tb), 4)
        spines = [sw for name, sw in sorted(tb.switches.items())
                  if name.startswith("spine")]
        assert len(spines) >= 2
        assert all(sw.forwarded > 0 for sw in spines)

    def test_switch_metrics_registered(self):
        spec = make_topology("fat_tree2", 4, hosts_per_edge=2)
        tb = build_fabric_testbed(spec)
        self._allreduce_sums(tb)
        snap = tb.metrics.snapshot()
        fwd = {k: v for k, v in snap.items() if k.endswith("_forwarded")
               and "_p" not in k.rsplit("sw_", 1)[-1]}
        assert any(v > 0 for v in fwd.values())

    def test_unroutable_frame_dropped_not_flooded(self):
        spec = make_topology("fat_tree2", 4, hosts_per_edge=2)
        tb = build_fabric_testbed(spec)
        sw = next(iter(tb.switches.values()))
        assert sw._routes  # static-route mode: no learning, no flooding

    def test_wrappers_preserve_shapes(self):
        from repro import build_testbed
        from repro.ethernet.switch import build_switched_testbed
        tb = build_testbed()
        assert len(tb.hosts) == 2 and tb.link is not None
        stb = build_switched_testbed(3)
        assert len(stb.hosts) == 3 and stb.switch is not None
