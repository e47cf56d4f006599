"""Fabric sweep cells: collectives over generated topologies, as data.

One *cell* runs one collective (allreduce / alltoall / bcast /
reduce_scatter / allgather / barrier) over one generated topology with one
receive-copy backend and returns a JSON-stable dict — no wall-clock, no
object references — so the sweep executor can cache it and two runs of the
same cell compare byte-identical (the ``fabric_sweep`` acceptance bar).

Entry points:

* :func:`run_fabric_collective` — build spec, launch a
  :class:`~repro.fabric.mpi.FabricWorld`, run the collective SPMD, report
  (the ``"fabric"`` lazy point kind in :mod:`repro.reporting.sweeps`);
* :func:`run_fabric_cell` — the same collective under an armed fault
  plan, classified by outcome (the chaos campaign's cell; see below);
* :func:`fabric_scenario` — the ``--races`` corpus entry: the same cell
  packaged as a zero-arg callable returning an
  :class:`~repro.analysis.races.Observation`, with a seeded trunk flap
  armed so the detector covers the resilience path;
* :func:`chaos_campaign` — the gray-failure matrix (degrade / flap /
  lossy / crash-stop / partition) crossed with every multi-path topology;
* :func:`run_imb_fabric` — the IMB suite run over a fabric world (the
  ``"imb_fabric"`` lazy kind).

The fault cell (:func:`run_fabric_cell`) arms a
:class:`~repro.faults.plan.FaultPlan` whose ``fabric`` specs kill named
links mid-collective, then classifies the outcome: ``"rerouted"`` when the
collective completed over recomputed ECMP tables, ``"failed:<Type>"`` when
the partition surfaced as a typed :class:`~repro.core.errors.TransferError`.
Both classifications are byte-identical per seed.
"""

from __future__ import annotations

import math
from typing import Callable, Generator, Optional

from repro.core.errors import TransferError
from repro.fabric.mpi import FabricRank, FabricWorld, launch_fabric_world
from repro.fabric.spec import (
    TopologySpec,
    dragonfly,
    fat_tree,
    pair_topology,
    star_topology,
)
from repro.units import KiB, throughput_mib_s, us

#: topology kinds a sweep point may name
TOPOLOGIES = ("pair", "star", "fat_tree2", "fat_tree3", "dragonfly")

#: collectives a sweep point may name (all run unmodified generators)
COLLECTIVES = ("barrier", "bcast", "allreduce", "reduce_scatter",
               "allgather", "alltoall")

#: event-budget fuse per cell: generous for a 1024-host allreduce, small
#: enough that a livelocked cell dies loudly instead of spinning forever
CELL_MAX_EVENTS = 50_000_000


def make_topology(topology: str, hosts: int, oversubscription: float = 1.0,
                  hosts_per_edge: int = 8,
                  ecmp_seed: str = "fabric") -> TopologySpec:
    """Build the named topology for (at least) ``hosts`` hosts.

    Generators have structural constraints (divisibility, k-arity); the
    spec returned may round the host count up to the nearest shape the
    generator supports — callers read the actual count off the spec.
    """
    if topology == "pair":
        return pair_topology()
    if topology == "star":
        return star_topology(max(hosts, 2))
    if topology == "fat_tree2":
        hpe = math.gcd(hosts, hosts_per_edge) if hosts % hosts_per_edge else \
            hosts_per_edge
        return fat_tree(hosts=hosts, tiers=2, hosts_per_edge=max(hpe, 1),
                        oversubscription=oversubscription,
                        ecmp_seed=ecmp_seed)
    if topology == "fat_tree3":
        k = 2
        while k * k * k // 4 < hosts:
            k += 2
        return fat_tree(tiers=3, k=k, oversubscription=oversubscription,
                        ecmp_seed=ecmp_seed)
    if topology == "dragonfly":
        groups = max(2, -(-hosts // 4))
        return dragonfly(groups=groups, routers_per_group=2,
                         hosts_per_router=2, ecmp_seed=ecmp_seed)
    raise ValueError(f"unknown topology {topology!r}; "
                     f"expected one of {TOPOLOGIES}")


def collective_body(collective: str, size: int,
                    algo: str = "auto") -> Callable[[FabricRank], Generator]:
    """The SPMD body for one collective; ``size`` is the per-rank payload
    (per-peer block for alltoall / allgather / reduce_scatter)."""
    if collective not in COLLECTIVES:
        raise ValueError(f"unknown collective {collective!r}; "
                         f"expected one of {COLLECTIVES}")

    def body(rank: FabricRank) -> Generator:
        p = rank.size
        if collective == "barrier":
            yield from rank.barrier()
        elif collective == "bcast":
            buf = rank.space.alloc(size)
            yield from rank.bcast(buf, root=0)
        elif collective == "allreduce":
            sendbuf = rank.space.alloc(size)
            recvbuf = rank.space.alloc(size)
            yield from rank.allreduce(sendbuf, recvbuf, algo=algo)
        elif collective == "reduce_scatter":
            sendbuf = rank.space.alloc(size * p)
            recvbuf = rank.space.alloc(size)
            yield from rank.reduce_scatter(sendbuf, recvbuf, size)
        elif collective == "allgather":
            sendbuf = rank.space.alloc(size)
            recvbuf = rank.space.alloc(size * p)
            yield from rank.allgather(sendbuf, recvbuf, size)
        else:  # alltoall
            sendbuf = rank.space.alloc(size * p)
            recvbuf = rank.space.alloc(size * p)
            yield from rank.alltoall(sendbuf, recvbuf, size)

    return body


def _net_stats(world: FabricWorld) -> dict:
    net = world.net
    return {
        "msgs_sent": net.msgs_sent,
        "msgs_delivered": net.msgs_delivered,
        "msgs_failed": net.msgs_failed,
        "chunks_forwarded": net.chunks_forwarded,
        "chunks_dropped": net.chunks_dropped,
        "chunks_rerouted": net.chunks_rerouted,
        "chunks_retried": net.chunks_retried,
    }


def run_fabric_collective(topology: str = "fat_tree2", hosts: int = 64,
                          oversubscription: float = 1.0,
                          collective: str = "allreduce",
                          size: int = 64 * KiB, backend: str = "memcpy",
                          algo: str = "auto", hosts_per_edge: int = 8,
                          ecmp_seed: str = "fabric") -> dict:
    """Run one fault-free fabric cell and report it as JSON-stable data."""
    spec = make_topology(topology, hosts, oversubscription, hosts_per_edge,
                         ecmp_seed)
    world = launch_fabric_world(spec, backend=backend)
    body = collective_body(collective, size, algo)
    world.run_spmd(body, max_events=CELL_MAX_EVENTS)
    world.finish()
    t = world.sim.now
    return {
        "topology": spec.name,
        "kind": topology,
        "hosts": world.size,
        "oversubscription": oversubscription,
        "collective": collective,
        "size": size,
        "backend": backend,
        "algo": algo,
        "time_ns": t,
        "mib_s": round(throughput_mib_s(size, t), 3) if t else 0.0,
        "events": world.sim.events_processed,
        "net": _net_stats(world),
        "cpu_ticks": {k: world.cpu[k] for k in sorted(world.cpu)},
    }


# ---------------------------------------------------------------------------
# fault cell: kill a spine link mid-collective
# ---------------------------------------------------------------------------


def spine_kill_plan(spec: TopologySpec, at: int, seed: str = "0"):
    """A :class:`~repro.faults.plan.FaultPlan` killing the first (sorted)
    spine trunk of ``spec`` at absolute time ``at``."""
    from repro.faults.plan import FabricFaultSpec, FaultPlan

    spines = {s.name for s in spec.switches if s.tier == "spine"}
    trunks = sorted(l.name for l in spec.trunk_links()
                    if l.a in spines or l.b in spines)
    if not trunks:
        raise ValueError(f"{spec.name}: no spine trunk to kill")
    return FaultPlan(
        name=f"spine-kill@{at}",
        seed=seed,
        fabric=(FabricFaultSpec(link=trunks[0], action="kill", at=at),),
    )


def run_fabric_cell(topology: str = "fat_tree2", hosts: int = 16,
                    oversubscription: float = 1.0,
                    collective: str = "allreduce", size: int = 64 * KiB,
                    backend: str = "ioat", algo: str = "auto",
                    hosts_per_edge: int = 4,
                    kill_at: int = us(50), plan: Optional[dict] = None,
                    recovery: str = "abort",
                    ecmp_seed: str = "fabric") -> dict:
    """One fabric *fault* cell: run the collective under an armed plan.

    ``plan`` is a :meth:`~repro.faults.plan.FaultPlan.to_dict` dict (the
    sweep executor needs JSON params); when None, a spine-kill plan firing
    at ``kill_at`` is generated from the topology.  ``recovery`` selects the
    crash-stop policy: ``"abort"`` (default — a rank death surfaces as the
    typed :class:`~repro.core.errors.RankDead`) or ``"shrink"`` (ring
    allreduce only — survivors rebuild the ring via
    :func:`~repro.fabric.resilience.resilient_allreduce`).

    The outcome classifies, byte-identically per seed, as one of:

    * ``"failed:<Type>"`` — a typed transfer error surfaced (abort policy);
    * ``"shrunk-completed"`` — a rank died and the survivors completed
      over the shrunk ring (epoch advanced);
    * ``"degraded-completed"`` — completed while the health layer had
      demoted at least one gray trunk;
    * ``"rerouted"`` — completed over recomputed ECMP tables;
    * ``"completed"`` — the faults touched no in-flight flow.

    Every cell ends with the fabric teardown (:meth:`FabricWorld.finish`);
    what it finds is the report's ``sanitizer`` list, empty when clean.
    """
    from repro.faults.injectors import arm_plan
    from repro.faults.plan import FaultPlan

    if recovery not in ("abort", "shrink"):
        raise ValueError(f"unknown recovery policy {recovery!r}; "
                         "expected 'abort' or 'shrink'")
    spec = make_topology(topology, hosts, oversubscription, hosts_per_edge,
                         ecmp_seed)
    fplan = (FaultPlan.from_dict(plan) if plan is not None
             else spine_kill_plan(spec, kill_at))
    world = launch_fabric_world(spec, backend=backend)
    armed = arm_plan(world, fplan)
    if recovery == "shrink":
        if collective != "allreduce":
            raise ValueError("shrink recovery is ring-allreduce only")
        from repro.fabric.resilience import resilient_allreduce

        def body(rank: FabricRank) -> Generator:
            sendbuf = rank.space.alloc(size)
            recvbuf = rank.space.alloc(size)
            yield from resilient_allreduce(rank, sendbuf, recvbuf)
    else:
        body = collective_body(collective, size, algo)
    error: Optional[BaseException] = None
    try:
        world.run_spmd(body, max_events=CELL_MAX_EVENTS)
    except TransferError as exc:
        error = exc
    sanitizer: list[str] = []
    try:
        world.finish()  # drains the declaration wave / stale traffic too
    except AssertionError as exc:
        sanitizer.append(str(exc))
    net = world.net
    res = net.resilience
    if error is not None:
        outcome = f"failed:{type(error).__name__}"
    elif world.dead and world.epoch:
        outcome = "shrunk-completed"
    elif res is not None and res.demotions:
        outcome = "degraded-completed"
    elif net.chunks_rerouted:
        outcome = "rerouted"
    else:
        outcome = "completed"
    report = {
        "topology": spec.name,
        "hosts": world.size,
        "collective": collective,
        "size": size,
        "backend": backend,
        "plan": fplan.name,
        "recovery": recovery,
        "fabric_faults_armed": armed.fabric_armed,
        "outcome": outcome,
        "error": type(error).__name__ if error is not None else None,
        "detail": str(error) if error is not None else "",
        "end_time": world.sim.now,
        "net": _net_stats(world),
        "sanitizer": sanitizer,
    }
    if res is not None:
        report["resilience"] = res.snapshot()
    if world.dead:
        report["liveness"] = world.liveness_snapshot()
    return report


# ---------------------------------------------------------------------------
# chaos campaign: every gray axis crossed with every multi-path topology
# ---------------------------------------------------------------------------

#: the multi-path topologies the chaos campaign crosses the axes with
CHAOS_TOPOLOGIES = ("fat_tree2", "fat_tree3", "dragonfly")


def chaos_plans(spec: TopologySpec, seed: str) -> list:
    """The per-topology chaos matrix: ``(axis, FaultPlan, recovery)`` rows.

    One row per failure mode the resilience layer claims to survive —
    degrade, flap, lossy, crash-stop (abort and shrink policies) — plus
    the control partition (every uplink of the first edge killed), whose
    job is to prove the *typed* :class:`FabricPartitioned` still surfaces
    when no detour exists.  All link choices are sorted-first, so the
    matrix is a pure function of ``(spec, seed)``.
    """
    from repro.faults.plan import (
        FabricDegradeSpec,
        FabricFaultSpec,
        FabricFlapSpec,
        FabricLossySpec,
        FaultPlan,
        RankFaultSpec,
    )

    trunks = sorted(l.name for l in spec.trunk_links())
    if not trunks:
        raise ValueError(f"{spec.name}: chaos needs a multi-path topology")
    edge = spec.edge_of(spec.hosts[0])
    uplinks = sorted(l.name for l in spec.trunk_links()
                     if edge in (l.a, l.b))
    kill = (RankFaultSpec(rank=1, at=us(30)),)
    return [
        ("degrade", FaultPlan(
            name="chaos-degrade", seed=seed,
            degrade=(FabricDegradeSpec(link=trunks[0], at=us(5),
                                       bw_factor=0.1),)), "abort"),
        ("flap", FaultPlan(
            name="chaos-flap", seed=seed,
            flap=(FabricFlapSpec(link=trunks[0], at=us(20), period=us(120),
                                 duty=0.5, cycles=4),)), "abort"),
        ("lossy", FaultPlan(
            name="chaos-lossy", seed=seed,
            lossy=(FabricLossySpec(link=trunks[0], drop_rate=0.3),)),
         "abort"),
        ("rank-abort", FaultPlan(
            name="chaos-rank-abort", seed=seed, ranks=kill), "abort"),
        ("rank-shrink", FaultPlan(
            name="chaos-rank-shrink", seed=seed, ranks=kill), "shrink"),
        ("partition", FaultPlan(
            name="chaos-partition", seed=seed,
            fabric=tuple(FabricFaultSpec(link=n, action="kill", at=us(30))
                         for n in uplinks)), "abort"),
    ]


def chaos_campaign() -> dict:
    """Run the chaos matrix over every topology; JSON-stable report.

    Each cell is a 32 KiB memcpy allreduce on an 8-host, 2:1 build of the
    topology (4 hosts per edge), seeded ``"chaos"``.  The acceptance bar:
    two runs are byte-identical, and the outcome set covers every class
    the resilience layer defines — ``rerouted``, ``degraded-completed``,
    ``shrunk-completed``, and the typed ``failed:RankDead`` /
    ``failed:FabricPartitioned``.
    """
    seed = "chaos"
    shape = dict(hosts=8, oversubscription=2.0, hosts_per_edge=4)
    cells = []
    for topology in CHAOS_TOPOLOGIES:
        spec = make_topology(topology, **shape, ecmp_seed=seed)
        for axis, plan, recovery in chaos_plans(spec, seed):
            cell = run_fabric_cell(
                topology=topology, **shape, size=32 * KiB,
                backend="memcpy", plan=plan.to_dict(), recovery=recovery,
                ecmp_seed=seed)
            cell["axis"] = axis
            cells.append(cell)
    return {
        "seed": seed,
        "cells": cells,
        "outcomes": sorted({c["outcome"] for c in cells}),
    }


# ---------------------------------------------------------------------------
# IMB over the fabric: the frame-level benchmark suite at chunk scale
# ---------------------------------------------------------------------------


def run_imb_fabric(topology: str = "fat_tree2", hosts: int = 16,
                   oversubscription: float = 1.0, test: str = "Allreduce",
                   size: int = 16 * KiB, iterations: int = 4,
                   warmup: int = 1, backend: str = "memcpy",
                   hosts_per_edge: int = 4,
                   ecmp_seed: str = "fabric") -> dict:
    """One IMB test over a fabric world (the ``"imb_fabric"`` lazy kind).

    :class:`~repro.fabric.mpi.FabricWorld` satisfies the communicator
    protocol :func:`repro.imb.harness.run_imb` consumes (``run_spmd`` +
    ``size``), so the IMB bodies — barrier-timed loops included — run
    unmodified at fabric scale.  ``Allgatherv`` is the one exclusion: its
    body needs per-rank variable blocks the fabric rank does not model.
    """
    from repro.imb.harness import run_imb

    if test == "Allgatherv":
        raise ValueError("Allgatherv is not supported over the fabric rank "
                         "(no variable-block allgather)")
    spec = make_topology(topology, hosts, oversubscription, hosts_per_edge,
                         ecmp_seed)
    world = launch_fabric_world(spec, backend=backend)
    res = run_imb(world, world, test, size, iterations=iterations,
                  warmup=warmup, max_events=CELL_MAX_EVENTS)
    world.finish()
    return {
        "topology": spec.name,
        "kind": topology,
        "hosts": world.size,
        "backend": backend,
        "test": res.test,
        "size": res.size,
        "iterations": res.iterations,
        "t_avg_us": round(res.t_avg_us, 3),
        "mib_s": round(res.mib_s, 3),
        "events": world.sim.events_processed,
        "net": _net_stats(world),
    }


# ---------------------------------------------------------------------------
# --races corpus entry
# ---------------------------------------------------------------------------


def fabric_scenario(hosts: int = 8, size: int = 8 * KiB) -> Callable:
    """A race-detector scenario: one I/OAT allreduce on a small 2:1 2-tier
    fat tree.

    A seeded flap schedule is armed on the first trunk, so the detector
    sweeps the whole resilience path — health sampling, hysteretic
    demotion, suppressed flaps, rerouted chunks — under tie-break
    shuffles, not just the clean data plane.

    The fabric has no per-host trace recorders; the observation is one
    flat ``"fabric"`` counter set — the network's registry snapshot (the
    aggregate flow and resilience counters) plus every built port's
    :meth:`~repro.fabric.network.FabricPort.stats` as
    ``fabric_<port>_<counter>`` — the final simulated time, and the
    per-cell outcome string: everything the sweep reports are built from.
    """
    from repro.analysis.races import Observation
    from repro.faults.injectors import arm_plan
    from repro.faults.plan import FabricFlapSpec, FaultPlan

    def scenario() -> Observation:
        spec = make_topology("fat_tree2", hosts, 2.0,
                             hosts_per_edge=max(2, hosts // 2),
                             ecmp_seed="races")
        world = launch_fabric_world(spec, backend="ioat")
        trunk = sorted(l.name for l in spec.trunk_links())[0]
        arm_plan(world, FaultPlan(
            name="races-flap", seed="races",
            flap=(FabricFlapSpec(link=trunk, at=us(20), period=us(120),
                                 duty=0.5, cycles=3),)))
        schedule = world.sim.record_schedule()
        body = collective_body("allreduce", size)
        world.run_spmd(body, max_events=CELL_MAX_EVENTS)
        world.finish()
        net = world.net
        counters = net.metrics.snapshot()
        for port in net.ports():
            for stat, value in port.stats().items():
                counters[f"fabric_{port.name}_{stat}"] = value
        snap = net.resilience.snapshot()
        outcomes = {
            "cell": "completed",
            "cpu": ",".join(f"{k}={world.cpu[k]}" for k in sorted(world.cpu)),
            "resilience": ",".join(
                f"{k}={snap[k]}" for k in ("reroutes", "demotions",
                                           "restorations", "flaps_suppressed",
                                           "route_version")),
        }
        return Observation(
            counters={"fabric": counters},
            digests={},
            end_time=world.sim.now,
            pushes=world.sim._seq,
            schedule=schedule,
            outcomes=outcomes,
        )

    return scenario
