"""The benchmark's four workloads: their units, set-up and seed handling.

A *unit* is one simulated scenario run the way ``SweepExecutor`` runs a
sweep point: a fresh testbed or world, phantom payloads on, the cyclic GC
paused.  Units call only public entry points of ``repro`` (``build_testbed``,
``create_world``, ``run_imb``, ``run_stream_usage``, ``make_topology``,
``launch_fabric_world``, ``collective_body``, ``fabric_soak_suite``,
``run_fabric_soak``), so the same code drives the current tree and the
pinned reference tree.  ``repro`` is imported inside the functions: this
module is also loaded by the orchestrator, which never imports the program.

Every unit returns ``sim`` (its simulated outputs: must repeat exactly),
``counts`` (modelled per-layer counters, summed over units), and ``ops`` /
``ops_failed`` (operations attempted and ended in a typed failure).  A
profiled stream unit also returns ``phases``, the receiver's time per
phase as a ``PhaseProfiler`` saw it; only profiled runs have it, so it
stays out of ``counts``.
"""

from __future__ import annotations

import dataclasses

KiB = 1024
MiB = 1024 * KiB

# ---------------------------------------------------------------------------
# unit tables
# ---------------------------------------------------------------------------

#: rndv_offload — the paper's headline path.  Messages of 128 KiB and more
#: take the pull protocol; the receive-side bottom half copies fragments
#: with memcpy or hands them to I/OAT.  IMB PingPong 128 KiB-8 MiB (Figs.
#: 8/11) and a 4 MiB receive stream with the registration cache off
#: (Fig. 9).  ethernet, core, core.offload, ioat and memory do most of
#: their work here.  Deterministic: takes no seed.
_RNDV_CONFIGS = (("memcpy", {}), ("ioat", {"ioat_enabled": True}))
_RNDV_SIZES = (128 * KiB, 1 * MiB, 8 * MiB)
_RNDV_ITERS = 3
_FIG9_SIZE = 4 * MiB
_FIG9_ITERS = 6

#: eager_small — per-message cost: endpoint, kmatch, medium BH copy,
#: reliability acks and event dispatch dominate while offload and ioat do
#: nothing (I/OAT is enabled but every message is below its 64 KiB
#: threshold).  Sizes are tiny (16 B), small (128 B), one-fragment medium
#: (4 KiB) and eight-fragment medium (32 KiB); iterations give each size a
#: comparable share of host CPU.  Deterministic: takes no seed.
_EAGER_SIZES = ((16, 600), (128, 900), (4 * KiB, 750), (32 * KiB, 130))

#: fabric_collectives — the chunk-level FabricNetwork with the ioat cost
#: backend: a 64 KiB allreduce on a 1024-host 3-tier fat-tree (set-up and
#: memory scale with it) and a 4 KiB alltoall on a 128-host fat-tree
#: (all-pairs ECMP spread, deep port queues).  fabric.network, fabric.mpi
#: and the mpi collectives do nearly all the work; ethernet, core, ioat
#: and memory none.  The seed picks the ECMP hash seed.
_FABRIC_CELLS = (("fat_tree3", 1024, "allreduce", 64 * KiB),
                 ("fat_tree2", 128, "alltoall", 4 * KiB))

#: fabric_chaos — the gray-churn fabric soak (a flapping, a degraded and a
#: lossy trunk on the 16-host 3-tier fat-tree, rounds of
#: resilient_allreduce) over several plan seeds.  Fault injection,
#: link-health breakers and the drop, retry and reroute paths of
#: fabric.network run nowhere else.  The seed derives the plan seeds
#: (which also seed ECMP).  The gray-crash soak, which adds a crash-stopped
#: rank, is left out: about one of its plan seeds in sixteen ends with an
#: unconsumed epoch-0 message at teardown (a defect of the crash-stop
#: recovery, FabricRank.isend entering the network after the death
#: declaration), and a benchmark workload must not fail.  Rank liveness
#: and the survivor ring therefore go unmeasured until that is fixed.
_CHAOS_PLAN_SEEDS = 4
_CHAOS_SOAK = "gray-churn"
_CHAOS_ROUNDS = 8

WORKLOADS = ("rndv_offload", "eager_small", "fabric_collectives", "fabric_chaos")

#: workloads whose inputs do not depend on ``--seed``
UNSEEDED = ("rndv_offload", "eager_small")


def fabric_ecmp_seed(seed: int) -> str:
    return f"perfbench-{seed}"


def chaos_plan_seeds(seed: int) -> list[str]:
    return [f"perfbench-{seed}-{i}" for i in range(_CHAOS_PLAN_SEEDS)]


def units(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The ordered unit list of one round of ``workload``."""
    if workload == "rndv_offload":
        out = [("pingpong", {"size": size, "iters": _RNDV_ITERS, "omx": cfg})
               for _name, cfg in _RNDV_CONFIGS for size in _RNDV_SIZES]
        out += [("stream", {"size": _FIG9_SIZE, "iters": _FIG9_ITERS,
                            "ioat": ioat})
                for ioat in (False, True)]
        return out
    if workload == "eager_small":
        return [("pingpong", {"size": size, "iters": iters,
                              "omx": {"ioat_enabled": True}})
                for size, iters in _EAGER_SIZES]
    if workload == "fabric_collectives":
        return [("fabric", {"topology": topo, "hosts": hosts,
                            "collective": coll, "size": size,
                            "ecmp_seed": fabric_ecmp_seed(seed)})
                for topo, hosts, coll, size in _FABRIC_CELLS]
    if workload == "fabric_chaos":
        return [("soak", {"plan_seed": s, "soak": _CHAOS_SOAK,
                          "rounds": _CHAOS_ROUNDS})
                for s in chaos_plan_seeds(seed)]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


#: the Fig. 8 / Fig. 9 points the paper gives multi-MB numbers for, with
#: the paper's values: Open-MX ~800 and Open-MX + I/OAT 1114 MiB/s
#: (Fig. 8 plateau), ~95 % and ~60 % receive CPU (Fig. 9)
PAPER_POINTS = (
    (("pingpong", {"size": 8 * MiB, "iters": _RNDV_ITERS, "omx": {}}), "mib_s", 800.0),
    (("pingpong", {"size": 8 * MiB, "iters": _RNDV_ITERS,
                   "omx": {"ioat_enabled": True}}), "mib_s", 1114.0),
    (("stream", {"size": _FIG9_SIZE, "iters": _FIG9_ITERS, "ioat": False}),
     "total_pct", 95.0),
    (("stream", {"size": _FIG9_SIZE, "iters": _FIG9_ITERS, "ioat": True}),
     "total_pct", 60.0),
)


def paper_err_pct(sims: list[dict]) -> float:
    """Mean |sim - paper| / paper over :data:`PAPER_POINTS`, in percent;
    ``sims`` are the points' ``sim`` outputs in table order."""
    errs = [abs(sim[key] - paper) / paper
            for sim, (_unit, key, paper) in zip(sims, PAPER_POINTS)]
    return 100.0 * sum(errs) / len(errs)


# ---------------------------------------------------------------------------
# set-up: everything before the first simulated event
# ---------------------------------------------------------------------------


def import_entry_points(workload: str) -> None:
    """Import the public entry points the workload's units call."""
    if workload in ("rndv_offload", "eager_small"):
        import repro.cluster.testbed  # noqa: F401
        import repro.imb  # noqa: F401
        import repro.mpi  # noqa: F401
        import repro.workloads  # noqa: F401
    elif workload == "fabric_collectives":
        import repro.fabric.mpi  # noqa: F401
        import repro.fabric.sweep  # noqa: F401
    else:
        import repro.fabric.mpi  # noqa: F401
        import repro.fabric.sweep  # noqa: F401
        import repro.faults  # noqa: F401
        import repro.faults.soak  # noqa: F401


def build_all(workload: str, seed: int) -> list:
    """Build every testbed, world, topology and fault plan the workload's
    units use, once each, without running them; returns the objects."""
    from repro.memory import phantom

    built = []
    with phantom.phantom_payloads(True):
        for kind, params in units(workload, seed):
            if kind == "pingpong":
                tb = _testbed(params["omx"])
                built.append(_world(tb))
            elif kind == "stream":
                built.append(_testbed({"ioat_enabled": params["ioat"],
                                       "regcache_enabled": False}))
            elif kind == "fabric":
                built.append(_fabric_world(params))
            else:
                from repro.fabric.mpi import launch_fabric_world
                from repro.fabric.sweep import make_topology
                from repro.faults import arm_plan

                spec = _soak_spec(params)
                topo = make_topology(spec.topology, spec.hosts,
                                     spec.oversubscription, 4,
                                     ecmp_seed=spec.plan.seed)
                world = launch_fabric_world(topo, backend="memcpy")
                built.append(arm_plan(world, spec.plan))
    return built


# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------


def _testbed(omx: dict):
    from repro.cluster.testbed import build_testbed

    return build_testbed(stacks="omx", **omx)


def _world(tb):
    from repro.mpi import create_world

    return create_world(tb, ppn=1)


def _fabric_world(params: dict):
    from repro.fabric.mpi import launch_fabric_world
    from repro.fabric.sweep import make_topology

    spec = make_topology(params["topology"], params["hosts"], 1.0,
                         ecmp_seed=params["ecmp_seed"])
    return launch_fabric_world(spec, backend="ioat")


def _soak_spec(params: dict):
    from repro.faults.soak import fabric_soak_suite

    spec = next(s for s in fabric_soak_suite(params["plan_seed"])
                if s.name == params["soak"])
    return dataclasses.replace(spec, rounds=params["rounds"])


def _host_counts(tb) -> dict:
    """Every host's MetricsRegistry snapshot, summed; wall-clock entries
    are host time, not modelled counts, and are left out."""
    out: dict = {}
    for host in tb.hosts:
        for name, value in host.metrics.snapshot().items():
            if name != "sim_wall_ms":
                out[name] = out.get(name, 0) + value
    return out


def run_pingpong(size: int, iters: int, omx: dict, profile: bool = False) -> dict:
    from repro.imb import run_imb

    tb = _testbed(omx)
    comm = _world(tb)
    res = run_imb(tb, comm, "PingPong", size, iterations=iters, warmup=2)
    return {
        "sim": {"mib_s": res.mib_s, "t_avg_us": res.t_avg_us,
                "sim_ns": tb.sim.now, "events": tb.sim.events_processed},
        "counts": _host_counts(tb),
        "ops": iters + 2,
        "ops_failed": 0,
    }


def run_stream(size: int, iters: int, ioat: bool, profile: bool = False) -> dict:
    from repro.workloads import run_stream_usage

    tb = _testbed({"ioat_enabled": ioat, "regcache_enabled": False})
    prof = None
    if profile:
        from repro.obs import PhaseProfiler

        prof = PhaseProfiler(tb.sim).attach(tb.hosts[1].cpus)
    u = run_stream_usage(tb, size, iterations=iters)
    counts = _host_counts(tb)
    counts["rx.window_ticks"] = u.window_ticks
    for band in ("user", "driver", "bh"):
        counts[f"rx.{band}_ticks"] = getattr(u, f"{band}_pct") * u.window_ticks / 100.0
    out = {
        "sim": {"mib_s": u.throughput_mib_s, "user_pct": u.user_pct,
                "driver_pct": u.driver_pct, "bh_pct": u.bh_pct,
                "total_pct": u.total_pct, "window_ticks": u.window_ticks,
                "events": tb.sim.events_processed},
        "counts": counts,
        "ops": iters + 2,
        "ops_failed": 0,
    }
    if prof is not None:
        out["phases"] = {f"rx.phase.{phase}": ticks
                         for phase, ticks in prof.phases().items()}
    return out


def run_fabric(topology: str, hosts: int, collective: str, size: int,
               ecmp_seed: str, profile: bool = False) -> dict:
    from repro.fabric.sweep import CELL_MAX_EVENTS, collective_body

    world = _fabric_world({"topology": topology, "hosts": hosts,
                           "ecmp_seed": ecmp_seed})
    world.run_spmd(collective_body(collective, size), max_events=CELL_MAX_EVENTS)
    world.finish()  # raises on a sanitizer finding
    net = world.net
    ports = net.ports()
    counts = {f"fabric.{k}": getattr(net, k) for k in _NET_COUNTERS}
    counts["fabric.ports_built"] = len(ports)
    counts["fabric.port_peak_backlog_ns"] = max(p.peak_backlog_ns for p in ports)
    return {
        "sim": {"time_ns": world.sim.now, "events": world.sim.events_processed,
                **counts},
        "counts": counts,
        "ops": net.msgs_sent,
        "ops_failed": net.msgs_failed,
    }


_NET_COUNTERS = ("msgs_sent", "msgs_delivered", "msgs_failed",
                 "chunks_forwarded", "chunks_dropped", "chunks_rerouted",
                 "chunks_retried")


def run_soak(plan_seed: str, soak: str, rounds: int, profile: bool = False) -> dict:
    from repro.faults.soak import run_fabric_soak
    from repro.simkernel.scheduler import Simulator

    ev0 = Simulator.events_total
    report = run_fabric_soak(_soak_spec({"plan_seed": plan_seed, "soak": soak,
                                         "rounds": rounds}))
    events = Simulator.events_total - ev0
    counts = {f"fabric.{k}": report["net"][k] for k in _NET_COUNTERS}
    res = report.get("resilience", {})
    counts["fabric.reroutes"] = res.get("reroutes", 0)
    counts["fabric.route_flaps_suppressed"] = res.get("flaps_suppressed", 0)
    return {
        "sim": {"events": events, "report": report},
        "counts": counts,
        "ops": report["net"]["msgs_sent"],
        "ops_failed": report["net"]["msgs_failed"],
        "sanitizer": report["sanitizer"],
    }


UNIT_KINDS = {"pingpong": run_pingpong, "stream": run_stream,
              "fabric": run_fabric, "soak": run_soak}
