"""Soak mode: long seeded fault campaigns with periodic invariant checks.

Where a campaign cell (:mod:`repro.faults.campaign`) fires one fault and
asks "did every transfer terminate?", a soak run chains whole degradation
arcs — I/OAT fail→recover cycles, flapping links, incast bursts — over a
longer horizon and additionally checks *while running* that the stack is
making progress and not accumulating resources:

* a checkpoint daemon wakes every :data:`CHECKPOINT_INTERVAL` ticks and
  records (non-terminal transfers, outstanding skbuffs, net pins,
  retransmissions, frames moved);
* if nothing moved — no transfer reached a terminal state and no frame
  crossed any NIC — for :data:`STALL_LIMIT` consecutive checkpoints, the run
  aborts with :class:`LivelockError`.  The reliability layer's timeout
  ladder (dead-letter ≈4 ms, pull abort ≈16 ms, peer-dead 20 ms) turns
  every stuck request terminal well inside that budget, so a trip really
  is a livelock, not patience running out;
* at the end the usual contract holds: zero hung transfers, runtime
  sanitizers clean, and the report — checkpoints included — is a pure
  function of (spec, seed), so running the same seed twice produces
  byte-identical JSON.

The stock suite (:func:`soak_suite`) pairs each plan from
:func:`repro.faults.plan.soak_plans` with the workload that stresses it:
``ioat-flap`` under a large-message stream (pull + offload path, so the
circuit breakers trip and re-open), ``link-flap`` under pingpong
(retransmission through loss windows), ``incast-burst`` under switched
fan-in (NIC ring starvation while the receiver's breakers trip and
re-open).  None of them reaches the BUSY backpressure and its backoff
curve, keepalives, peer-death declarations, dead letters or pull aborts:
``results/faults_soak.json`` records 0 for every one of those counters.
Only ``tests/test_health.py`` and ``tests/test_faults_reliability.py``
drive those paths.

The fabric soak (:func:`run_fabric_soak_suite`, DESIGN.md §17) applies the
same discipline at chunk scale: chained flap + degrade + lossy (+ crash-
stop) arcs over a 3-tier fat tree, shrink-capable allreduces as the
workload, and a checkpoint daemon over the fabric's flow counters whose
no-progress trip is the livelock detector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.faults.injectors import arm_plan
from repro.faults.plan import FaultPlan, soak_plans
from repro.units import KiB, ms, us

#: event budget (runaway guard, same role as the campaign's)
SOAK_MAX_EVENTS = 60_000_000

#: checkpoint cadence (simulated ticks)
CHECKPOINT_INTERVAL = ms(2)

#: consecutive no-progress checkpoints tolerated before declaring livelock
#: (30 ms of wall-silence vs. a 20 ms worst-case timeout ladder)
STALL_LIMIT = 15


class LivelockError(AssertionError):
    """The soak checkpoint daemon saw no progress for too long."""


@dataclass(frozen=True)
class SoakSpec:
    """One soak run: a workload driven through one chained fault plan."""

    name: str
    workload: str
    size: int
    iters: int
    plan: FaultPlan


def soak_suite(seed: str = "soak", iters: int = 6) -> list[SoakSpec]:
    """The stock soak suite: every plan from the soak library, each under
    the workload built to stress it."""
    plans = {p.name: p for p in soak_plans(seed)}
    return [
        # The stream gets extra iterations so offload traffic is still
        # flowing when the plan's recover legs land — a breaker can only
        # re-open if something asks for the channel afterwards.
        SoakSpec(name="ioat-flap", workload="stream", size=256 * KiB,
                 iters=iters + 4, plan=plans["ioat-flap"]),
        SoakSpec(name="link-flap", workload="pingpong", size=16 * KiB,
                 iters=iters, plan=plans["link-flap"]),
        SoakSpec(name="incast-burst", workload="incast", size=128 * KiB,
                 iters=max(2, iters - 2), plan=plans["incast-burst"]),
    ]


def _nonterminal(transfers) -> int:
    return sum(1 for t in transfers.values() if t.classify()[0] == "hung")


def _stall_watchdog(sim, name: str, interval: int, stall_limit: int,
                    sample: Callable[[], Optional[tuple]]) -> None:
    """Start the checkpoint daemon ``name``: every ``interval`` ticks
    ``sample()`` records one checkpoint and returns the run's progress
    marker, or None once the run is done (the daemon then ends, so it
    never keeps the event heap alive past quiescence).  ``stall_limit``
    consecutive samples with an unchanged marker raise
    :class:`LivelockError`."""

    def proc():
        last, stalled = None, 0
        while True:
            yield interval  # bare-int sleep
            mark = sample()
            if mark is None:
                return
            if mark != last:
                last, stalled = mark, 0
                continue
            stalled += 1
            if stalled >= stall_limit:
                raise LivelockError(f"{name}: no progress across "
                                    f"{stalled} checkpoints (t={sim.now})")

    sim.daemon(proc(), name=name)


def _checkpoint_daemon(tb, spec: SoakSpec, transfers, checkpoints: list):
    """Periodic invariant sampling; progress means a frame crossed a NIC
    or a transfer reached a terminal state."""

    def sample():
        open_transfers = _nonterminal(transfers)
        frames = sum(h.nic.rx_frames + h.nic.tx_frames for h in tb.hosts)
        checkpoints.append({
            "t": tb.sim.now,
            "nonterminal": open_transfers,
            "skbuffs": sum(h.skb_pool.outstanding for h in tb.hosts),
            "net_pins": sum(
                h.pinner.pin_calls - h.pinner.unpin_calls
                for h in tb.hosts
            ),
            "frames": frames,
            "breaker_open": sum(
                h.health.open_channels for h in tb.hosts
            ),
        })
        if open_transfers == 0:
            return None
        return frames, len(transfers) - open_transfers

    _stall_watchdog(tb.sim, f"soak-checkpoint-{spec.name}",
                    CHECKPOINT_INTERVAL, STALL_LIMIT, sample)


def run_soak(spec: SoakSpec, trace: bool = False) -> dict:
    """Run one soak spec to quiescence; returns its JSON-able report.

    The run is a campaign cell's body (:func:`repro.faults.campaign.drive`)
    with the checkpoint daemon watching it, so the report mirrors a cell's
    (outcomes / failures / injected / counters / sanitizer), plus the
    checkpoint trail and a ``health`` section with just the supervision
    counters (breaker trips and re-opens, keepalives, peer deaths, busy
    signals).
    """
    from repro.core.counters import collect_counters, collect_health
    from repro.faults.campaign import drive, sum_over_stacks

    checkpoints: list[dict] = []
    tb, report = drive(
        spec.workload, spec.size, spec.plan, spec.iters, SOAK_MAX_EVENTS, trace,
        watch=lambda tb, transfers: _checkpoint_daemon(tb, spec, transfers,
                                                       checkpoints))
    report.update(
        soak=spec.name,
        iters=spec.iters,
        checkpoints=checkpoints,
        counters=sum_over_stacks(tb, collect_counters),
        health=sum_over_stacks(tb, collect_health),
    )
    return report


def run_soak_suite(seed: str = "soak", iters: int = 6) -> dict:
    """Run the whole stock suite under one seed; aggregates like a
    campaign report.  Byte-identical per seed (sorted-keys JSON).

    The chunk-level fabric soak suite (:func:`run_fabric_soak_suite`)
    rides along as a separate ``"fabric"`` section: same seed, same
    determinism contract.
    """
    runs = []
    totals = {"completed": 0, "failed": 0, "hung": 0}
    dirty = []
    for spec in soak_suite(seed, iters=iters):
        report = run_soak(spec)
        runs.append(report)
        for key in totals:
            totals[key] += report["outcomes"][key]
        if report["sanitizer"]:
            dirty.append(spec.name)
    return {
        "seed": seed,
        "iters": iters,
        "runs": runs,
        "totals": totals,
        "sanitizer_dirty_runs": dirty,
        "fabric": run_fabric_soak_suite(seed),
    }


# ---------------------------------------------------------------------------
# fabric soak: gray churn over a 3-tier fat tree (DESIGN.md §17)
# ---------------------------------------------------------------------------

#: checkpoint cadence of the fabric soak (simulated ticks); fabric runs
#: resolve in hundreds of microseconds, not milliseconds
FABRIC_CHECKPOINT_INTERVAL = us(25)

#: consecutive no-progress checkpoints before declaring a fabric livelock
FABRIC_STALL_LIMIT = 20

#: event budget per fabric soak run
FABRIC_SOAK_MAX_EVENTS = 20_000_000


@dataclass(frozen=True)
class FabricSoakSpec:
    """One fabric soak run: repeated shrink-capable allreduces through a
    chained gray-failure plan over a multi-path topology."""

    name: str
    plan: FaultPlan
    topology: str = "fat_tree3"
    hosts: int = 16
    size: int = 32 * KiB
    rounds: int = 4
    oversubscription: float = 2.0


def fabric_soak_suite(seed: str = "soak") -> list[FabricSoakSpec]:
    """The fabric soak library: chained gray arcs over a 3-tier fat tree.

    ``gray-churn`` chains a flapping trunk, a bandwidth-degraded trunk and
    a lossy trunk — the health layer must demote, suppress the flap, and
    retry chunk losses, all at once.  ``gray-crash`` adds a crash-stopped
    rank mid-run, so the shrink-and-retry ring recovers *while* the route
    tables are churning.  Link choices are sorted-first over the spec's
    trunks, so each plan is a pure function of (topology, seed).
    """
    from repro.fabric.sweep import make_topology
    from repro.faults.plan import (
        FabricDegradeSpec,
        FabricFlapSpec,
        FabricLossySpec,
        RankFaultSpec,
    )

    spec = make_topology("fat_tree3", 16, 2.0, 4, ecmp_seed=seed)
    trunks = sorted(l.name for l in spec.trunk_links())
    gray = dict(
        flap=(FabricFlapSpec(link=trunks[0], at=us(20), period=us(200),
                             duty=0.5, cycles=5),),
        degrade=(FabricDegradeSpec(link=trunks[1], at=us(40), bw_factor=0.2,
                                   until=us(700)),),
        lossy=(FabricLossySpec(link=trunks[2], drop_rate=0.1, at=us(10),
                               until=us(800)),),
    )
    return [
        FabricSoakSpec(name="gray-churn",
                       plan=FaultPlan(name="gray-churn", seed=seed, **gray)),
        FabricSoakSpec(name="gray-crash",
                       plan=FaultPlan(name="gray-crash", seed=seed,
                                      ranks=(RankFaultSpec(rank=2,
                                                           at=us(120)),),
                                      **gray)),
    ]


def _fabric_checkpoint_daemon(world, spec: FabricSoakSpec, state: dict,
                              checkpoints: list) -> None:
    """Progress sampling over the fabric's flow counters.

    Progress means a message reached a terminal state (delivered or
    failed) or a chunk moved (forwarded or retried); :data:`FABRIC_STALL_LIMIT`
    checkpoints without any of that while work is still open is a
    livelock — the resilience layer's whole drain argument (declaration
    waves, retry caps, breaker hold-downs) bounds every stall well under
    that budget.  Self-terminates once every surviving body finished and
    the network quiesced."""
    net = world.net

    def sample():
        open_msgs = net.msgs_sent - net.msgs_delivered - net.msgs_failed
        terminal = net.msgs_delivered + net.msgs_failed
        res = net.resilience
        checkpoints.append({
            "t": world.sim.now,
            "open_msgs": open_msgs,
            "terminal": terminal,
            "forwarded": net.chunks_forwarded,
            "retried": net.chunks_retried,
            "rerouted": net.chunks_rerouted,
            "reroutes": res.reroutes if res is not None else 0,
            "flaps_suppressed": (res.flaps_suppressed
                                 if res is not None else 0),
            "dead_ranks": len(world.dead),
        })
        if state["open_bodies"] <= len(world.dead) and open_msgs == 0:
            return None
        return terminal, net.chunks_forwarded + net.chunks_retried

    _stall_watchdog(world.sim, f"fabric-soak-checkpoint-{spec.name}",
                    FABRIC_CHECKPOINT_INTERVAL, FABRIC_STALL_LIMIT, sample)


def run_fabric_soak(spec: FabricSoakSpec) -> dict:
    """Run one fabric soak to quiescence; returns its JSON-able report.

    The workload is ``rounds`` back-to-back shrink-capable allreduces
    (:func:`~repro.fabric.resilience.resilient_allreduce`), so a
    crash-stop mid-arc shrinks the ring and the remaining rounds run over
    the survivors.  Byte-identical per seed.
    """
    from repro.fabric.mpi import launch_fabric_world
    from repro.fabric.resilience import resilient_allreduce
    from repro.fabric.sweep import _net_stats, make_topology

    topo = make_topology(spec.topology, spec.hosts, spec.oversubscription,
                         4, ecmp_seed=spec.plan.seed)
    world = launch_fabric_world(topo, backend="memcpy")
    armed = arm_plan(world, spec.plan)
    state = {"open_bodies": world.size}
    checkpoints: list[dict] = []
    _fabric_checkpoint_daemon(world, spec, state, checkpoints)

    def body(rank):
        for _ in range(spec.rounds):
            sendbuf = rank.space.alloc(spec.size)
            recvbuf = rank.space.alloc(spec.size)
            yield from resilient_allreduce(rank, sendbuf, recvbuf)
        state["open_bodies"] -= 1

    sanitizer: list[str] = []
    world.run_spmd(body, max_events=FABRIC_SOAK_MAX_EVENTS)
    try:
        world.finish()
    except AssertionError as exc:
        sanitizer.append(str(exc))
    report = {
        "soak": spec.name,
        "topology": topo.name,
        "hosts": world.size,
        "size": spec.size,
        "rounds": spec.rounds,
        "plan": spec.plan.name,
        "seed": spec.plan.seed,
        "survivors": world.survivors(),
        "dead_ranks": sorted(world.dead),
        "epoch": world.epoch,
        "stale_drained": world.stale_drained,
        "injected": armed.counters(),
        "checkpoints": checkpoints,
        "net": _net_stats(world),
        "sanitizer": sanitizer,
        "end_time": world.sim.now,
    }
    res = world.net.resilience
    if res is not None:
        report["resilience"] = res.snapshot()
    if world.dead:
        report["liveness"] = world.liveness_snapshot()
    return report


def run_fabric_soak_suite(seed: str = "soak") -> dict:
    """Run the fabric soak library under one seed; byte-identical JSON."""
    runs = []
    dirty = []
    for spec in fabric_soak_suite(seed):
        report = run_fabric_soak(spec)
        runs.append(report)
        if report["sanitizer"]:
            dirty.append(spec.name)
    return {
        "seed": seed,
        "runs": runs,
        "sanitizer_dirty_runs": dirty,
    }

