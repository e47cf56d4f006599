"""Campaign cells and matrices: workloads × message sizes × fault plans.

One *cell* builds a fresh testbed, arms one fault plan, drives one
workload through the full stack, runs the simulator to quiescence and
classifies every message pair:

* ``completed`` — the receive request finished without error;
* ``failed`` — a typed :class:`~repro.core.errors.TransferError` surfaced
  on either side (dead-lettered send, aborted pull, remote abort);
* ``hung`` — neither, by the deadline.  A hung pair is the bug class this
  whole layer exists to catch: the contract is that it never happens.

Classification reads the request objects directly after the run instead
of trusting workload processes to report — a receiver blocked on a
never-delivered message must not be able to hide the completion state of
its neighbours.

Cells are executed through the :class:`~repro.reporting.sweeps.SweepExecutor`
("fault_cell" point kind), so they memoize, fan out over processes, and run
in phantom-payload mode.  Reports exclude wall-clock fields; everything
left is a pure function of (workload, size, plan, seed) and the simulator
— the determinism the campaign test asserts bit-for-bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.faults.injectors import arm_plan
from repro.faults.plan import QUICK_SIZES, FaultPlan, standard_plans
from repro.units import ms, us

#: simulated-time horizon of a campaign cell and of a soak run: long
#: enough for 8 retransmit rounds (dead-lettering takes MAX_RETRIES x
#: 500 us) on every message, with slack; runs end early once every
#: transfer is terminal and the demand-armed daemons disarm
CELL_DEADLINE = ms(60)

#: per-cell event budget (runaway guard; a healthy cell uses far less)
CELL_MAX_EVENTS = 30_000_000

#: incast fan-in degree (1 receiver + INCAST_SENDERS senders)
INCAST_SENDERS = 3


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class _Transfer:
    """One tracked message pair: the send request and its receive request."""

    def __init__(self, key: str):
        self.key = key
        self.send_req = None
        self.recv_req = None

    def classify(self) -> tuple[str, Optional[str]]:
        """(outcome, error name) — see the module docstring."""
        recv, send = self.recv_req, self.send_req
        if recv is not None and recv.done and recv.error is None:
            return "completed", None
        for req in (recv, send):
            if req is not None and req.error is not None:
                return "failed", type(req.error).__name__
        return "hung", None


def _match(sender: int, index: int) -> int:
    """Unique match info per (sender node, message index)."""
    return (sender << 16) | index


def _post_recvs(tb, ep, node, core, senders, size, iters, transfers):
    """Post every expected receive up front (one buffer per message)."""

    def proc():
        for src in senders:
            for i in range(iters):
                buf = ep.space.alloc(max(size, 1))
                req = yield from ep.irecv(
                    core, _match(src, i), ~0, buf, 0, size
                )
                transfers[f"{src}->{node}#{i}"].recv_req = req
        # Drive the library until the simulation ends; blocked waits still
        # progress every other request (wait() drains the event queue).
        for t in transfers.values():
            if t.recv_req is not None:
                yield from ep.wait(core, t.recv_req)

    # Daemons re-raise: a workload coding error must fail the cell loudly,
    # not masquerade as a hung transfer.
    tb.sim.daemon(proc(), name=f"faults-recv-n{node}")


def _run_senders(tb, ep, node, core, dst_node, dst_addr, size, iters, transfers):
    def proc():
        buf = ep.space.alloc(max(size, 1))
        for i in range(iters):
            req = yield from ep.isend(
                core, dst_addr, _match(node, i), buf, 0, size
            )
            transfers[f"{node}->{dst_node}#{i}"].send_req = req
            yield from ep.wait(core, req)

    tb.sim.daemon(proc(), name=f"faults-send-n{node}")


def _workload_stream(tb, size: int, iters: int) -> dict[str, _Transfer]:
    """Unidirectional stream: node0 sends ``iters`` messages to node1."""
    ep0, ep1 = tb.open_endpoint(0, 0), tb.open_endpoint(1, 0)
    transfers = {f"0->1#{i}": _Transfer(f"0->1#{i}") for i in range(iters)}
    _post_recvs(tb, ep1, 1, tb.user_core(1), [0], size, iters, transfers)
    _run_senders(tb, ep0, 0, tb.user_core(0), 1, ep1.addr, size, iters,
                 transfers)
    return transfers


def _workload_pingpong(tb, size: int, iters: int) -> dict[str, _Transfer]:
    """Request/response rounds: node0 pings, node1 pongs, ``iters`` times."""
    from repro.simkernel.sync import Signal

    ep0, ep1 = tb.open_endpoint(0, 0), tb.open_endpoint(1, 0)
    core0, core1 = tb.user_core(0), tb.user_core(1)
    transfers = {}
    for i in range(iters):
        transfers[f"0->1#{i}"] = _Transfer(f"0->1#{i}")
        transfers[f"1->0#{i}"] = _Transfer(f"1->0#{i}")

    # Both directions' receives are posted before either side sends, so a
    # dead-lettered message can never strand its successors unmatched.
    posted = {"count": 0}
    ready = Signal(tb.sim, name="pingpong-ready")

    def barrier():
        posted["count"] += 1
        ready.fire()
        while posted["count"] < 2:
            yield ready.wait()

    def node0():
        buf = ep0.space.alloc(max(size, 1))
        for i in range(iters):
            rbuf = ep0.space.alloc(max(size, 1))
            req = yield from ep0.irecv(core0, _match(1, i), ~0, rbuf, 0, size)
            transfers[f"1->0#{i}"].recv_req = req
        yield from barrier()
        for i in range(iters):
            req = yield from ep0.isend(core0, ep1.addr, _match(0, i), buf, 0, size)
            transfers[f"0->1#{i}"].send_req = req
            yield from ep0.wait(core0, req)
            yield from ep0.wait(core0, transfers[f"1->0#{i}"].recv_req)

    def node1():
        buf = ep1.space.alloc(max(size, 1))
        for i in range(iters):
            rbuf = ep1.space.alloc(max(size, 1))
            req = yield from ep1.irecv(core1, _match(0, i), ~0, rbuf, 0, size)
            transfers[f"0->1#{i}"].recv_req = req
        yield from barrier()
        for i in range(iters):
            yield from ep1.wait(core1, transfers[f"0->1#{i}"].recv_req)
            req = yield from ep1.isend(core1, ep0.addr, _match(1, i), buf, 0, size)
            transfers[f"1->0#{i}"].send_req = req
            yield from ep1.wait(core1, req)

    tb.sim.daemon(node0(), name="faults-pingpong-n0")
    tb.sim.daemon(node1(), name="faults-pingpong-n1")
    return transfers


def _workload_incast(tb, size: int, iters: int) -> dict[str, _Transfer]:
    """Fan-in: every other node streams to node0 through the switch."""
    n = INCAST_SENDERS + 1
    ep0 = tb.open_endpoint(0, 0)
    transfers = {}
    for src in range(1, n):
        for i in range(iters):
            key = f"{src}->0#{i}"
            transfers[key] = _Transfer(key)
    _post_recvs(tb, ep0, 0, tb.user_core(0), list(range(1, n)), size, iters,
                transfers)
    for src in range(1, n):
        ep = tb.open_endpoint(src, 0)
        _run_senders(tb, ep, src, tb.user_core(src), 0, ep0.addr, size, iters,
                     transfers)
    return transfers


#: workload name -> builder(tb, size, iters) -> {key: _Transfer}
WORKLOAD_BUILDERS = {
    "pingpong": _workload_pingpong,
    "stream": _workload_stream,
    "incast": _workload_incast,
}

WORKLOADS = tuple(WORKLOAD_BUILDERS)


def _build_testbed(workload: str):
    from repro.cluster.testbed import build_testbed
    from repro.ethernet.switch import build_switched_testbed

    if workload == "incast":
        return build_switched_testbed(INCAST_SENDERS + 1, ioat_enabled=True)
    return build_testbed(ioat_enabled=True)


def sum_over_stacks(tb, collect) -> dict[str, int]:
    """``collect(stack)`` summed key by key over every stack of ``tb``."""
    out: dict[str, int] = {}
    for stack in tb.stacks:
        for key, val in collect(stack).items():
            out[key] = out.get(key, 0) + val
    return out


# ---------------------------------------------------------------------------
# one cell
# ---------------------------------------------------------------------------


#: ring-buffer cap for campaign traces: a faulty cell can retransmit for
#: the full 60 ms deadline, so recorders are always bounded here
TRACE_MAX_SPANS = 4096


def drive(workload: str, size: int, plan: FaultPlan, iters: int,
          max_events: int, trace: bool = False, watch=None) -> tuple:
    """The body of a campaign cell and of a soak run; returns ``(tb, report)``.

    Builds a fresh testbed with the sanitizers attached, arms ``plan``,
    posts the workload, then calls ``watch(tb, transfers)`` if given (the
    soak starts its checkpoint daemon there).  It runs to
    :data:`CELL_DEADLINE` or ``max_events``, classifies every transfer and
    sanitizes.  The report holds what cells and soaks share; each caller
    adds its own counters.  With
    ``trace=True`` every host records a bounded span timeline and the
    report gains a ``trace_events`` document (Perfetto JSON, one process
    group per host): faults and retransmits show up as instant events.
    """
    from repro.analysis.sanitizers import Sanitizer

    build = WORKLOAD_BUILDERS.get(workload)
    if build is None:
        raise ValueError(f"unknown workload {workload!r}")
    tb = _build_testbed(workload)
    if trace:
        for host in tb.hosts:
            host.trace.enabled = True
            host.trace.set_max_spans(TRACE_MAX_SPANS)
    san = Sanitizer()
    for host in tb.hosts:
        san.watch_host(host)

    armed = arm_plan(tb, plan)
    transfers = build(tb, size, iters)
    if watch is not None:
        watch(tb, transfers)

    tb.sim.run(until=CELL_DEADLINE, max_events=max_events)

    outcomes = {"completed": 0, "failed": 0, "hung": 0}
    failures: dict[str, int] = {}
    hung_keys = []
    for key in sorted(transfers):
        outcome, err = transfers[key].classify()
        outcomes[outcome] += 1
        if err is not None:
            failures[err] = failures.get(err, 0) + 1
        if outcome == "hung":
            hung_keys.append(key)

    report = {
        "workload": workload,
        "size": size,
        "plan": plan.name,
        "seed": plan.seed,
        "messages": len(transfers),
        "outcomes": outcomes,
        "failures": failures,
        "hung_keys": hung_keys,
        "injected": armed.counters(),
        "sanitizer": [v.format() for v in san.check()],
        "end_time": tb.sim.now,
    }
    if trace:
        from repro.obs.trace import export_trace_events

        report["trace_events"] = export_trace_events(
            [(host.name, host.trace) for host in tb.hosts]
        )
    return tb, report


def run_cell(workload: str, size: int, plan: FaultPlan,
             iters: int = 3, trace: bool = False) -> dict:
    """Run one (workload, size, plan) cell; returns its JSON-able report
    (:func:`drive`'s, plus the stack and switch counters)."""
    from repro.core.counters import collect_counters

    tb, report = drive(workload, size, plan, iters, CELL_MAX_EVENTS, trace)
    counters = sum_over_stacks(tb, collect_counters)
    if getattr(tb, "switch", None) is not None:
        counters["switch_dropped"] = tb.switch.dropped
        counters["switch_forwarded"] = tb.switch.forwarded
    report["counters"] = counters
    return report


def point_fault_cell(workload: str, size: int, plan: dict, iters: int) -> dict:
    """Sweep-executor entry: plans travel as dicts (JSON-serializable)."""
    return run_cell(workload, size, FaultPlan.from_dict(plan), iters=iters)


# ---------------------------------------------------------------------------
# the matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignSpec:
    """A campaign matrix: the cross product, minus incompatible cells.

    Plans that fault the switch only apply to switched workloads (incast);
    the skip is recorded in the report rather than silently absorbed.
    """

    workloads: tuple = WORKLOADS
    sizes: tuple = QUICK_SIZES
    plans: tuple = field(default_factory=tuple)
    iters: int = 3
    seed: str = "campaign"

    def cells(self) -> tuple[list[tuple[str, int, FaultPlan]], list[str]]:
        plans = self.plans or tuple(standard_plans(self.seed))
        wanted, skipped = [], []
        for workload in self.workloads:
            for size in self.sizes:
                for plan in plans:
                    if plan.switches and workload != "incast":
                        skipped.append(f"{workload}/{size}/{plan.name}")
                        continue
                    wanted.append((workload, size, plan))
        return wanted, skipped


def quick_campaign_spec(seed: str = "campaign") -> CampaignSpec:
    """The tier-1 matrix: 3 workloads x 2 sizes x 4 plans (+switch cell).

    Small enough to run in seconds under phantom payloads, wide enough to
    cross every fault layer with every protocol regime (multi-fragment
    eager and rendezvous/pull).
    """
    plans = {p.name: p for p in standard_plans(seed)}
    from repro.faults.plan import SwitchFaultSpec

    egress = FaultPlan(
        name="egress-burst", seed=seed,
        switches=(SwitchFaultSpec(port=0, windows=((us(50), us(120)),)),),
    )
    return CampaignSpec(
        workloads=WORKLOADS,
        sizes=(16 * 1024, 256 * 1024),
        plans=(plans["clean"], plans["lossy-data"], plans["lossy-acks"],
               plans["ioat-fail"], egress),
        iters=3,
        seed=seed,
    )


def run_campaign(spec: CampaignSpec, executor=None) -> dict:
    """Execute a campaign matrix; returns the aggregated report."""
    from repro.reporting.sweeps import SweepExecutor, point

    cells, skipped = spec.cells()
    if executor is None:
        executor = SweepExecutor()
    points = [
        point("fault_cell", workload=w, size=s, plan=p.to_dict(),
              iters=spec.iters)
        for (w, s, p) in cells
    ]
    results = executor.run(points)

    totals = {"completed": 0, "failed": 0, "hung": 0}
    injected = {}
    sanitizer_dirty = []
    retransmissions = dead_letters = fallback_copies = 0
    for cell in results:
        for key in totals:
            totals[key] += cell["outcomes"][key]
        for key, val in cell["injected"].items():
            injected[key] = injected.get(key, 0) + val
        if cell["sanitizer"]:
            sanitizer_dirty.append(
                f'{cell["workload"]}/{cell["size"]}/{cell["plan"]}'
            )
        retransmissions += cell["counters"].get("retransmissions", 0)
        dead_letters += cell["counters"].get("dead_letters", 0)
        fallback_copies += cell["counters"].get("offload_fallback_copies", 0)
    return {
        "spec": {
            "workloads": list(spec.workloads),
            "sizes": list(spec.sizes),
            "plans": [p.name for p in (spec.plans or standard_plans(spec.seed))],
            "iters": spec.iters,
            "seed": spec.seed,
        },
        "cells": results,
        "skipped_cells": skipped,
        "totals": totals,
        "injected": injected,
        "retransmissions": retransmissions,
        "dead_letters": dead_letters,
        "fallback_copies": fallback_copies,
        "sanitizer_dirty_cells": sanitizer_dirty,
    }


def write_report(report: dict, path) -> Path:
    """Serialize a campaign report (sorted keys: byte-stable output)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return path
