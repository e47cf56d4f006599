"""Bridges from declarative fault specs to the layers' runtime hooks.

Arming a plan against a testbed instantiates one injector per spec and
wires it into the corresponding hook:

* :class:`RandomFrameFaults` implements the link layer's
  :class:`~repro.ethernet.link.FrameFaultHook` with one seeded draw per
  serialized frame;
* :class:`WindowGate` answers ``blocks(now)`` for NIC rx-ring windows;
* :class:`SwitchEgressFault` answers ``drop_egress(port, frame, now)``;
* I/OAT faults are scheduled as bare simulator callbacks that call
  :meth:`~repro.ioat.channel.DmaChannel.fail` /
  :meth:`~repro.ioat.channel.DmaChannel.stall` /
  :meth:`~repro.ioat.channel.DmaChannel.recover` at their trigger time.

Every injector counts what it actually did, and :class:`ArmedPlan`
aggregates those counts into the campaign report's "injected" section —
so a cell whose plan never fired (windows past the run, rates too low) is
visible instead of silently reading as "survived everything".
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional

from repro.ethernet.link import DELIVER, FrameVerdict
from repro.faults.plan import (
    FabricDegradeSpec,
    FabricFlapSpec,
    FabricLossySpec,
    FaultPlan,
    LinkFaultSpec,
    flap_windows,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.testbed import Testbed
    from repro.ethernet.frame import EthernetFrame


class NoTrunksError(ValueError):
    """A fabric fault axis targeted a topology with no trunk links.

    The gray-failure and kill/revive axes express *reroute* semantics —
    demote or cut a trunk and let ECMP find another path — which are
    meaningless on the pair/star degenerate topologies, where every link
    is a single-homed access link.  Arming used to accept these plans
    silently; now the offending link names are part of the error.
    """

    def __init__(self, links, topology: str = ""):
        self.links = tuple(links)
        self.topology = topology
        where = f" in topology {topology!r}" if topology else ""
        super().__init__(
            f"fabric fault axis targets link(s) {list(self.links)}{where}, "
            "but the topology has no trunks (pair/star degenerate spec) — "
            "reroute semantics need a switch-to-switch link to act on"
        )


class RandomFrameFaults:
    """Seeded per-frame fault decisions for one link direction.

    Exactly one RNG draw per in-window frame keeps the schedule a pure
    function of (seed, frame index): adding a second spec or re-running
    the cell cannot shift which frames are hit.
    """

    def __init__(self, spec: LinkFaultSpec, seed: str):
        self.spec = spec
        self.rng = random.Random(seed)
        self.drops = 0
        self.dups = 0
        self.corrupts = 0
        self.reorders = 0

    def on_frame(self, frame: "EthernetFrame", index: int, now: int) -> FrameVerdict:
        spec = self.spec
        if index < spec.first_index:
            return DELIVER
        if spec.last_index is not None and index > spec.last_index:
            return DELIVER
        if spec.windows and not any(
            start <= now < stop for start, stop in spec.windows
        ):
            # Flapping link, currently healthy.  No draw: the schedule
            # inside each bad window must not depend on how many healthy
            # frames crossed the link before it — draws are a function of
            # the in-window frame sequence, windows just gate them.
            return DELIVER
        r = self.rng.random()
        edge = spec.drop_rate
        if r < edge:
            self.drops += 1
            return FrameVerdict(deliver=False)
        edge += spec.dup_rate
        if r < edge:
            self.dups += 1
            return FrameVerdict(duplicates=1)
        edge += spec.corrupt_rate
        if r < edge:
            self.corrupts += 1
            return FrameVerdict(corrupt=True)
        edge += spec.reorder_rate
        if r < edge:
            self.reorders += 1
            return FrameVerdict(delay=spec.reorder_delay)
        return DELIVER

    def counters(self) -> dict[str, int]:
        return {
            "frame_drops": self.drops,
            "frame_dups": self.dups,
            "frame_corrupts": self.corrupts,
            "frame_reorders": self.reorders,
        }


class WindowGate:
    """True inside any of a set of half-open (start, stop) tick windows."""

    def __init__(self, windows):
        self.windows = tuple(tuple(w) for w in windows)
        self.hits = 0

    def blocks(self, now: int) -> bool:
        for start, stop in self.windows:
            if start <= now < stop:
                self.hits += 1
                return True
        return False


class SwitchEgressFault:
    """Per-port egress overflow windows for one switch."""

    def __init__(self, gates: dict[int, WindowGate]):
        self._gates = gates

    def drop_egress(self, port: int, frame: "EthernetFrame", now: int) -> bool:
        gate = self._gates.get(port)
        return gate is not None and gate.blocks(now)

    @property
    def hits(self) -> int:
        return sum(g.hits for g in self._gates.values())


class ChunkLossFault:
    """Seeded per-chunk drop decisions for one fabric port (lossy link).

    One RNG draw per in-window chunk; arbitration batches are sorted, so
    the per-port draw order — and therefore which chunks die — is a pure
    function of (seed, offered traffic), byte-identical under ``--races``.
    """

    def __init__(self, spec: FabricLossySpec, seed: str):
        self.spec = spec
        self.rng = random.Random(seed)
        self.drops = 0

    def __call__(self, chunk, now: int) -> bool:
        spec = self.spec
        if now < spec.at or (spec.until is not None and now >= spec.until):
            return False
        if self.rng.random() < spec.drop_rate:
            self.drops += 1
            return True
        return False


class GrayFrameFaults:
    """Gray-failure frame hook for one full-hardware trunk direction.

    Implements the link layer's ``FrameFaultHook`` for the degrade / flap
    / lossy axes: a flap's down-windows drop every frame (the PHY is
    down), a lossy window makes one seeded draw per frame, and a degrade
    window delays each frame by the extra serialization time of the
    renegotiated rate plus the configured added latency.
    """

    def __init__(self, seed: str, link_bw: float,
                 degrade: tuple = (), lossy: tuple = (),
                 down_windows: tuple = ()):
        self.rng = random.Random(seed)
        self.link_bw = link_bw
        self.degrade = degrade
        self.lossy = lossy
        self.down_windows = down_windows
        self.flap_drops = 0
        self.lossy_drops = 0
        self.delayed = 0

    def on_frame(self, frame: "EthernetFrame", index: int,
                 now: int) -> FrameVerdict:
        for start, stop in self.down_windows:
            if start <= now < stop:
                self.flap_drops += 1
                return FrameVerdict(deliver=False)
        for spec in self.lossy:
            if now < spec.at or (spec.until is not None
                                 and now >= spec.until):
                continue
            if self.rng.random() < spec.drop_rate:
                self.lossy_drops += 1
                return FrameVerdict(deliver=False)
        for spec in self.degrade:
            if now < spec.at or (spec.until is not None
                                 and now >= spec.until):
                continue
            slow = frame.serialization_time(self.link_bw * spec.bw_factor)
            fast = frame.serialization_time(self.link_bw)
            self.delayed += 1
            return FrameVerdict(delay=spec.extra_latency + (slow - fast))
        return DELIVER

    def counters(self) -> dict[str, int]:
        return {
            "gray_flap_drops": self.flap_drops,
            "gray_lossy_drops": self.lossy_drops,
            "gray_delayed": self.delayed,
        }


class ArmedPlan:
    """A plan wired into one live testbed; aggregates injected-fault counts."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.frame_hooks: list[RandomFrameFaults] = []
        self.nic_gates: list[WindowGate] = []
        self.switch_fault: Optional[SwitchEgressFault] = None
        self.ioat_armed = 0
        self.fabric_armed = 0
        self.chunk_hooks: list[ChunkLossFault] = []
        self.gray_hooks: list[GrayFrameFaults] = []
        self.ranks_armed = 0

    def counters(self) -> dict[str, int]:
        c = {
            "frame_drops": 0,
            "frame_dups": 0,
            "frame_corrupts": 0,
            "frame_reorders": 0,
        }
        for hook in self.frame_hooks:
            for key, val in hook.counters().items():
                c[key] += val
        c["nic_window_drops"] = sum(g.hits for g in self.nic_gates)
        c["switch_window_drops"] = (
            self.switch_fault.hits if self.switch_fault is not None else 0
        )
        c["ioat_faults_armed"] = self.ioat_armed
        c["fabric_faults_armed"] = self.fabric_armed
        if self.chunk_hooks:
            c["fabric_chunk_drops"] = sum(h.drops for h in self.chunk_hooks)
        if self.gray_hooks:
            g = {"gray_flap_drops": 0, "gray_lossy_drops": 0,
                 "gray_delayed": 0}
            for hook in self.gray_hooks:
                for key, val in hook.counters().items():
                    g[key] += val
            c.update(g)
        if self.ranks_armed:
            c["rank_faults_armed"] = self.ranks_armed
        return c


def arm_plan(tb: "Testbed", plan: FaultPlan) -> ArmedPlan:
    """Wire ``plan`` into ``tb``; returns the armed view for reporting.

    Works on every testbed shape: back-to-back (``tb.link``), switched
    (``tb.switch`` with per-port links) and fabric worlds (``tb.net``, a
    :class:`~repro.fabric.network.FabricNetwork` whose named links the
    ``fabric`` specs target).  Specs that reference hardware the testbed
    lacks (a switch port on a switchless testbed, a fabric link name the
    topology doesn't have) raise — a plan silently not applying would
    invalidate the whole cell.
    """
    armed = ArmedPlan(plan)
    switch = getattr(tb, "switch", None)

    for i, spec in enumerate(plan.links):
        if getattr(tb, "link", None) is not None:
            links = [(tb.link, "")]
        elif switch is None:
            raise ValueError("link fault on a testbed with no link or switch")
        elif spec.port is not None:
            links = [(switch.links[spec.port], f":p{spec.port}")]
        else:
            # Portless spec on a switched fabric: every cable misbehaves,
            # each with its own RNG stream so per-link schedules stay a
            # pure function of (seed, frame index).
            links = [
                (link, f":p{p}")
                for p, link in enumerate(switch.links) if link is not None
            ]
        for link, tag in links:
            hook = RandomFrameFaults(
                spec, f"{plan.seed}:{plan.name}:link{i}{tag}"
            )
            link.inject_fault(spec.direction_a2b, hook)
            armed.frame_hooks.append(hook)

    for spec in plan.nics:
        gate = WindowGate(spec.windows)
        tb.hosts[spec.node].nic.rx_fault = gate
        armed.nic_gates.append(gate)

    if plan.switches:
        if switch is None:
            raise ValueError("switch fault plan on a switchless testbed")
        switch.fault = SwitchEgressFault(
            {spec.port: WindowGate(spec.windows) for spec in plan.switches}
        )
        armed.switch_fault = switch.fault

    for spec in plan.ioat:
        host = tb.hosts[spec.node]
        if spec.channel is None:
            # Every DMA channel of the node, copy-backend lanes included.
            channels = [ch for engine in host.dma_engines
                        for ch in engine.channels]
        else:
            channels = [host.ioat_engine[spec.channel]]
        for ch in channels:
            if spec.action == "fail":
                tb.sim.call_at(spec.at, ch.fail)
            elif spec.action == "recover":
                tb.sim.call_at(spec.at, ch.recover)
            else:
                duration = spec.duration
                tb.sim.call_at(
                    spec.at, lambda c=ch, d=duration: c.stall(d)
                )
            armed.ioat_armed += 1

    if plan.fabric_axes():
        net = getattr(tb, "net", None)
        trunks = getattr(tb, "trunks", None)
        if net is not None:
            _arm_fabric_axes(net, plan, armed)
        elif trunks is not None:
            _arm_hardware_gray(tb, trunks, plan, armed)
        else:
            raise ValueError("fabric fault plan on a non-fabric testbed")

    if plan.ranks:
        kill_rank = getattr(tb, "kill_rank", None)
        if kill_rank is None:
            raise ValueError(
                "rank fault plan requires a fabric world (FabricWorld); "
                "hardware testbeds have no crash-stoppable ranks")
        for spec in plan.ranks:
            if spec.rank >= tb.size:
                raise ValueError(
                    f"rank fault targets rank {spec.rank} in a "
                    f"{tb.size}-rank world")
            kill_rank(spec.rank, at=spec.at)
            armed.ranks_armed += 1
    return armed


def _require_trunks(plan: FaultPlan, trunk_names: set, topology: str) -> None:
    targeted = sorted({s.link for s in plan.fabric_axes()})
    if targeted and not trunk_names:
        raise NoTrunksError(targeted, topology)


def _arm_fabric_axes(net, plan: FaultPlan, armed: ArmedPlan) -> None:
    """Kill/revive plus the gray axes on a chunk-level FabricNetwork."""
    _require_trunks(plan, {l.name for l in net.spec.trunk_links()},
                    net.spec.name)
    for spec in plan.fabric:
        net.spec.link_named(spec.link)  # raises on an unknown name
        if spec.action == "kill":
            net.kill_link(spec.link, at=spec.at)
        else:
            net.revive_link(spec.link, at=spec.at)
        armed.fabric_armed += 1
    for spec in plan.degrade:
        net.degrade_link(spec.link, spec.bw_factor, spec.extra_latency,
                         at=spec.at, until=spec.until)
        armed.fabric_armed += 1
    for spec in plan.flap:
        net.spec.link_named(spec.link)
        for start, end in flap_windows(spec, plan.seed):
            net.kill_link(spec.link, at=start)
            net.revive_link(spec.link, at=end)
        armed.fabric_armed += 1
    for spec in plan.lossy:
        for port in net.ports_of_link(spec.link):
            hook = ChunkLossFault(
                spec, f"{plan.seed}:{plan.name}:lossy:{port.name}")
            port.fault = hook
            armed.chunk_hooks.append(hook)
        armed.fabric_armed += 1
    gray = plan.degrade + plan.flap + plan.lossy
    if gray:
        _watch_gray_links(net, plan, gray)


def _watch_gray_links(net, plan: FaultPlan, gray) -> None:
    """Attach (if absent) and point the resilience layer at the gray links.

    The watch horizon covers every armed window plus one hold-down, so
    the hysteresis sees the whole episode and the sampling daemons still
    self-terminate once the network quiesces.
    """
    from repro.fabric.resilience import HOLD_DOWN, FabricResilience

    res = net.resilience
    if res is None:
        res = FabricResilience(net, seed=plan.seed)
    horizon = 0
    for spec in gray:
        if isinstance(spec, FabricFlapSpec):
            end = spec.at + spec.cycles * spec.period
        else:
            end = spec.until if spec.until is not None else spec.at
        horizon = max(horizon, end)
    res.watch(sorted({s.link for s in gray}), horizon + HOLD_DOWN)


def _arm_hardware_gray(tb, trunks: dict, plan: FaultPlan,
                       armed: ArmedPlan) -> None:
    """Gray axes on full-hardware EthernetSwitch trunks (frame hooks)."""
    if plan.fabric:
        raise ValueError(
            "fabric kill/revive requires a chunk-level fabric world; "
            "full-hardware testbeds only support the gray axes")
    _require_trunks(plan, set(trunks), getattr(tb, "topology", None)
                    and tb.topology.name or "")
    by_link: dict[str, dict] = {}
    for spec in plan.degrade + plan.flap + plan.lossy:
        if spec.link not in trunks:
            raise KeyError(f"no trunk link {spec.link!r} in this testbed")
        axes = by_link.setdefault(
            spec.link, {"degrade": [], "lossy": [], "down": []})
        if isinstance(spec, FabricDegradeSpec):
            axes["degrade"].append(spec)
        elif isinstance(spec, FabricLossySpec):
            axes["lossy"].append(spec)
        else:
            axes["down"].extend(flap_windows(spec, plan.seed))
        armed.fabric_armed += 1
    for name in sorted(by_link):
        link = trunks[name]
        axes = by_link[name]
        for a2b in (True, False):
            hook = GrayFrameFaults(
                f"{plan.seed}:{plan.name}:gray:{name}:{'ab' if a2b else 'ba'}",
                link.bw,
                degrade=tuple(axes["degrade"]),
                lossy=tuple(axes["lossy"]),
                down_windows=tuple(sorted(axes["down"])),
            )
            link.inject_fault(a2b, hook)
            armed.gray_hooks.append(hook)
