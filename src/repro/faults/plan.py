"""Fault plans: declarative, JSON-serializable, seeded fault schedules.

A :class:`FaultPlan` is pure data — which layers misbehave, how much, and
when — with no reference to any live testbed.  That keeps plans cacheable
by the sweep executor (they round-trip through JSON) and makes a campaign
cell's identity fully describable by ``(workload, size, plan, seed)``.

Determinism: probabilistic specs (frame loss etc.) draw from a
``random.Random`` seeded with a *string* derived from the plan seed and the
spec's position.  CPython seeds string inputs through SHA-512, so the
schedule is identical across platforms and runs — the property the
campaign's bit-identical-report check rests on.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import Optional

from repro.units import KiB, us


@dataclass(frozen=True)
class LinkFaultSpec:
    """Per-frame randomized faults on one link direction.

    Rates are independent probabilities folded into a single draw per
    frame (at most one fault per frame, drop winning over duplicate over
    corrupt over reorder).  ``first_index``/``last_index`` bound the
    attack window in serialized-frame indices; ``port`` selects the
    switch-port link on switched testbeds (ignored back-to-back).
    """

    direction_a2b: bool = True
    drop_rate: float = 0.0
    dup_rate: float = 0.0
    corrupt_rate: float = 0.0
    reorder_rate: float = 0.0
    #: extra delivery delay for reordered frames (ticks)
    reorder_delay: int = us(30)
    first_index: int = 0
    last_index: Optional[int] = None
    port: Optional[int] = None
    #: optional (start, stop) *tick* windows; when non-empty, faults only
    #: fire inside them (a "flapping" link).  The RNG still draws exactly
    #: once per in-index-window frame so the schedule stays a pure
    #: function of (seed, frame index) regardless of timing windows.
    windows: tuple = ()


@dataclass(frozen=True)
class NicFaultSpec:
    """Receive-ring exhaustion: drop all rx frames inside the windows."""

    node: int
    #: (start, stop) tick windows, half-open
    windows: tuple = ()


@dataclass(frozen=True)
class SwitchFaultSpec:
    """Egress-queue overflow: tail-drop on one port inside the windows."""

    port: int
    windows: tuple = ()


@dataclass(frozen=True)
class IoatFaultSpec:
    """I/OAT channel fault: failure, transient stall, or recovery at ``at``.

    ``channel=None`` hits every channel of the node's engine — the
    whole-chipset failure the memcpy-fallback path must survive.
    ``action="recover"`` un-fails a previously failed channel (chipset
    reset), which is what lets soak plans chain fail→recover cycles and
    exercise the circuit breaker's half-open probe path.
    """

    node: int
    action: str = "fail"  # "fail" | "stall" | "recover"
    at: int = us(100)
    #: stall duration (ticks); ignored for "fail"/"recover"
    duration: int = us(200)
    channel: Optional[int] = None

    def __post_init__(self) -> None:
        if self.action not in ("fail", "stall", "recover"):
            raise ValueError(f"unknown ioat fault action {self.action!r}")


@dataclass(frozen=True)
class FabricFaultSpec:
    """Kill (or revive) one *named* fabric link at absolute time ``at``.

    ``link`` is the spec-level ``"a~b"`` name (either orientation); on a
    fabric world the kill recomputes the seeded ECMP tables and strands
    in-queue chunks onto deterministic detours — or fails their messages
    with :class:`~repro.core.errors.FabricPartitioned` when no path is
    left.  Unlike the frame-level specs above this targets the chunk-level
    :class:`~repro.fabric.network.FabricNetwork`, so it composes with the
    fat-tree/dragonfly topologies the frame-level models never see.
    """

    link: str
    action: str = "kill"  # "kill" | "revive"
    at: int = 0

    def __post_init__(self) -> None:
        if self.action not in ("kill", "revive"):
            raise ValueError(f"unknown fabric fault action {self.action!r}")


@dataclass(frozen=True)
class FabricDegradeSpec:
    """Gray failure: one named link slows down instead of dying.

    From ``at`` (until ``until``, or forever when None) the link serializes
    at ``bw_factor`` of its spec'd bandwidth and adds ``extra_latency``
    ticks of propagation per chunk/frame.  Nothing is dropped — this is the
    failure mode that never shows up in a binary kill matrix, and exactly
    what the per-link health estimator scores DEGRADED from occupancy.
    """

    link: str
    at: int = 0
    #: effective-bandwidth multiplier (0 < bw_factor <= 1)
    bw_factor: float = 0.25
    #: extra per-hop propagation delay (ticks)
    extra_latency: int = 0
    until: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.bw_factor <= 1.0:
            raise ValueError(f"bw_factor must be in (0, 1], got {self.bw_factor}")
        if self.extra_latency < 0:
            raise ValueError("extra_latency must be >= 0")


@dataclass(frozen=True)
class FabricFlapSpec:
    """Seeded up/down duty cycle on one named link.

    The link dies at each down-edge and revives at each up-edge, for
    ``cycles`` cycles of ``period`` ticks starting at ``at``; the link is
    *up* for ``duty`` of each cycle.  ``jitter`` perturbs each edge by up to
    that fraction of the period, drawn from ``random.Random`` seeded with
    the plan seed and the link name — the schedule is pure data (see
    :func:`flap_windows`) so two runs flap identically.
    """

    link: str
    at: int = us(50)
    period: int = us(400)
    duty: float = 0.5
    cycles: int = 3
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.period <= 0 or self.cycles < 1:
            raise ValueError("flap needs a positive period and >= 1 cycle")
        if not 0.0 < self.duty < 1.0:
            raise ValueError(f"duty must be in (0, 1), got {self.duty}")
        if not 0.0 <= self.jitter < 0.5:
            raise ValueError(f"jitter must be in [0, 0.5), got {self.jitter}")


@dataclass(frozen=True)
class FabricLossySpec:
    """Per-chunk (or per-frame) drop probability on one named link."""

    link: str
    drop_rate: float = 0.05
    at: int = 0
    until: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.drop_rate <= 1.0:
            raise ValueError(f"drop_rate must be in (0, 1], got {self.drop_rate}")


@dataclass(frozen=True)
class RankFaultSpec:
    """Crash-stop: kill one fabric rank (by index) at absolute time ``at``.

    The rank's process is terminated mid-collective; a grace window later
    the fabric liveness layer declares it dead and fails every survivor's
    pending request with :class:`~repro.core.errors.RankDead`.
    """

    rank: int
    at: int = us(100)

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError("rank must be >= 0")


def flap_windows(spec: FabricFlapSpec, seed: str) -> tuple:
    """The (down_start, down_end) tick windows of one flap schedule.

    A pure function of (spec, seed): the RNG is seeded from the plan seed
    and the link name only, so arming the same plan twice — or replaying
    it under a shuffled tie-break — yields the identical schedule.
    """
    rng = random.Random(f"{seed}:flap:{spec.link}")
    windows = []
    up = int(spec.period * spec.duty)
    for cycle in range(spec.cycles):
        start = spec.at + cycle * spec.period + up
        end = spec.at + (cycle + 1) * spec.period
        if spec.jitter:
            span = int(spec.period * spec.jitter)
            start += rng.randrange(-span, span + 1)
            end += rng.randrange(-span, span + 1)
        if end > start >= 0:
            windows.append((start, end))
    return tuple(windows)


@dataclass(frozen=True)
class FaultPlan:
    """One named, seeded composition of fault specs across the layers."""

    name: str
    seed: str = "0"
    links: tuple = ()
    nics: tuple = ()
    switches: tuple = ()
    ioat: tuple = ()
    fabric: tuple = ()
    #: gray-failure fabric axes (degrade / flap / lossy named links)
    degrade: tuple = ()
    flap: tuple = ()
    lossy: tuple = ()
    #: crash-stop rank failures (fabric worlds only)
    ranks: tuple = ()

    def fabric_axes(self) -> tuple:
        """Every spec that names a fabric link, across all four link axes."""
        return self.fabric + self.degrade + self.flap + self.lossy

    # -- JSON round-trip -------------------------------------------------

    def to_dict(self) -> dict:
        d = asdict(self)
        for key in ("links", "nics", "switches", "ioat", "fabric",
                    "degrade", "flap", "lossy", "ranks"):
            d[key] = list(d[key])
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FaultPlan":
        def tup(spec_cls, entries):
            out = []
            for e in entries:
                e = dict(e)
                if "windows" in e:
                    e["windows"] = tuple(tuple(w) for w in e["windows"])
                out.append(spec_cls(**e))
            return tuple(out)

        return cls(
            name=d["name"],
            seed=d.get("seed", "0"),
            links=tup(LinkFaultSpec, d.get("links", ())),
            nics=tup(NicFaultSpec, d.get("nics", ())),
            switches=tup(SwitchFaultSpec, d.get("switches", ())),
            ioat=tup(IoatFaultSpec, d.get("ioat", ())),
            fabric=tup(FabricFaultSpec, d.get("fabric", ())),
            degrade=tup(FabricDegradeSpec, d.get("degrade", ())),
            flap=tup(FabricFlapSpec, d.get("flap", ())),
            lossy=tup(FabricLossySpec, d.get("lossy", ())),
            ranks=tup(RankFaultSpec, d.get("ranks", ())),
        )


def standard_plans(seed: str = "campaign") -> list[FaultPlan]:
    """The stock plan library the quick campaign sweeps.

    Each plan targets one failure mode the reliability layer claims to
    survive; "clean" is the control cell the others are compared against.
    """
    return [
        FaultPlan(name="clean", seed=seed),
        # Data-direction loss: retransmission must recover both eager
        # fragments and pull replies.
        FaultPlan(
            name="lossy-data", seed=seed,
            links=(LinkFaultSpec(direction_a2b=True, drop_rate=0.05),),
        ),
        # ACK-direction loss: exercises the duplicate-arrival re-ack path
        # (a lost ACK must not livelock the sender into dead-lettering).
        FaultPlan(
            name="lossy-acks", seed=seed,
            links=(LinkFaultSpec(direction_a2b=False, drop_rate=0.10),),
        ),
        # Duplication + reordering + the odd bad FCS, both directions.
        FaultPlan(
            name="dup-reorder", seed=seed,
            links=(
                LinkFaultSpec(direction_a2b=True, dup_rate=0.04,
                              reorder_rate=0.06, corrupt_rate=0.02),
                LinkFaultSpec(direction_a2b=False, dup_rate=0.04,
                              reorder_rate=0.06),
            ),
        ),
        # Receiver NIC rx-ring exhaustion: two starvation windows.
        FaultPlan(
            name="rx-ring-stall", seed=seed,
            nics=(NicFaultSpec(
                node=1,
                windows=((us(60), us(140)), (us(400), us(480))),
            ),),
        ),
        # I/OAT chipset failure mid-run on the receiver: the offload path
        # must degrade to memcpy and still complete every transfer.
        FaultPlan(
            name="ioat-fail", seed=seed,
            ioat=(IoatFaultSpec(node=1, action="fail", at=us(80)),),
        ),
        # Transient channel stall: completion merely arrives late.
        FaultPlan(
            name="ioat-stall", seed=seed,
            ioat=(IoatFaultSpec(node=1, action="stall", at=us(60),
                                duration=us(300)),),
        ),
    ]


#: message sizes the quick campaign crosses with the plans: small eager,
#: multi-fragment medium, just-over-rendezvous, and a pull big enough to
#: keep several blocks in flight
QUICK_SIZES = (1 * KiB, 16 * KiB, 48 * KiB, 256 * KiB)


def soak_plans(seed: str = "soak") -> list[FaultPlan]:
    """The soak library: long chained fault schedules (DESIGN.md §12).

    Where the quick campaign fires one fault per cell, these chain whole
    degradation arcs — fail→recover cycles that walk the circuit breaker
    through trip/half-open/reopen, flapping links whose loss comes in
    windows, and bursty fan-in congestion — so the health layer's steady
    state (not just its first reaction) is what gets soaked.
    """
    from repro.units import ms

    return [
        # Receiver I/OAT chipset flaps: stall, hard-fail, recover, fail
        # again, recover again.  Every fail leg must trip the per-channel
        # breakers to memcpy; every recover leg must let a half-open
        # probe re-open them.
        FaultPlan(
            name="ioat-flap", seed=seed,
            ioat=(
                IoatFaultSpec(node=1, action="stall", at=us(60),
                              duration=us(300)),
                IoatFaultSpec(node=1, action="fail", at=us(500)),
                IoatFaultSpec(node=1, action="recover", at=ms(2)),
                IoatFaultSpec(node=1, action="fail", at=ms(3)),
                IoatFaultSpec(node=1, action="recover", at=ms(4)),
            ),
        ),
        # Flapping link: heavy bidirectional loss inside several windows,
        # clean in between.  Retransmission must ride through each flap.
        # The loss never escalates to a dead letter or a BUSY backoff.
        FaultPlan(
            name="link-flap", seed=seed,
            links=(
                LinkFaultSpec(direction_a2b=True, drop_rate=0.40,
                              windows=((us(60), us(600)),
                                       (us(900), ms(1) + us(500)),
                                       (ms(2), ms(2) + us(500)))),
                LinkFaultSpec(direction_a2b=False, drop_rate=0.30,
                              windows=((us(150), us(700)),
                                       (ms(1) + us(400), ms(2)))),
            ),
        ),
        # Incast bursts: the fan-in receiver's NIC ring starves in
        # windows while its I/OAT fails and recovers underneath, so its
        # breakers trip and re-open during fan-in.  Neither BUSY trigger
        # (eager-ring watermark, pull-handle cap) fires, so no
        # backpressure is signalled.
        FaultPlan(
            name="incast-burst", seed=seed,
            nics=(NicFaultSpec(
                node=0,
                windows=((us(100), us(260)), (us(700), us(900)),
                         (ms(1) + us(400), ms(1) + us(600))),
            ),),
            ioat=(
                IoatFaultSpec(node=0, action="fail", at=us(400)),
                IoatFaultSpec(node=0, action="recover", at=ms(1) + us(200)),
            ),
        ),
    ]
