"""Gray-failure resilience: link health, hysteretic rerouting, rank death.

Datacenter fabrics rarely fail cleanly.  The dominant real-world modes are
*gray*: a trunk renegotiates to a quarter of its rate, a flaky transceiver
flaps up and down, a marginal cable eats one chunk in twenty, a whole host
crash-stops mid-collective.  PR 9's fabric only understood the binary kill
(reroute or partition); this layer adds the machinery that keeps a fabric
world delivering degraded-but-correct service through the gray zone:

* :class:`LinkHealthEstimator` — scores each watched link HEALTHY /
  DEGRADED / DEAD from the per-port forwarded/dropped/occupancy counters
  the ports already maintain, sampled on seeded-deterministic windows (a
  per-link phase drawn from the resilience seed, then a fixed cadence);
* :class:`LinkBreaker` — trip/reopen hysteresis per trunk, reusing the
  CLOSED/OPEN state-machine shape of
  :class:`repro.health.breaker.ChannelBreaker`: :data:`TRIP_SAMPLES`
  consecutive unhealthy windows demote the trunk out of the ECMP
  candidate set (:meth:`repro.fabric.routing.RouteTables.demote_link`,
  which guarantees demotion never partitions), and a demoted trunk must
  stay down for :data:`HOLD_DOWN` ticks *and* look healthy for
  :data:`REOPEN_SAMPLES` consecutive windows before it is restored — so a
  flapping trunk settles into one stable demoted state instead of
  thrashing the route tables.  Every healthy-looking sample the hysteresis
  refuses to act on increments ``fabric_route_flaps_suppressed``;
* :func:`resilient_allreduce` — collective-level recovery: abort-and-
  report is the default everywhere, but a ring allreduce can opt into
  shrink-and-retry, rebuilding the ring over the survivors (the normal
  ring with ``members=``) in a fresh, epoch-scoped tag namespace.

Rank crash-stop declaration (the liveness half) lives in
:class:`repro.fabric.mpi.FabricWorld`.

Zero-overhead contract: *attaching* a :class:`FabricResilience` creates no
simulation events and touches no schedule — event counts, the simulated
clock and every port counter stay bit-identical with resilience idle
(``tests/test_fabric_resilience.py::TestIdleAttachment`` pins this).
Sampling daemons only start when a fault plan with gray axes is armed.
"""

from __future__ import annotations

import random
from enum import Enum
from typing import TYPE_CHECKING, Generator, Iterable

from repro.core.errors import RankDead
from repro.units import SEC, us

if TYPE_CHECKING:  # pragma: no cover
    from repro.fabric.mpi import FabricRank
    from repro.fabric.network import FabricNetwork, FabricPort


class LinkHealth(Enum):
    HEALTHY = "healthy"
    DEGRADED = "degraded"
    DEAD = "dead"


#: severity order for "worst of both directions"
_SEVERITY = {LinkHealth.HEALTHY: 0, LinkHealth.DEGRADED: 1, LinkHealth.DEAD: 2}


# Tunables (DESIGN.md §17), sized against the fabric cost model: a
# sampling window of 20 us is ~3 chunk serializations on a degraded
# 2.5 Gb/s trunk, so one window of traffic is enough signal to score it;
# the hold-down of 400 us spans a whole default flap period, which is what
# makes a flapping trunk converge to one stable demotion instead of
# tracking the flap.

#: sampling cadence per watched link
WINDOW = us(20)
#: fraction of ``WINDOW`` the seeded per-link phase offset may span
PHASE_JITTER = 0.5
#: dropped/enqueued delta ratio at/above which a window is DEGRADED
DROP_THRESHOLD = 0.02
#: busy-tick occupancy above which a window is DEGRADED (a saturated gray
#: link serializes flat-out while its healthy siblings idle)
BUSY_THRESHOLD = 0.95
#: consecutive unhealthy windows before a trunk is demoted
TRIP_SAMPLES = 3
#: consecutive healthy windows before a demoted trunk may be restored
REOPEN_SAMPLES = 4
#: minimum ticks a demotion holds regardless of how healthy it looks
HOLD_DOWN = us(400)


class LinkHealthEstimator:
    """Health of one link from its two egress ports' counter deltas.

    Signals, worst-of-both-directions:

    * a dead port (flap down-phase) is DEAD;
    * a renegotiated rate or added PHY latency is DEGRADED — real switches
      surface speed downshift in port status, so reading the degrade state
      off the port is observation, not cheating;
    * a window whose dropped/enqueued delta ratio crosses
      :data:`DROP_THRESHOLD` is DEGRADED (lossy link);
    * a window serialized busier than :data:`BUSY_THRESHOLD` is DEGRADED
      (a gray link running flat-out while siblings keep up).
    """

    __slots__ = ("name", "ports", "state", "samples", "_last")

    def __init__(self, name: str, ports: list["FabricPort"]):
        self.name = name
        self.ports = ports
        self.state = LinkHealth.HEALTHY
        self.samples = 0
        self._last = [(p.enqueued, p.dropped, p.busy_ticks) for p in ports]

    def sample(self) -> LinkHealth:
        worst = LinkHealth.HEALTHY
        for i, port in enumerate(self.ports):
            enq0, drop0, busy0 = self._last[i]
            d_enq = port.enqueued - enq0
            d_drop = port.dropped - drop0
            d_busy = port.busy_ticks - busy0
            self._last[i] = (port.enqueued, port.dropped, port.busy_ticks)
            if not port.alive:
                health = LinkHealth.DEAD
            elif port.service_scale != 1.0 or port.extra_delay:
                health = LinkHealth.DEGRADED
            elif d_enq and d_drop / d_enq >= DROP_THRESHOLD:
                health = LinkHealth.DEGRADED
            elif d_busy / WINDOW > BUSY_THRESHOLD:
                health = LinkHealth.DEGRADED
            else:
                health = LinkHealth.HEALTHY
            if _SEVERITY[health] > _SEVERITY[worst]:
                worst = health
        self.samples += 1
        self.state = worst
        return worst


class LinkBreaker:
    """Trip/reopen hysteresis for one trunk (the breaker shape, per link).

    CLOSED: the trunk is a normal ECMP candidate; :data:`TRIP_SAMPLES`
    consecutive unhealthy windows demote it and open the breaker.
    OPEN: the trunk is demoted; it is restored only after :data:`HOLD_DOWN`
    ticks *and* :data:`REOPEN_SAMPLES` consecutive healthy windows.  Healthy
    windows the hysteresis refuses to act on are counted as suppressed
    flaps — the whole point of the breaker is that a flapping trunk
    produces a large suppressed count and zero route oscillation.
    """

    __slots__ = ("res", "name", "a", "b", "state", "tripped_at",
                 "unhealthy_streak", "healthy_streak")

    def __init__(self, res: "FabricResilience", name: str, a: str, b: str):
        self.res = res
        self.name = name
        self.a = a
        self.b = b
        self.state = "closed"
        self.tripped_at = -1
        self.unhealthy_streak = 0
        self.healthy_streak = 0

    def on_sample(self, health: LinkHealth, now: int) -> None:
        if self.state == "closed":
            if health is LinkHealth.HEALTHY:
                self.unhealthy_streak = 0
                return
            self.unhealthy_streak += 1
            if self.unhealthy_streak >= TRIP_SAMPLES:
                self._trip(now)
        else:
            if health is not LinkHealth.HEALTHY:
                self.healthy_streak = 0
                return
            self.healthy_streak += 1
            if (now - self.tripped_at < HOLD_DOWN
                    or self.healthy_streak < REOPEN_SAMPLES):
                self.res.flaps_suppressed += 1
            else:
                self._reopen()

    def _trip(self, now: int) -> None:
        self.state = "open"
        self.tripped_at = now
        self.unhealthy_streak = 0
        self.healthy_streak = 0
        res = self.res
        if res.net.routes.demote_link(self.a, self.b):
            res.demotions += 1
            res.reroutes += 1

    def _reopen(self) -> None:
        self.state = "closed"
        self.unhealthy_streak = 0
        self.healthy_streak = 0
        res = self.res
        if res.net.routes.restore_link(self.a, self.b):
            res.restorations += 1
            res.reroutes += 1


class FabricResilience:
    """The attached resilience layer of one :class:`FabricNetwork`.

    Construction is pure — counters registered, zero events scheduled —
    so an idle attachment cannot perturb a figure.  :meth:`watch` starts
    one seeded sampling daemon per named link; each self-terminates once
    the watch horizon has passed and the network has quiesced.
    """

    def __init__(self, net: "FabricNetwork", seed: str = "resilience"):
        self.net = net
        self.seed = seed
        self.horizon = 0
        self.reroutes = 0
        self.flaps_suppressed = 0
        self.demotions = 0
        self.restorations = 0
        self._estimators: dict[str, LinkHealthEstimator] = {}
        self._breakers: dict[str, LinkBreaker] = {}
        net.resilience = self
        m = net.metrics
        m.counter("fabric", "fabric_reroutes", lambda: self.reroutes,
                  "health-driven route-table changes (demote + restore)")
        m.counter("fabric", "fabric_route_flaps_suppressed",
                  lambda: self.flaps_suppressed,
                  "healthy-looking samples the hysteresis refused to act on")

    # -- watching ----------------------------------------------------------

    def watch(self, links: Iterable[str], horizon: int) -> None:
        """Start health sampling over the named links until ``horizon``.

        Idempotent per link.  The per-link phase offset is drawn from the
        resilience seed, so two runs with the same seed sample — and
        therefore demote, restore and suppress — at identical ticks.
        """
        if horizon > self.horizon:
            self.horizon = horizon
        net = self.net
        hosts = set(net.spec.hosts)
        for name in sorted(set(links)):
            if name in self._estimators:
                continue
            link = net.spec.link_named(name)
            est = LinkHealthEstimator(name, net.ports_of_link(name))
            self._estimators[name] = est
            if link.a not in hosts and link.b not in hosts:
                self._breakers[name] = LinkBreaker(self, name, link.a, link.b)
            span = max(int(WINDOW * PHASE_JITTER), 1)
            rng = random.Random(f"{self.seed}:phase:{name}")
            phase = 1 + rng.randrange(span)
            net.sim.daemon(self._watch_link(name, est, phase),
                           name=f"linkhealth:{name}")

    def _watch_link(self, name: str, est: LinkHealthEstimator,
                    phase: int) -> Generator:
        yield phase
        net = self.net
        breaker = self._breakers.get(name)
        while True:
            yield WINDOW
            health = est.sample()
            if breaker is not None:
                breaker.on_sample(health, net.sim.now)
            open_msgs = (net.msgs_sent - net.msgs_delivered
                         - net.msgs_failed)
            if net.sim.now >= self.horizon and open_msgs == 0:
                return

    # -- observation -------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-stable summary for campaign/soak reports."""
        return {
            "reroutes": self.reroutes,
            "demotions": self.demotions,
            "restorations": self.restorations,
            "flaps_suppressed": self.flaps_suppressed,
            "route_version": self.net.routes.version,
            "links": {n: e.state.value
                      for n, e in sorted(self._estimators.items())},
            "samples": {n: e.samples
                        for n, e in sorted(self._estimators.items())},
            "demoted": sorted(n for n, b in self._breakers.items()
                              if b.state == "open"),
        }


# ---------------------------------------------------------------------------
# Collective-level recovery: shrink-and-retry ring allreduce
# ---------------------------------------------------------------------------

#: epoch-scoped tag namespace for recovery collectives — disjoint from the
#: normal collective namespace (0x4000_0000), so a stale epoch-0 message
#: can never match an epoch-1 receive
_RECOVERY_TAG_BASE = 0x50000000


def _recovery_tag(rank: "FabricRank", epoch: int) -> int:
    """A fresh 4096-tag window per call, epoch-scoped.

    The per-rank collective sequence (the same counter the normal
    collectives salt their tags with) keeps two successive shrunk
    allreduces in one epoch on disjoint tags; survivors agree on the
    counter because every rank makes the same collective calls in the
    same order.
    """
    seq = getattr(rank, "_coll_seq", 0)
    rank._coll_seq = seq + 1
    return (_RECOVERY_TAG_BASE | ((epoch & 0xF) << 24)
            | ((seq & 0xFFF) << 12))


#: rank deaths a shrink-and-retry allreduce survives before the error
#: propagates (abort-and-report)
MAX_SHRINKS = 2


def resilient_allreduce(rank: "FabricRank", sendbuf, recvbuf) -> Generator:
    """Ring allreduce that shrinks over survivors on rank death.

    Runs the normal ring first; if a :class:`RankDead` surfaces, every
    survivor joins the recovery barrier (sleeps past the declaration
    wave, then the first waker advances the epoch and drains stale
    traffic) and retries over the shrunk ring — up to :data:`MAX_SHRINKS`
    deaths, after which the error propagates (abort-and-report).

    Correctness needs only per-rank ordering, not simultaneity: a rank
    may start epoch *e+1* sends while a peer is still unwinding epoch
    *e*, because epoch-scoped tags keep the traffic disjoint and the
    poison gate blocks any epoch-*e* send from entering the network
    after the declaration wave.
    """
    world = rank.world
    n = len(sendbuf)
    if not world.dead:
        try:
            yield from rank.allreduce(sendbuf, recvbuf, algo="ring")
            return None
        except RankDead:
            if rank.rank in world.dead:
                raise
    # Already-shrunk world (a later round after a death): the full ring
    # would deadlock — ranks far from the dead one would post receives
    # their aborted neighbors never feed — so go straight to the survivor
    # ring.  join_recovery is a no-op when the declaration is long past.
    from repro.mpi.collectives import REDUCE_BW, _allreduce_ring

    for attempt in range(MAX_SHRINKS):
        yield from world.join_recovery(rank)
        # Re-seed: partial accumulation from the failed epoch is garbage.
        if n:
            yield from rank.core.execute(max(int(n * SEC / REDUCE_BW), 1),
                                         "user")
            recvbuf.copy_from(0, sendbuf, 0, n)
        # The shrunk ring: the survivors, on epoch-scoped tags so retries
        # after a second death cannot cross-match the first retry's
        # stragglers.
        tag = _recovery_tag(rank, world.epoch)
        try:
            yield from _allreduce_ring(rank, recvbuf, n, tag,
                                       members=world.survivors())
            return None
        except RankDead:
            if attempt == MAX_SHRINKS - 1 or rank.rank in world.dead:
                raise
    return None


__all__ = [
    "FabricResilience",
    "LinkBreaker",
    "LinkHealth",
    "LinkHealthEstimator",
    "resilient_allreduce",
]
