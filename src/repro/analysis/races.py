"""Schedule-race detector: replay under permuted same-timestamp tie-breaks.

The static rules (RACE001/ORD001/DET002) prove the *absence of known
patterns*; this module tests the property itself.  A scenario is
**schedule-race free** when its observable outcome — per-host counters,
the multiset of trace spans, the final simulated time — is identical under
every legal ordering of same-timestamp events.  The FIFO tie-break the
:class:`~repro.simkernel.scheduler.Simulator` ships is *one* such ordering;
:class:`~repro.simkernel.tiebreak.SeededShuffleTieBreak` generates others.
Running both and diffing the observations flushes out any hidden
dependence on tie order — the dynamic twin of the lint sweep, and the
property the sharded-parallel roadmap item needs proven before partition
boundaries can reorder deliveries.

Workflow (:class:`RaceDetector`):

1. run the scenario once under default FIFO — the **baseline**;
2. for each seed, run it again under a seeded shuffle of tie priorities;
3. diff the :class:`Observation`\\ s (volatile keys stripped, trace digests
   order-insensitive); identical → that permutation is clean;
4. on divergence, **bisect**: re-run under
   :class:`~repro.simkernel.tiebreak.PrefixShuffleTieBreak` with a binary
   search on the prefix length to find the minimal single tie-flip that
   still flips the outcome, then line up the two schedule logs and report
   the first diverging event with both schedules around it.

Scenarios are plain callables ``() -> Observation`` that build their own
simulator(s); the detector installs the tie-break policy via
:func:`~repro.simkernel.tiebreak.default_tiebreak`, so anything that
constructs a :class:`Simulator` inside the callable is covered —
including :func:`repro.cluster.testbed.build_testbed`.
:func:`workload_scenario` wraps the standard corpus (the fault-campaign
workloads pingpong / stream / incast plus the chunk-level ``fabric``
collective cell) into that shape; ``python -m repro.analysis --races``
sweeps them all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.registry import diff_snapshots
from repro.obs.trace import trace_digest
from repro.simkernel.tiebreak import (
    PrefixShuffleTieBreak,
    SeededShuffleTieBreak,
    default_tiebreak,
)

#: metrics that legitimately differ between observationally equivalent
#: runs: the event count varies because the dispatcher elides hops whose
#: callback list emptied — an order-dependent *optimization*, not an
#: order-dependent *outcome*
VOLATILE_METRICS = frozenset({"sim_events_processed"})

#: the standard ``--races`` corpus: the fault-campaign workloads plus the
#: fabric collective cell.  Deliberately NOT ``campaign.WORKLOADS`` —
#: the campaign matrix (and its bit-identical reports) must not grow a
#: cell when the race corpus does.
RACE_WORKLOADS = ("pingpong", "stream", "incast", "fabric")

#: schedule-log entries shown on each side of the first diverging event
CONTEXT = 3

#: hard cap on scenario re-runs during one bisection (a scenario with
#: ~2**20 pushes bisects in ~20 runs; the cap is a runaway guard)
MAX_BISECT_RUNS = 48


@dataclass
class Observation:
    """Everything the detector compares between two runs of a scenario."""

    counters: Dict[str, Dict[str, object]]  #: host name -> metric snapshot
    digests: Dict[str, str]                 #: host name -> trace digest
    end_time: int                           #: final simulated now (ns)
    pushes: int                             #: total heap pushes (bisect domain)
    schedule: List[Tuple[int, str]]         #: dispatch log [(time, label)]
    outcomes: Dict[str, str] = field(default_factory=dict)

    def equivalent(self, other: "Observation", strict: bool = False) -> bool:
        """Same observable outcome, ignoring volatile keys and ordering.

        By default the comparison is **host-relabel tolerant**: two
        observations match if some bijection of host names maps one onto
        the other.  Symmetric peers (the incast senders) race for the wire
        at t=0 and any tie-break decides who wins; the loser's timeline is
        the winner's with the names swapped, which is an isomorphism of
        the run, not a schedule race.  ``strict=True`` demands the
        identity mapping (useful when a scenario's hosts are known to be
        distinguishable).
        """
        if self.end_time != other.end_time:
            return False
        if self.outcomes != other.outcomes:
            return False
        if set(self.counters) != set(other.counters):
            return False
        if strict:
            for host, snap in self.counters.items():
                if diff_snapshots(snap, other.counters[host],
                                  exclude=VOLATILE_METRICS):
                    return False
            return self.digests == other.digests
        return self._canonical_hosts() == other._canonical_hosts()

    def _canonical_hosts(self) -> List[tuple]:
        """Per-host (filtered counters, trace digest) pairs, name-blind."""
        out = []
        for host, snap in self.counters.items():
            items = tuple(sorted((k, v) for k, v in snap.items()
                                 if k not in VOLATILE_METRICS))
            out.append((items, self.digests.get(host)))
        return sorted(out)


def observe_testbed(tb, schedule: List[Tuple[int, str]],
                    outcomes: Optional[Dict[str, str]] = None) -> Observation:
    """Package a finished testbed run into an :class:`Observation`."""
    counters = {h.name: h.metrics.snapshot() for h in tb.hosts}
    digests = {h.name: trace_digest(h.trace) for h in tb.hosts}
    return Observation(
        counters=counters,
        digests=digests,
        end_time=tb.sim.now,
        pushes=tb.sim._seq,
        schedule=schedule,
        outcomes=dict(outcomes or {}),
    )


@dataclass
class Divergence:
    """One permutation whose outcome differs from the FIFO baseline."""

    scenario: str
    seed: int
    counter_diffs: Dict[str, Dict[str, tuple]]  #: host -> {metric: (base, got)}
    digest_hosts: List[str]                     #: hosts with trace-set drift
    end_times: Tuple[int, int]
    outcome_diffs: Dict[str, Tuple[Optional[str], Optional[str]]]
    flip_index: Optional[int] = None     #: minimal tie-flip (push seq), if bisected
    diverge_at: Optional[int] = None     #: first differing schedule index
    baseline_window: List[Tuple[int, str]] = field(default_factory=list)
    variant_window: List[Tuple[int, str]] = field(default_factory=list)

    def format(self) -> str:
        lines = [f"{self.scenario}: seed {self.seed} diverges from FIFO baseline"]
        if self.end_times[0] != self.end_times[1]:
            lines.append(f"  end_time: {self.end_times[0]} != {self.end_times[1]}")
        for key, (a, b) in sorted(self.outcome_diffs.items()):
            lines.append(f"  outcome[{key}]: {a} != {b}")
        for host, diffs in sorted(self.counter_diffs.items()):
            for metric, (a, b) in sorted(diffs.items()):
                lines.append(f"  {host}.{metric}: {a} != {b}")
        for host in self.digest_hosts:
            lines.append(f"  {host}: trace span sets differ")
        if self.flip_index is not None:
            lines.append(f"  minimal tie-flip: push #{self.flip_index}")
        if self.diverge_at is not None:
            lines.append(f"  first diverging event at schedule index "
                         f"{self.diverge_at}:")
            lines.append("    baseline:")
            for t, label in self.baseline_window:
                lines.append(f"      {t:>12} ns  {label}")
            lines.append("    with flip:")
            for t, label in self.variant_window:
                lines.append(f"      {t:>12} ns  {label}")
        return "\n".join(lines)


@dataclass
class RaceReport:
    """Result of one scenario swept over N tie-break permutations."""

    scenario: str
    seeds: Tuple[int, ...]
    runs: int
    divergences: List[Divergence]

    @property
    def ok(self) -> bool:
        return not self.divergences

    def format(self) -> str:
        if self.ok:
            return (f"{self.scenario}: ok — {len(self.seeds)} permutation(s) "
                    f"equivalent to FIFO baseline ({self.runs} run(s))")
        return "\n".join(d.format() for d in self.divergences)


class RaceDetector:
    """Replays one scenario under permuted tie-breaks and diffs outcomes.

    ``scenario`` is a zero-argument callable returning an
    :class:`Observation`; every :class:`Simulator` it constructs picks up
    the detector's tie-break policy through
    ``Simulator.default_tiebreak_factory``.  ``bisect=False`` skips the
    minimal-flip search (``--no-bisect`` on the CLI), which keeps a sweep
    cheap when only the verdict matters.
    """

    def __init__(self, scenario: Callable[[], Observation],
                 name: str = "scenario",
                 seeds: Sequence[int] = (1, 2, 3),
                 bisect: bool = True, strict: bool = False):
        self.scenario = scenario
        self.name = name
        self.seeds = tuple(seeds)
        self.bisect = bisect
        self.strict = strict
        self.runs = 0

    # -- running ------------------------------------------------------------

    def _observe(self, factory) -> Observation:
        self.runs += 1
        with default_tiebreak(factory):
            return self.scenario()

    def run(self) -> RaceReport:
        self.runs = 0
        baseline = self._observe(None)
        divergences: List[Divergence] = []
        for seed in self.seeds:
            variant = self._observe(lambda: SeededShuffleTieBreak(seed))
            if baseline.equivalent(variant, self.strict):
                continue
            div = self._describe(baseline, variant, seed)
            if self.bisect:
                self._bisect(baseline, seed, div)
            divergences.append(div)
        return RaceReport(self.name, self.seeds, self.runs, divergences)

    # -- divergence analysis ------------------------------------------------

    def _describe(self, base: Observation, got: Observation,
                  seed: int) -> Divergence:
        counter_diffs = {}
        for host in sorted(set(base.counters) | set(got.counters)):
            diffs = diff_snapshots(base.counters.get(host, {}),
                                   got.counters.get(host, {}),
                                   exclude=VOLATILE_METRICS)
            if diffs:
                counter_diffs[host] = diffs
        digest_hosts = sorted(
            h for h in set(base.digests) | set(got.digests)
            if base.digests.get(h) != got.digests.get(h)
        )
        outcome_diffs = {
            k: (base.outcomes.get(k), got.outcomes.get(k))
            for k in set(base.outcomes) | set(got.outcomes)
            if base.outcomes.get(k) != got.outcomes.get(k)
        }
        return Divergence(self.name, seed, counter_diffs, digest_hosts,
                          (base.end_time, got.end_time), outcome_diffs)

    def _bisect(self, baseline: Observation, seed: int,
                div: Divergence) -> None:
        """Find the minimal tie-flip prefix that still diverges.

        ``PrefixShuffleTieBreak(seed, limit)`` applies the seed's shuffled
        priorities to the first ``limit`` pushes only, drawing (and
        discarding) the same RNG stream beyond it — so runs at ``limit``
        and ``limit - 1`` differ in exactly one tie assignment.  ``limit=0``
        is FIFO (clean by construction); a large enough limit reproduces
        the full shuffle (divergent by hypothesis); binary search lands on
        the smallest divergent prefix.
        """
        budget = [MAX_BISECT_RUNS]

        def diverges(limit: int) -> Optional[Observation]:
            if budget[0] <= 0:
                return None
            budget[0] -= 1
            obs = self._observe(lambda: PrefixShuffleTieBreak(seed, limit))
            return None if baseline.equivalent(obs, self.strict) else obs

        # The divergent run may push more than the baseline did; grow the
        # prefix until it reproduces the divergence.
        hi = max(baseline.pushes, 1)
        hi_obs = diverges(hi)
        while hi_obs is None and budget[0] > 0:
            hi *= 2
            hi_obs = diverges(hi)
        if hi_obs is None:
            return  # budget exhausted without reproducing; report unbisected
        lo = 0
        while hi - lo > 1 and budget[0] > 0:
            mid = (lo + hi) // 2
            obs = diverges(mid)
            if obs is None:
                lo = mid
            else:
                hi, hi_obs = mid, obs
        div.flip_index = hi
        self._first_divergence(baseline, hi_obs, div)

    def _first_divergence(self, base: Observation, got: Observation,
                          div: Divergence) -> None:
        a, b = base.schedule, got.schedule
        n = min(len(a), len(b))
        idx = next((i for i in range(n) if a[i] != b[i]), None)
        if idx is None:
            if len(a) == len(b):
                return  # identical dispatch logs; divergence is sub-event
            idx = n
        div.diverge_at = idx
        lo = max(0, idx - CONTEXT)
        div.baseline_window = a[lo:idx + CONTEXT + 1]
        div.variant_window = b[lo:idx + CONTEXT + 1]


# ---------------------------------------------------------------------------
# standard scenario corpus: the fault-campaign workloads, fault-free
# ---------------------------------------------------------------------------


def workload_scenario(workload: str, size: int = 4096,
                      iters: int = 2) -> Callable[[], Observation]:
    """A detector scenario running one campaign workload with no faults.

    Reuses the fault campaign's workload builders and testbed wiring
    (pingpong / stream / incast, I/OAT enabled) so the race sweep exercises
    the same end-to-end paths the fault grid does.  Traces are enabled
    *unbounded*: a bounded ring drops the oldest spans in recording order,
    which would leak tie order back into the digest.
    """
    from repro.faults import campaign

    if workload not in RACE_WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if workload == "fabric":
        # the chunk-level fabric cell: a small 2-tier fat-tree allreduce
        from repro.fabric.sweep import fabric_scenario

        return fabric_scenario(size=size)
    build = campaign.WORKLOAD_BUILDERS[workload]

    def scenario() -> Observation:
        tb = campaign._build_testbed(workload)
        schedule = tb.sim.record_schedule()
        for host in tb.hosts:
            host.trace.enabled = True
        transfers = build(tb, size, iters)
        tb.sim.run(until=campaign.CELL_DEADLINE,
                   max_events=campaign.CELL_MAX_EVENTS)
        outcomes = {key: transfers[key].classify()[0]
                    for key in sorted(transfers)}
        return observe_testbed(tb, schedule, outcomes)

    return scenario


def check_workload(workload: str, size: int = 4096, iters: int = 2,
                   seeds: Sequence[int] = (1, 2, 3),
                   bisect: bool = True) -> RaceReport:
    """Race-check one standard workload; the CLI's unit of work."""
    det = RaceDetector(workload_scenario(workload, size, iters),
                       name=f"{workload}/{size}B x{iters}",
                       seeds=seeds, bisect=bisect)
    return det.run()


def standard_reports(seeds: Sequence[int] = (1, 2, 3),
                     workloads: Optional[Iterable[str]] = None,
                     size: int = 4096, iters: int = 2,
                     bisect: bool = True) -> List[RaceReport]:
    """Sweep the standard corpus; ``--races`` renders these."""
    names = list(workloads) if workloads is not None else list(RACE_WORKLOADS)
    return [check_workload(w, size=size, iters=iters, seeds=seeds,
                           bisect=bisect) for w in names]
