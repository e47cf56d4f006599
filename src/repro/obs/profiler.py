"""Simulated-time CPU profiler: phase attribution and the Fig. 9 report.

The busy-tick categories (``user``/``driver``/``bh``) reproduce the paper's
three Fig. 9 bands but cannot say *what* the BH band was doing — copying
fragments, submitting DMA descriptors, or spinning on completions.  A
:class:`PhaseProfiler` attached to a host's cores receives every
:meth:`~repro.simkernel.cpu.Core.busy` charge together with an optional
*phase* tag set at the call site (``frag_copy``, ``dma_submit``,
``dma_poll``, ``dma_wait``, ``syscall``, ``pin``, ``fallback_copy``...) and
accumulates per-core, per-phase busy ticks in simulated time.  Attachment
is explicit and off by default: an unattached core pays one ``is None``
check per charge.

:func:`fig9_report` drives the paper's Fig. 9 experiment through the sweep
executor (cached, parallelizable): receiver CPU usage versus message size,
memcpy versus I/OAT, with the phase decomposition alongside the classic
bands.  Calibration targets come from DESIGN.md §5 — ≈95 % vs ≈60 % of one
core at 16 MiB, ≈50 % vs ≈42 % at 32 kB.  The 32 kB point is measured in
the *rendezvous regime* (``medium_max`` lowered below 32 kB so the message
takes the pull path, ``ioat_min_msg`` lowered so offload applies): with the
default thresholds a 32 kB message is medium-eager and I/OAT never engages,
which would make the memcpy/I/OAT comparison degenerate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.units import KiB, MiB

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.cpu import Core, CpuSet
    from repro.simkernel.scheduler import Simulator


class PhaseProfiler:
    """Attributes per-core busy intervals to phases, in simulated time."""

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        #: cpu_id -> phase -> busy ticks
        self.by_core: dict[int, dict[str, int]] = {}
        #: cpu_id -> window start (reset together with the core's counters)
        self.window_start: dict[int, int] = {}

    def attach(self, cpus: "CpuSet") -> "PhaseProfiler":
        """Hook every core of ``cpus``; returns self for chaining."""
        for core in cpus.cores:
            core.profiler = self
        return self

    def detach(self, cpus: "CpuSet") -> None:
        for core in cpus.cores:
            if core.profiler is self:
                core.profiler = None

    # -- recording (called from Core.busy / Core.account) -------------------

    def record(self, core: "Core", category: str, phase: Optional[str],
               ticks: int) -> None:
        if not ticks:
            return
        key = phase if phase is not None else f"{category}:other"
        phases = self.by_core.get(core.cpu_id)
        if phases is None:
            phases = self.by_core[core.cpu_id] = {}
        phases[key] = phases.get(key, 0) + ticks

    def on_reset(self, core: "Core") -> None:
        """The core opened a fresh measurement window; follow it."""
        self.by_core.pop(core.cpu_id, None)
        self.window_start[core.cpu_id] = self.sim.now

    # -- reading -------------------------------------------------------------

    def phases(self, cores: Optional[Iterable["Core"]] = None) -> dict[str, int]:
        """Aggregate phase ticks (all profiled cores by default)."""
        agg: dict[str, int] = {}
        if cores is None:
            sources = self.by_core.values()
        else:
            sources = [self.by_core.get(c.cpu_id, {}) for c in cores]
        for phases in sources:
            for phase, ticks in phases.items():
                agg[phase] = agg.get(phase, 0) + ticks
        return agg

    def percent(self, elapsed: int,
                cores: Optional[Iterable["Core"]] = None) -> dict[str, float]:
        """Phase busy percent *of one core* (the Fig. 9 presentation)."""
        if elapsed <= 0:
            return {}
        return {
            phase: 100.0 * ticks / elapsed
            for phase, ticks in sorted(self.phases(cores).items())
        }


# ---------------------------------------------------------------------------
# the Fig. 9 report
# ---------------------------------------------------------------------------

#: paper calibration targets: (size, mode) -> percent of one core
#: (DESIGN.md §5: 95 % vs 60 % at 16 MiB, 50 % vs 42 % at 32 kB)
PAPER_TARGETS = {
    (32 * KiB, "memcpy"): 50.0,
    (32 * KiB, "ioat"): 42.0,
    (16 * MiB, "memcpy"): 95.0,
    (16 * MiB, "ioat"): 60.0,
}

#: acceptance band around each target, in percent-of-one-core points —
#: wide because the model reproduces shapes and ratios, not exact heights
#: (EXPERIMENTS.md documents the honest deviations)
TOLERANCE_POINTS = 16.0

#: the 32 kB point runs in the rendezvous regime (see module docstring)
RNDV_REGIME_32K = {"medium_max": 16 * KiB, "ioat_min_msg": 32 * KiB}

_QUICK_SIZES = (32 * KiB, 1 * MiB, 16 * MiB)
_FULL_SIZES = (32 * KiB, 128 * KiB, 1 * MiB, 4 * MiB, 16 * MiB)


def _point_params(size: int, ioat: bool, quick: bool) -> dict:
    overrides = dict(RNDV_REGIME_32K) if size <= 32 * KiB else {}
    iters = 4 if size >= 4 * MiB else (6 if quick else 10)
    return {"size": size, "iters": iters, "ioat": ioat,
            "regcache": False, "omx": overrides}


def fig9_report(quick: bool = True, executor=None) -> dict:
    """Receiver CPU usage vs message size, memcpy vs I/OAT, with phases.

    Returns a JSON-able report: one row per (size, mode) with the three
    classic bands, total percent, throughput and the phase decomposition,
    plus a per-target calibration verdict against :data:`PAPER_TARGETS`.
    """
    from repro.reporting.sweeps import SweepExecutor, point

    if executor is None:
        executor = SweepExecutor()
    sizes = _QUICK_SIZES if quick else _FULL_SIZES
    points = [
        point("stream_usage", **_point_params(size, ioat, quick))
        for ioat in (False, True)
        for size in sizes
    ]
    values = iter(executor.run(points))

    rows = []
    by_key: dict[tuple[int, str], dict] = {}
    for ioat in (False, True):
        for size in sizes:
            u = next(values)
            mode = "ioat" if ioat else "memcpy"
            row = {
                "size": size, "mode": mode,
                "rndv_regime": size <= 32 * KiB,
                "user_pct": round(u["user_pct"], 1),
                "driver_pct": round(u["driver_pct"], 1),
                "bh_pct": round(u["bh_pct"], 1),
                "total_pct": round(u["total_pct"], 1),
                "throughput_mib_s": round(u["throughput_mib_s"], 1),
                "phases_pct": {k: round(v, 2)
                               for k, v in u["phases_pct"].items()},
            }
            rows.append(row)
            by_key[(size, mode)] = row

    calibration = []
    ok = True
    for (size, mode), target in sorted(PAPER_TARGETS.items()):
        row = by_key.get((size, mode))
        if row is None:
            continue
        measured = row["total_pct"]
        within = abs(measured - target) <= TOLERANCE_POINTS
        ok = ok and within
        calibration.append({
            "size": size, "mode": mode, "paper_pct": target,
            "measured_pct": measured, "tolerance_points": TOLERANCE_POINTS,
            "within_tolerance": within,
        })
    # the qualitative claims matter more than absolute heights: offload must
    # beat memcpy at every common size, decisively at multi-megabyte sizes
    for size in sizes:
        m, d = by_key[(size, "memcpy")], by_key[(size, "ioat")]
        ok = ok and d["total_pct"] < m["total_pct"]

    return {
        "figure": 9,
        "suite": "quick" if quick else "full",
        "rows": rows,
        "calibration": calibration,
        "calibration_ok": ok,
    }


def render_fig9(report: dict) -> str:
    """ASCII table of a :func:`fig9_report` result."""
    from repro.reporting.table import Table

    t = Table(
        "repro.obs: receiver CPU usage (% of one core) with phase profile",
        ["size", "mode", "user", "driver", "BH", "total", "MiB/s", "top phases"],
    )
    for row in report["rows"]:
        top = sorted(row["phases_pct"].items(), key=lambda kv: -kv[1])[:3]
        t.add_row(
            _fmt_size(row["size"]), row["mode"], row["user_pct"],
            row["driver_pct"], row["bh_pct"], row["total_pct"],
            row["throughput_mib_s"],
            " ".join(f"{k}={v:.1f}" for k, v in top),
        )
    lines = [t.render(), ""]
    for c in report["calibration"]:
        verdict = "ok" if c["within_tolerance"] else "OUT OF TOLERANCE"
        lines.append(
            f"  {_fmt_size(c['size'])} {c['mode']:>6}: paper {c['paper_pct']:.0f} % "
            f"-> measured {c['measured_pct']:.1f} % "
            f"(±{c['tolerance_points']:.0f} pts: {verdict})"
        )
    lines.append(f"  calibration_ok: {report['calibration_ok']}")
    return "\n".join(lines)


def _fmt_size(n: int) -> str:
    if n >= MiB:
        return f"{n // MiB} MiB"
    return f"{n // KiB} KiB"
