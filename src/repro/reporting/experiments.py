"""Experiment registry: one runner per paper figure/table.

Each ``fig*`` function rebuilds the workload of the corresponding figure in
the paper's evaluation section and returns a rendered-able result object
(:class:`~repro.reporting.figures.Figure` or
:class:`~repro.reporting.table.Table`).  The ``omx-repro`` CLI (see
``main``) runs any of them; the figure benchmarks under ``benchmarks/``
call the same runners and assert the paper's shapes on their results.

Runners declare their sweep as a list of independent *points* and execute
them through a :class:`~repro.reporting.sweeps.SweepExecutor` — which
memoizes points on disk and can fan out over ``REPRO_JOBS`` worker
processes.  Pass ``executor=`` to share one executor (and its statistics)
across runners; the default executor is configured from the environment.

``quick=True`` trims sizes/iterations for CI-speed runs; the shapes remain.
``fabric_sweep``, ``faults_campaign`` and ``faults_soak`` also write their
``results/*.json`` report into the working directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Optional

from repro.params import clovertown_5000x
from repro.reporting.figures import Figure
from repro.reporting.sweeps import SweepExecutor, point
from repro.reporting.table import Table
from repro.units import GiB, KiB, MiB, SEC

# ---------------------------------------------------------------------------
# shared sweeps
# ---------------------------------------------------------------------------

SWEEP_SIZES = [16, 64, 256, 1 * KiB, 4 * KiB, 16 * KiB, 32 * KiB, 64 * KiB,
               128 * KiB, 256 * KiB, 512 * KiB, 1 * MiB, 4 * MiB]
QUICK_SIZES = [16, 4 * KiB, 64 * KiB, 256 * KiB, 1 * MiB, 4 * MiB]


def _executor(executor: Optional[SweepExecutor]) -> SweepExecutor:
    return executor if executor is not None else SweepExecutor()


def _pingpong_figure(fig: Figure, configs: list, sizes: list[int], iters: int,
                     executor: Optional[SweepExecutor]) -> Figure:
    """One ping-pong series per ``(label, stack, omx)`` config over ``sizes``."""
    points = [
        point("pingpong", stack=stack, size=size, iters=iters, omx=cfg)
        for _label, stack, cfg in configs
        for size in sizes
    ]
    values = iter(_executor(executor).run(points))
    for label, _stack, _cfg in configs:
        s = fig.new_series(label)
        for size in sizes:
            s.add(size, next(values))
    return fig


# ---------------------------------------------------------------------------
# Figure 3 — expected improvement when removing the BH receive copy
# ---------------------------------------------------------------------------

def fig3(quick: bool = False, executor: Optional[SweepExecutor] = None) -> Figure:
    """MX vs Open-MX vs Open-MX with the BH copy ignored (prediction)."""
    fig = Figure("FIG3", "Expected Open-MX improvement without the BH receive copy",
                 "message size", "throughput (MiB/s)")
    configs = [
        ("MX", "mx", {}),
        ("Open-MX ignoring BH receive copy", "omx", dict(ignore_bh_copy=True)),
        ("Open-MX", "omx", {}),
    ]
    return _pingpong_figure(fig, configs, QUICK_SIZES if quick else SWEEP_SIZES,
                            3 if quick else 5, executor)


# ---------------------------------------------------------------------------
# Figure 7 — pipelined memcpy vs I/OAT copy for several chunk sizes
# ---------------------------------------------------------------------------

def fig7(quick: bool = False, executor: Optional[SweepExecutor] = None) -> Figure:
    """Raw copy throughput when streams are split into fixed chunks."""
    copy_sizes = [256, 1 * KiB, 4 * KiB, 16 * KiB, 64 * KiB, 256 * KiB, 1 * MiB]
    if quick:
        copy_sizes = [1 * KiB, 16 * KiB, 256 * KiB, 1 * MiB]
    chunk_sizes = [4 * KiB, 1 * KiB, 256]
    fig = Figure("FIG7", "Pipelined memcpy vs I/OAT copy by chunk size",
                 "copy size", "throughput (MiB/s)")

    series: list[tuple[str, list[int]]] = []
    points = []
    for kind, label in (("memcpy_chunked", "Memcpy"), ("ioat_chunked", "I/OAT Copy")):
        for chunk in chunk_sizes:
            sizes = [size for size in copy_sizes if size >= chunk]
            series.append((f"{label} - {_sz(chunk)} chunks", sizes))
            points.extend(point(kind, size=size, chunk=chunk) for size in sizes)
    values = iter(_executor(executor).run(points))
    for label, sizes in series:
        s = fig.new_series(label)
        for size in sizes:
            s.add(size, next(values))
    return fig


def _sz(n: int) -> str:
    return f"{n >> 10}kB" if n >= 1024 else f"{n}B"


# ---------------------------------------------------------------------------
# §IV-A scalars — submission cost, break-even sizes
# ---------------------------------------------------------------------------

def micro(quick: bool = False, executor: Optional[SweepExecutor] = None) -> Table:
    """The micro-benchmark scalars quoted in §IV-A."""
    plat = clovertown_5000x()
    hp = plat.host
    ioat_4k, memcpy_4k = _executor(executor).run([
        point("ioat_chunked", size=1 * MiB, chunk=4 * KiB),
        point("memcpy_chunked", size=1 * MiB, chunk=4 * KiB),
    ])
    t = Table("MICRO: §IV-A scalar measurements",
              ["quantity", "paper", "model"])
    t.add_row("I/OAT submission cost (ns)", "~350", hp.ioat.submit_cost)
    t.add_row("completion poll cost (ns)", "negligible", hp.ioat.poll_cost)
    t.add_row("memcpy rate, uncached (GiB/s)", "~1.6",
              f"{hp.memcpy.uncached_bw / GiB:.2f}")
    t.add_row("memcpy rate, cached (GiB/s)", "up to 12 (sustained ~6)",
              f"{hp.cache.cached_copy_bw / GiB:.2f}")
    # break-even: memcpy duration equals the submission cost
    be_uncached = int(hp.ioat.submit_cost * hp.memcpy.uncached_bw / SEC)
    be_cached = int(hp.ioat.submit_cost * hp.cache.cached_copy_bw / SEC)
    t.add_row("break-even size, uncached (B)", "~600", be_uncached)
    t.add_row("break-even size, cached (B)", "~2048", be_cached)
    t.add_row("I/OAT rate @4kB chunks (GiB/s)", "~2.4", f"{ioat_4k / 1024:.2f}")
    t.add_row("memcpy @4kB chunks (GiB/s)", "~1.5", f"{memcpy_4k / 1024:.2f}")
    return t


# ---------------------------------------------------------------------------
# Figure 8 — ping-pong with I/OAT copy offload in the BH
# ---------------------------------------------------------------------------

def fig8(quick: bool = False, executor: Optional[SweepExecutor] = None) -> Figure:
    fig = Figure("FIG8", "Ping-pong with I/OAT asynchronous copy offload",
                 "message size", "throughput (MiB/s)")
    configs = [
        ("MX", "mx", {}),
        ("Open-MX ignoring BH receive copy", "omx", dict(ignore_bh_copy=True)),
        ("Open-MX with DMA copy in BH receive", "omx", dict(ioat_enabled=True)),
        ("Open-MX", "omx", {}),
    ]
    return _pingpong_figure(fig, configs, QUICK_SIZES if quick else SWEEP_SIZES,
                            3 if quick else 5, executor)


# ---------------------------------------------------------------------------
# Figure 9 — receive-side CPU usage, memcpy vs overlapped DMA
# ---------------------------------------------------------------------------

FIG9_SIZES = [64 * KiB, 256 * KiB, 1 * MiB, 4 * MiB, 16 * MiB]


def fig9(quick: bool = False, executor: Optional[SweepExecutor] = None) -> Table:
    sizes = FIG9_SIZES[:-1] if quick else FIG9_SIZES
    iters = 6 if quick else 10
    t = Table(
        "FIG9: receiver CPU usage (% of one core) while streaming large messages",
        ["size", "mode", "user-lib %", "driver %", "BH recv %", "total %", "MiB/s"],
    )
    # Registration cache off: the paper's Fig. 9 driver band is the
    # per-transfer memory pinning inside the system call ("driver time is
    # higher because it involves memory pinning during a system call prior
    # to the data transfer").
    points = [
        point("stream_usage", size=size, iters=iters, ioat=ioat, regcache=False)
        for ioat in (False, True)
        for size in sizes
    ]
    values = iter(_executor(executor).run(points))
    for ioat in (False, True):
        for size in sizes:
            u = next(values)
            t.add_row(
                _sz_mib(size), "DMA" if ioat else "Memcpy",
                u["user_pct"], u["driver_pct"], u["bh_pct"], u["total_pct"],
                u["throughput_mib_s"],
            )
    return t


def _sz_mib(n: int) -> str:
    return f"{n >> 20}MiB" if n >= MiB else f"{n >> 10}KiB"


# ---------------------------------------------------------------------------
# Figure 10 — shared-memory one-copy communication
# ---------------------------------------------------------------------------

def fig10(quick: bool = False, executor: Optional[SweepExecutor] = None) -> Figure:
    sizes = [16, 256, 4 * KiB, 64 * KiB, 1 * MiB, 16 * MiB] if quick else [
        16, 256, 1 * KiB, 4 * KiB, 16 * KiB, 64 * KiB, 256 * KiB,
        1 * MiB, 4 * MiB, 16 * MiB,
    ]
    iters = 4 if quick else 8
    fig = Figure("FIG10", "Open-MX shared-memory one-copy ping-pong",
                 "message size", "throughput (MiB/s)")
    configs = [
        ("Memcpy on the same dual-core subchip", "same_die", {}),
        ("Memcpy between different processor sockets", "cross_socket", {}),
        ("I/OAT offloaded synchronous copy", "same_die", dict(ioat_enabled=True)),
    ]
    points = [
        point("shm_pingpong", size=size, placement=placement, iters=iters, cfg=cfg)
        for _label, placement, cfg in configs
        for size in sizes
    ]
    values = iter(_executor(executor).run(points))
    for label, _placement, _cfg in configs:
        s = fig.new_series(label)
        for size in sizes:
            s.add(size, next(values))
    return fig


# ---------------------------------------------------------------------------
# Figure 11 — IMB PingPong with/without I/OAT and registration cache
# ---------------------------------------------------------------------------

def fig11(quick: bool = False, executor: Optional[SweepExecutor] = None) -> Figure:
    sizes = (QUICK_SIZES + [16 * MiB]) if quick else (SWEEP_SIZES + [16 * MiB])
    fig = Figure("FIG11", "IMB PingPong: I/OAT and registration cache",
                 "message size", "throughput (MiB/s)")
    configs = [
        ("MX", "mx", {}),
        ("Open-MX I/OAT", "omx", dict(ioat_enabled=True)),
        ("Open-MX", "omx", {}),
        ("Open-MX I/OAT w/o regcache", "omx",
         dict(ioat_enabled=True, regcache_enabled=False)),
        ("Open-MX w/o regcache", "omx", dict(regcache_enabled=False)),
    ]
    return _pingpong_figure(fig, configs, sizes, 3 if quick else 5, executor)


# ---------------------------------------------------------------------------
# Figure 12 — full IMB suite normalized to MXoE
# ---------------------------------------------------------------------------

FIG12_TESTS = ["PingPong", "PingPing", "SendRecv", "Exchange", "Allreduce",
               "Reduce", "Red.Scat.", "Allgather", "Allgatherv", "Alltoall",
               "Bcast"]


def fig12(quick: bool = False, sizes: Optional[list[int]] = None,
          executor: Optional[SweepExecutor] = None) -> Table:
    sizes = sizes if sizes is not None else ([128 * KiB] if quick else [128 * KiB, 4 * MiB])
    tests = FIG12_TESTS[:4] + ["Allreduce", "Alltoall", "Bcast"] if quick else FIG12_TESTS
    iters = 2 if quick else 4
    t = Table(
        "FIG12: IMB performance as percentage of MXoE (higher is better)",
        ["test", "size", "ppn", "Open-MX %", "Open-MX + I/OAT %"],
    )
    variants = [("mx", {}), ("omx", {}), ("omx", dict(ioat_enabled=True))]
    points = [
        point("imb_time", stack=stack, test=test, size=size, ppn=ppn,
              iters=iters, omx=cfg)
        for size in sizes
        for ppn in (1, 2)
        for test in tests
        for stack, cfg in variants
    ]
    values = iter(_executor(executor).run(points))
    for size in sizes:
        for ppn in (1, 2):
            for test in tests:
                base, plain, ioat = next(values), next(values), next(values)
                t.add_row(test, _sz_mib(size), ppn,
                          100.0 * base / plain, 100.0 * base / ioat)
    return t


# ---------------------------------------------------------------------------
# NAS IS (§IV-D)
# ---------------------------------------------------------------------------

def nas(quick: bool = False, executor: Optional[SweepExecutor] = None) -> Table:
    # 2^18 keys/rank -> ~1 MiB of keys, ~256 KiB alltoallv blocks: the
    # large-message regime the paper credits for IS's 10 % gain.
    keys = 1 << (16 if quick else 18)
    iters = 2 if quick else 3
    t = Table("NAS IS kernel (2 nodes x 2 ppn)",
              ["stack", "total ms", "comm ms", "sorted", "vs Open-MX"])
    configs = [
        ("MXoE", "mx", {}),
        ("Open-MX", "omx", {}),
        ("Open-MX + I/OAT", "omx", dict(ioat_enabled=True)),
    ]
    points = [
        point("nas_is", stack=stack, keys=keys, iters=iters, omx=cfg)
        for _label, stack, cfg in configs
    ]
    values = _executor(executor).run(points)
    results = {label: r for (label, _s, _c), r in zip(configs, values)}
    base = results["Open-MX"]["total_time_us"]
    for label, r in results.items():
        speedup = 100.0 * (base / r["total_time_us"] - 1.0)
        t.add_row(label, r["total_time_us"] / 1000.0, r["comm_time_us"] / 1000.0,
                  "yes" if r["sorted_ok"] else "NO", f"{speedup:+.1f}%")
    return t


# ---------------------------------------------------------------------------
# Engine shootout — every registered copy backend over the key sweeps
# ---------------------------------------------------------------------------

def engine_shootout(quick: bool = False,
                    executor: Optional[SweepExecutor] = None) -> Table:
    """Compare every registered :class:`~repro.core.backends.CopyBackend`.

    Each backend runs the Fig. 8 ping-pong sweep, the Fig. 9 CPU-usage
    stream, and the highly-vectorial scatter workload (§IV-A corner case),
    side by side in one table.  ``memcpy`` is the non-offloading baseline;
    ``ioat`` is the paper's engine; the others are the what-if engines
    (FlexTOE-style parallel lanes, sPIN-style in-NIC handlers, chained
    scatter-gather DMA).
    """
    from repro.core.backends import backend_names

    backends = backend_names()
    pp_sizes = [64 * KiB, 1 * MiB] if quick else [4 * KiB, 64 * KiB, 1 * MiB, 4 * MiB]
    pp_iters = 3 if quick else 5
    stream_size = 1 * MiB if quick else 4 * MiB
    stream_iters = 4 if quick else 8
    vec_total = 256 * KiB
    vec_segment = 3072  # page-straddling scatter segments (the hard case)

    def omx_for(name: str) -> dict:
        if name == "memcpy":
            return dict(copy_backend="memcpy")
        return dict(copy_backend=name, ioat_enabled=True)

    points = []
    for b in backends:
        cfg = omx_for(b)
        points.extend(
            point("pingpong", stack="omx", size=size, iters=pp_iters, omx=cfg)
            for size in pp_sizes
        )
        points.append(point("stream_usage", size=stream_size, iters=stream_iters,
                            ioat=(b != "memcpy"), regcache=False, omx=cfg))
        points.append(point("vectored", total=vec_total, segment=vec_segment,
                            backend=b))
    values = iter(_executor(executor).run(points))

    t = Table(
        "SHOOTOUT: copy backends over ping-pong, stream CPU usage, "
        "and vectored scatter",
        ["backend"]
        + [f"pingpong {_sz_mib(s)} MiB/s" for s in pp_sizes]
        + ["stream BH %", "stream MiB/s", "vectored MiB/s", "vectored descs"],
    )
    for b in backends:
        pp = [next(values) for _ in pp_sizes]
        stream = next(values)
        vec = next(values)
        t.add_row(
            b, *pp, stream["bh_pct"], stream["throughput_mib_s"],
            vec["throughput_mib_s"], vec["descriptors"],
        )
    return t


# ---------------------------------------------------------------------------
# Fabric sweep — collectives at datacenter scale (ROADMAP item 1)
# ---------------------------------------------------------------------------

def fabric_sweep(quick: bool = False,
                 executor: Optional[SweepExecutor] = None) -> Table:
    """Allreduce/alltoall over 2-tier fat trees: size x hosts x
    oversubscription x copy backend (chunk-level fabric model).

    Sweeps the paper's receive-copy question at fabric scale: does I/OAT
    offload still pay when the bottleneck could be an oversubscribed
    trunk instead of the receiver's memory bus?  Writes the full grid to
    ``results/fabric_sweep.json`` (sorted keys, byte-stable per seed).
    """
    from repro.faults.campaign import write_report

    if quick:
        grid = [("allreduce", h, os_, s)
                for h in (32,)
                for os_ in (1.0, 4.0)
                for s in (4 * KiB, 64 * KiB)]
        grid += [("alltoall", 32, os_, 4 * KiB) for os_ in (1.0, 4.0)]
    else:
        grid = [("allreduce", h, os_, s)
                for h in (64, 256)
                for os_ in (1.0, 4.0)
                for s in (4 * KiB, 64 * KiB, 1 * MiB)]
        grid += [("alltoall", 64, os_, s)
                 for os_ in (1.0, 4.0)
                 for s in (4 * KiB, 16 * KiB)]
    points = [
        point("fabric", topology="fat_tree2", hosts=hosts,
              oversubscription=os_, collective=coll, size=size,
              backend=backend)
        for coll, hosts, os_, size in grid
        for backend in ("memcpy", "ioat")
    ]
    # IMB smoke over the fabric: the frame-level benchmark harness run
    # unmodified at chunk scale (one Allreduce cell per backend).
    points += [
        point("imb_fabric", topology="fat_tree2", hosts=16,
              oversubscription=2.0, test="Allreduce", size=16 * KiB,
              backend=backend)
        for backend in ("memcpy", "ioat")
    ]
    values = _executor(executor).run(points)
    write_report({"cells": values}, "results/fabric_sweep.json")

    t = Table(
        "FABRIC: collectives over 2-tier fat trees "
        "(memcpy vs I/OAT receive copy)",
        ["collective", "hosts", "oversub", "size", "backend",
         "time (us)", "MiB/s", "events"],
    )
    it = iter(values)
    for coll, hosts, os_, size in grid:
        for backend in ("memcpy", "ioat"):
            cell = next(it)
            t.add_row(coll, cell["hosts"], f"{os_:g}", _sz(size), backend,
                      cell["time_ns"] // 1000, cell["mib_s"], cell["events"])
    for backend in ("memcpy", "ioat"):
        cell = next(it)
        t.add_row(f'imb:{cell["test"]}', cell["hosts"], "2",
                  _sz(cell["size"]), backend, round(cell["t_avg_us"]),
                  cell["mib_s"], cell["events"])
    return t


# ---------------------------------------------------------------------------
# Fault campaign and soak — the reliability contract of §III-B
# ---------------------------------------------------------------------------

def _fail_on(experiment: str, hung: list[str], dirty: list[str]) -> None:
    """The fault experiments' gate, checked after the report is written: a
    hung transfer or a sanitizer finding fails the run, naming the cells."""
    if hung or dirty:
        raise RuntimeError(f"{experiment}: hung transfers in {hung}, "
                           f"sanitizer findings in {dirty}")


def faults_campaign(quick: bool = False,
                    executor: Optional[SweepExecutor] = None) -> Table:
    """The tier-1 fault-campaign matrix (DESIGN.md §10): 3 workloads x 2
    sizes x 5 fault plans, one fresh testbed per cell.

    Writes ``results/faults_campaign.json`` (sorted keys, byte-stable), then
    fails if any cell hung or leaked.  The matrix is the same with or
    without ``quick``.
    """
    from repro.faults.campaign import quick_campaign_spec, run_campaign, write_report

    report = run_campaign(quick_campaign_spec(), executor=_executor(executor))
    write_report(report, "results/faults_campaign.json")

    t = Table("FAULTS: campaign cells (seed 'campaign')",
              ["cell", "completed", "failed", "hung", "sanitizer"])
    hung = []
    for cell in report["cells"]:
        name = f'{cell["workload"]}/{cell["size"]}/{cell["plan"]}'
        t.add_row(name, cell["outcomes"]["completed"], cell["outcomes"]["failed"],
                  cell["outcomes"]["hung"], "DIRTY" if cell["sanitizer"] else "clean")
        if cell["outcomes"]["hung"]:
            hung.append(name)
    _fail_on("faults_campaign", hung, report["sanitizer_dirty_cells"])
    return t


def faults_soak(quick: bool = False,
                executor: Optional[SweepExecutor] = None) -> Table:
    """The chained-fault soak suite (DESIGN.md §12) and the fabric soaks
    (§17.4), under the seed ``soak``.

    Writes ``results/faults_soak.json`` (sorted keys, byte-stable), then
    fails if any run hung or leaked.  Soak runs are not sweep points: they
    run in-process, so ``executor`` is unused, and ``quick`` changes nothing.
    """
    from repro.faults.campaign import write_report
    from repro.faults.soak import run_soak_suite

    report = run_soak_suite("soak")
    write_report(report, "results/faults_soak.json")

    t = Table("FAULTS: soak runs (seed 'soak')",
              ["run", "completed", "failed", "hung", "breaker trips",
               "reopens", "sanitizer"])
    for run in report["runs"]:
        t.add_row(f'{run["soak"]}/{run["workload"]}/{run["size"] // KiB}K',
                  run["outcomes"]["completed"], run["outcomes"]["failed"],
                  run["outcomes"]["hung"], run["health"].get("breaker_trips", 0),
                  run["health"].get("breaker_reopens", 0),
                  "DIRTY" if run["sanitizer"] else "clean")
    fabric = report["fabric"]
    for run in fabric["runs"]:
        t.add_row(f'fabric/{run["soak"]}', run["net"]["msgs_delivered"],
                  run["net"]["msgs_failed"], "-", "-", "-",
                  "DIRTY" if run["sanitizer"] else "clean")
    _fail_on("faults_soak",
             [run["soak"] for run in report["runs"] if run["outcomes"]["hung"]],
             report["sanitizer_dirty_runs"]
             + [f"fabric/{name}" for name in fabric["sanitizer_dirty_runs"]])
    return t


# ---------------------------------------------------------------------------
# registry + CLI
# ---------------------------------------------------------------------------

EXPERIMENTS: dict[str, Callable] = {
    "fig3": fig3,
    "fig7": fig7,
    "micro": micro,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "nas": nas,
    "engine_shootout": engine_shootout,
    "fabric_sweep": fabric_sweep,
    "faults_campaign": faults_campaign,
    "faults_soak": faults_soak,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="omx-repro",
        description="Regenerate the figures of the Open-MX I/OAT paper "
                    "(Goglin, Cluster 2008) from the simulator.",
    )
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS) + ["all"],
                        help="which figure/table to regenerate")
    parser.add_argument("--quick", action="store_true",
                        help="smaller sweeps / fewer iterations")
    parser.add_argument("--csv", metavar="FILE",
                        help="also write the data as CSV")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes (default: $REPRO_JOBS or 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk sweep-point cache")
    args = parser.parse_args(argv)

    ex = SweepExecutor(jobs=args.jobs, cache=not args.no_cache)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        result = EXPERIMENTS[name](quick=args.quick, executor=ex)
        print(result.render())
        print()
        if args.csv:
            # `all` prefixes the file name, never the directory part
            head, tail = os.path.split(args.csv)
            path = (args.csv if len(names) == 1
                    else os.path.join(head, f"{name}_{tail}"))
            with open(path, "w") as fh:
                fh.write(result.to_csv())
            print(f"[wrote {path}]")
    if ex.stats.points:
        print(f"[sweep: {ex.stats.points} points, {ex.stats.cache_hits} cached, "
              f"{ex.stats.computed} computed, jobs={ex.jobs}, "
              f"phantom={'on' if ex.phantom_mode else 'off'}]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
