"""Parallel, cached execution of figure sweeps.

Every paper figure is a sweep: a list of independent *points* (one
simulated scenario each — a ping-pong at one size under one config, one
chunked-copy measurement, one IMB test run...).  The runners in
:mod:`repro.reporting.experiments` declare their points and hand them to a
:class:`SweepExecutor`, which

* **memoizes** each point in an on-disk JSON cache keyed by a fingerprint
  of (point kind, parameters, phantom mode, source-tree version) — a
  re-run after editing only the reporting layer replays instantly, and the
  key's code-version component invalidates everything when the simulator
  changes;
* optionally **fans out** over a process pool (``REPRO_JOBS=N``; default
  serial) — points are independent simulations, so this is
  embarrassingly parallel and bit-deterministic in any order;
* runs points in **phantom-payload mode** by default (see
  :mod:`repro.memory.phantom`): the cost model never reads payload bytes,
  so figure sweeps skip moving them.  ``REPRO_PHANTOM=0`` restores the
  byte-moving integrity mode.

Point functions must stay top-level (picklable), take JSON-serializable
keyword parameters and return JSON-serializable results — that is what
makes both the cache and the process pool safe.
"""

from __future__ import annotations

import concurrent.futures
import gc
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.memory import phantom

# ---------------------------------------------------------------------------
# point kinds: the actual measurements, one simulation per call
# ---------------------------------------------------------------------------


def point_pingpong(stack: str, size: int, iters: int, omx: dict) -> float:
    """IMB PingPong throughput (MiB/s) between two hosts."""
    from repro.cluster.testbed import build_testbed
    from repro.imb import run_imb
    from repro.mpi import create_world

    tb = build_testbed(stacks=stack, **omx)
    comm = create_world(tb, ppn=1)
    res = run_imb(tb, comm, "PingPong", size, iterations=iters, warmup=2)
    return res.mib_s


def point_memcpy_chunked(size: int, chunk: int) -> float:
    """Uncached pipelined memcpy, chunked (fresh buffers: cache-cold)."""
    from repro.cluster.testbed import build_single_node
    from repro.memory.buffers import AddressSpace
    from repro.units import throughput_mib_s

    tb = build_single_node()
    host = tb.hosts[0]
    core = host.user_core(0)
    space = AddressSpace("fig7")
    src, dst = space.alloc(size), space.alloc(size)
    done = tb.sim.event()

    def work():
        yield core.res.request()
        t0 = tb.sim.now
        yield from host.copier.memcpy(core, src, 0, dst, 0, size, "bench", chunk=chunk)
        core.res.release()
        done.succeed(tb.sim.now - t0)

    tb.sim.process(work())
    elapsed = tb.sim.run_until(done)
    return throughput_mib_s(size, elapsed)


def point_ioat_chunked(size: int, chunk: int) -> float:
    """I/OAT copy split into fixed chunks, submission pipelined with the
    engine (the Fig. 7 measurement loop)."""
    from repro.cluster.testbed import build_single_node
    from repro.ioat.descriptor import CopyDescriptor
    from repro.memory.buffers import AddressSpace
    from repro.units import throughput_mib_s

    tb = build_single_node()
    host = tb.hosts[0]
    core = host.user_core(0)
    space = AddressSpace("fig7io")
    src, dst = space.alloc(size), space.alloc(size)
    ch = host.ioat_engine[0]
    done = tb.sim.event()

    def work():
        yield core.res.request()
        t0 = tb.sim.now
        last = -1
        pos = 0
        while pos < size:
            n = min(chunk, size - pos)
            while ch.ring.free_slots == 0:  # noqa: OFF001 (raw-engine bench)
                # Ring full: wait for the hardware and reap completed
                # descriptors (what the real driver's cleanup does).
                yield ch.wait_completion().wait()
                ch.reap()
            yield from core.busy(host.params.ioat.submit_cost, "bench")
            last = ch.submit(CopyDescriptor(src, pos, dst, pos, n))  # noqa: OFF001
            pos += n
        while not ch.is_complete(last):
            yield ch.wait_completion().wait()
        ch.reap()
        core.res.release()
        done.succeed(tb.sim.now - t0)

    tb.sim.daemon(work(), name="fig7-ioat")
    elapsed = tb.sim.run_until(done)
    return throughput_mib_s(size, elapsed)


def point_stream_usage(size: int, iters: int, ioat: bool, regcache: bool,
                       omx: dict = None) -> dict:
    """Receiver CPU-usage bands while streaming large messages (Fig. 9),
    with the receiver's phase decomposition (``phases_pct``).

    ``omx`` carries extra config overrides (e.g. ``copy_backend`` for the
    engine shootout, the rendezvous thresholds for the Fig. 9 report); the
    parameter is optional so points declared without it keep their
    existing cache keys.  The profiler schedules no events, so attaching
    it leaves the run identical.
    """
    from repro.cluster.testbed import build_testbed
    from repro.obs.profiler import PhaseProfiler
    from repro.workloads import run_stream_usage

    overrides = dict(ioat_enabled=ioat, regcache_enabled=regcache)
    overrides.update(omx or {})
    tb = build_testbed(**overrides)
    prof = PhaseProfiler(tb.sim).attach(tb.hosts[1].cpus)
    u = run_stream_usage(tb, size, iterations=iters)
    return {
        "user_pct": u.user_pct,
        "driver_pct": u.driver_pct,
        "bh_pct": u.bh_pct,
        "total_pct": u.total_pct,
        "throughput_mib_s": u.throughput_mib_s,
        "phases_pct": prof.percent(u.window_ticks),
    }


def point_shm_pingpong(size: int, placement: str, iters: int, cfg: dict) -> float:
    """Intra-node one-copy ping-pong throughput (Fig. 10)."""
    from repro.cluster.testbed import build_single_node
    from repro.workloads import run_shm_pingpong

    tb = build_single_node(**cfg)
    return run_shm_pingpong(tb, size, placement, iterations=iters)


def point_imb_time(stack: str, test: str, size: int, ppn: int,
                   iters: int, omx: dict) -> float:
    """Average IMB test time in microseconds (Fig. 12)."""
    from repro.cluster.testbed import build_testbed
    from repro.imb import run_imb
    from repro.mpi import create_world

    tb = build_testbed(stacks=stack, **omx)
    comm = create_world(tb, ppn=ppn)
    return run_imb(tb, comm, test, size, iterations=iters, warmup=1).t_avg_us


def point_nas_is(stack: str, keys: int, iters: int, omx: dict) -> dict:
    """NAS IS kernel timing on 2 nodes x 2 ppn (§IV-D)."""
    from repro.cluster.testbed import build_testbed
    from repro.mpi import create_world
    from repro.workloads import run_nas_is

    tb = build_testbed(stacks=stack, **omx)
    comm = create_world(tb, ppn=2)
    r = run_nas_is(tb, comm, keys_per_rank=keys, iterations=iters)
    return {
        "total_time_us": r.total_time_us,
        "comm_time_us": r.comm_time_us,
        "sorted_ok": bool(r.sorted_ok),
    }


POINT_KINDS: dict[str, Callable] = {
    "pingpong": point_pingpong,
    "memcpy_chunked": point_memcpy_chunked,
    "ioat_chunked": point_ioat_chunked,
    "stream_usage": point_stream_usage,
    "shm_pingpong": point_shm_pingpong,
    "imb_time": point_imb_time,
    "nas_is": point_nas_is,
}

#: kinds resolved on first use ("module:function") — packages that import
#: this module can still contribute point kinds without an import cycle
#: (repro.faults.campaign imports SweepExecutor from here)
LAZY_POINT_KINDS: dict[str, str] = {
    "fault_cell": "repro.faults.campaign:point_fault_cell",
    "vectored": "repro.workloads.vectored:point_vectored",
    "fabric": "repro.fabric.sweep:run_fabric_collective",
    "imb_fabric": "repro.fabric.sweep:run_imb_fabric",
}


def resolve_kind(kind: str) -> Callable:
    """The point function for ``kind``, importing lazy kinds on demand."""
    fn = POINT_KINDS.get(kind)
    if fn is None:
        target = LAZY_POINT_KINDS.get(kind)
        if target is None:
            raise KeyError(f"unknown sweep point kind {kind!r}")
        import importlib

        mod, _, attr = target.partition(":")
        fn = getattr(importlib.import_module(mod), attr)
        POINT_KINDS[kind] = fn
    return fn


def point(kind: str, **params) -> tuple[str, dict]:
    """Declare one sweep point; validates the kind early."""
    if kind not in POINT_KINDS and kind not in LAZY_POINT_KINDS:
        raise KeyError(f"unknown sweep point kind {kind!r}")
    return (kind, params)


def _execute_point(kind: str, params: dict, phantom_on: bool) -> object:
    """Run one point (also the process-pool worker entry).

    The cyclic GC is paused for the whole point — testbed construction
    allocates tens of thousands of objects (address spaces, skbuff rings,
    per-host engines) and triggers generation-0 sweeps that the run loops'
    own GC pause cannot cover.  A point is bounded work and the model holds
    no reference cycles worth collecting mid-point; anything cyclic a point
    leaves behind is reclaimed by the next naturally-triggered collection
    (an explicit collect here would scan the whole heap once per point,
    which costs more than the pause saves on many-point sweeps).
    """
    was_on = gc.isenabled()
    if was_on:
        gc.disable()
    try:
        with phantom.phantom_payloads(phantom_on):
            return resolve_kind(kind)(**params)
    finally:
        if was_on:
            gc.enable()


# ---------------------------------------------------------------------------
# fingerprinting
# ---------------------------------------------------------------------------

_code_version_cache: Optional[str] = None


def code_version() -> str:
    """Content hash of the installed ``repro`` source tree.

    Part of every cache key: any edit to the simulator invalidates all
    cached points, so a stale cache can never masquerade as fresh results.
    """
    global _code_version_cache
    if _code_version_cache is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
        _code_version_cache = h.hexdigest()[:16]
    return _code_version_cache


def point_key(kind: str, params: dict, phantom_on: bool) -> str:
    """Stable cache key for one point."""
    blob = json.dumps(
        {"kind": kind, "params": params, "phantom": phantom_on,
         "code": code_version()},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


# ---------------------------------------------------------------------------
# the executor
# ---------------------------------------------------------------------------


@dataclass
class SweepStats:
    """What one :meth:`SweepExecutor.run` call actually did."""

    points: int = 0
    computed: int = 0
    cache_hits: int = 0


class SweepExecutor:
    """Runs sweep points with memoization and optional fan-out.

    Parameters
    ----------
    jobs:
        Worker processes; ``None`` reads ``REPRO_JOBS`` (default 1 =
        serial, in-process).
    cache_dir:
        On-disk cache location; ``None`` reads ``REPRO_CACHE_DIR``,
        falling back to ``<tempdir>/repro-sweep-cache``.  ``cache=False``
        disables memoization entirely.
    phantom_mode:
        Run points with phantom payloads; ``None`` reads ``REPRO_PHANTOM``
        (default on — figure data is bit-identical either way, see
        ``tests/test_perf_layer.py``).
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache_dir: Optional[str] = None,
        phantom_mode: Optional[bool] = None,
        cache: bool = True,
    ):
        if jobs is None:
            raw = os.environ.get("REPRO_JOBS", "1")
            try:
                jobs = int(raw)
            except ValueError:
                raise ValueError(
                    f"REPRO_JOBS must be an integer, got {raw!r}"
                ) from None
        self.jobs = max(1, jobs)
        if cache_dir is None:
            cache_dir = os.environ.get("REPRO_CACHE_DIR") or os.path.join(
                tempfile.gettempdir(), "repro-sweep-cache"
            )
        self.cache_dir = Path(cache_dir)
        self.cache_enabled = cache
        if phantom_mode is None:
            phantom_mode = phantom.env_default(True)
        self.phantom_mode = phantom_mode
        #: cumulative over this executor's lifetime
        self.stats = SweepStats()

    # -- cache ----------------------------------------------------------------

    def _cache_path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.json"

    def _cache_load(self, key: str) -> tuple[bool, object]:
        if not self.cache_enabled:
            return False, None
        path = self._cache_path(key)
        try:
            with open(path) as fh:
                return True, json.load(fh)["result"]
        except (OSError, ValueError, KeyError):
            return False, None

    def _cache_store(self, key: str, kind: str, params: dict, result: object) -> None:
        if not self.cache_enabled:
            return
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            {"kind": kind, "params": params, "phantom": self.phantom_mode,
             "result": result},
            sort_keys=True,
        )
        # Atomic publish: parallel runs may race on the same key.
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp, self._cache_path(key))
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    # -- execution ------------------------------------------------------------

    def run(self, points: list[tuple[str, dict]]) -> list:
        """Execute ``points``; returns results in declaration order."""
        results: list = [None] * len(points)
        missing: list[int] = []
        self.stats.points += len(points)
        for i, (kind, params) in enumerate(points):
            hit, value = self._cache_load(point_key(kind, params, self.phantom_mode))
            if hit:
                results[i] = value
                self.stats.cache_hits += 1
            else:
                missing.append(i)

        if missing and self.jobs > 1:
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(self.jobs, len(missing))
            ) as pool:
                futures = {
                    i: pool.submit(
                        _execute_point, points[i][0], points[i][1], self.phantom_mode
                    )
                    for i in missing
                }
                for i, fut in futures.items():
                    results[i] = fut.result()
        else:
            for i in missing:
                results[i] = _execute_point(
                    points[i][0], points[i][1], self.phantom_mode
                )

        for i in missing:
            kind, params = points[i]
            self._cache_store(point_key(kind, params, self.phantom_mode),
                              kind, params, results[i])
        self.stats.computed += len(missing)
        return results
