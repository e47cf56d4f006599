"""Benchmark worker: runs one workload's units against one ``repro`` tree.

``run.py`` starts two of these, one with ``PYTHONPATH`` on the current
``src/`` and one on the pinned reference tree, and drives them with JSON
lines on stdin; each reply is one JSON line on the original stdout (the
program's own prints are sent to stderr).  The first line a worker writes
is its set-up report: process CPU seconds from interpreter start to the
end of the imports, and to the point where every testbed, world,
topology and fault plan of the workload is built, i.e. just before the
first simulated event.

Usage: ``python3 worker.py <workload> <seed> <expected src dir>``
"""

from __future__ import annotations

import cProfile
import contextlib
import gc
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import layers
import workloads as wl


@contextlib.contextmanager
def recorded_buffers(size: int):
    """Collect every user-space region of ``size`` bytes allocated inside
    the block (the send and receive buffers of a unit)."""
    from repro.memory.buffers import AddressSpace

    regions: list = []
    alloc = AddressSpace.alloc

    def recording_alloc(space, length, *args, **kwargs):
        region = alloc(space, length, *args, **kwargs)
        if length == size and not space.name.endswith(".kernel"):
            regions.append(region)
        return region

    AddressSpace.alloc = recording_alloc
    try:
        yield regions
    finally:
        AddressSpace.alloc = alloc


def delivered(regions: list, buffers: int) -> bool:
    """Sent bytes arrived: at the end of a unit its send and receive
    buffers (``buffers`` of them) all hold the send pattern.  Other
    regions of the same size, such as an eager ring that happens to match
    it, are never written and stay zero."""
    written = [r.tobytes() for r in regions]
    written = [b for b in written if any(b)]
    return len(written) >= buffers and all(b == written[0] for b in written)


#: send plus receive buffers of each unit kind that moves bytes
_BUFFERS = {"pingpong": 4, "stream": 2}


class Worker:
    def __init__(self, workload: str, seed: int):
        self.units = wl.units(workload, seed)
        self.profiler = cProfile.Profile()

    def run_unit(self, index: int, mode: str) -> dict:
        """Run unit ``index`` once; ``mode`` is ``phantom`` (timed),
        ``bytes`` (byte-moving replay) or ``profile`` (cProfile on)."""
        from repro.memory import phantom

        kind, params = self.units[index]
        fn = wl.UNIT_KINDS[kind]
        profile = mode == "profile"
        bufs = (recorded_buffers(params["size"]) if mode == "bytes"
                else contextlib.nullcontext())
        gc.disable()
        try:
            with bufs as regions, phantom.phantom_payloads(mode != "bytes"):
                t0 = time.process_time()
                if profile:
                    self.profiler.enable()
                try:
                    out = fn(**params, profile=profile)
                finally:
                    if profile:
                        self.profiler.disable()
                out["cpu"] = time.process_time() - t0
                if regions is not None:
                    out["delivered"] = delivered(regions, _BUFFERS[kind])
        finally:
            gc.enable()
        gc.collect()
        out["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return out

    def layer_seconds(self) -> dict:
        import pstats

        import repro

        src = Path(repro.__file__).resolve().parent.parent
        stats = pstats.Stats(self.profiler).stats
        return layers.self_seconds(stats, src)

    def paper_probe(self, cache_dir: str) -> list:
        """Simulated outputs of :data:`workloads.PAPER_POINTS`, through the
        sweep executor's cache (keyed by the tree's content hash)."""
        from repro.reporting.sweeps import SweepExecutor, point

        points = []
        for (kind, params), _key, _paper in wl.PAPER_POINTS:
            if kind == "pingpong":
                points.append(point("pingpong", stack="omx", size=params["size"],
                                    iters=params["iters"], omx=params["omx"]))
            else:
                points.append(point("stream_usage", size=params["size"],
                                    iters=params["iters"], ioat=params["ioat"],
                                    regcache=False))
        results = SweepExecutor(jobs=1, cache_dir=cache_dir,
                                phantom_mode=True).run(points)
        return [{"mib_s": r} if not isinstance(r, dict) else r for r in results]


def main(argv: list[str]) -> int:
    workload, seed, expected_src = argv[1], int(argv[2]), Path(argv[3]).resolve()
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)

    def send(obj: dict) -> None:
        proto.write(json.dumps(obj) + "\n")

    wl.import_entry_points(workload)
    import repro

    src = Path(repro.__file__).resolve().parent.parent
    if src != expected_src:
        send({"error": f"imported repro from {src}, expected {expected_src}"})
        return 2
    import_s = time.process_time()
    gc.disable()
    built = wl.build_all(workload, seed)
    gc.enable()
    setup_s = time.process_time()
    del built
    send({"setup": {"import_s": import_s, "build_s": setup_s - import_s,
                    "total_s": setup_s}})

    worker = Worker(workload, seed)
    for line in sys.stdin:
        cmd = json.loads(line)
        op = cmd["op"]
        if op == "exit":
            break
        try:
            if op == "unit":
                send(worker.run_unit(cmd["index"], cmd["mode"]))
            elif op == "layers":
                send({"self_s": worker.layer_seconds()})
            elif op == "probe":
                send({"sims": worker.paper_probe(cmd["cache_dir"])})
            else:
                send({"error": f"unknown op {op!r}"})
        except Exception as exc:  # reported to the orchestrator, which fails the run
            send({"error": f"{type(exc).__name__}: {exc}",
                  "traceback": traceback.format_exc()})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
