"""The repository's benchmark: four workloads, paired against a pinned tree.

Usage::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Host time on a shared VM drifts by tens of percent between runs of the
same code, so every host-time metric is *paired*.  Two single-threaded
workers run the workload's units: one imports the current ``src/``, the
other the reference tree pinned in ``reference.json`` (shipped as
``reference.tar.gz``, the ``git archive`` of that commit's ``src/``: the
benchmark also runs from exported checkouts that hold no git history).  Both
run the same unit at once, but never both busy at once: the orchestrator
pauses and resumes them in 50 ms turns, and which side starts alternates
in ABBA order.  A metric is the current/reference CPU ratio over identical
units times the reference's recorded seconds (``reference.json``).  A
missing or damaged reference is a hard error, never a fall-back to
unpaired numbers.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics: cProfile self time by layer (``layers.py``), the modelled
counters, paired set-up parts and the tracing overhead.  Both modes run
the same checks on the same seed, so they reach the same verdict; a
failed check prints ``"correct": false`` and exits 1.  The line
before the result holds diagnostics: unpaired CPU per round, every pair's
timings, whether the two trees simulated identical outputs, and a digest
of the simulated outputs.  Metric definitions are in ``metrics.json``.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import hashlib
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import tarfile
import time
from pathlib import Path

import layers
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "perfbench"

#: fresh interpreters per side for the set-up metric; the last pair goes
#: on to run the units
SETUP_PAIRS = 3

#: a worker that stays silent this long is hung
REPLY_TIMEOUT_S = 150.0

#: how long one worker runs before the other gets the CPU
SLICE_S = 0.05


class BenchError(RuntimeError):
    """The benchmark cannot run at all (no result is printed)."""


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------


def load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path.name}: {exc}") from exc


def reference_src(ref: dict) -> Path:
    """The pinned reference ``src/``, extracted once into the build dir."""
    tarball = BENCH / ref["tarball"]
    if not tarball.is_file():
        raise BenchError(f"reference tree {tarball} is missing")
    digest = hashlib.sha256(tarball.read_bytes()).hexdigest()
    if digest != ref["sha256"]:
        raise BenchError(f"{tarball.name} has sha256 {digest}, "
                         f"reference.json pins {ref['sha256']}")
    dest = BUILD / f"ref-{ref['commit'][:12]}"
    marker = dest / "extracted"
    if not marker.is_file() or marker.read_text() != digest:
        try:
            with tarfile.open(tarball) as tf:
                tf.extractall(dest, filter="data")
        except (OSError, tarfile.TarError) as exc:
            raise BenchError(f"cannot extract {tarball.name}: {exc}") from exc
        marker.write_text(digest)
    src = dest / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"{tarball.name} holds no src/repro package")
    return src


def current_src() -> Path:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {src}")
    return src


def warm_bytecode(trees: list[Path]) -> Path:
    """Compile both trees and the benchmark into a bytecode cache in the
    build dir; workers read it (users do not recompile on every run)."""
    prefix = BUILD / "pycache"
    sys.pycache_prefix = str(prefix)
    for tree in trees + [BENCH]:
        if not compileall.compile_dir(tree, quiet=1):
            raise BenchError(f"cannot byte-compile {tree}")
    return prefix


# ---------------------------------------------------------------------------
# workers
# ---------------------------------------------------------------------------


def _die_with_parent() -> None:
    """Runs in the forked child: a paused worker cannot notice that the
    orchestrator is gone, so the kernel kills it when that happens."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")


_PR_SET_PDEATHSIG = 1


class Worker:
    """One worker process; ``side`` is ``cur`` or ``ref``.  It starts
    paused: :func:`interleave` runs it."""

    def __init__(self, side: str, src: Path, workload: str, seed: int,
                 pycache: Path):
        self.side = side
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        # BLAS threads and numpy's huge-page madvise each add 1-2.5 MiB
        # to the peak RSS of some runs and not others; workers use neither
        env.update(PYTHONPATH=str(src), PYTHONPYCACHEPREFIX=str(pycache),
                   PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0",
                   OPENBLAS_NUM_THREADS="1", NUMPY_MADVISE_HUGEPAGE="0")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
             str(src)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
            cwd=ROOT, preexec_fn=_die_with_parent)
        self.pause()
        #: unit runs requested from this worker
        self.units_run = 0

    def pause(self) -> None:
        self.proc.send_signal(signal.SIGSTOP)

    def resume(self) -> None:
        self.proc.send_signal(signal.SIGCONT)

    def send(self, **cmd) -> None:
        self.units_run += cmd["op"] == "unit"
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()

    def wait_reply(self, timeout: float) -> bool:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        return bool(ready)

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"{self.side} worker died "
                             f"(exit code {self.proc.poll()})")
        return json.loads(line)

    def call(self, **cmd) -> dict:
        """Run one command alone and return its reply."""
        self.send(**cmd)
        return interleave([self])[self.side]

    def close(self) -> None:
        if self.proc.poll() is None:
            self.resume()
            try:
                self.send(op="exit")
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
        self.proc.wait()


def interleave(workers: list[Worker]) -> dict[str, dict]:
    """Let paused workers run their pending command in turns of
    ``SLICE_S`` each, one at a time, the first listed first, until every
    one has replied.  A host slowdown longer than a slice then lands on
    both sides alike; each worker times itself in process CPU time."""
    active = list(workers)
    replies: dict[str, dict] = {}
    deadline = time.monotonic() + REPLY_TIMEOUT_S
    turn = 0
    while active:
        if time.monotonic() > deadline:
            raise BenchError(f"{active[0].side} worker hung")
        w = active[turn % len(active)]
        w.resume()
        if w.wait_reply(SLICE_S if len(active) > 1 else 1.0):
            replies[w.side] = w.read()
            active.remove(w)
        elif len(active) > 1:
            w.pause()
            turn += 1
    return replies


class Pair:
    """The current and reference workers of one run."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.reference = load_json(BENCH / "reference.json")
        self.srcs = {"cur": current_src(), "ref": reference_src(self.reference)}
        self.pycache = warm_bytecode(list(self.srcs.values()))
        self.workers: list[Worker] = []
        self.cur = self.ref = None
        self.setups: list[dict] = []

    def set_up(self) -> None:
        """Start ``SETUP_PAIRS`` pairs of fresh interpreters, interleaved,
        alternating which side starts; keep the last pair."""
        for k in range(SETUP_PAIRS):
            order = ("cur", "ref") if k % 2 == 0 else ("ref", "cur")
            started = []
            for side in order:
                started.append(Worker(side, self.srcs[side], self.workload,
                                      self.seed, self.pycache))
                self.workers.append(started[-1])
            replies = interleave(started)
            for side, reply in replies.items():
                if "setup" not in reply:
                    raise BenchError(f"{side} worker: {reply.get('error')}")
            self.setups.append({side: r["setup"] for side, r in replies.items()})
            if k < SETUP_PAIRS - 1:
                for w in started:
                    w.close()
            else:
                by_side = {w.side: w for w in started}
                self.cur, self.ref = by_side["cur"], by_side["ref"]

    def run_both(self, first: str, **cmd) -> dict[str, dict]:
        """One command on both sides, interleaved, ``first`` starting."""
        order = [self.cur, self.ref] if first == "cur" else [self.ref, self.cur]
        for w in order:
            w.pause()
            w.send(**cmd)
        replies = interleave(order)
        if "error" in replies["ref"]:
            raise BenchError(f"the reference tree failed {cmd}: "
                             f"{replies['ref']['traceback']}")
        return replies

    def close(self) -> None:
        for w in self.workers:
            w.close()


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def paired_rounds(pair: Pair, n_units: int, seconds: float) -> list[dict]:
    """Whole rounds of every unit on both sides for ``seconds`` of wall
    time: after the first, a round starts only if, at the mean round time
    so far, it ends in time.  Which side starts alternates from unit to
    unit and, for each unit, from round to round (AB, BA, AB, ...).
    Returns one record per unit pair."""
    records = []
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        for index in range(n_units):
            first = "cur" if (index + rounds) % 2 == 0 else "ref"
            rec = {"unit": index, "round": rounds, "first": first}
            rec.update(pair.run_both(first, op="unit", index=index,
                                     mode="phantom"))
            records.append(rec)
        rounds += 1
    return records


def ratio_of_sums(records: list[dict]) -> float:
    return (sum(r["cur"]["cpu"] for r in records)
            / sum(r["ref"]["cpu"] for r in records))


def setup_ratio(setups: list[dict], key: str) -> float:
    return statistics.median(s["cur"][key] / s["ref"][key] for s in setups)


def aggregate_counts(results: list[dict]) -> dict:
    """Counts of one round: peaks by maximum, everything else summed."""
    out: dict = {}
    for res in results:
        items = dict(res["counts"], **res.get("phases", {}),
                     events=res["sim"]["events"])
        for key, value in items.items():
            if "peak" in key:
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def _pct(num: float, den: float) -> float:
    return 100.0 * num / den if den else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counts(c: dict) -> dict:
    """The per-layer counter metrics from one round's aggregated counts."""
    g = c.get
    dma, mem = g("offload_frags_dma", 0), g("offload_frags_memcpy", 0)
    hits, misses = g("regcache_hits", 0), g("regcache_misses", 0)
    window = g("rx.window_ticks", 0)
    sent = g("fabric.msgs_sent", 0)
    return {
        "simkernel.events": g("events", 0),
        "ethernet.frames": g("nic_tx_frames", 0),
        "ethernet.pkts_per_softirq": _ratio(g("softirq_packets", 0),
                                            g("softirq_batches", 0)),
        "core.eager_rx": g("eager_rx", 0),
        "core.pull_replies_rx": g("pull_replies_rx", 0),
        "core.retransmissions": g("retransmissions", 0),
        "core.requests_failed": g("requests_failed", 0),
        "offload.frags_dma": dma,
        "offload.frags_memcpy": mem,
        "offload.dma_share": _ratio(dma, dma + mem),
        "offload.cleanups": g("offload_cleanups", 0),
        "offload.fallback_copies": g("offload_fallback_copies", 0),
        "ioat.descriptors": g("ioat_descriptors_submitted", 0),
        "ioat.bytes_copied": g("ioat_bytes_copied", 0),
        "ioat.busy_ticks": sum(v for k, v in c.items()
                               if k.startswith("ioat_ch") and k.endswith("_busy_ticks")),
        "ioat.descriptors_failed": g("ioat_descriptors_failed", 0),
        "memory.cpu_bytes_copied": g("cpu_bytes_copied", 0),
        "memory.cpu_copy_calls": g("cpu_copy_calls", 0),
        "memory.pages_pinned": g("pages_pinned", 0),
        "memory.regcache_hit_pct": _pct(hits, hits + misses),
        "rx_cpu.user_pct": _pct(g("rx.user_ticks", 0), window),
        "rx_cpu.driver_pct": _pct(g("rx.driver_ticks", 0), window),
        "rx_cpu.bh_pct": _pct(g("rx.bh_ticks", 0), window),
        "rx_cpu.frag_copy_pct": _pct(g("rx.phase.frag_copy", 0), window),
        "rx_cpu.dma_submit_pct": _pct(g("rx.phase.dma_submit", 0), window),
        "rx_cpu.dma_wait_pct": _pct(g("rx.phase.dma_wait", 0), window),
        "fabric.chunks_forwarded": g("fabric.chunks_forwarded", 0),
        "fabric.ports_built": g("fabric.ports_built", 0),
        "fabric.port_peak_queue": g("fabric.port_peak_backlog_ns", 0),
        "fabric.chunks_dropped": g("fabric.chunks_dropped", 0),
        "fabric.chunks_retried": g("fabric.chunks_retried", 0),
        "fabric.chunks_rerouted": g("fabric.chunks_rerouted", 0),
        "fabric.msgs_sent": sent,
        "fabric.delivery_pct": _pct(g("fabric.msgs_delivered", 0), sent),
        "fabric.reroutes": g("fabric.reroutes", 0),
        "fabric.route_flaps_suppressed": g("fabric.route_flaps_suppressed", 0),
    }


def modelled(res: dict) -> dict:
    """What a unit simulated: outputs and counters, no host time."""
    return {"sim": res["sim"], "counts": res["counts"]}


def digest(results: list[dict]) -> str:
    blob = json.dumps([modelled(r) for r in results], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_units(workload: str, units: list, records: list[dict],
                pair: Pair) -> list[str]:
    """Correctness checks on the current tree's results; returns failures.
    Every record must simulate what round 0 of its unit simulated."""
    failures = [f"unit {r['unit']}: {r['cur']['error']}"
                for r in records if "error" in r["cur"]]
    if failures:
        return failures
    first = {r["unit"]: r["cur"] for r in records if r["round"] == 0}
    for rec in records:
        if modelled(rec["cur"]) != modelled(first[rec["unit"]]):
            failures.append(f"unit {rec['unit']}: round {rec['round']} simulated "
                            "different outputs than round 0")
    for index, (kind, params) in enumerate(units):
        res, unit = first[index], f"unit {index} ({kind} {params})"
        if kind in ("pingpong", "stream"):
            replay = pair.cur.call(op="unit", index=index, mode="bytes")
            if "error" in replay:
                failures.append(f"{unit} byte-moving replay: {replay['error']}")
            elif not replay["delivered"]:
                failures.append(f"{unit}: byte-moving replay did not deliver "
                                "the sent bytes")
            elif replay["sim"] != res["sim"]:
                failures.append(f"{unit}: byte-moving replay simulated "
                                f"{replay['sim']}, phantom run {res['sim']}")
        if kind == "fabric" and res["ops_failed"]:
            failures.append(f"{unit}: {res['ops_failed']} fabric messages failed")
        if kind == "soak" and res["sanitizer"]:
            failures.append(f"{unit}: sanitizer findings {res['sanitizer']}")
    if workload == "eager_small":
        descs = sum(res["counts"].get("ioat_descriptors_submitted", 0)
                    for res in first.values())
        if descs:
            failures.append(f"eager_small submitted {descs} I/OAT descriptors "
                            "below the 64 KiB threshold")
    return failures


# ---------------------------------------------------------------------------
# the two run modes
# ---------------------------------------------------------------------------


def end_to_end(pair: Pair, workload: str, units: list,
               seconds: float) -> tuple[dict, dict, list[str]]:
    """Paired rounds for ``seconds``, then the checks; the end-to-end
    metrics, diagnostics and check failures."""
    records = paired_rounds(pair, len(units), seconds)
    failures = check_units(workload, units, records, pair)
    if failures:
        return {}, {"pairs": len(records)}, failures
    rec = pair.reference["recorded"][workload]
    first = [r["cur"] for r in records if r["round"] == 0]
    ref_first = [r["ref"] for r in records if r["round"] == 0]
    if workload == "rndv_offload":
        paper_sims = [first[units.index(p[0])]["sim"] for p in wl.PAPER_POINTS]
    else:
        probe = pair.cur.call(op="probe", cache_dir=str(BUILD / "sweep-cache"))
        if "error" in probe:
            return {}, {}, [f"paper probe: {probe['error']}"]
        paper_sims = probe["sims"]
    ops = sum(r["ops"] for r in first)
    ops_failed = sum(r["ops_failed"] for r in first)
    ratio = ratio_of_sums(records)
    rounds = records[-1]["round"] + 1
    metrics = {
        "cpu_s": ratio * rec["cpu_s"],
        "setup_s": setup_ratio(pair.setups, "total_s") * rec["setup_s"],
        "peak_rss_mib": max(r["rss_kib"] for r in first) / 1024.0,
        "delivered_pct": 100.0 - _pct(ops_failed, ops),
        "paper_err_pct": wl.paper_err_pct(paper_sims),
    }
    mismatched = [i for i, (c, r) in enumerate(zip(first, ref_first))
                  if modelled(c) != modelled(r)]
    diag = {
        "cpu_ratio": ratio,
        "rounds": rounds,
        "raw_cpu_s": sum(r["cur"]["cpu"] for r in records) / rounds,
        "ref_cpu_s": sum(r["ref"]["cpu"] for r in records) / rounds,
        "setup_ratio": setup_ratio(pair.setups, "total_s"),
        "raw_setup_s": statistics.median(s["cur"]["total_s"] for s in pair.setups),
        "ref_setup_s": statistics.median(s["ref"]["total_s"] for s in pair.setups),
        "ref_import_s": statistics.median(s["ref"]["import_s"] for s in pair.setups),
        "ref_build_s": statistics.median(s["ref"]["build_s"] for s in pair.setups),
        "sim_identical": not mismatched,
        "sim_mismatched_units": mismatched,
        "sim_digest": digest(first),
        "pairs": [[r["unit"], r["first"], round(r["cur"]["cpu"], 4),
                   round(r["ref"]["cpu"], 4)] for r in records],
        "setups": [[round(s["cur"]["total_s"], 4), round(s["ref"]["total_s"], 4)]
                   for s in pair.setups],
    }
    return metrics, diag, []


def per_layer(pair: Pair, workload: str, units: list,
              seconds: float) -> tuple[dict, dict, list[str]]:
    """One paired round untraced, then one round of the current tree under
    cProfile, both checked as in :func:`end_to_end`; the per-layer
    metrics, diagnostics and failures."""
    records = paired_rounds(pair, len(units), 0.0)
    traced = [pair.cur.call(op="unit", index=i, mode="profile")
              for i in range(len(units))]
    failures = check_units(workload, units, records + [
        {"unit": i, "round": "traced", "cur": res}
        for i, res in enumerate(traced)], pair)
    if failures:
        return {}, {"pairs": len(records)}, failures
    rec = pair.reference["recorded"][workload]
    self_s = pair.cur.call(op="layers")["self_s"]
    total = sum(self_s.values())
    t_untraced = sum(r["cur"]["cpu"] for r in records)
    t_traced = sum(res["cpu"] for res in traced)
    ratio = ratio_of_sums(records)
    counts = aggregate_counts(traced)
    metrics = {f"{layer}.self_pct": _pct(self_s.get(layer, 0.0), total)
               for layer in layers.LAYERS}
    metrics.update(layer_counts(counts))
    metrics["simkernel.ns_per_event"] = 1e9 * _ratio(ratio * rec["cpu_s"],
                                                     counts["events"])
    for part in ("import_s", "build_s"):
        metrics[f"setup.{part}"] = setup_ratio(pair.setups, part) * rec[part]
    metrics["trace.overhead_pct"] = _pct(t_traced - t_untraced, t_untraced)
    diag = {
        "cpu_ratio": ratio,
        "raw_cpu_s": t_untraced,
        "ref_cpu_s": sum(r["ref"]["cpu"] for r in records),
        "traced_cpu_s": t_traced,
        "harness_pct": _pct(self_s.get(layers.HARNESS, 0.0), total),
        "sim_digest": digest(traced),
    }
    return metrics, diag, []


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    units = wl.units(args.workload, args.seed)
    pair = None
    try:
        wanted = load_json(ROOT / "BENCHMARK.json")[
            "per_layer" if args.trace else "end_to_end"]
        pair = Pair(args.workload, args.seed)
        pair.set_up()
        run = per_layer if args.trace else end_to_end
        metrics, diag, failures = run(pair, args.workload, units, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        if pair is not None:
            pair.close()
    diag.update(workload=args.workload, trace=args.trace, failures=failures,
                seed=None if args.workload in wl.UNSEEDED else args.seed)
    print(json.dumps({"diagnostics": diag}))
    for line in failures:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": pair.cur.units_run,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
