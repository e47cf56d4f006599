"""The observability CLI: ``python -m repro.obs`` / ``repro-obs``.

::

    repro-obs report                         # Fig. 9 CPU usage + phases
    repro-obs report --full --json results/fig9_obs.json
    repro-obs export --figure both --out traces/fig56.json
    repro-obs diff results/a.json results/b.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _cmd_report(args) -> int:
    from repro.obs.profiler import fig9_report, render_fig9
    from repro.reporting.sweeps import SweepExecutor

    executor = SweepExecutor(jobs=args.jobs, cache=not args.no_cache)
    report = fig9_report(quick=not args.full, executor=executor)
    print(render_fig9(report))
    if args.json:
        from repro.faults.campaign import write_report

        print(f"report: {write_report(report, args.json)}")
    return 0 if report["calibration_ok"] else 1


def _cmd_export(args) -> int:
    from repro.obs.scenarios import run_fig56_scenario
    from repro.obs.trace import export_trace_events, validate_trace_events, write_trace

    modes = {"5": [False], "6": [True], "both": [False, True]}[args.figure]
    recorders = []
    for ioat in modes:
        name = "fig6-ioat" if ioat else "fig5-memcpy"
        recorders.append((name, run_fig56_scenario(ioat, size=args.size)))
    doc = export_trace_events(recorders)
    problems = validate_trace_events(doc)
    if problems:  # pragma: no cover - exporter bug guard
        for p in problems:
            print(f"schema: {p}", file=sys.stderr)
        return 1
    path = write_trace(doc, args.out)
    n = sum(1 for ev in doc["traceEvents"] if ev["ph"] != "M")
    print(f"wrote {path} ({n} events, "
          f"{len(recorders)} run(s)) — open in ui.perfetto.dev")
    return 0


def _flatten(obj, prefix="") -> dict[str, float]:
    """Numeric leaves of a JSON document, dotted paths; lists become lengths."""
    out: dict[str, float] = {}
    if isinstance(obj, bool):
        return out
    if isinstance(obj, (int, float)):
        out[prefix or "value"] = obj
    elif isinstance(obj, dict):
        for key, val in obj.items():
            out.update(_flatten(val, f"{prefix}.{key}" if prefix else str(key)))
    elif isinstance(obj, list):
        out[f"{prefix}.len" if prefix else "len"] = len(obj)
    return out


def _cmd_diff(args) -> int:
    docs = []
    for name in (args.a, args.b):
        try:
            docs.append(json.loads(Path(name).read_text()))
        except (OSError, ValueError) as exc:
            print(f"cannot load {name}: {exc}", file=sys.stderr)
            return 2
    flat_a, flat_b = _flatten(docs[0]), _flatten(docs[1])
    keys = sorted(set(flat_a) | set(flat_b))
    changed = 0
    for key in keys:
        va, vb = flat_a.get(key), flat_b.get(key)
        if va == vb:
            continue
        changed += 1
        def fmt(v):
            return "-" if v is None else (f"{v:g}" if isinstance(v, float) else str(v))
        delta = ""
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
            delta = f"  ({vb - va:+g})"
        print(f"  {key}: {fmt(va)} -> {fmt(vb)}{delta}")
    if changed == 0:
        print("no numeric differences")
    else:
        print(f"{changed} differing value(s)")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-obs", description="observability: reports, traces, diffs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="Fig. 9 CPU usage with phase profile")
    rep.add_argument("--full", action="store_true",
                     help="full size sweep (default: quick)")
    rep.add_argument("--json", default=None, help="also write the JSON report")
    rep.add_argument("--jobs", type=int, default=None,
                     help="worker processes (default: REPRO_JOBS or 1)")
    rep.add_argument("--no-cache", action="store_true",
                     help="disable the sweep cache")

    exp = sub.add_parser("export", help="export fig5/fig6 Perfetto traces")
    exp.add_argument("--figure", choices=("5", "6", "both"), default="both")
    exp.add_argument("--out", default="results/fig56_trace.json")
    exp.add_argument("--size", type=int, default=None,
                     help="message size in bytes (default: 80 KiB)")

    dif = sub.add_parser("diff", help="numeric diff of two JSON artifacts")
    dif.add_argument("a")
    dif.add_argument("b")

    args = ap.parse_args(argv)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "export":
        if args.size is None:
            from repro.obs.scenarios import FIG56_SIZE

            args.size = FIG56_SIZE
        return _cmd_export(args)
    return _cmd_diff(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
