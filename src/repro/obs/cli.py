"""The observability CLI: ``python -m repro.obs`` / ``repro-obs``.

::

    repro-obs report                         # Fig. 9 CPU usage + phases
    repro-obs report --full --json results/fig9_obs.json
    repro-obs diff results/a.json results/b.json

The Figs. 5/6 Perfetto trace comes from
``python examples/offload_timeline.py --trace OUT.json``.
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
        prog="repro-obs", description="observability: reports and diffs",
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

    dif = sub.add_parser("diff", help="numeric diff of two JSON artifacts")
    dif.add_argument("a")
    dif.add_argument("b")

    args = ap.parse_args(argv)
    if args.command == "report":
        return _cmd_report(args)
    return _cmd_diff(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
