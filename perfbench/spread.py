"""Run the benchmark once per seed and report how far each metric spreads.

Usage::

    python3 perfbench/spread.py --workload rndv_offload --seeds 1 2 3 ...

Each run measures ``run_seconds`` from ``BENCHMARK.json``, untraced.  For
every end-to-end metric, and for the unpaired ``raw_cpu_s`` and
``ref_cpu_s`` diagnostics beside them, prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the quartile
distance as a share of the median, as a Markdown table.  Seeds whose run
fails are listed and left out of the statistics; the exit code is then 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
RUN_SECONDS = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())["run_seconds"]


def spread(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args()

    columns: dict[str, list[float]] = {}
    digests, failed = [], []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", "0"],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            failed.append(seed)
            continue
        diag = json.loads(lines[-2])["diagnostics"]
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            columns.setdefault(name, []).append(metric["value"])
        for key in ("raw_cpu_s", "ref_cpu_s"):
            columns.setdefault(key, []).append(diag[key])
        digests.append(diag["sim_digest"])
        print(f"seed {seed}: " + json.dumps({k: v[-1] for k, v in columns.items()}),
              file=sys.stderr)

    print(f"{args.workload}, seeds {args.seeds}, {len(set(digests))} distinct "
          f"simulated digests, failed seeds {failed}\n")
    if len(digests) < 2:
        return 1
    print("| metric | median | q1 | q3 | (q3-q1)/median |")
    print("|---|---|---|---|---|")
    for name, values in columns.items():
        med, q1, q3, share = spread(values)
        print(f"| {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {100 * share:.2f} % |")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
