#!/usr/bin/env python3
"""Run the benchmark on seeds 1 to --runs and report, per metric, the median,
the quartiles and the spread (interquartile distance over the median)
against the bound in BENCHMARK.json.

    python3 perfbench/repeat.py --workload piecewise64 --runs 10 [--trace 1]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    results = []
    for seed in range(1, args.runs + 1):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        line = out.stdout.strip().splitlines()[-1]
        results.append(json.loads(line))
        print(f"seed {seed}: {line}", file=sys.stderr)

    print(f"{args.workload} trace={args.trace} runs={len(results)} "
          f"correct={all(r['correct'] for r in results)} "
          f"failed/attempted={[(r['failed'], r['attempted']) for r in results]}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"  {name:28s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {spread:.4f}" + (f"  bound {bound}" if bound is not None else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
