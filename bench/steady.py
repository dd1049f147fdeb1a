"""Repeat one workload over several seeds and print each metric's median and quartiles.

    python3 bench/steady.py --workload NAME [--runs 10] [--first-seed 1] [--trace 0|1]

Run it from the repository root.  Each run is ``bench/run.py`` with the next
seed and the run length from BENCHMARK.json.  The spread of a metric is
(Q3 - Q1) / median, with the quartiles from ``statistics.quantiles(values,
n=4)``; for end-to-end metrics it is printed next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}"
                                          for k, v in sorted(result["metrics"].items())
                                          if k in bounds or args.trace), flush=True)

    print(f"\n{args.workload}, {args.runs} runs, trace {args.trace}")
    print(f"correct: {all(r['correct'] for r in results)}; failed shares: "
          f"{sorted({(r['failed'], r['attempted']) for r in results})}")
    print(f"{'metric':28s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name in sorted(results[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:28s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} "
              f"{'' if bound is None else f'{bound:.2f}':>6s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
