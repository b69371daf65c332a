#!/usr/bin/env python3
"""Run the benchmark at several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload desk100_exact --runs 10 [--out FILE]

Runs are untraced and sequential, one process each. For every end-to-end
metric it prints the median and the distance between the first and third
quartile as a share of the median (``statistics.quantiles(values, n=4)``),
next to the metric's bound from BENCHMARK.json. Seeds are ``2024 + k * 4096``: they differ above
the bits of any event id, so no two runs share an event (the per-event
streams are seeded with ``seed ^ event_id``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path, help="append the raw results to this JSON file")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for k in range(args.runs):
        seed = 2024 + k * 4096
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        info = [line for line in proc.stdout.splitlines() if line.startswith("#")]
        runs.append({"seed": seed, "wall_s": wall, "result": result, "info": info})
        print(f"seed {seed}: wall {wall:.1f} s correct {result['correct']} "
              f"attempted {result['attempted']} failed {result['failed']}", flush=True)

    print(f"\n{'metric':28s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q = statistics.quantiles(values, n=4)
        spread = (q[2] - q[0]) / abs(median) if median else float("nan")
        bound = bounds[name]
        flag = "ok" if spread < bound / 3 else "WIDE" if spread <= bound else "OVER"
        print(f"{name:28s} {median:12.6g} {spread:8.3f} {bound:>6} {flag}")
    if args.out:
        previous = json.loads(args.out.read_text()) if args.out.is_file() else []
        args.out.write_text(json.dumps(previous + [{"workload": args.workload, "runs": runs}],
                                       indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
