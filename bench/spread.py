"""Run-to-run spread of the end-to-end metrics.

Usage, from the root of the repository:

    python3 bench/spread.py [--workload NAME ...] [--seeds N]

Runs ``bench/run.py`` once per seed (1 to N) for each workload, one run at
a time, and prints for every end-to-end metric, ``setup_s`` included, its
median, quartiles and spread: the distance between the first and third
quartile as a share of the median (``statistics.quantiles(values, n=4)``).
A spread above a third of the metric's bound in BENCHMARK.json is flagged,
since two sets of runs of the same code must agree within the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None):
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in contract["workloads"]]
    ap = argparse.ArgumentParser(description="run-to-run spread of the end-to-end metrics")
    ap.add_argument("--workload", action="append", choices=workloads)
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    worst = 0.0
    for workload in args.workload or workloads:
        values = {name: [] for name in bounds}
        for seed in range(1, args.seeds + 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                print(f"{workload} seed {seed}: run failed with exit {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={values[name][-1]:.6g}" for name in bounds), flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bounds[name] / 3 else "  <-- above bound/3"
            worst = max(worst, spread / bounds[name])
            print(f"  {workload:<9} {name:<14} median={med:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} "
                  f"spread={spread:.4f} bound={bounds[name]}{flag}", flush=True)
    print(f"largest spread as a share of its bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
