"""Benchmark of the gridwindows build -> certificate -> verify pipeline.

Usage, from the root of the repository:

    python3 bench/run.py [--workload NAME] [--seed N] [--trace 0|1]

Without ``--workload`` all four workloads run, one after another. Each runs
in its own child process (``bench/worker.py``) with OMP_NUM_THREADS,
OPENBLAS_NUM_THREADS and MKL_NUM_THREADS set to 1 and PYTHONHASHSEED to 0,
for ``run_seconds`` of BENCHMARK.json: the only run length, the one the
bounds were set for. ``--seconds`` is accepted for callers that pass the run
length, and must equal it. The report lists every end-to-end metric by name
and unit; the last line of standard output is one JSON object with the
metrics named in BENCHMARK.json (``--trace 0``: the end-to-end ones;
``--trace 1``: the per-layer ones from a traced run).

Timings are given at a fixed machine speed. The worker times a fixed
reference loop between operations and after set-up; every timing is scaled
by ``REF_NOMINAL_S`` over the mean of the reference times around it, and
each set-up time by ``REF_NOMINAL_S`` over the median of the reference
times right after it. The mean scale factor of a run is printed with the
report.

Exit status 0 when every output matched its known answer, 1 on any
mismatch, 2 when a workload could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("mt-cert", "gp-cert", "mt-storm", "checkers")
CERT_WORKLOADS = ("mt-cert", "gp-cert")

# Set-up is timed this many times per run (probes plus the measured child);
# the report gives the median.
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170

# Seconds of one reference slice (worker.reference_slice) on a quiet
# machine: about its median on a 2-core x86-64 container.
REF_NOMINAL_S = 0.0087


def percentile_tail(values):
    """(value, percentile, samples): the highest percentile that still has
    at least ten samples above it."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def child(workload, seed, seconds, trace, workdir, setup_only):
    # A fixed hash seed: string hashing, and so the layout of sets and dicts
    # the program builds, is then the same in every run.
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload}: worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace):
    WORK.mkdir(exist_ok=True)
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        probe = Path(tempfile.mkdtemp(prefix=f"{workload}-setup-", dir=WORK))
        probe_res = child(workload, seed, seconds, trace, probe, True)
        setups.append((probe_res["setup_s"], probe_res["setup_ref_s"]))
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK))
    res = child(workload, seed, seconds, trace, workdir, False)
    setups.append((res["setup_s"], res["setup_ref_s"]))
    res["setup_samples"] = setups
    return res


def scaled(res):
    """The run's samples, each time at the nominal machine speed."""
    return [dict(x, s=x["s_ref"] * REF_NOMINAL_S) for x in res["samples"]]


def end_to_end(workload, res):
    """All end-to-end metrics of one untraced run: name -> (value, unit, note).

    On mt-cert and gp-cert one operation is one spec taken through the
    pipeline: ``build-*``, then ``verify`` of the certificate it wrote.
    Verifies of tampered certificates are correctness probes: they count in
    fail_ratio but not in the timings, so every run times the same mix."""
    samples = [x for x in scaled(res) if x["kind"] != "tampered"]
    m = {}
    setups = [s * REF_NOMINAL_S / ref for s, ref in res["setup_samples"]]
    m["setup_s"] = (statistics.median(setups), "s", f"median of {len(setups)}, "
                    f"unscaled {statistics.median(s for s, _ in res['setup_samples']):.4g}")
    if workload in CERT_WORKLOADS:
        for kind in ("build", "verify"):
            ms = [x["s"] * 1e3 for x in samples if x["kind"] == kind]
            m[f"{kind}_ms_p50"] = (statistics.median(ms), "ms", f"n={len(ms)}")
            v, pct, n = percentile_tail(ms)
            m[f"{kind}_ms_tail"] = (v, "ms", f"p{pct:.1f} n={n}")
        verifies = [x for x in samples if x["kind"] == "verify"]
        builds = [x for x in samples if x["kind"] == "build"]
        m["verify_cells_per_s"] = (
            sum(x["area"] for x in verifies) / sum(x["s"] for x in verifies), "cells/s", "")
        m["cert_bytes_per_cell"] = (
            sum(x["bytes"] for x in builds) / sum(x["area"] for x in builds), "B/cell", "")
        per_item = {}
        for x in samples:
            per_item.setdefault(tuple(x["item"]), []).append(x["s"])
        secs = [sum(v) for v in per_item.values() if len(v) == 2]
    else:
        secs = [x["s"] for x in samples]
    m["ops_per_s"] = (len(secs) / sum(secs), "1/s", f"ops={len(secs)}")
    m["op_us_p50"] = (statistics.median(secs) * 1e6, "us", f"n={len(secs)}")
    v, pct, n = percentile_tail(secs)
    m["op_us_tail"] = (v * 1e6, "us", f"p{pct:.1f} n={n}")
    m["peak_rss_mb"] = (res["peak_rss_mb"], "MB", "")
    m["fail_ratio"] = (res["failed"] / res["attempted"], "ratio", f"{res['failed']}/{res['attempted']}")
    return m


def load_contract():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"], spec["run_seconds"]


def report(workload, seed, trace, res, contract):
    e2e_names, layer_names, _seconds = contract
    print(f"== {workload} seed={seed} trace={trace} "
          f"rounds={res.get('rounds', res.get('trace', {}).get('rounds'))} "
          f"attempted={res['attempted']} failed={res['failed']}")
    for why in res["failures"]:
        print(f"   MISMATCH {why}")
    print(f"   artifact sha256 (first round, {res['digest_items']} items): {res['digest']}")
    if trace:
        layers = res["layers"]
        for name in sorted(layers):
            print(f"   {name:<44} {layers[name]:.6g}")
        extra = res["trace"]
        print(f"   trace: {extra['spans']} spans -> {extra['trace_file']}")
        if workload in CERT_WORKLOADS:
            print(f"   traced self time in verify ops / untraced verify time: "
                  f"{extra['verify_accounted_ratio']:.3f}")
        metrics = {x["name"]: {"value": layers[x["name"]], "unit": x["unit"]} for x in layer_names}
    else:
        m = end_to_end(workload, res)
        refs = res["refs"]
        raw = sum(x["s"] for x in res["samples"])
        print(f"   reference slice: mean {statistics.fmean(refs) * 1e3:.4g} ms over {len(refs)}, "
              f"nominal {REF_NOMINAL_S * 1e3:.4g} ms; timings below are scaled by "
              f"{sum(x['s'] for x in scaled(res)) / raw:.4f} on average")
        for name, (value, unit, note) in m.items():
            print(f"   {name:<22} {value:>14.6g} {unit:<8} {note}")
        metrics = {x["name"]: {"value": m[x["name"]][0], "unit": x["unit"]} for x in e2e_names}
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description="gridwindows benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, help="default: all, one after another")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="must equal run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    contract = load_contract()
    seconds = contract[2]
    if args.seconds is not None and args.seconds != seconds:
        ap.error(f"--seconds {args.seconds:g}: the run length is run_seconds = {seconds} "
                 "of BENCHMARK.json")
    names = [args.workload] if args.workload else list(WORKLOADS)
    attempted = failed = 0
    metrics = {}
    for name in names:
        res = measure(name, args.seed, seconds, args.trace)
        metrics[name] = report(name, args.seed, args.trace, res, contract)
        attempted += res["attempted"]
        failed += res["failed"]
    if args.workload:
        metrics = metrics[args.workload]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(2)
