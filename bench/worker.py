"""One workload in one process: generate its inputs, run it, check it.

``run.py`` starts this file as a child process per workload, so the peak RSS
it reports belongs to that workload alone. The last line of standard output
is a JSON object with the raw measurements; ``run.py`` turns it into the
report.

Each workload is a closed loop with one client: one operation in flight,
the next sent when the previous one returns. Operations are timed one by
one with ``time.perf_counter``; the checks of their outputs run between
operations and are not timed.

The speed of a shared machine's cores drifts by tens of percent over
seconds, in CPU time as much as in wall time. So a fixed reference loop
that runs no program code (``reference_slice``) is timed between
operations, every ``REF_EVERY_S``, and after set-up. Each operation time is
also given over the reference times around it (``s_ref``), and ``run.py``
reports those at a fixed nominal speed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import specs  # noqa: E402
from spans import COUNT_NAMES, SPAN_NAMES, Tracer  # noqa: E402

# Distinct rounds generated per run; a run that needs more repeats them.
POOL_ROUNDS = 3
# mt-storm runs about 40 short rounds per run. Its time is a sum over
# thousands of small conditions with a heavy tail, so which conditions a seed
# draws moves it by several percent: more distinct rounds average that out.
STORM_POOL_ROUNDS = 12

# Oracle checks are pure Python and slow: they sample the first round only,
# and mt-cert certificates only up to this many cells.
ORACLE_MAX_CELLS = 1200
STORM_ORACLE_SHARE = 0.03

REF_EVERY_S = 0.2
SETUP_REF_SLICES = 5


def canon(data):
    """The program's canonical JSON format, written here so that making
    inputs never runs program code."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def reference_slice():
    """Seconds taken by a fixed pure-Python loop of the kind the program runs:
    string rows into a dict of cells, then shifted lookups into a set."""
    t0 = time.perf_counter()
    cells = {}
    for y in range(48):
        row = "".join("1" if (x * 7 + y * 13) % 5 < 2 else "0" for x in range(48))
        for x, ch in enumerate(row):
            cells[(x, y)] = ch == "1"
    hits = set()
    for (tx, ty) in ((1, 0), (0, 1), (2, 1), (-1, 2)):
        for (x, y), v in cells.items():
            if cells.get((x + tx, y + ty), v) != v:
                hits.add((x, y, tx))
    sorted(hits)
    return time.perf_counter() - t0


class Run:
    """Samples, failures, reference times and the artifact digest of one
    run."""

    def __init__(self):
        self.samples = []  # dicts: kind, s, ref, s_ref; cert ops add item, area, bytes
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digest = hashlib.sha256()
        self.digest_items = 0
        self.refs = []
        self.next_ref = time.perf_counter()

    def record(self, kind, seconds, ok, what, **extra):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)
        # ref: the index of the first reference slice taken after this sample.
        self.samples.append(dict(kind=kind, s=seconds, ref=len(self.refs), **extra))
        if time.perf_counter() >= self.next_ref:
            self.refs.append(reference_slice())
            self.next_ref = time.perf_counter() + REF_EVERY_S

    def scale_to_refs(self):
        """Give every sample ``s_ref``: its time over the mean of the two
        reference slices before it and the two after, which is its time at a
        fixed machine speed, in reference slices."""
        for x in self.samples:
            x["s_ref"] = x["s"] / statistics.fmean(self.refs[max(0, x["ref"] - 2):x["ref"] + 2])

    def add_artifact(self, *texts):
        for text in texts:
            self.digest.update(text.encode())
        self.digest_items += 1


# ------------------------------------------------------------------ CLI calls

def run_cli(cli, argv, tracer, op_id):
    """One in-process ``gridwin`` command: (exit code, stdout, seconds).
    A crash is reported as exit code None."""
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.begin_op(op_id)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a stop
            code = None
            print(f"{type(exc).__name__}: {exc}", file=err)
        t1 = time.perf_counter()
    if tracer is not None:
        tracer.end_op()
    return code, out.getvalue(), t1 - t0


def _report_ok(code, text, want_code):
    if code != want_code:
        return False
    try:
        report = json.loads(text)
    except ValueError:
        return False
    return report.get("ok") is (want_code == 0)


# -------------------------------------------------------------- cert workloads

class CertWorkload:
    """mt-cert and gp-cert: ``build-*`` a spec, ``verify`` the certificate,
    and for one seeded item per round ``verify`` a tampered copy."""

    def __init__(self, family, workdir, rng):
        self.family = family
        make = specs.mt_cert_round if family == "mt" else specs.gp_cert_round
        self.pool = [make(rng) for _ in range(POOL_ROUNDS)]
        for r, items in enumerate(self.pool):
            for i, item in enumerate(items):
                d = workdir / f"r{r}" / f"i{i}"
                d.mkdir(parents=True)
                item["path"] = d / "spec.json"
                item["path"].write_text(canon(item.pop("spec")) + "\n")

    def run_round(self, r, run, cli, tracer, op_base):
        first = r == 0
        items = self.pool[r % POOL_ROUNDS]
        oracle_item = None
        if first and self.family == "mt":
            oracle_item = min(items, key=lambda it: it["planned"][0] * it["planned"][1])
        op = op_base
        for i, item in enumerate(items):
            d = item["path"].parent
            out = d / "out"
            argv = [f"build-{self.family}", "--spec", str(item["path"]), "--out", str(out)]
            if self.family == "gp":
                argv += ["--format", "pgm"]
            code, text, s = run_cli(cli, argv, tracer, op)
            op += 1
            cert_path = out / "certificate.json"
            built = _report_ok(code, text, 0) and cert_path.exists()
            cert_text = cert_path.read_text() if built else ""
            cert = json.loads(cert_text) if built else None
            area = 0
            if cert is not None:
                a, b, c, dd = cert["final"]["p"]["rect"]
                area = (b - a + 1) * (dd - c + 1)
            run.record("build", s, built, f"build {item['path']}: exit {code}",
                       area=area, bytes=len(cert_text), item=(r, i))
            if not built:
                continue
            code, vtext, s = run_cli(cli, ["verify", "--spec", str(cert_path)], tracer, op)
            op += 1
            run.record("verify", s, _report_ok(code, vtext, 0),
                       f"verify {cert_path}: exit {code}", area=area, item=(r, i))
            if first:
                run.add_artifact(cert_text, text, vtext)
            if item["tamper"]:
                bad = out / "tampered.json"
                bad.write_text(canon(_flip_cell(cert, item["flip"])) + "\n")
                code, ttext, s = run_cli(cli, ["verify", "--spec", str(bad)], tracer, op)
                op += 1
                run.record("tampered", s, _report_ok(code, ttext, 4),
                           f"tampered verify {bad}: exit {code}, want 4", area=area)
                if first:
                    run.add_artifact(ttext)
            if item is oracle_item and area <= ORACLE_MAX_CELLS:
                ok, why = _mt_oracle(cert["final"])
                run.record("oracle", 0.0, ok, f"oracle {cert_path}: {why}")
        return op


def _flip_cell(cert, g):
    data = json.loads(json.dumps(cert))
    p = data["final"]["p"]
    a, _b, c, _d = p["rect"]
    rows = p["rows"]
    y, x = g[1] - c, g[0] - a
    row = rows[y]
    rows[y] = row[:x] + ("1" if row[x] == "0" else "0") + row[x + 1:]
    return data


def _cells_from_json(p):
    a, _b, c, _d = p["rect"]
    return {
        (a + x, c + y): int(ch)
        for y, row in enumerate(p["rows"])
        for x, ch in enumerate(row)
        if ch != "."
    }


def _mt_oracle(final):
    """Every witness clause of a certificate's final condition, re-checked
    by the slow oracles from the certificate JSON alone."""
    from oracles import naive_pattern_ok, naive_shift_ok

    cells = _cells_from_json(final["p"])
    for e in final["shifts"]:
        T = [tuple(v) for v in e["T"]]
        if not naive_shift_ok(cells, tuple(e["t"]), T):
            return False, f"shift {e['t']}"
    for j, e in enumerate(final["patterns"]):
        f_cells = _cells_from_json(e["f"])
        F = [tuple(v) for v in e["F"]]
        for flipped in (False, True):
            if not naive_pattern_ok(cells, f_cells, F, flipped):
                return False, f"pattern {j} flipped={flipped}"
    return True, ""


# -------------------------------------------------------------------- storm

class StormWorkload:
    """mt-storm: one operation is one grow request on a small condition,
    then ``validate`` and ``is_extension`` on the result, in memory."""

    def __init__(self, rng):
        self.pool = [specs.storm_round(rng) for _ in range(STORM_POOL_ROUNDS)]
        self.oracle_ops = {
            i for i in range(len(self.pool[0])) if rng.random() < STORM_ORACLE_SHARE
        }

    def run_round(self, r, run, mc, tracer, op_base):
        first = r == 0
        op = op_base
        for i, item in enumerate(self.pool[r % STORM_POOL_ROUNDS]):
            cond, kind, arg = item["cond"], item["kind"], item["arg"]
            if tracer is not None:
                tracer.begin_op(op)
            t0 = time.perf_counter()
            try:
                if kind == "cover":
                    out = mc.extend_cover(cond, arg)
                elif kind == "shift":
                    out = mc.extend_shift(cond, arg)
                else:
                    out = mc.extend_pattern(cond)
                ok = mc.validate(out) == [] and mc.is_extension(out, cond)
            except Exception as exc:  # a crash is a failed operation
                out, ok = None, False
                kind = f"{kind} raised {type(exc).__name__}: {exc}"
            s = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
            op += 1
            run.record("storm", s, ok, f"storm round {r} op {i} {kind}")
            if first and out is not None:
                run.add_artifact(canon(out.to_json()))
                if i in self.oracle_ops:
                    good, why = _storm_oracle(out)
                    run.record("oracle", 0.0, good, f"storm oracle op {i}: {why}")
        return op


def _storm_oracle(c):
    from oracles import cells_of, naive_occurrences, naive_pattern_ok, naive_shift_ok

    from gridwindows.grid import find_occurrences

    bounds, cells = cells_of(c.p)
    for (t, T) in c.shifts:
        if not naive_shift_ok(cells, t, T):
            return False, f"shift {t}"
    for j, (f, F) in enumerate(c.patterns):
        _fb, f_cells = cells_of(f)
        for flipped in (False, True):
            if not naive_pattern_ok(cells, f_cells, F, flipped):
                return False, f"pattern {j} flipped={flipped}"
            if naive_occurrences(bounds, cells, f_cells, flipped) != find_occurrences(c.p, f, flipped):
                return False, f"occurrences of pattern {j} flipped={flipped}"
    return True, ""


# ----------------------------------------------------------------- checkers

class CheckersWorkload:
    """checkers: ``gridwin toast`` and ``gridwin markers`` on toasts, shifted
    stacks and partition chains, each report checked against its
    construction."""

    def __init__(self, workdir, rng):
        self.pool = [specs.checkers_round(rng) for _ in range(POOL_ROUNDS)]
        for r, items in enumerate(self.pool):
            d = workdir / f"r{r}"
            d.mkdir(parents=True)
            for i, item in enumerate(items):
                item["path"] = d / f"i{i}.json"
                item["demo"] = item["spec"].get("demo")
                item["path"].write_text(canon(item.pop("spec")) + "\n")

    def run_round(self, r, run, cli, tracer, op_base):
        op = op_base
        for item in self.pool[r % POOL_ROUNDS]:
            argv = [item["cmd"], "--spec", str(item["path"])]
            if item["demo"] == "shifted_stack":
                # The rendering is where markers builds the stack itself.
                argv += ["--out", str(item["path"].with_suffix("")), "--format", "pgm"]
            code, text, s = run_cli(cli, argv, tracer, op)
            op += 1
            ok, why = code == 0, f"exit {code}"
            if ok:
                ok, why = _check_report(item, json.loads(text))
            run.record(item["cmd"], s, ok, f"{item['cmd']} {item['path']}: {why}")
            if r == 0:
                run.add_artifact(text)
        return op


def _check_report(item, rep):
    want = item["expect"]
    if item["cmd"] == "toast":
        if rep["ok"] is not want["ok"]:
            return False, f"ok={rep['ok']}"
        if "clause" in want and not any(
            v["clause"] == want["clause"] and v["level"] == want["level"] for v in rep["violations"]
        ):
            return False, f"no clause {want['clause']} at level {want['level']}"
        centers = {tuple(c) for c in want["centers"]}
        for entry in rep["fx"]:
            if tuple(entry["probe"]) in centers and entry["profile"] != want["profile"]:
                return False, f"fx profile at {entry['probe']}"
        failing = {tuple(f[0]) for f in rep["growth"]["failures"]}
        if centers & failing:
            return False, "fx growth fails at a centre"
        return True, ""
    if item["demo"] == "shifted_stack":
        got = (rep["threshold"], rep["segment_pass"]["ok"], rep["segment_short"]["ok"])
        exp = (want["threshold"], want["long_ok"], want["short_ok"])
        return got == exp, f"(threshold, long, short) = {got}, want {exp}"
    ok = rep["v"] == want["v"] and rep["phi"] == want["phi"] and rep["v_strictly_increasing"]
    return ok, "partition profile"


# ---------------------------------------------------------------- main loop

WORKLOADS = ("mt-cert", "gp-cert", "mt-storm", "checkers")


def make_workload(name, workdir, rng):
    if name == "mt-cert":
        return CertWorkload("mt", workdir, rng)
    if name == "gp-cert":
        return CertWorkload("gp", workdir, rng)
    if name == "mt-storm":
        return StormWorkload(rng)
    return CheckersWorkload(workdir, rng)


def run_rounds(wl, target, run, seconds=0.0, rounds=None, tracer=None):
    """Whole rounds until ``seconds`` have passed (at least one), or exactly
    ``rounds`` rounds when given. Returns the number of rounds run."""
    t0 = time.perf_counter()
    r = op = 0
    while r < rounds if rounds is not None else r == 0 or time.perf_counter() - t0 < seconds:
        op = wl.run_round(r, run, target, tracer, op)
        r += 1
    return r


def _slope(points):
    xs = [math.log(a) for a, _ in points]
    ys = [math.log(s) for _, s in points]
    if len(set(xs)) < 2:
        return 0.0
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def trace_metrics(wl, target, seconds, run, trace_path):
    """Three passes over the same rounds: untraced for a third of the time
    (which also warms the process up), traced, and untraced again. The
    per-layer metrics come from the traced pass; the tracing overhead is its
    operation time over that of the last, equally warm, untraced pass. The
    passes run seconds apart, so they are compared in reference slices."""
    warm = Run()
    rounds = run_rounds(wl, target, warm, seconds=seconds / 3)
    tracer = Tracer()
    tracer.install()
    try:
        traced = Run()
        run_rounds(wl, target, traced, rounds=rounds, tracer=tracer)
    finally:
        tracer.uninstall()
    plain = Run()
    run_rounds(wl, target, plain, rounds=rounds)
    for part in (warm, traced, plain):
        run.attempted += part.attempted
        run.failed += part.failed
        run.failures += part.failures
    run.digest, run.digest_items = warm.digest, warm.digest_items
    traced.scale_to_refs()
    plain.scale_to_refs()

    ops_plain = [x for x in plain.samples if x["kind"] != "oracle"]
    ops_traced = [x for x in traced.samples if x["kind"] != "oracle"]
    self_ms = tracer.self_ms()
    c = tracer.counts
    m = {f"{name}_ms": self_ms.get(name, 0.0) for name in SPAN_NAMES}
    m.update({name: c.get(name, 0.0) for name in COUNT_NAMES})

    def ratio(num, den):
        return num / den if den else 0.0

    m["witness.offsets_per_cell"] = ratio(c["witness.offsets"], c["witness.verified_cells"])
    m["witness.clause_evals_per_clause"] = ratio(c["witness.clause_evals"], c["witness.distinct_clauses"])
    m["gridperiod.stage_classes_per_cell"] = ratio(
        c["gridperiod.stage_classes"], c["gridperiod.verified_cells"])
    verifies = [(x["area"], x["s_ref"]) for x in ops_plain if x["kind"] == "verify" and x["area"]]
    m["cli.verify_area_exponent"] = _slope(verifies)
    plain_s = sum(x["s_ref"] for x in ops_plain)
    m["trace.overhead_ratio"] = ratio(sum(x["s_ref"] for x in ops_traced), plain_s)

    # How much of the untraced verify time the traced self times account for;
    # each traced operation's self times are scaled as its own time was.
    traced_verify_ms = sum(
        tracer.op_self_ms([i]) * x["s_ref"] / x["s"]
        for i, x in enumerate(ops_traced)
        if x["kind"] == "verify"
    )
    untraced_verify_ms = sum(x["s_ref"] for x in ops_plain if x["kind"] == "verify") * 1e3
    extra = {
        "rounds": rounds,
        "verify_accounted_ratio": ratio(traced_verify_ms, untraced_verify_ms),
        "spans": len(tracer.spans),
        "trace_file": str(trace_path),
    }
    tracer.write(trace_path)
    return m, extra


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before this process started")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    from gridwindows import cli, mincolor

    workdir = Path(args.workdir)
    rng = random.Random(f"{args.workload}/{args.seed}")
    wl = make_workload(args.workload, workdir, rng)
    # The benchmark's own inputs stay out of the collector's way: a CLI user's
    # process holds no such pool, so its garbage collections are short.
    gc.collect()
    gc.freeze()
    setup_s = time.monotonic() - args.spawned_at
    result = {
        "setup_s": setup_s,
        "setup_ref_s": statistics.median(reference_slice() for _ in range(SETUP_REF_SLICES)),
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    target = mincolor if args.workload == "mt-storm" else cli
    run = Run()
    if args.trace:
        layers, extra = trace_metrics(
            wl, target, args.seconds, run, workdir.parent / f"{workdir.name}.spans.jsonl")
        result.update(layers=layers, trace=extra)
    else:
        result["rounds"] = run_rounds(wl, target, run, seconds=args.seconds)
        run.scale_to_refs()
    result.update(
        samples=[x for x in run.samples if x["kind"] != "oracle"],
        refs=run.refs,
        attempted=run.attempted,
        failed=run.failed,
        failures=run.failures,
        digest=run.digest.hexdigest(),
        digest_items=run.digest_items,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
