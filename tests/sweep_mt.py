"""The full mt soundness sweep: verify against naive_verify_mt over every
certificate of a small universe. Too slow for the test suite (pytest does
not collect this file); run it by hand:

    python tests/sweep_mt.py [--workers N] [--part one|two|all]

Universe. Every 0/1 window with both sides in 1..3 (682 windows) is a seed
with no shifts, and the final is the same window with shifts installed by
"extend" steps:

- ``one``: one shift, every nonzero t in [-2, 2]² (24) and every
  T ⊆ [-1, 1]² (512): 8,380,416 certificates.
- ``two``: two shifts, every ordered pair of distinct nonzero t1, t2 in
  [-2, 2]² (552) with one T ⊆ [-1, 1]² shared by both (512):
  192,749,568 certificates over all 682 windows, far too many for one
  sitting; so this part takes the windows with both sides in 1..2 (26):
  7,348,224 certificates.

Most T in the universe are not boxes: they are read as frozensets, so the
sweep runs both branches of the witness-set split. It prints the case
count, the accepted count, the time and every disagreement, and exits 1
when there is one."""

import argparse
import sys
import time
from itertools import product
from multiprocessing import get_context
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from gridwindows import mincolor  # noqa: E402
from oracles import naive_verify_mt  # noqa: E402

SHIFTS = [[x, y] for x in range(-2, 3) for y in range(-2, 3) if (x, y) != (0, 0)]
OFFSETS = [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)]
WITNESS_SETS = [[list(o) for i, o in enumerate(OFFSETS) if k >> i & 1]
                for k in range(1 << len(OFFSETS))]


def windows(sides):
    """Every 0/1 window of w x h cells, w and h in sides, as (w, h, rows)."""
    for w, h in product(sides, sides):
        for bits in range(1 << (w * h)):
            cells = f"{bits:0{w * h}b}"
            yield w, h, [cells[j * w : (j + 1) * w] for j in range(h)]


def certificates(w, h, rows, shift_lists):
    """The certificates over one window: each list of shifts in shift_lists
    installed with each witness set, shared by all its shifts."""
    p = {"rect": [0, w - 1, 0, h - 1], "rows": rows, "holes": []}
    seed = {"p": p, "odd": False, "shifts": [], "patterns": []}
    for ts in shift_lists:
        steps = [{"req": {"op": "shift", "t": t}, "mode": "extend"} for t in ts]
        for T in WITNESS_SETS:
            yield {"kind": "mt", "seed": seed,
                   "final": {"p": p, "odd": False, "shifts": [{"t": t, "T": T} for t in ts],
                             "patterns": []},
                   "steps": steps, "limits": {"max_side": 8, "max_steps": 4}}


def sweep_window(job):
    """(cases, accepted, disagreements) over one window's certificates."""
    w, h, rows, shift_lists = job
    count, accepted, disagree = 0, 0, []
    for cert in certificates(w, h, rows, shift_lists):
        want = naive_verify_mt(cert)
        count += 1
        accepted += want
        got = mincolor.verify_certificate(mincolor.Certificate.from_json(cert))["ok"]
        if got != want:
            disagree.append((rows, cert["final"]["shifts"], want, got))
    return count, accepted, disagree


PARTS = {
    "one": ((1, 2, 3), [[t] for t in SHIFTS]),
    "two": ((1, 2), [[a, b] for a in SHIFTS for b in SHIFTS if a != b]),
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--part", choices=[*PARTS, "all"], default="all")
    args = ap.parse_args(argv)
    failed = False
    for name in PARTS if args.part == "all" else [args.part]:
        sides, shift_lists = PARTS[name]
        jobs = [(w, h, rows, shift_lists) for w, h, rows in windows(sides)]
        start = time.perf_counter()
        count, accepted, disagree = 0, 0, []
        with get_context("spawn").Pool(args.workers) as pool:
            for c, a, d in pool.imap_unordered(sweep_window, jobs):
                count, accepted = count + c, accepted + a
                disagree += d
        took = time.perf_counter() - start
        print(f"part {name}: {len(jobs)} windows, {count} cases, {accepted} accepted, "
              f"{len(disagree)} disagreements, {took:.0f} s", flush=True)
        for case in disagree[:20]:
            print("  disagreement:", case, flush=True)
        failed |= bool(disagree)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
