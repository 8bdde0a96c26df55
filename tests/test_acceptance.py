"""Acceptance checklist, one test per criterion.

Each test prints a single CRITERION line so a plain pytest -v -s run reads as
a checklist. Budgeted criteria assert their wall-clock limits too.

One deliberate red: the a = 0 short-segment subcase of criterion 6 demands a
counterexample that provably cannot exist (with a = 0 every cell of the stack
is a copy center). That assertion is kept exactly as required instead of being
weakened, so one test in this module fails by design and says why.
"""

import json
import random
import time

from gridwindows.geometry import Lattice, Rect, taxicab_norm
from gridwindows.grid import Config, PatternSet, find_occurrences, flip, tile
from gridwindows.mincolor import (
    Certificate,
    Cover,
    DuplicateOdd,
    MtCondition,
    SelfPattern,
    Shift,
    build_generic,
    extend_cover,
    extend_pattern,
    extend_shift,
    is_extension,
    validate,
)
from gridwindows.gridperiod import (
    Cover as GpCover,
    GpCertificate,
    GpCondition,
    LineClear,
    Shift as GpShift,
    build_generic_gp,
    detect_line_period,
    is_extension_gp,
    lattice_demo,
    validate_gp,
    verify_gp_certificate,
    verify_grid_periodicity,
)
from gridwindows.markers import (
    Toast,
    check_fx_strict_growth,
    check_segment_center_cover,
    check_toast,
    copy_centers,
    fx_profile,
)
from gridwindows.serialize import canon_dumps
from gridwindows.witness import (
    OddSet,
    check_pattern_witness,
    check_shift_witness,
    find_odd_recurrence,
    recurrence_check,
    window_two_coloring_check,
)

from oracles import rect_cells


def rand_rows(rng, w, h):
    return ["".join(str(rng.randrange(2)) for _ in range(w)) for _ in range(h)]


def rand_config(rng, w, h, lo=(0, 0)):
    rect = Rect.from_bounds(lo[0], lo[0] + w - 1, lo[1], lo[1] + h - 1)
    return Config.from_rows(rect, rand_rows(rng, w, h))


def checkerboard(a, b, c, d):
    rows = ["".join(str((x + y) % 2) for x in range(a, b + 1)) for y in range(c, d + 1)]
    return Config.from_rows(Rect.from_bounds(a, b, c, d), rows)


def differing_positions(p, t):
    out = []
    for g in p.rect.points():
        h = (g[0] + t[0], g[1] + t[1])
        a, b = p.value(g), p.value(h)
        if a is not None and b is not None and a != b:
            out.append(g)
    return out


def random_mt_condition(rng):
    odd = rng.random() < 0.3
    sides = (1, 3) if odd else (1, 2, 3)
    counts = (1, 3) if odd else (1, 2, 3)
    base = rand_config(rng, rng.choice(sides), rng.choice(sides))
    nx, ny = rng.choice(counts), rng.choice(counts)
    flips = {(i, j): rng.random() < 0.5 for i in range(nx) for j in range(ny)}
    p = tile(base, (nx, ny), lambda i, j: flips[(i, j)], (0, 0))

    dom = list(p.rect.points())
    shifts = []
    for _ in range(rng.randint(0, 3)):
        t = (0, 0)
        while t == (0, 0):
            t = (rng.randint(-3, 3), rng.randint(-3, 3))
        if any(t == s for (s, _) in shifts):
            continue
        cands = differing_positions(p, t)
        if not cands:
            continue
        u = rng.choice(cands)
        T = frozenset((u[0] - g[0], u[1] - g[1]) for g in dom)
        shifts.append((t, T))

    patterns = []
    for _ in range(rng.randint(0, 2)):
        fw = rng.randint(1, min(3, p.rect.width))
        fh = rng.randint(1, min(3, p.rect.height))
        fx = rng.randint(p.rect.lo[0], p.rect.hi[0] - fw + 1)
        fy = rng.randint(p.rect.lo[1], p.rect.hi[1] - fh + 1)
        f = p.restrict(Rect.from_bounds(fx, fx + fw - 1, fy, fy + fh - 1))
        true_occ = sorted(find_occurrences(p, f, False))
        flip_occ = sorted(find_occurrences(p, f, True))
        if not true_occ or not flip_occ:
            continue
        v = rng.choice(true_occ)
        vf = rng.choice(flip_occ)
        F = frozenset((w[0] - g[0], w[1] - g[1]) for g in dom for w in (v, vf))
        patterns.append((f, F))

    return MtCondition(p=p, shifts=tuple(shifts), patterns=tuple(patterns),
                       odd_mode=odd)


def test_criterion_1_random_extension_storm():
    rng = random.Random(20260815)
    start = time.monotonic()
    failures = 0
    for i in range(500):
        cond = random_mt_condition(rng)
        assert validate(cond) == [], f"generator produced an invalid condition at {i}"

        g = (rng.randint(-20, 20), rng.randint(-20, 20))
        t = (0, 0)
        while t == (0, 0):
            t = (rng.randint(-3, 3), rng.randint(-3, 3))

        for out in (extend_cover(cond, g), extend_shift(cond, t),
                    extend_pattern(cond)):
            if validate(out) != [] or not is_extension(out, cond):
                failures += 1
    elapsed = time.monotonic() - start
    assert failures == 0
    assert elapsed <= 60.0, f"criterion 1 overran its budget: {elapsed:.1f}s"
    print(f"ACCEPTANCE CRITERION 1: PASS (500 conditions x 3 extension ops, "
          f"0 failures, {elapsed:.1f}s)")


ALL_24_SHIFTS = sorted(
    (x, y)
    for x in range(-3, 4)
    for y in range(-3, 4)
    if 0 < abs(x) + abs(y) <= 3
)


def test_criterion_2_all_small_shifts_and_patterns():
    assert len(ALL_24_SHIFTS) == 24
    start = time.monotonic()
    seed = MtCondition(p=checkerboard(0, 2, 0, 2), shifts=(), patterns=(),
                       odd_mode=False)
    sched = [Shift(t) for t in ALL_24_SHIFTS] + [SelfPattern(), SelfPattern()]
    cert = build_generic(seed, sched, {"max_side": 4096, "max_steps": 128})
    final = cert.final

    assert validate(final) == []
    recorded = {t for (t, _) in final.shifts}
    assert recorded >= set(ALL_24_SHIFTS)
    for (t, T) in final.shifts:
        assert window_two_coloring_check(final.p, t, T), f"shift {t}"
        assert check_shift_witness(final.p, t, T)
    assert len(final.patterns) >= 2
    for (f, F) in final.patterns:
        assert check_pattern_witness(final.p, f, F, flipped=False)
        assert check_pattern_witness(final.p, f, F, flipped=True)
    elapsed = time.monotonic() - start
    assert elapsed <= 120.0
    print(f"ACCEPTANCE CRITERION 2: PASS (24 shifts + {len(final.patterns)} "
          f"patterns on a {final.p.rect.width}x{final.p.rect.height} window, "
          f"{elapsed:.1f}s)")


def test_criterion_3_odd_duplication_and_recurrence():
    rng = random.Random(33)
    seed_cfg = rand_config(rng, 3, 3)
    seed = MtCondition(p=seed_cfg, shifts=(), patterns=(), odd_mode=True)
    cert = build_generic(seed, [DuplicateOdd(), SelfPattern(), Cover((0, 30))],
                         {"max_side": 512, "max_steps": 32})
    final = cert.final
    assert validate(final) == []

    dup = next(s for s in cert.steps if s["req"]["op"] == "duplicate_odd")
    offset = tuple(dup["offset"])
    assert taxicab_norm(offset) % 2 == 1
    occ = find_occurrences(final.p, seed_cfg, False)
    placements = {tuple(v) for v in dup["placements"]}
    assert placements <= occ
    assert {(p[0] + offset[0], p[1] + offset[1]) for p in placements} - occ == set()

    B = PatternSet((seed_cfg,))
    got = find_odd_recurrence(final.p, B, 15)
    assert got is not None, "no odd recurrence radius up to 15"
    assert isinstance(got, OddSet)
    T = got.points()
    assert all(taxicab_norm(tau) % 2 == 1 for tau in T)
    rep = recurrence_check(final.p, B, set(T))
    assert rep.ok
    assert rep.admissible_count > 0, "recurrence held only vacuously"
    print(f"ACCEPTANCE CRITERION 3: PASS (duplicate offset {offset}, "
          f"odd radius {got.radius}, {rep.admissible_count} positions checked)")


GP_LINES = [("row", 1), ("col", 1), ("row", 2), ("col", 3), ("row", 6),
            ("col", 7), ("row", 11), ("col", 13), ("row", 23), ("col", 29)]


def test_criterion_4_grid_periodicity_route():
    start = time.monotonic()
    seed = GpCondition(n=2, p=Config.from_rows(Rect.from_bounds(0, 1, 0, 1),
                                               ["01", "1."]))
    sched = [GpShift((1, 0)), GpShift((0, 1)), GpShift((1, 1))]
    sched += [LineClear(axis, idx) for (axis, idx) in GP_LINES]
    sched += [GpCover((100, 100))]
    cert = build_generic_gp(seed, sched, {"max_side": 512, "max_steps": 64})
    final = cert.final
    w, h = final.p.rect.width, final.p.rect.height
    assert min(w, h) >= 64
    assert validate_gp(final)
    assert verify_gp_certificate(cert)["ok"]

    # (a) grid periodicity for the final triple and for every recorded stage.
    assert verify_grid_periodicity(final.p, w, h, final.u)
    for st in cert.stages:
        assert verify_grid_periodicity(final.p, st["w"], st["h"], tuple(st["u"]))

    # (b) at least 10 cleared lines with power-of-two periods dividing the side.
    clears = [s for s in cert.steps if s["req"]["op"] == "line_clear"]
    assert len(clears) >= 10
    u = final.u
    for s in clears:
        axis, idx = s["req"]["axis"], s["req"]["index"]
        if axis == "row":
            assert (idx - u[1]) % h != 0
            side = w
        else:
            assert (idx - u[0]) % w != 0
            side = h
        p = detect_line_period(final.p, axis, idx)
        assert p is not None and p >= 1
        assert p & (p - 1) == 0, f"period {p} of {axis} {idx} not a power of 2"
        assert side % p == 0

    # (c) every discriminated shift kept a verified differing pair.
    shifts = [s for s in cert.steps if s["req"]["op"] == "shift"]
    assert shifts
    for s in shifts:
        (g0, g1) = [tuple(x) for x in s["pair"]]
        v0, v1 = final.p.value(g0), final.p.value(g1)
        assert v0 is not None and v1 is not None and v0 != v1
    elapsed = time.monotonic() - start
    assert elapsed <= 120.0
    print(f"ACCEPTANCE CRITERION 4: PASS ({w}x{h} window, {len(clears)} cleared "
          f"lines, {len(shifts)} shifts, {elapsed:.1f}s)")


def test_criterion_5_pattern_lattices():
    rng = random.Random(55)
    for i in range(20):
        fw, fh = rng.randint(1, 3), rng.randint(1, 3)
        f = rand_config(rng, fw, fh)
        window, lat, report = lattice_demo(f)
        assert report["points"] >= 9, (i, report)
        assert report["verified"], (i, report)
        assert report["mismatches"] == []
    print("ACCEPTANCE CRITERION 5: PASS (20 random patterns, lattices of >= 9 "
          "verified occurrences each)")


def test_criterion_6_segment_cover_thresholds():
    start = time.monotonic()
    for a in (0, 1, 2):
        m2 = (2 * a + 1) ** 2
        side = 5 * m2
        win = Rect.from_bounds(0, side - 1, 0, side - 1)
        ok, counter = check_segment_center_cover(a, win, 2 * m2 + 1)
        assert ok and counter is None, f"a={a} must pass at length {2 * m2 + 1}"
        if a > 0:
            ok, counter = check_segment_center_cover(a, win, 2 * a + 1)
            assert not ok and counter is not None, f"a={a} must fail short"
            (x0, y0), length = counter
            centers = copy_centers(a, win)
            assert all((x0 + k, y0) not in centers for k in range(length))
    elapsed = time.monotonic() - start
    assert elapsed <= 30.0
    print(f"ACCEPTANCE CRITERION 6: PASS (thresholds for a in 0..2; short-segment "
          f"counterexamples for a in 1..2; {elapsed:.1f}s)")


def test_criterion_6_zero_case_short_segment():
    """The a = 0 short-segment subcase, kept exactly as required.

    With a = 0 the stack degenerates to a tiling by 1x1 copies: every cell is
    a copy center, so segments of length 1 are always covered and the required
    counterexample cannot exist. The assertion below is therefore expected to
    fail; the failure is the honest, documented outcome (see README).
    """
    win = Rect.from_bounds(0, 4, 0, 4)
    ok, counter = check_segment_center_cover(0, win, 1)
    verdict = "PASS" if not ok else \
        "FAIL (unsatisfiable as stated: every cell is a copy center)"
    print(f"ACCEPTANCE CRITERION 6 (a=0 short-segment subcase): {verdict}")
    assert not ok, (
        "check_segment_center_cover(a=0, seg_len=1) returned True: every cell "
        "is a copy center, so the demanded counterexample cannot exist; the "
        "assertion is kept as stated rather than weakened"
    )


def concentric_toast(levels, half):
    win = Rect.from_bounds(-half, half, -half, half)
    lv = tuple((frozenset(rect_cells(-k, k, -k, k)),) for k in range(levels))
    return Toast(levels=lv, layered=True, window=win)


def test_criterion_7_toast_growth():
    t = concentric_toast(9, 8)
    assert len(t.levels) >= 8
    assert check_toast(t) == []
    assert fx_profile(t, (0, 0)) == list(range(9))
    rep = check_fx_strict_growth(t, [(0, 0)])
    assert rep.ok and rep.failures == ()

    levels = list(t.levels)
    levels[3] = (frozenset(rect_cells(-4, 4, -4, 4)),)
    defective = Toast(levels=tuple(levels), layered=True, window=t.window)
    vs = check_toast(defective)
    assert any(v.clause == "2'" and v.level == 3 for v in vs), \
        "margin-0 defect must be flagged by the strict-nesting clause"
    bad_growth = check_fx_strict_growth(defective, [(0, 0)])
    assert not bad_growth.ok
    print("ACCEPTANCE CRITERION 7: PASS (9-level toast, exact center profile, "
          "margin-0 defect flagged)")


def test_criterion_8_round_trips_and_order_laws():
    rng = random.Random(88)

    # flip is an involution, holes included.
    for _ in range(1000):
        w, h = rng.randint(1, 6), rng.randint(1, 6)
        rows = []
        holes = []
        for y in range(h):
            row = ""
            for x in range(w):
                if rng.random() < 0.1:
                    row += "."
                    holes.append((x, y))
                else:
                    row += str(rng.randrange(2))
            rows.append(row)
        cfg = Config.from_rows(Rect.from_bounds(0, w - 1, 0, h - 1), rows)
        assert flip(flip(cfg)) == cfg

    # Extension order laws along builder chains.
    seed = MtCondition(p=checkerboard(0, 2, 0, 2), shifts=(), patterns=(),
                       odd_mode=False)
    cert = build_generic(seed, [Shift((1, 0)), Cover((7, 5)), SelfPattern(),
                                Shift((0, -2))], {"max_side": 512, "max_steps": 32})
    chain = cert.chain
    for i in range(len(chain)):
        for j in range(i, len(chain)):
            assert is_extension(chain[j], chain[i])

    gp_seed = GpCondition(n=2, p=Config.from_rows(Rect.from_bounds(0, 1, 0, 1),
                                                  ["01", "1."]))
    gp_cert = build_generic_gp(gp_seed, [GpShift((1, 0)), LineClear("row", 0),
                                         GpCover((10, 10))],
                               {"max_side": 256, "max_steps": 32})
    gchain = gp_cert.chain
    for i in range(len(gchain)):
        for j in range(i, len(gchain)):
            assert is_extension_gp(gchain[j], gchain[i])

    # Bit-exact JSON round trips for every serialized type.
    from gridwindows.witness import ColorGrid
    from gridwindows.markers import RectPartition

    samples = [
        (Config, rand_config(rng, 4, 3)),
        (Config, Config.from_rows(Rect.from_bounds(-1, 1, -1, 0), ["0.1", "11."])),
        (PatternSet, PatternSet((rand_config(rng, 2, 2), rand_config(rng, 1, 3)))),
        (MtCondition, cert.final),
        (Certificate, cert),
        (GpCondition, gp_cert.final),
        (GpCertificate, gp_cert),
        (Lattice, Lattice((3, -2), (4, 6))),
        (OddSet, OddSet(5)),
        (Toast, concentric_toast(4, 4)),
        (ColorGrid, ColorGrid(Rect.from_bounds(0, 2, 0, 1), [[0, 1, 2], [2, 0, 1]])),
        (RectPartition, RectPartition(level=1,
                                      rects=(Rect.from_bounds(0, 3, 0, 1),
                                             Rect.from_bounds(0, 3, 2, 3)),
                                      window=Rect.from_bounds(0, 3, 0, 3))),
    ]
    for cls, obj in samples:
        blob = canon_dumps(obj.to_json())
        back = cls.from_json(json.loads(blob))
        assert back == obj, cls.__name__
        assert canon_dumps(back.to_json()) == blob, cls.__name__
    print("ACCEPTANCE CRITERION 8: PASS (1000 flip involutions, order laws on "
          f"{len(chain) + len(gchain)} chain stages, {len(samples)} round-trips)")
