import json
import random
from collections import Counter

import pytest

from gridwindows import markers
from gridwindows.cli import main
from gridwindows.geometry import Rect
from gridwindows.grid import Config
from gridwindows.markers import (
    RectPartition,
    Toast,
    build_shifted_stack,
    check_fx_strict_growth,
    check_partition_props,
    check_segment_center_cover,
    check_toast,
    copy_centers,
    fx_profile,
    toast_report,
)
from gridwindows.serialize import canon_dumps

from oracles import (
    cells_of,
    naive_check_segment_center_cover,
    naive_check_toast,
    naive_copy_centers,
    naive_fx_profile,
    naive_partition_exact,
    naive_shifted_stack,
    naive_stack_centers,
    rect_cells,
)


def centered_pattern(rng, a):
    m = 2 * a + 1
    rows = ["".join(str(rng.randrange(2)) for _ in range(m)) for _ in range(m)]
    return Config.from_rows(Rect.from_bounds(-a, a, -a, a), rows)


# ---------------------------------------------------------------- shifted stack

def test_stack_requires_centered_square():
    bad = Config.from_rows(Rect.from_bounds(0, 2, 0, 2), ["000"] * 3)
    with pytest.raises(ValueError):
        build_shifted_stack(bad, 10)
    ok = Config.from_rows(Rect.from_bounds(-1, 1, -1, 1), ["000"] * 3)
    with pytest.raises(ValueError):
        build_shifted_stack(ok, 2)      # window too small


def test_stack_single_cell_is_constant():
    p = Config.from_rows(Rect.from_bounds(0, 0, 0, 0), ["1"])
    r = build_shifted_stack(p, 4)
    assert r.rect == Rect.from_bounds(0, 4, 0, 4)
    assert all(r.value(g) == 1 for g in rect_cells(0, 4, 0, 4))


def test_stack_spot_check_a1():
    rng = random.Random(103)
    p = centered_pattern(rng, 1)
    r = build_shifted_stack(p, 8)
    assert r.value((4, 0)) == p.value((0, 0))


def test_stack_matches_placement_oracle():
    rng = random.Random(107)
    for a in (0, 1, 2):
        for _ in range(4):
            p = centered_pattern(rng, a)
            b = (2 * a + 1) * rng.randint(1, 3) + rng.randint(0, 2 * a)
            if b < 2 * a + 1:
                b = 2 * a + 1
            r = build_shifted_stack(p, b)
            _, cells = cells_of(p)
            want = naive_shifted_stack(cells, a, b)
            for g, v in want.items():
                assert r.value(g) == v
            assert r.rect.area == len(want)     # stack fills the whole window


def test_copy_centers_frozen_a1():
    got = copy_centers(1, Rect.from_bounds(0, 8, 0, 8))
    assert got == {(1, 1), (1, 4), (1, 7), (4, 3), (4, 6), (7, 2), (7, 5)}
    assert got == naive_stack_centers(1, (0, 8, 0, 8))


def test_copy_centers_a0_everywhere():
    win = Rect.from_bounds(0, 4, 0, 4)
    assert copy_centers(0, win) == set(win.points())


def test_copy_centers_match_oracle():
    rng = random.Random(109)
    for _ in range(12):
        a = rng.randint(0, 2)
        lo = (rng.randint(-6, 2), rng.randint(-6, 2))
        win = Rect.from_bounds(lo[0], lo[0] + rng.randint(6, 20),
                               lo[1], lo[1] + rng.randint(6, 20))
        got = copy_centers(a, win)
        want = naive_stack_centers(a, (win.lo[0], win.hi[0], win.lo[1], win.hi[1]))
        assert got == want


def test_copy_centers_are_real_copies():
    rng = random.Random(113)
    a = 1
    p = centered_pattern(rng, a)
    b = 12
    r = build_shifted_stack(p, b)
    for (cx, cy) in copy_centers(a, r.rect):
        for (dx, dy) in rect_cells(-a, a, -a, a):
            assert r.value((cx + dx, cy + dy)) == p.value((dx, dy))


def stack_case(rng):
    """A random (a, window, length) for the centre and segment scans."""
    a = rng.randint(0, 5)
    m = 2 * a + 1
    lo = (rng.randint(-30, 5), rng.randint(-30, 5))
    width = rng.randint(1, 2 * m * m + 12)
    height = rng.randint(1, 4 * a + 3 * m + 2)
    win = Rect.from_bounds(lo[0], lo[0] + width - 1, lo[1], lo[1] + height - 1)
    length = rng.choice([1, 2, m, 2 * m * m + 1, rng.randint(-1, width + 2)])
    return a, win, length


def outcome(f, *args):
    try:
        return "ok", f(*args)
    except ValueError as exc:
        return "error", str(exc)


def test_copy_centers_and_segment_cover_match_cell_scans():
    rng = random.Random(127)
    failing = 0
    for _ in range(3000):
        a, win, length = stack_case(rng)
        assert copy_centers(a, win) == naive_copy_centers(a, win)
        got = outcome(check_segment_center_cover, a, win, length)
        assert got == outcome(naive_check_segment_center_cover, a, win, length)
        failing += got[0] == "ok" and not got[1][0]
    assert failing > 300


# The first failing row is found from the gap conditions, not by a scan. With
# fewer admissible rows than m it often lies just past the last one.
def test_segment_cover_few_rows_matches_cell_scan():
    rng = random.Random(131)
    verdicts = Counter()
    for _ in range(1500):
        a = rng.randint(1, 5)
        m = 2 * a + 1
        lo = (rng.randint(-30, 5), rng.randint(-30, 5))
        width = rng.randint(m, 2 * m * m + 2)
        height = 4 * a + rng.randint(1, m - 1)
        win = Rect.from_bounds(lo[0], lo[0] + width - 1, lo[1], lo[1] + height - 1)
        length = rng.randint(1, width)
        got = check_segment_center_cover(a, win, length)
        assert got == naive_check_segment_center_cover(a, win, length)
        verdicts[got[0]] += 1
    assert min(verdicts[True], verdicts[False]) > 300


# ---------------------------------------------------------------- segment cover

def test_segment_cover_a1_frozen():
    win = Rect.from_bounds(0, 44, 0, 44)
    ok, counter = check_segment_center_cover(1, win, 19)
    assert ok and counter is None
    ok, counter = check_segment_center_cover(1, win, 2)
    assert not ok and counter is not None
    (x0, y0), length = counter
    assert length == 2
    centers = copy_centers(1, win)
    assert all((x0 + k, y0) not in centers for k in range(length))


def test_segment_cover_a0_short_segments_still_covered():
    win = Rect.from_bounds(0, 4, 0, 4)
    ok, counter = check_segment_center_cover(0, win, 1)
    assert ok and counter is None


def test_segment_cover_threshold_all_a():
    for a in (0, 1, 2):
        m2 = (2 * a + 1) ** 2
        side = 5 * m2
        win = Rect.from_bounds(0, side - 1, 0, side - 1)
        ok, _ = check_segment_center_cover(a, win, 2 * m2 + 1)
        assert ok, f"a={a}"


def test_segment_cover_window_too_small():
    with pytest.raises(ValueError):
        check_segment_center_cover(1, Rect.from_bounds(0, 5, 0, 5), 19)


# ------------------------------------------------------------------ partitions

def grid_partition(level, block, side):
    rects = []
    for x in range(0, side, block):
        for y in range(0, side, block):
            rects.append(Rect.from_bounds(x, min(x + block - 1, side - 1),
                                          y, min(y + block - 1, side - 1)))
    return RectPartition(level=level, rects=tuple(rects),
                         window=Rect.from_bounds(0, side - 1, 0, side - 1))


def test_partition_validation():
    good = grid_partition(0, 2, 8)
    assert len(good.rects) == 16
    overlapping = RectPartition(
        level=0,
        rects=(Rect.from_bounds(0, 1, 0, 1), Rect.from_bounds(1, 2, 0, 1)),
        window=Rect.from_bounds(0, 2, 0, 1),
    )
    with pytest.raises(ValueError):
        check_partition_props([overlapping], [])


def test_partition_validation_matches_oracle():
    rng = random.Random(53)
    win = Rect.from_bounds(-2, 3, 1, 5)
    verdicts = Counter()
    for _ in range(400):
        rects = []
        for _r in range(rng.randint(0, 5)):
            x0, y0 = rng.randint(-3, 3), rng.randint(0, 5)
            rects.append(Rect.from_bounds(x0, x0 + rng.randint(0, 6), y0, y0 + rng.randint(0, 5)))
        if rng.random() < 0.3:
            # Cut the window in two along a random column, so exact covers occur.
            x = rng.randint(-2, 2)
            rects = [Rect.from_bounds(-2, x, 1, 5), Rect.from_bounds(x + 1, 3, 1, 5)] + rects[:1]
        part = RectPartition(level=0, rects=tuple(rects), window=win)
        try:
            check_partition_props([part], [])
            got = "ok"
        except ValueError as exc:
            got = "leaves" if "leaves the window" in str(exc) else "cover"
        if any(not win.contains_rect(r) for r in rects):
            want = "leaves"
        else:
            want = "ok" if naive_partition_exact(win, rects) else "cover"
        assert got == want, rects
        verdicts[got] += 1
    assert len(verdicts) == 3


def test_partition_props_single_level():
    part = RectPartition(level=0, rects=(Rect.from_bounds(0, 8, 0, 8),),
                         window=Rect.from_bounds(0, 8, 0, 8))
    rep = check_partition_props([part], [(4, 4), (0, 3)])
    assert rep["v"] == [9] and rep["w"] == [9]
    assert rep["phi"][0] == [4]      # center sits 4 away from the ring
    assert rep["phi"][1] == [0]      # boundary probe


def test_partition_props_flags_shrinking_sizes():
    seq = [grid_partition(0, 8, 8), grid_partition(1, 4, 8), grid_partition(2, 2, 8)]
    rep = check_partition_props(seq, [(3, 3)])
    assert rep["v"] == [8, 4, 2]
    assert not rep["v_strictly_increasing"]


def test_partition_props_growing_sizes_but_stuck_probe():
    # Aligned corners: the probe at the shared corner never leaves the
    # boundary, so its profile cannot diverge even though sizes grow.
    seq = [grid_partition(0, 1, 8), grid_partition(1, 2, 8), grid_partition(2, 4, 8)]
    rep = check_partition_props(seq, [(0, 0), (2, 2)])
    assert rep["v_strictly_increasing"]
    assert rep["phi"][0] == [0, 0, 0]
    assert not rep["phi_strictly_increasing"][0]


def test_partition_props_requires_shared_window():
    a = grid_partition(0, 2, 8)
    b = grid_partition(1, 2, 4)
    with pytest.raises(ValueError):
        check_partition_props([a, b], [])


# ----------------------------------------------------------------------- toast

def square_class(k):
    return frozenset(rect_cells(-k, k, -k, k))


def concentric_toast(levels=9, half=8):
    win = Rect.from_bounds(-half, half, -half, half)
    lv = tuple((square_class(k),) for k in range(levels))
    return Toast(levels=lv, layered=True, window=win)


def test_concentric_toast_passes():
    t = concentric_toast()
    assert check_toast(t) == []
    rep = toast_report(t, [])
    assert rep["ok"]
    assert rep["rim_exempt"] == 1     # the outermost square cannot dilate


def test_toast_nesting_violation():
    win = Rect.from_bounds(-8, 8, -8, 8)
    t = Toast(
        levels=((frozenset({(0, 0), (1, 0)}),),
                (frozenset({(1, 0), (2, 0)}),)),
        layered=True,
        window=win,
    )
    clauses = {v.clause for v in check_toast(t)}
    assert "1" in clauses


def test_toast_margin_zero_defect():
    t = concentric_toast()
    levels = list(t.levels)
    levels[3] = (square_class(4),)    # now equal to the level-4 class: margin 0
    bad = Toast(levels=tuple(levels), layered=True, window=t.window)
    vs = check_toast(bad)
    assert any(v.clause == "2'" and v.level == 3 for v in vs)


def test_toast_layered_vs_unlayered():
    win = Rect.from_bounds(-8, 8, -8, 8)
    levels = (
        (frozenset({(0, 0)}),),
        (frozenset({(5, 5)}),),
        (square_class(8),),
    )
    assert check_toast(Toast(levels=levels, layered=False, window=win)) == []
    vs = check_toast(Toast(levels=levels, layered=True, window=win))
    assert any(v.clause == "2'" for v in vs)


def test_toast_cover_violation():
    win = Rect.from_bounds(-8, 8, -8, 8)
    t = Toast(levels=((frozenset({(0, 0)}),),), layered=True, window=win)
    vs = check_toast(t)
    assert any(v.clause == "0" for v in vs)


def test_toast_same_level_disjointness():
    win = Rect.from_bounds(-4, 4, -4, 4)
    t = Toast(
        levels=((frozenset({(0, 0)}), frozenset({(0, 0), (1, 0)})),),
        layered=True,
        window=win,
    )
    vs = check_toast(t)
    assert any(v.clause == "structure" for v in vs)


def test_toast_round_trip():
    t = concentric_toast(levels=4, half=4)
    blob = canon_dumps(t.to_json())
    back = Toast.from_json(json.loads(blob))
    assert back == t
    assert canon_dumps(back.to_json()) == blob


# ------------------------------------------------------------------ fx profiles

def test_fx_profile_center_exact():
    t = concentric_toast()
    assert fx_profile(t, (0, 0)) == list(range(9))


def test_fx_profile_uncovered_levels_are_zero():
    t = concentric_toast()
    prof = fx_profile(t, (6, 0))
    assert prof[0] == 0 and prof[5] == 0      # not covered until level 6
    assert prof[6] == 0                        # sits exactly on the level-6 ring
    assert prof[7] == 1 and prof[8] == 2


def test_fx_strict_growth_concentric():
    t = concentric_toast()
    rep = check_fx_strict_growth(t, [(0, 0), (1, 0), (-2, 2)])
    assert rep.ok
    assert rep.failures == ()


def test_fx_strict_growth_catches_margin_defect():
    t = concentric_toast()
    levels = list(t.levels)
    levels[3] = (square_class(4),)
    bad = Toast(levels=tuple(levels), layered=True, window=t.window)
    rep = check_fx_strict_growth(bad, [(0, 0)])
    assert not rep.ok
    assert any(level == 3 for (_, level) in rep.failures)


def test_fx_strict_growth_uncovered_probe_vacuous():
    t = Toast(levels=((frozenset({(0, 0)}),),), layered=True,
              window=Rect.from_bounds(-2, 2, -2, 2))
    rep = check_fx_strict_growth(t, [(2, 2)])
    assert rep.ok
    assert (2, 2) in rep.uncovered


def test_fx_strict_growth_requires_layered():
    t = concentric_toast()
    unl = Toast(levels=t.levels, layered=False, window=t.window)
    with pytest.raises(ValueError):
        check_fx_strict_growth(unl, [(0, 0)])


# ------------------------------------------------------- checkers vs cell scans

def box_cells(a, b, c, d):
    return frozenset(rect_cells(a, b, c, d))


def nested_levels(rng, box, top):
    """Levels 0..top of boxes nesting inside each other's interiors, with the
    box itself at level ``top``; some boxes split into two children."""
    levels = [[] for _ in range(top + 1)]
    levels[top].append(box_cells(*box))
    a, b, c, d = box
    if top == 0:
        return levels
    a, b = a + rng.randint(0, 2), b - rng.randint(0, 2)
    c, d = c + rng.randint(0, 2), d - rng.randint(0, 2)
    if a > b or c > d:
        return levels
    kids = [(a, b, c, d)]
    if b - a >= 2 and rng.random() < 0.4:
        mid = rng.randint(a, b - 1)
        kids = [(a, mid, c, d), (mid + 1, b, c, d)]
    for kid in kids:
        for n, level in enumerate(nested_levels(rng, kid, top - 1)):
            levels[n].extend(level)
    return levels


SIDE_MOVES = (-1, 0, 0, 0, 0, 0, 0, 0, 0, 1)


def random_toast(rng):
    """A small toast: nested boxes (valid unless a box leaves the window) or
    scattered cells, then a few classes emptied, grown off the window,
    thinned, or overlapped by a copied cell."""
    lo = (rng.randint(-4, 2), rng.randint(-4, 2))
    win = Rect.from_bounds(lo[0], lo[0] + rng.randint(0, 10), lo[1], lo[1] + rng.randint(0, 10))
    a, b, c, d = win.bounds()
    top = rng.randint(0, 3)
    if rng.random() < 0.7:
        box = (a + rng.choice(SIDE_MOVES), b - rng.choice(SIDE_MOVES),
               c + rng.choice(SIDE_MOVES), d - rng.choice(SIDE_MOVES))
        levels = nested_levels(rng, box, top) if box[0] <= box[1] and box[2] <= box[3] else [[]]
    else:
        levels = [
            [frozenset((rng.randint(a - 1, b + 1), rng.randint(c - 1, d + 1))
                       for _ in range(rng.randint(1, 6)))
             for _ in range(rng.randint(0, 4))]
            for _ in range(top + 1)
        ]
    for level in levels:
        for i, cl in enumerate(level):
            roll = rng.random()
            if roll < 0.02:
                level[i] = frozenset()
            elif roll < 0.05:
                level[i] = cl | {(rng.randint(a - 3, b + 3), rng.randint(c - 3, d + 3))}
            elif roll < 0.1 and len(cl) > 1:
                level[i] = cl - {rng.choice(sorted(cl))}
        if level and rng.random() < 0.05:
            donor = rng.choice(level) or {(a, c)}
            level.append(frozenset({rng.choice(sorted(donor))}))
    return Toast(levels=tuple(map(tuple, levels)), layered=rng.random() < 0.5, window=win)


TOASTS = 2000


def test_toast_checkers_match_cell_scans(monkeypatch):
    rng = random.Random(131)
    kinds = {"structure": 0, "0": 0, "1": 0, "2": 0, "2'": 0, "ok": 0}
    for _ in range(TOASTS):
        t = random_toast(rng)
        a, b, c, d = t.window.bounds()
        probes = [(rng.randint(a, b), rng.randint(c, d)) for _ in range(3)]
        probes += [(b + rng.randint(1, 3), rng.randint(c - 3, d + 3)), (a - 1, c - 1)]
        want = naive_check_toast(t)
        assert check_toast(t) == want
        assert [fx_profile(t, g) for g in probes] == [naive_fx_profile(t, g) for g in probes]
        got_report = toast_report(t, probes)
        got_growth = check_fx_strict_growth(t, probes) if t.layered else None
        with monkeypatch.context() as mp:
            mp.setattr(markers, "check_toast", naive_check_toast)
            mp.setattr(markers, "fx_profile", naive_fx_profile)
            assert got_report == toast_report(t, probes)
            if t.layered:
                assert got_growth == check_fx_strict_growth(t, probes)
        for clause in {v.clause for v in want} or {"ok"}:
            kinds[clause] += 1
    # Every clause is reached, and at least a quarter of the toasts are
    # structurally broken.
    assert min(kinds.values()) >= 50 and kinds["structure"] >= TOASTS // 4, kinds


SPOTS = [(-3, -3), (-3, 3), (3, -3), (3, 3)]


def spotted_toast():
    """Four single cells, their 3x3 boxes, then two nested squares."""
    levels = (
        tuple(frozenset({g}) for g in SPOTS),
        tuple(box_cells(x - 1, x + 1, y - 1, y + 1) for (x, y) in SPOTS),
        (box_cells(-5, 5, -5, 5),),
        (box_cells(-8, 8, -8, 8),),
    )
    return Toast(levels=levels, layered=True, window=Rect.from_bounds(-8, 8, -8, 8))


def test_toast_boundary_once_per_class(monkeypatch):
    calls = []
    real = markers.boundary
    monkeypatch.setattr(markers, "boundary", lambda cl: calls.append(cl) or real(cl))
    t = spotted_toast()
    probes = SPOTS + [(0, 0), (1, 4), (8, 8)]
    assert toast_report(t, probes)["ok"]
    for g in probes:
        fx_profile(t, g)
    check_fx_strict_growth(t, probes)
    assert len(calls) <= sum(len(level) for level in t.levels)


def test_toast_run_profiles_each_probe_and_scans_each_class_once(tmp_path, monkeypatch, capsys):
    """A ``gridwin toast`` run profiles each probe once (the ring scan runs
    once per covering level) and tests each class against the rim once."""
    calls = Counter()
    for name in ("fx_profile", "dist_to_set", "_rim_exempt"):
        real = getattr(markers, name)
        monkeypatch.setattr(markers, name,
                            lambda *args, name=name, real=real: calls.update([name]) or real(*args))
    t = spotted_toast()
    probes = SPOTS + [(0, 0), (1, 4), (8, 8), (20, 20)]
    spec = tmp_path / "toast.json"
    spec.write_text(canon_dumps({"toast": t.to_json(), "probes": [list(g) for g in probes]}))
    assert main(["toast", "--spec", str(spec)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and report["growth"]["uncovered"] == [[20, 20]]
    covering = sum(any(g in cl for cl in level) for g in probes for level in t.levels)
    assert calls == {"fx_profile": len(probes), "dist_to_set": covering,
                     "_rim_exempt": sum(len(level) for level in t.levels)}
