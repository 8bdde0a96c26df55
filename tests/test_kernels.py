"""The mt witness kernels against their reference loops: Box against the
frozenset of its cells, offset sets split into boxes, the summed-area
reach over one plane or two, both pattern polarities in both loop orders,
the windowed two-coloring check and the differing-pair mask, with offsets
far outside the window; and validate against the per-polarity clause
oracles, with witness sets as Boxes and as frozensets."""

import dataclasses
from collections import Counter

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from gridwindows import witness
from gridwindows.geometry import Box, Rect
from gridwindows.grid import HOLE, Config, PatternSet, _match_offsets, flip
from gridwindows.mincolor import (Certificate, MtCondition, extend_cover, extend_pattern,
                                  extend_shift, validate, verify_certificate)
from gridwindows.witness import _boxes, _differs, _reach, window_two_coloring_check

from oracles import (cells_of, naive_occurrences, naive_pattern_ok, naive_reach, naive_shift_ok,
                     naive_window_check, seeded)


def box_cells(box):
    x0, x1, y0, y1 = box
    return {(x, y) for x in range(x0, x1 + 1) for y in range(y0, y1 + 1)}


def rand_rect(rng, max_side, spread=6):
    x, y = rng.randint(-spread, spread), rng.randint(-spread, spread)
    return Rect((x, y), (x + rng.randint(1, max_side) - 1, y + rng.randint(1, max_side) - 1))


def rand_config(rng, rect, hole_prob=0.0):
    bits = np.array(
        [[rng.randrange(2) for _ in range(rect.width)] for _ in range(rect.height)],
        dtype=np.uint8,
    )
    bits[np.array([[rng.random() < hole_prob for _ in range(rect.width)]
                   for _ in range(rect.height)])] = HOLE
    return Config(rect, bits)


# ------------------------------------------------------------------ Box

SMALL = st.integers(-8, 8)
FAR_SHIFTS = st.sampled_from([(0, 0), (10**30, 0), (0, -(10**30)), (-(10**30), 10**30)])


def columns(pts):
    """The x and y columns of a list of (x, y) points."""
    return [x for x, _ in pts], [y for _, y in pts]


def moved(box, c):
    x0, x1, y0, y1 = box.bounds
    return Box(x0 + c[0], x1 + c[0], y0 + c[1], y1 + c[1])


def boxes(lo=-8, hi=8, max_side=5):
    return st.builds(lambda x, y, w, h: Box(x, x + w - 1, y, y + h - 1),
                     st.integers(lo, hi), st.integers(lo, hi),
                     st.integers(1, max_side), st.integers(1, max_side))


def rects(max_side=6):
    return st.builds(lambda x, y, w, h: Rect((x, y), (x + w - 1, y + h - 1)),
                     SMALL, SMALL, st.integers(1, max_side), st.integers(1, max_side))


@given(boxes(), FAR_SHIFTS)
def test_box_is_the_frozenset_of_its_cells(box, c):
    box = moved(box, c)
    x0, x1, y0, y1 = box.bounds
    pts = Rect.from_bounds(x0, x1, y0, y1).points()
    cells = frozenset(pts)
    assert box == cells and cells == box
    assert not (box != cells) and not (cells != box)
    assert hash(box) == hash(cells)
    assert len(box) == len(cells) == box.area
    assert list(box) == pts
    assert all(g in box for g in pts)
    for g in ((x0 - 1, y0), (x1 + 1, y1), (x0, y0 - 1), (x1, y1 + 1), [x0, y0], (x0, y0, 0)):
        assert g not in box
    assert box == Box(x0, x1, y0, y1) and box != Box(x0, x1 + 1, y0, y1)
    assert box != cells - {pts[-1]} and cells | {(x1 + 1, y0)} != box
    assert box & cells == cells and not box - cells and type(box | cells) is frozenset
    assert Box.from_lex(*columns(pts)) == box
    # Lists that are not the box's cells in lex order, some with the same
    # first point, last point and length.
    others = [pts[::-1], pts[1:] + pts[:1], pts[:1] + pts[-2:0:-1] + pts[-1:],
              pts[:1] + [(x1 + 3, y1 + 3)] + pts[2:], pts[:1] + pts[:-1], pts + pts[-1:]]
    for other in others:
        if other != pts:
            assert Box.from_lex(*columns(other)) is None
    # A 10**30-wide bounding box is refused by its area, never listed.
    assert Box.from_lex([x0, x0 + 10**30], [y0, y0]) is None


# ------------------------------------------------------------------ boxes

# Sets near 0, moved near +-10**30 where int64 would overflow, or spread
# over all of these.
NEAR = st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=40)
COORDS = st.sampled_from([0, 10**30, -(10**30)]).flatmap(lambda c: st.integers(c - 6, c + 6))
POINTS = (st.builds(lambda pts, c: [(x + c[0], y + c[1]) for x, y in pts], NEAR, FAR_SHIFTS)
          | st.lists(st.tuples(COORDS, COORDS), max_size=40))


@given(POINTS)
def test_boxes_are_disjoint_and_cover_the_set(pts):
    cells = [box_cells(b) for b in _boxes(pts)]
    union = set().union(*cells)
    assert sum(len(c) for c in cells) == len(union)
    assert union == set(pts)


@given(
    st.integers(-10**30, 10**30),
    st.integers(-10**30, 10**30),
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(0, 5),
)
def test_boxes_full_rectangle_is_one_box(x0, y0, w, h, repeats):
    pts = Rect((x0, y0), (x0 + w - 1, y0 + h - 1)).points()
    box = [(x0, x0 + w - 1, y0, y0 + h - 1)]
    assert _boxes(pts) == box
    assert _boxes(pts[::-1] + pts[:repeats]) == box


def test_boxes_of_a_set_short_of_its_bounding_box():
    # Three entries for a 3-cell bounding box, one a repeat: (0, 1) is
    # missing, so the split is two boxes. A 3 x 3 box short of its middle
    # cell is the rows below and above it and the two cells beside it.
    assert sorted(_boxes([(0, 0), (0, 0), (0, 2)])) == [(0, 0, 0, 0), (0, 0, 2, 2)]
    holed = frozenset(Rect.from_bounds(0, 2, 0, 2).points()) - {(1, 1)}
    assert sorted(_boxes(holed)) == [(0, 0, 1, 1), (0, 2, 0, 0), (0, 2, 2, 2), (2, 2, 1, 1)]


@given(boxes(-4, 4, 6), st.sampled_from([(0, 0), (10**30, -(10**30)), (-(10**30), 10**30),
                                          (10**40, 10**40)]), st.randoms())
def test_boxes_full_box_in_every_form_is_one_tuple(box, c, rnd):
    box = moved(box, c)
    pts = list(box)
    shuffled = pts + rnd.sample(pts, rnd.randint(0, len(pts)))
    rnd.shuffle(shuffled)
    for form in (set(pts), frozenset(pts), shuffled, box):
        assert _boxes(form) == [box.bounds], type(form)


# ------------------------------------------------------------------ reach

FAR = [(10**30, 0), (-(10**18), 3), (2, 10**40), (-(10**25), -(10**25))]


def offset_sets(rng):
    """One offset collection of each kind, around a random box."""
    box = rand_rect(rng, 6, spread=5)
    full = box.points()
    holed = [o for o in full if rng.random() < 0.7]
    scattered = {(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(rng.randint(1, 12))}
    dups = holed + rng.sample(full, min(3, len(full)))
    return {
        "full": frozenset(full),
        "holed": set(holed),
        "scattered": scattered,
        "duplicates": dups,
        "empty": set(),
        "far": list(scattered) + FAR,
        "far-only": FAR,
    }


def test_reach_matches_per_offset_loop():
    rng = seeded(71)
    for _ in range(300):
        target = rand_rect(rng, 7)
        srect = rand_rect(rng, 7)
        density = rng.choice((0.0, 0.1, 0.5, 1.0))
        grid = np.array(
            [[rng.random() < density for _ in range(srect.width)] for _ in range(srect.height)],
            dtype=bool,
        ).reshape(srect.height, srect.width)
        for kind, offsets in offset_sets(rng).items():
            got = _reach(target, srect, grid, _boxes(offsets))
            assert np.array_equal(got, naive_reach(target, srect, grid, offsets)), kind
    target = rand_rect(rng, 4)
    assert not _reach(target, None, None, _boxes({(0, 0)})).any()


def test_reach_far_target_matches_per_offset_loop():
    # A target near c reaches srect through offsets near -c: the kept
    # offsets are far outside int64, but bounded relative to each other.
    rng = seeded(101)
    for _ in range(100):
        srect = rand_rect(rng, 7)
        grid = np.array(
            [[rng.random() < 0.3 for _ in range(srect.width)] for _ in range(srect.height)],
            dtype=bool,
        )
        for c in FAR:
            target = rand_rect(rng, 7).translate(c)
            for kind, offsets in offset_sets(rng).items():
                moved = [(o[0] - c[0], o[1] - c[1]) for o in offsets]
                got = _reach(target, srect, grid, _boxes(moved))
                assert np.array_equal(got, naive_reach(target, srect, grid, moved)), kind


@given(rects(), rects(), st.data(), FAR_SHIFTS, FAR_SHIFTS, st.integers(0, 2**32 - 1))
def test_reach_box_matches_point_set_and_loop(target, srect, data, c, d, seed):
    # A box around the reach range [lx, hx] x [ly, hy], overlapping it
    # partly, wholly or not at all. Target moved by c and the box by -d:
    # with c == d the box keeps its place relative to srect, with c != d it
    # lies far outside the range.
    lx, hx = srect.lo[0] - target.hi[0], srect.hi[0] - target.lo[0]
    ly, hy = srect.lo[1] - target.hi[1], srect.hi[1] - target.lo[1]
    x0, y0 = data.draw(st.integers(lx - 4, hx + 1)), data.draw(st.integers(ly - 4, hy + 1))
    box = Box(x0, x0 + data.draw(st.integers(0, 5)), y0, y0 + data.draw(st.integers(0, 5)))
    grid = np.random.default_rng(seed).random((srect.height, srect.width)) < 0.3
    target, box = target.translate(c), moved(box, (-d[0], -d[1]))
    want = naive_reach(target, srect, grid, list(box))
    assert np.array_equal(_reach(target, srect, grid, _boxes(box)), want)
    assert np.array_equal(_reach(target, srect, grid, _boxes(frozenset(box))), want)


def test_stacked_reach_matches_per_offset_loop_on_each_plane():
    # Two planes over srect share one summed-area table; each plane of the
    # result is the reach of that plane alone, for targets near srect and
    # moved far away with the offsets moved back, and for empty box lists.
    rng = seeded(137)
    for _ in range(150):
        srect = rand_rect(rng, 7)
        stack = np.stack([
            np.array([[rng.random() < density for _ in range(srect.width)]
                      for _ in range(srect.height)], dtype=bool).reshape(srect.height, srect.width)
            for density in (rng.choice((0.0, 0.2, 1.0)), rng.choice((0.0, 0.5)))
        ])
        for c in [(0, 0), rng.choice(FAR)]:
            target = rand_rect(rng, 7).translate(c)
            for kind, offsets in offset_sets(rng).items():
                moved_offsets = [(o[0] - c[0], o[1] - c[1]) for o in offsets]
                got = _reach(target, srect, stack, _boxes(moved_offsets))
                assert got.shape == (2, target.height, target.width), kind
                for plane in (0, 1):
                    want = naive_reach(target, srect, stack[plane], moved_offsets)
                    assert np.array_equal(got[plane], want), (kind, plane)
            assert not _reach(target, srect, stack, []).any()
            assert _reach(target, srect, stack, []).shape == (2, target.height, target.width)
    # One box over all 256 cells of two full 16 x 16 planes: a count that
    # a table of 8-bit sums would read as 0.
    full = np.ones((2, 16, 16), dtype=bool)
    assert _reach(Rect((0, 0), (0, 0)), Rect((0, 0), (15, 15)), full, [(0, 15, 0, 15)]).all()


@given(boxes(-3, 3, 3), FAR_SHIFTS, st.sampled_from([(1, 0), (0, 1), (-1, 2), (2, -1)]),
       st.randoms())
def test_window_check_box_matches_point_set_and_loop(box, c, s, rnd):
    # The oracle runs on the box near the origin; translating T by c keeps
    # the answer (test_window_check_far_translated_witness_set).
    x = rand_config(rnd, rand_rect(rnd, 6), hole_prob=rnd.choice((0.0, 0.1)))
    b, xc = cells_of(x)
    want = naive_window_check(xc, b, s, list(box))
    box = moved(box, c)
    assert window_two_coloring_check(x, s, box) == want
    assert window_two_coloring_check(x, s, frozenset(box)) == want


def test_each_witness_set_is_split_once_per_check(monkeypatch):
    # A set that is not a Box is cut into boxes once per check: the window
    # check takes its bounds and its reach from the same boxes, and the
    # recurrence check shares them between its patterns.
    calls = []

    def counting(offsets):
        calls.append(offsets)
        return _boxes(offsets)

    monkeypatch.setattr(witness, "_boxes", counting)
    rng = seeded(83)
    x = rand_config(rng, Rect.from_bounds(0, 15, 0, 15))
    T = frozenset(Box(-2, 2, -1, 1))
    B = PatternSet((x.restrict(Rect.from_bounds(0, 1, 0, 1)),
                    x.restrict(Rect.from_bounds(3, 5, 2, 3))))
    for check, args in [(witness.window_two_coloring_check, (x, (1, 0), T)),
                        (witness.check_shift_witness, (x, (0, 1), T)),
                        (witness.check_pattern_witness, (x, B.patterns[0], T, True)),
                        (witness.recurrence_check, (x, B, T))]:
        calls.clear()
        check(*args)
        assert len(calls) == 1 and set(calls[0]) == T, check.__name__


# -------------------------------------------------------- pattern offsets


def marked(srect, grid):
    """The offsets a boolean grid over srect marks, as a set of points."""
    if srect is None:
        return set()
    ys, xs = np.nonzero(grid)
    return {(int(x) + srect.lo[0], int(y) + srect.lo[1]) for x, y in zip(xs, ys)}


def planes(srect, grids):
    """The offsets each plane of a ``_match_offsets`` stack marks, plain
    matches first: two empty sets when f cannot fit."""
    if srect is None:
        return set(), set()
    assert grids.shape == (2, srect.height, srect.width)
    return marked(srect, grids[0]), marked(srect, grids[1])


def check_offsets(p, f):
    """Both polarities against the oracle; True when _match_offsets loops
    over f's cells (f has no more cells than there are offsets). The oracle
    scans offsets up to hi(p), so it gets f moved to the origin."""
    pb, pc = cells_of(p)
    dx, dy = f.rect.lo
    _, fc = cells_of(f.translate((-dx, -dy)))
    got = planes(*_match_offsets(p, f))
    for flipped in (False, True):
        want = {(sx - dx, sy - dy) for sx, sy in naive_occurrences(pb, pc, fc, flipped)}
        assert got[flipped] == want
    srect, _occ = _match_offsets(p, f)
    return srect is not None and f.rect.area <= srect.area


def test_match_offsets_small_pattern_loops_over_cells():
    rng = seeded(73)
    by_cells = sum(
        check_offsets(
            rand_config(rng, rand_rect(rng, 8), hole_prob=0.1),
            rand_config(rng, rand_rect(rng, 2)),
        )
        for _ in range(150)
    )
    assert by_cells >= 120


def test_match_offsets_large_pattern_loops_over_offsets():
    rng = seeded(79)
    by_offsets = matched = 0
    for _ in range(150):
        p = rand_config(rng, rand_rect(rng, 8, spread=3), hole_prob=rng.choice((0.0, 0.05)))
        # A sub-window of p at most one row and column short, moved
        # anywhere: it occurs in p unless it holds a hole.
        (a, c), (b, d) = p.rect.lo, p.rect.hi
        sub = Rect.from_bounds(
            a, max(a, b - rng.randint(0, 1)), c, max(c, d - rng.randint(0, 1))
        )
        f = p.restrict(sub)
        if not f.hole_free():
            f = rand_config(rng, sub)
        f = f.translate((rng.randint(-4, 4), rng.randint(-4, 4)))
        by_offsets += not check_offsets(p, f)
        matched += bool(planes(*_match_offsets(p, f))[0])
    assert by_offsets >= 100 and matched >= 50


def test_match_offsets_planes_through_both_loops():
    # Each plane against the oracle for its polarity, on windows with and
    # without holes, through the cell loop and the offset loop; an f wider
    # or taller than p gives (None, None). f is a piece of p, plain or
    # complemented, or random, so both planes mark offsets in both loops.
    rng = seeded(131)
    seen = Counter()
    for _ in range(400):
        p = rand_config(rng, rand_rect(rng, 7, spread=3),
                        hole_prob=rng.choice((0.0, 0.05, 0.2)))
        w, h = rng.randint(1, p.rect.width + 1), rng.randint(1, p.rect.height + 1)
        if w > p.rect.width or h > p.rect.height:
            f = rand_config(rng, Rect((0, 0), (w - 1, h - 1))).translate((rng.randint(-4, 4), 0))
            assert _match_offsets(p, f) == (None, None)
            seen["no fit"] += 1
            continue
        x0 = rng.randint(p.rect.lo[0], p.rect.hi[0] - w + 1)
        y0 = rng.randint(p.rect.lo[1], p.rect.hi[1] - h + 1)
        f = p.restrict(Rect((x0, y0), (x0 + w - 1, y0 + h - 1)))
        if not f.hole_free() or rng.random() < 0.2:
            f = rand_config(rng, f.rect)
        if rng.random() < 0.5:
            f = flip(f)
        f = f.translate((rng.randint(-4, 4), rng.randint(-4, 4)))
        loop = "cells" if check_offsets(p, f) else "offsets"
        plain, complemented = planes(*_match_offsets(p, f))
        holed = not p.hole_free()
        seen[loop, "holes"] += holed
        seen[loop, "plain"] += bool(plain)
        seen[loop, "complemented"] += bool(complemented)
        seen[loop, "both on holes"] += holed and bool(plain) and bool(complemented)
    assert seen["no fit"] >= 20 and seen["cells", "both on holes"] >= 5
    for loop in ("cells", "offsets"):
        for what in ("holes", "plain", "complemented"):
            assert seen[loop, what] >= 5, (loop, what, seen)
    # The offset loop with both polarities next to a hole column, which
    # matches neither: f at offset 0, f complemented at offset 3.
    f = Config.from_rows(Rect.from_bounds(0, 2, 0, 1), ["011", "100"])
    p = Config.from_rows(Rect.from_bounds(0, 6, 0, 1), ["011100.", "100011."])
    assert not check_offsets(p, f)
    assert planes(*_match_offsets(p, f)) == ({(0, 0)}, {(3, 0)})
    # The same copies, each with one cell a hole: under a 1 of f at offset
    # 0 and under a 0 of f at offset 3. Neither polarity matches there.
    p = Config.from_rows(p.rect, ["0.1100.", "1000.1."])
    assert not check_offsets(p, f)
    assert planes(*_match_offsets(p, f)) == (set(), set())


# ------------------------------------------------------- window two-coloring


def test_window_check_shift_at_least_the_side_is_vacuous():
    rng = seeded(83)
    for _ in range(80):
        x = rand_config(rng, rand_rect(rng, 5), hole_prob=0.1)
        w, h = x.rect.width, x.rect.height
        k = rng.randint(0, 2)
        s = rng.choice(((w + k, rng.randint(-2, 2)), (rng.randint(-2, 2), h + k)))
        s = (s[0] * rng.choice((1, -1)), s[1] * rng.choice((1, -1)))
        T = {(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.randint(1, 4))}
        b, xc = cells_of(x)
        assert window_two_coloring_check(x, s, T) is True
        assert naive_window_check(xc, b, s, T) is True


def test_window_check_witness_box_wider_than_window():
    rng = seeded(89)
    seen = set()
    for _ in range(120):
        x = rand_config(rng, rand_rect(rng, 6), hole_prob=rng.choice((0.0, 0.1)))
        w, h = x.rect.width, x.rect.height
        s = (0, 0)
        while s == (0, 0):
            s = (rng.randint(-1, 1), rng.randint(-1, 1))
        T = {(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.randint(1, 4))}
        far = rng.choice(((w + rng.randint(-1, 1), 0), (0, h + rng.randint(-1, 1))))
        T.add(far)
        b, xc = cells_of(x)
        got = window_two_coloring_check(x, s, T)
        assert got == naive_window_check(xc, b, s, T)
        seen.add(got)
    assert seen == {True, False}


def test_window_check_far_translated_witness_set():
    # Translating T by a constant c moves every probe and every admissible
    # position by c, so the check keeps its answer: the oracle runs on T and
    # the library on T + c, with c far outside int64.
    rng = seeded(97)
    seen = set()
    for _ in range(120):
        x = rand_config(rng, rand_rect(rng, 6), hole_prob=rng.choice((0.0, 0.1)))
        s = (0, 0)
        while s == (0, 0):
            s = (rng.randint(-2, 2), rng.randint(-2, 2))
        T = {(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.randint(1, 4))}
        b, xc = cells_of(x)
        want = naive_window_check(xc, b, s, T)
        for c in FAR:
            far = {(t[0] + c[0], t[1] + c[1]) for t in T}
            assert window_two_coloring_check(x, s, far) == want
        seen.add(want)
    assert seen == {True, False}
    x = Config.from_rows(Rect.from_bounds(0, 4, 0, 4), ["01000"] * 5)
    assert window_two_coloring_check(x, (1, 0), {(10**30, 0)}) is False
    assert window_two_coloring_check(x, (1, 0), {(10**30, 0), (10**30 + 1, 0)}) is False


# ------------------------------------------------------- differing pairs


def test_differs_matches_per_cell_loop():
    # Windows with holes and shifts up to past their sides: g is marked
    # exactly when g and g + t are both defined and differ. Pairs of two
    # holes, a hole and a value, and two equal or two different values all
    # occur.
    rng = seeded(149)
    kinds = Counter()
    for _ in range(600):
        p = rand_config(rng, rand_rect(rng, 6), hole_prob=rng.choice((0.0, 0.2, 0.5)))
        t = (rng.randint(-7, 7), rng.randint(-7, 7))
        _, cells = cells_of(p)
        pairs = [(g, (g[0] + t[0], g[1] + t[1])) for g in p.rect.points()
                 if p.rect.contains((g[0] + t[0], g[1] + t[1]))]
        r, mask = _differs(p, t)
        assert (r is None) == (not pairs)
        assert marked(r, mask) == {g for g, h in pairs
                                   if g in cells and h in cells and cells[g] != cells[h]}
        for g, h in pairs:
            if g in cells and h in cells:
                kinds["equal" if cells[g] == cells[h] else "different"] += 1
            else:
                kinds["hole" if g in cells or h in cells else "holes"] += 1
    assert min(kinds[k] for k in ("equal", "different", "hole", "holes")) >= 50, kinds


# ------------------------------------------------------------ validate


def first_failing(rect, ok):
    """Least cell (by x, then y) where a boolean grid over rect is False."""
    bad = [(x, y) for x in range(rect.width) for y in range(rect.height) if not ok[y, x]]
    return (bad[0][0] + rect.lo[0], bad[0][1] + rect.lo[1]) if bad else None


def reference_structure(c):
    """validate's structural violations, in its order: a hole in the window,
    an even side in odd mode, each zero shift, each pattern with a hole."""
    out = []
    if (c.p.array == HOLE).any():
        out.append(("structure", None, None))
    if c.odd_mode and (c.p.rect.width % 2 == 0 or c.p.rect.height % 2 == 0):
        out.append(("structure", None, None))
    out += [("structure", i, None) for i, (t, _T) in enumerate(c.shifts) if t == (0, 0)]
    out += [("structure", j, None) for j, (f, _F) in enumerate(c.patterns)
            if (f.array == HOLE).any()]
    return out


def reference_violations(c):
    """validate's violations: the structural ones alone when there are any,
    else each clause's from the per-polarity oracles: its verdict from
    naive_shift_ok or naive_pattern_ok, and its first failing cell from
    naive_reach over the differing pairs or over the naive_occurrences of
    that polarity."""
    structure = reference_structure(c)
    if structure:
        return structure
    bounds, cells = cells_of(c.p)
    rect = c.p.rect
    out = []
    for i, (t, T) in enumerate(c.shifts):
        differs = np.array([[cells[x, y] != cells.get((x + t[0], y + t[1]), cells[x, y])
                             for x in range(bounds[0], bounds[1] + 1)]
                            for y in range(bounds[2], bounds[3] + 1)], dtype=bool)
        g = first_failing(rect, naive_reach(rect, rect, differs, T))
        assert naive_shift_ok(cells, t, T) == (g is None)
        if g is not None:
            out.append(("a", i, g))
    for j, (f, F) in enumerate(c.patterns):
        _, fc = cells_of(f)
        for clause, flipped in (("b1", False), ("b2", True)):
            occ = naive_occurrences(bounds, cells, fc, flipped)
            # Every offset the oracle scans lies in this rect.
            srect = Rect.from_bounds(bounds[0] - f.rect.hi[0], bounds[1],
                                     bounds[2] - f.rect.hi[1], bounds[3])
            grid = np.zeros((srect.height, srect.width), dtype=bool)
            for sx, sy in occ:
                grid[sy - srect.lo[1], sx - srect.lo[0]] = True
            g = first_failing(rect, naive_reach(rect, srect, grid, F))
            assert naive_pattern_ok(cells, fc, F, flipped) == (g is None)
            if g is not None:
                out.append((clause, j, g))
    return out


def rand_condition(rng):
    """A condition grown by up to three random steps from a window of at
    most 3 x 3 cells, odd mode or not, then maybe broken: some cells of the
    window flipped, or one witness set replaced by a few offsets near 0."""
    odd = rng.random() < 0.3
    sides = (1, 3) if odd else (1, 2, 3)
    rect = Rect.from_bounds(0, rng.choice(sides) - 1, 0, rng.choice(sides) - 1)
    c = MtCondition(rand_config(rng, rect), (), (), odd)
    for _ in range(rng.randint(1, 3)):
        if c.p.rect.area > 40:
            break
        op = rng.choice(("shift", "shift", "pattern", "cover"))
        if op == "shift":
            c = extend_shift(c, rng.choice([(x, y) for x in range(-3, 4) for y in range(-3, 4)
                                            if (x, y) != (0, 0)]))
        elif op == "pattern":
            c = extend_pattern(c)
        else:
            c = extend_cover(c, (c.p.rect.hi[0] + rng.randint(-2, 3),
                                 c.p.rect.lo[1] + rng.randint(-3, 2)))
    kind = rng.choice(("honest", "cells", "cells", "set"))
    if kind == "cells":
        bits = c.p.array.copy()
        for _ in range(rng.randint(1, 3)):
            bits[rng.randrange(bits.shape[0]), rng.randrange(bits.shape[1])] ^= 1
        c = MtCondition(Config(c.p.rect, bits), c.shifts, c.patterns, odd)
    elif kind == "set" and (c.shifts or c.patterns):
        near = frozenset((rng.randint(-4, 4), rng.randint(-4, 4))
                         for _ in range(rng.randint(0, 6)))
        entries = [("shifts", k) for k in range(len(c.shifts))]
        entries += [("patterns", k) for k in range(len(c.patterns))]
        key, k = rng.choice(entries)
        items = list(getattr(c, key))
        items[k] = (items[k][0], near)
        c = dataclasses.replace(c, **{key: tuple(items)})
    return c


def as_frozensets(c, cut):
    """c with each witness set as the frozenset of its cells; with a random
    source ``cut``, about half the sets of more than one cell short of one
    of them."""
    def cells(S):
        S = frozenset(S)
        return S - {cut.choice(sorted(S))} if cut and len(S) > 1 and cut.random() < 0.5 else S

    return dataclasses.replace(c, shifts=tuple((t, cells(T)) for t, T in c.shifts),
                               patterns=tuple((f, cells(F)) for f, F in c.patterns))


def punched(rng, cfg):
    """The window with one random cell made a hole."""
    bits = cfg.array.copy()
    bits[rng.randrange(bits.shape[0]), rng.randrange(bits.shape[1])] = HOLE
    return Config(cfg.rect, bits)


FAULTS = ("zero shift", "holed pattern", "holed window", "even side")


def broken(rng, c, fault):
    """c with one structural fault of FAULTS: a zero shift or a pattern with
    a hole (one of c's, else one inserted), a hole in the window, or an even
    side in odd mode (the window doubled in width when both sides are odd)."""
    if fault == "zero shift":
        shifts = list(c.shifts)
        if shifts and rng.random() < 0.5:
            k = rng.randrange(len(shifts))
            shifts[k] = ((0, 0), shifts[k][1])
        else:
            shifts.insert(rng.randint(0, len(shifts)), ((0, 0), Box(0, 0, 0, 0)))
        return dataclasses.replace(c, shifts=tuple(shifts))
    if fault == "holed pattern":
        patterns = list(c.patterns)
        if patterns and rng.random() < 0.5:
            k = rng.randrange(len(patterns))
            patterns[k] = (punched(rng, patterns[k][0]), patterns[k][1])
        else:
            patterns.insert(rng.randint(0, len(patterns)), (punched(rng, c.p), Box(0, 0, 0, 0)))
        return dataclasses.replace(c, patterns=tuple(patterns))
    if fault == "holed window":
        return dataclasses.replace(c, p=punched(rng, c.p))
    p = c.p
    if p.rect.width % 2 and p.rect.height % 2:
        a, b, cc, d = p.rect.bounds()
        p = Config(Rect.from_bounds(a, 2 * b - a + 1, cc, d), np.hstack([p.array, p.array]))
    return dataclasses.replace(c, p=p, odd_mode=True)


def final_validate(c):
    """verify's "final validate" on a certificate whose seed and final are c."""
    cert = Certificate(seed=c, final=c, steps=[], limits={"max_side": 10**6, "max_steps": 0})
    (ok,) = [ch["ok"] for ch in verify_certificate(cert)["checks"]
             if ch["name"] == "final validate"]
    return ok


def fills_its_bounding_box(S):
    xs, ys = columns(list(S))
    return len(S) == (max(xs) - min(xs) + 1) * (max(ys) - min(ys) + 1)


def validate_differential(form=lambda c: c):
    """validate against reference_violations on 1,000 rand_condition
    conditions, each passed through ``form``, and verify's "final validate"
    against ``validate(c) == []``; the count of each clause, verdict and
    kind of witness set seen (one that fills its bounding box, or another)."""
    rng = seeded(139)
    seen = Counter()
    for _ in range(1000):
        c = form(rand_condition(rng))
        for _key, S in c.shifts + c.patterns:
            seen["full set" if S and fills_its_bounding_box(S) else "other set"] += 1
        got = [(v.clause, v.index, v.g) for v in validate(c)]
        assert got == reference_violations(c), c
        assert final_validate(c) == (got == []), c
        seen.update(clause for clause, _i, _g in got)
        seen["clean"] += not got
        seen["patterns"] += bool(c.patterns)
        failed = {(clause, index) for clause, index, _g in got}
        for j in range(len(c.patterns)):
            seen["b1", ("b2", j) in failed] += ("b1", j) in failed
            seen["b2 alone"] += ("b2", j) in failed and ("b1", j) not in failed
    return seen


def test_validate_matches_per_polarity_oracles():
    seen = validate_differential()
    # Both polarities fail, apart and together, and most conditions hold a pattern.
    assert min(seen["a"], seen["b1"], seen["b2"], seen["clean"]) >= 50, seen
    assert min(seen["b1", True], seen["b1", False], seen["b2 alone"]) >= 20, seen
    assert seen["patterns"] >= 300, seen


def test_validate_and_verify_report_each_structural_fault():
    # The same conditions, each with one structural fault: validate reports
    # the faults alone, and verify's final validate fails with it, through
    # the clause pass they share. A zero shift or a holed pattern made
    # verify raise where validate reported it.
    rng, faults = seeded(157), Counter()

    def form(c):
        fault = rng.choice(FAULTS)
        faults[fault] += 1
        return broken(rng, c, fault)

    seen = validate_differential(form)
    assert seen["clean"] == 0 and seen["structure"] >= 1000, seen
    assert len(faults) == 4 and min(faults.values()) >= 200, faults


def test_validate_matches_per_polarity_oracles_on_frozensets():
    # The same conditions with every witness set a frozenset: full boxes
    # split by their bounds, and sets short of a cell by their row runs.
    full = validate_differential(lambda c: as_frozensets(c, None))
    assert full == validate_differential(), "a Box and its frozenset must validate alike"
    cut = seeded(151)
    seen = validate_differential(lambda c: as_frozensets(c, cut))
    assert min(seen["full set"], seen["other set"]) >= 300, seen
    assert min(seen["a"], seen["b1"], seen["b2"], seen["clean"]) >= 50, seen
