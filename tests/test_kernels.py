"""The mt witness kernels against their reference loops: Box against the
frozenset of its cells, offset sets split into boxes, the summed-area
reach, pattern offsets in both loop orders and the windowed two-coloring
check, with offsets far outside the window."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from gridwindows.geometry import Box, Rect
from gridwindows.grid import HOLE, Config, _match_offsets
from gridwindows.witness import _boxes, _reach, window_two_coloring_check

from oracles import cells_of, naive_occurrences, naive_reach, naive_window_check, seeded


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
    assert Box.from_lex([list(g) for g in pts]) == box
    # Lists that are not the box's cells in lex order, some with the same
    # first point, last point and length.
    others = [pts[::-1], pts[1:] + pts[:1], pts[:1] + pts[-2:0:-1] + pts[-1:],
              pts[:1] + [(x1 + 3, y1 + 3)] + pts[2:], pts[:1] + pts[:-1], pts + pts[-1:]]
    for other in others:
        if other != pts:
            assert Box.from_lex([list(g) for g in other]) is None
    # A 10**30-wide bounding box is refused by its area, never listed.
    assert Box.from_lex([[x0, y0], [x0 + 10**30, y0]]) is None


# ------------------------------------------------------------------ boxes

POINTS = st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=40)


@given(POINTS)
def test_boxes_are_disjoint_and_cover_the_set(pts):
    cells = [box_cells(b) for b in _boxes(pts)]
    union = set().union(*cells)
    assert sum(len(c) for c in cells) == len(union)
    assert union == set(pts)


@given(
    st.integers(-10**15, 10**15),
    st.integers(-10**15, 10**15),
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(0, 5),
)
def test_boxes_full_rectangle_is_one_box(x0, y0, w, h, repeats):
    pts = Rect((x0, y0), (x0 + w - 1, y0 + h - 1)).points()
    box = [(x0, x0 + w - 1, y0, y0 + h - 1)]
    assert _boxes(pts) == box
    assert _boxes(pts[::-1] + pts[:repeats]) == box


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
            got = _reach(target, srect, grid, offsets)
            assert np.array_equal(got, naive_reach(target, srect, grid, offsets)), kind
    target = rand_rect(rng, 4)
    assert not _reach(target, None, None, {(0, 0)}).any()


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
                got = _reach(target, srect, grid, moved)
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
    assert np.array_equal(_reach(target, srect, grid, box), want)
    assert np.array_equal(_reach(target, srect, grid, frozenset(box)), want)


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


# -------------------------------------------------------- pattern offsets


def marked(srect, grid):
    """The offsets a boolean grid over srect marks, as a set of points."""
    if srect is None:
        return set()
    ys, xs = np.nonzero(grid)
    return {(int(x) + srect.lo[0], int(y) + srect.lo[1]) for x, y in zip(xs, ys)}


def check_offsets(p, f):
    """Both polarities against the oracle; True when _match_offsets loops
    over f's cells (f has no more cells than there are offsets). The oracle
    scans offsets up to hi(p), so it gets f moved to the origin."""
    pb, pc = cells_of(p)
    dx, dy = f.rect.lo
    _, fc = cells_of(f.translate((-dx, -dy)))
    for flipped in (False, True):
        want = {(sx - dx, sy - dy) for sx, sy in naive_occurrences(pb, pc, fc, flipped)}
        assert marked(*_match_offsets(p, f, flipped)) == want
    srect, _occ = _match_offsets(p, f, False)
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
        matched += bool(marked(*_match_offsets(p, f, False)))
    assert by_offsets >= 100 and matched >= 50


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
