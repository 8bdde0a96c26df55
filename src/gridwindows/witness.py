"""Finite-window witness checks.

The checks here quantify over window positions only; probes that would
leave the window make a position inadmissible rather than failing it, and
probes landing on holes never witness anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .geometry import Box, Lattice, Rect
from .grid import HOLE, _match_offsets, _slices


def _differs(p, t):
    """(rect, mask): mask over rect is True at g when g and g+t are both
    defined cells of the window with different values. (None, None) when no
    g has both g and g+t inside the window."""
    rect = p.rect
    r = rect.intersect(rect.translate((-t[0], -t[1])))
    if r is None:
        return None, None
    au = p.array[_slices(rect, r)]
    av = p.array[_slices(rect, r.translate(t))]
    return r, (au != HOLE) & (av != HOLE) & (au != av)


def _boxes(offsets):
    """Disjoint boxes ``(x0, x1, y0, y1)``, bounds inclusive, whose union is
    the finite offset set: runs along x, merged along y. Duplicates are
    allowed. Work and memory grow with the number of points, never with
    the area of their bounding box."""
    pts = np.fromiter(chain.from_iterable(offsets), dtype=np.int64).reshape(-1, 2)
    if not len(pts):
        return []
    (x0, y0), (x1, y1) = pts.min(axis=0).tolist(), pts.max(axis=0).tolist()
    w, area = x1 - x0 + 1, (x1 - x0 + 1) * (y1 - y0 + 1)
    if len(pts) == area:
        # As many points as cells: one box unless some point repeats.
        seen = np.zeros(area, dtype=bool)
        seen[(pts[:, 1] - y0) * w + pts[:, 0] - x0] = True
        if seen.all():
            return [(x0, x1, y0, y1)]
    ys, xs = np.unique(pts[:, ::-1], axis=0).T
    # Runs: maximal x-consecutive stretches within one row.
    new = np.r_[True, (ys[1:] != ys[:-1]) | (xs[1:] != xs[:-1] + 1)]
    runs = np.stack([xs[new], xs[np.r_[new[1:], True]], ys[new]], axis=1)
    # Boxes: runs with the same x-extent on consecutive rows.
    x0, x1, y = runs[np.lexsort(runs.T[::-1])].T
    new = np.r_[True, (x0[1:] != x0[:-1]) | (x1[1:] != x1[:-1]) | (y[1:] != y[:-1] + 1)]
    end = np.r_[new[1:], True]
    return list(zip(x0[new].tolist(), x1[new].tolist(), y[new].tolist(), y[end].tolist()))


def _reach(target, srect, grid, offsets):
    """Boolean grid over target: True at g when some o in offsets has
    g + o in srect and grid True there.

    One summed-area table of grid answers each box of offsets with one
    O(area) query, so a clause costs O(area) per box, not per offset.
    Only offsets in [lx, hx] x [ly, hy] can reach srect from target. A Box
    is clipped to that range in Python ints, without listing its cells; any
    other offset set is filtered point by point and split by ``_boxes``.
    The kept offsets are taken relative to (lx, ly), so every numpy value is
    bounded by the sides of target and srect whatever the coordinates are."""
    ok = np.zeros((target.height, target.width), dtype=bool)
    if srect is None or not grid.any():
        return ok
    lx, hx = srect.lo[0] - target.hi[0], srect.hi[0] - target.lo[0]
    ly, hy = srect.lo[1] - target.hi[1], srect.hi[1] - target.lo[1]
    if isinstance(offsets, Box):
        x0, x1, y0, y1 = offsets.bounds
        x0, x1, y0, y1 = max(x0, lx) - lx, min(x1, hx) - lx, max(y0, ly) - ly, min(y1, hy) - ly
        boxes = [(x0, x1, y0, y1)] if x0 <= x1 and y0 <= y1 else []
    else:
        boxes = _boxes(
            (o[0] - lx, o[1] - ly) for o in offsets if lx <= o[0] <= hx and ly <= o[1] <= hy
        )
    sh, sw = grid.shape
    dtype = np.int32 if grid.size < 2**31 else np.int64
    sat = np.zeros((sh + 1, sw + 1), dtype=dtype)
    sat[1:, 1:] = grid.cumsum(axis=0, dtype=dtype).cumsum(axis=1, dtype=dtype)
    # Target cell g as an srect array index plus (lx, ly): g - target.hi.
    # Cell g and relative box [x0, x1] x [y0, y1] count the grid cells of
    # g + (lx, ly) + box; mode="clip" clips the box to srect.
    ys = np.arange(1 - target.height, 1)
    xs = np.arange(1 - target.width, 1)
    for x0, x1, y0, y1 in boxes:
        rows = sat.take(ys + y1 + 1, 0, mode="clip") - sat.take(ys + y0, 0, mode="clip")
        ok |= rows.take(xs + x1 + 1, 1, mode="clip") != rows.take(xs + x0, 1, mode="clip")
    return ok


def _shift_ok_grid(p, t, T):
    """Boolean grid over p's window: True where some tau in T exhibits a
    defined, differing pair (g+tau, g+tau+t) inside the window."""
    return _reach(p.rect, *_differs(p, t), T)


def _pattern_ok_grid(p, f, F, flipped):
    """Boolean grid over p's window: True where some sigma in F lands on an
    occurrence offset of f (flipped or not)."""
    return _reach(p.rect, *_match_offsets(p, f, flipped), F)


def check_shift_witness(p, t, T):
    """Every defined cell g admits tau in T with g+tau and g+tau+t defined
    in the window and carrying different values."""
    if tuple(t) == (0, 0):
        raise ValueError("shift must be nonzero")
    ok = _shift_ok_grid(p, t, T)
    defined = p.array != HOLE
    return bool(ok[defined].all())


def check_pattern_witness(p, f, F, flipped):
    """Every defined cell g admits sigma in F with g+sigma an occurrence
    offset of f in p (complemented when ``flipped``)."""
    ok = _pattern_ok_grid(p, f, F, flipped)
    defined = p.array != HOLE
    return bool(ok[defined].all())


def window_two_coloring_check(x, s, T):
    """Windowed two-coloring discriminator.

    A position g is admissible when every probe g+tau and g+s+tau (tau in T)
    stays inside the window rectangle. The check passes when every
    admissible position has some tau whose two probes are defined and
    differ. With no admissible positions the check is vacuously true; with
    an empty T it fails whenever any position is admissible.
    """
    if tuple(s) == (0, 0):
        raise ValueError("shift must be nonzero")
    if not T:
        return False
    # g is admissible on [lo - min tau - min(0, s), hi - max tau - max(0, s)]
    # per axis. Python ints, so offsets of any size are accepted.
    rect = x.rect
    if isinstance(T, Box):
        x0, x1, y0, y1 = T.bounds
    else:
        txs, tys = zip(*T)
        x0, x1, y0, y1 = min(txs), max(txs), min(tys), max(tys)
    lo = (rect.lo[0] - x0 - min(0, s[0]), rect.lo[1] - y0 - min(0, s[1]))
    hi = (rect.hi[0] - x1 - max(0, s[0]), rect.hi[1] - y1 - max(0, s[1]))
    if lo[0] > hi[0] or lo[1] > hi[1]:
        return True
    region = Rect(lo, hi)
    return bool(_reach(region, *_differs(x, s), T).all())


@dataclass(frozen=True)
class RecurrenceReport:
    ok: bool
    failing: tuple
    admissible_count: int
    rim_excluded: int

    def __bool__(self):
        return self.ok


def recurrence_check(x, B, T):
    """Check that from every admissible position, some step tau in T lands
    on a B-position (an offset where some pattern of B occurs in x).

    Admissibility again means all probes g+tau+u stay inside the window,
    for every tau in T and cell u of every pattern. ``rim_excluded`` counts
    window positions dropped by that rule."""
    rect = x.rect
    T = [tuple(t) for t in T]
    if not T:
        return RecurrenceReport(False, (), 0, rect.area)
    umin_x = min(f.rect.lo[0] for f in B.patterns)
    umax_x = max(f.rect.hi[0] for f in B.patterns)
    umin_y = min(f.rect.lo[1] for f in B.patterns)
    umax_y = max(f.rect.hi[1] for f in B.patterns)
    ax = rect.lo[0] - umin_x - min(t[0] for t in T)
    bx = rect.hi[0] - umax_x - max(t[0] for t in T)
    ay = rect.lo[1] - umin_y - min(t[1] for t in T)
    by = rect.hi[1] - umax_y - max(t[1] for t in T)
    if ax > bx or ay > by:
        return RecurrenceReport(True, (), 0, rect.area)
    region = Rect((ax, ay), (bx, by))
    ok = np.zeros((region.height, region.width), dtype=bool)
    for f in B.patterns:
        ok |= _reach(region, *_match_offsets(x, f, False), T)
    # Failing positions x-major, like region.points().
    xs, ys = np.nonzero(~ok.T)
    failing = tuple((i + ax, j + ay) for i, j in zip(xs.tolist(), ys.tolist()))
    inside = region.intersect(rect)
    rim = rect.area - (inside.area if inside is not None else 0)
    return RecurrenceReport(not failing, failing, region.area, rim)


@dataclass(frozen=True)
class OddSet:
    """All points of odd taxicab norm at most ``radius``."""

    radius: int

    def __post_init__(self):
        if self.radius < 1:
            raise ValueError("radius must be >= 1")

    def points(self):
        r = self.radius
        return [
            (x, y)
            for x in range(-r, r + 1)
            for y in range(-r, r + 1)
            if abs(x) + abs(y) <= r and (abs(x) + abs(y)) % 2 == 1
        ]

    def to_json(self):
        return {"radius": self.radius}

    @classmethod
    def from_json(cls, data):
        return cls(int(data["radius"]))


def find_odd_recurrence(x, B, max_radius):
    """Smallest radius whose odd step set passes recurrence_check with at
    least one admissible position, or None."""
    for r in range(1, max_radius + 1):
        rep = recurrence_check(x, B, OddSet(r).points())
        if rep.ok and rep.admissible_count > 0:
            return OddSet(r)
    return None


def find_lattice_in(x, B, max_spacing, min_points=9):
    """First lattice (spacings ascending, anchors lexicographic) whose
    testable window points are all B-positions, with at least
    ``min_points`` of them. A point is testable when some pattern's cells
    fit inside the window there."""
    rect = x.rect
    # Window grids: some pattern fits at g, and some pattern occurs at g.
    fits = np.zeros((rect.height, rect.width), dtype=bool)
    occurs = fits.copy()
    for f in B.patterns:
        srect, occ = _match_offsets(x, f, False)
        inside = srect and srect.intersect(rect)
        if inside:
            fits[_slices(rect, inside)] = True
            occurs[_slices(rect, inside)] |= occ[_slices(srect, inside)]
    for w in range(1, max_spacing + 1):
        for h in range(1, max_spacing + 1):
            for i in range(w):
                for j in range(h):
                    # The lattice's window points, anchored at rect.lo + (i, j).
                    testable = fits[j::h, i::w]
                    if testable.sum() >= min_points and (occurs[j::h, i::w] == testable).all():
                        return Lattice((rect.lo[0] + i, rect.lo[1] + j), (w, h))
    return None


@dataclass(frozen=True)
class ColorGrid:
    """Rectangular window of small integer colors, rows listed low-y first."""

    rect: Rect
    colors: tuple

    def __post_init__(self):
        rows = tuple(tuple(int(v) for v in row) for row in self.colors)
        if len(rows) != self.rect.height or any(len(r) != self.rect.width for r in rows):
            raise ValueError("color rows do not match the window size")
        object.__setattr__(self, "colors", rows)

    def color(self, g):
        return self.colors[g[1] - self.rect.lo[1]][g[0] - self.rect.lo[0]]

    def to_json(self):
        return {"rect": self.rect.to_json(), "colors": [list(r) for r in self.colors]}

    @classmethod
    def from_json(cls, data):
        return cls(Rect.from_json(data["rect"]), tuple(tuple(r) for r in data["colors"]))


def chromatic_check(c, k):
    """Proper k-coloring check: colors lie in range and 4-adjacent cells
    always differ."""
    arr = np.asarray(c.colors, dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= k):
        raise ValueError(f"colors out of range for k={k}")
    return _proper(arr)


def _proper(arr):
    """No two 4-adjacent cells of the color array agree."""
    return not ((arr[:, 1:] == arr[:, :-1]).any() or (arr[1:] == arr[:-1]).any())


def largest_two_colored_rect(c):
    """Largest sub-window that is properly colored with at most two colors,
    ranked by (shorter side, area); ties prefer the lowest corner."""
    rect = c.rect
    arr = np.asarray(c.colors, dtype=np.int64)
    best = None
    best_key = None
    for a in range(rect.lo[0], rect.hi[0] + 1):
        for b in range(a, rect.hi[0] + 1):
            for cc in range(rect.lo[1], rect.hi[1] + 1):
                for d in range(cc, rect.hi[1] + 1):
                    sub = arr[_slices(rect, Rect((a, cc), (b, d)))]
                    if len(np.unique(sub)) > 2 or not _proper(sub):
                        continue
                    w, h = b - a + 1, d - cc + 1
                    key = (min(w, h), w * h, (-a, -cc, -b, -d))
                    if best_key is None or key > best_key:
                        best_key = key
                        best = Rect.from_bounds(a, b, cc, d)
    return best
