"""Finite-window witness checks.

The checks here quantify over window positions only; probes that would
leave the window make a position inadmissible rather than failing it, and
probes landing on holes never witness anything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Box, Lattice, Rect
from .grid import HOLE, _match_offsets, _slices
from .serialize import at, construct, read_int, read_list, read_object


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
    # 0 ^ 1 is 1 and equal values give 0; a HOLE (255) on either side gives
    # 254 or 255, or 0 against another HOLE, so it never marks a pair.
    return r, (au ^ av) == 1


def _boxes(offsets):
    """Disjoint boxes ``(x0, x1, y0, y1)``, bounds inclusive, whose union is
    the finite offset set: a Box's own bounds; the bounding box of a set
    with as many distinct cells as that box has; else the maximal x-runs of
    each row, each run extending the box of the same run on the row below.
    The input may repeat a point; the boxes never overlap. Python ints
    throughout, so coordinates of any size are exact; work grows with the
    number of points, never with the area of their bounding box."""
    if isinstance(offsets, Box):
        return [offsets.bounds]
    # Distinct cells only: a list with repeats can be as long as its
    # bounding box is large and still miss cells of it.
    cells = offsets if isinstance(offsets, (set, frozenset)) else set(map(tuple, offsets))
    if not cells:
        return []
    xs, ys = zip(*cells)
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    if len(cells) == (x1 - x0 + 1) * (y1 - y0 + 1):
        return [(x0, x1, y0, y1)]
    rows = {}
    for x, y in cells:
        rows.setdefault(y, set()).add(x)
    # below: each run of the last row seen, with the box it ends.
    boxes, below = [], {}
    for y in sorted(rows):
        xs = sorted(rows[y])
        here = {}
        x0 = x1 = xs[0]
        for x in (*xs[1:], None):
            if x == x1 + 1:
                x1 = x
                continue
            box = below.get((x0, x1))
            if box is not None and box[3] == y - 1:
                box[3] = y
            else:
                box = [x0, x1, y, y]
                boxes.append(box)
            here[x0, x1] = box
            x0 = x1 = x
        below = here
    return list(map(tuple, boxes))


def _reach(target, srect, grid, boxes):
    """Boolean grid over target: True at g when some offset o in the union
    of ``boxes`` (from ``_boxes``) has g + o in srect and grid True there;
    a grid with a leading axis of planes gives one such grid per plane.

    One summed-area table of grid, all planes at once, answers each box
    with one O(area) query, so a clause costs O(area) per box, not per
    offset. Only offsets in [lx, hx] x [ly, hy] can reach srect from
    target: each box is clipped to that range in Python ints and taken
    relative to (lx, ly), so every numpy value is bounded by the sides of
    target and srect whatever the coordinates are."""
    shape = np.shape(grid)[:-2] + (target.height, target.width)
    if srect is None or not grid.any():
        return np.zeros(shape, dtype=bool)
    lx, hx = srect.lo[0] - target.hi[0], srect.hi[0] - target.lo[0]
    ly, hy = srect.lo[1] - target.hi[1], srect.hi[1] - target.lo[1]
    sh, sw = grid.shape[-2:]
    dtype = np.int32 if sh * sw < 2**31 else np.int64  # one plane's sums
    sat = np.zeros(grid.shape[:-2] + (sh + 1, sw + 1), dtype=dtype)
    table = sat[..., 1:, 1:]  # summed in place: no temporary of its size
    table[...] = grid
    for axis in (-2, -1):
        np.add.accumulate(table, axis, out=table)
    # Target cell g as an srect array index plus (lx, ly): g - target.hi.
    # Cell g and relative box [x0, x1] x [y0, y1] count the grid cells of
    # g + (lx, ly) + box; mode="clip" clips the box to srect.
    ys = np.arange(1 - target.height, 1)
    xs = np.arange(1 - target.width, 1)
    ok = None  # the first box's hits, with each later box's OR-ed in
    for x0, x1, y0, y1 in boxes:
        x0, x1, y0, y1 = max(x0, lx) - lx, min(x1, hx) - lx, max(y0, ly) - ly, min(y1, hy) - ly
        if x0 > x1 or y0 > y1:
            continue
        rows = sat.take(ys + y1 + 1, -2, mode="clip") - sat.take(ys + y0, -2, mode="clip")
        hit = rows.take(xs + x1 + 1, -1, mode="clip") != rows.take(xs + x0, -1, mode="clip")
        ok = hit if ok is None else np.logical_or(ok, hit, out=ok)
    return np.zeros(shape, dtype=bool) if ok is None else ok


def _shift_ok_grid(p, t, boxes):
    """Boolean grid over p's window: True where some tau in ``boxes`` (the
    ``_boxes`` of T) exhibits a defined, differing pair (g+tau, g+tau+t)."""
    return _reach(p.rect, *_differs(p, t), boxes)


def _pattern_ok_grid(p, f, boxes):
    """The grids of clauses b1 and b2 over p's window, from one occurrence
    pass and one table: True where some sigma in ``boxes`` (the ``_boxes`` of F)
    lands on an occurrence of f, plain in the first and complemented in the second."""
    ok = _reach(p.rect, *_match_offsets(p, f), boxes)
    return ok if ok.ndim == 3 else (ok, ok)  # f too large: one all-False grid


def check_shift_witness(p, t, T):
    """Every defined cell g admits tau in T with g+tau and g+tau+t defined
    in the window and carrying different values."""
    if tuple(t) == (0, 0):
        raise ValueError("shift must be nonzero")
    ok = _shift_ok_grid(p, t, _boxes(T))
    defined = p.array != HOLE
    return bool(ok[defined].all())


def check_pattern_witness(p, f, F, flipped):
    """Every defined cell g admits sigma in F with g+sigma an occurrence
    offset of f in p (complemented when ``flipped``)."""
    ok = _pattern_ok_grid(p, f, _boxes(F))[int(flipped)]
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
    boxes = _boxes(T)
    region = _admissible(x.rect, boxes, [(0, 0, 0, 0), (s[0], s[0], s[1], s[1])])
    return region is None or bool(_reach(region, *_differs(x, s), boxes).all())


def _admissible(rect, boxes, probes):
    """The positions g whose probes g + tau + u stay inside rect for every
    tau in the union of ``boxes`` (from ``_boxes``) and u in the union of
    ``probes``, both nonempty lists of bounds (x0, x1, y0, y1): a Rect, or
    None when there are none. Python ints, so offsets of any size are
    accepted."""
    lo_x, hi_x, lo_y, hi_y = rect.bounds()
    for bounds in (boxes, probes):
        x0s, x1s, y0s, y1s = zip(*bounds)
        lo_x, hi_x, lo_y, hi_y = lo_x - min(x0s), hi_x - max(x1s), lo_y - min(y0s), hi_y - max(y1s)
    return Rect((lo_x, lo_y), (hi_x, hi_y)) if lo_x <= hi_x and lo_y <= hi_y else None


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
    boxes = _boxes(T)
    region = _admissible(rect, boxes, [f.rect.bounds() for f in B.patterns])
    if region is None:
        return RecurrenceReport(True, (), 0, rect.area)
    ok = np.zeros((region.height, region.width), dtype=bool)
    for f in B.patterns:
        srect, occ = _match_offsets(x, f)
        if srect is not None:
            ok |= _reach(region, srect, occ[0], boxes)
    # Failing positions x-major, like region.points().
    xs, ys = np.nonzero(~ok.T)
    failing = tuple((i + region.lo[0], j + region.lo[1]) for i, j in zip(xs.tolist(), ys.tolist()))
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
    def from_json(cls, data, where=""):
        """``where`` is the step set's JSON path, named in errors."""
        return construct(where, cls, read_int(read_object(data, where).get("radius"),
                                              at(where, "radius")))


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
        srect, occ = _match_offsets(x, f)
        inside = srect and srect.intersect(rect)
        if inside:
            fits[_slices(rect, inside)] = True
            occurs[_slices(rect, inside)] |= occ[0][_slices(srect, inside)]
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
    def from_json(cls, data, where=""):
        """``where`` is the grid's JSON path, named in errors."""
        data = read_object(data, where)
        colors = at(where, "colors")
        return construct(where, cls, Rect.from_json(data.get("rect"), at(where, "rect")), tuple(
            tuple(read_int(v, at(at(colors, i), j))
                  for j, v in enumerate(read_list(row, at(colors, i))))
            for i, row in enumerate(read_list(data.get("colors"), colors))))


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
