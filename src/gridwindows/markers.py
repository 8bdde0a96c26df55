"""Marker constructions on windows: shifted stacks of a centered pattern,
segment cover checks, rectangle partitions and toasts.

The shifted stack places copies of one (2a+1)-square pattern on a column
grid where column block c is dropped by c mod (2a+1) rows. Every cell of
the window belongs to exactly one copy, and the copy centers at a fixed
height sit (2a+1)^2 apart, which drives the segment cover threshold.

A toast is a family of leveled cell classes meant to nest strictly; the
checks here report which nesting clause fails and where.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import Rect, dist_to_set
from .grid import boundary, Config
from .schedule import read_bool, read_int, read_points


# ---------------------------------------------------------------- shifted stack

def build_shifted_stack(p, b):
    """Tile [0,b]^2 with shifted copies of the centered pattern ``p``.

    ``p`` must be hole-free on [-a,a]^2. Copy centers go at x = c*m + a
    (m = 2a+1), and column block c is shifted down by c mod m, so the copies
    partition the plane. Returns the window [0,b]^2 of that tiling.
    """
    a = p.rect.hi[0]
    if p.rect.lo != (-a, -a) or p.rect.hi != (a, a):
        raise ValueError(f"pattern must live on a centered square, got {p.rect}")
    if not p.hole_free():
        raise ValueError("pattern must be hole-free")
    m = 2 * a + 1
    if b < m:
        raise ValueError(f"window bound {b} too small for {m}x{m} copies")
    xs, ys = np.meshgrid(np.arange(b + 1), np.arange(b + 1))
    cols = xs // m
    # copy at column block c is dropped by c mod m rows
    out = p.array[(ys + cols) % m, xs % m]
    return Config._trusted(Rect.from_bounds(0, b, 0, b), out)


def copy_centers(a, win):
    """Centers of stack copies that fit entirely inside ``win``."""
    m = 2 * a + 1
    lo_x, lo_y = win.lo
    hi_x, hi_y = win.hi
    # Column block c holds its centers at x = c*m + a and y = (a - c) mod m.
    return {
        (cx, cy)
        for cx in range(lo_x + a + (-lo_x) % m, hi_x - a + 1, m)
        for cy in range(lo_y + a + (-lo_y - (cx - a) // m) % m, hi_y - a + 1, m)
    }


def check_segment_center_cover(a, win, length):
    """Does every horizontal segment of ``length`` cells, placed anywhere in
    the window at least 2a away from the top and bottom edges, contain a copy
    center?

    Returns (True, None) or (False, ((x0, y0), length)) with a failing
    segment. Raises ValueError when no segment fits at all.
    """
    if a < 0:
        raise ValueError(f"a must be >= 0, got {a}")
    if length < 1:
        raise ValueError(f"segment length must be >= 1, got {length}")
    lo_x, lo_y = win.lo
    hi_x, hi_y = win.hi
    y_first, y_last = lo_y + 2 * a, hi_y - 2 * a
    x_last = hi_x - length + 1
    if x_last < lo_x or y_first > y_last:
        raise ValueError("window holds no admissible segment of this length")
    m = 2 * a + 1
    mm = m * m

    def miss(f):
        """x0 of a segment that misses every center of a row whose first
        center is lo_x + a + f, or None."""
        # Centers are m * m apart, so the edge gaps and the first inner one decide.
        centers = range(lo_x + a + f, hi_x - a + 1, mm)
        for p, q in zip([lo_x - 1, *centers[:1], *centers[-1:]], [*centers[:2], hi_x + 1]):
            if q - p > length:
                return p + 1
        return None

    # Row y holds its first center at lo_x + a + f, f = ((a - y) % m * m - lo_x)
    # % m^2, and row y + 1 has f - m (mod m^2). So the admissible rows take
    # f = s + m * t for t = t0, t0 - 1, ... (mod m), and m rows decide. With
    # span = hi_x - lo_x - 2a, miss(f) changes only where f reaches length - a
    # (the left gap), where (span - f) % m^2 wraps (the number of centers,
    # at f = wrap) and where that reaches length - a (the right gap). Each
    # cut is the least t whose f reaches an edge.
    f0 = ((a - y_first) % m * m - lo_x) % mm
    t0, s = divmod(f0, m)
    rows = min(y_last - y_first + 1, m)
    free, wrap = length - a, (hi_x - lo_x - 2 * a) % mm + 1
    edges = (free, wrap, wrap - free, wrap + mm - free)
    cuts = sorted({0, m, *(-((s - e) // m) for e in edges if 0 < e < mm)})
    # The first row of each failing run [ta, tb) of t.
    firsts = [0 if ta <= t0 < tb else (t0 - tb + 1) % m
              for ta, tb in zip(cuts, cuts[1:]) if miss(s + m * ta) is not None]
    j = min(firsts, default=rows)
    if j < rows:
        return False, ((miss(s + m * ((t0 - j) % m)), y_first + j), length)
    return True, None


# ------------------------------------------------------------------ partitions

@dataclass(frozen=True)
class RectPartition:
    """One level of a partition of ``window`` into rectangles."""

    level: int
    rects: tuple
    window: Rect

    def to_json(self):
        return {
            "level": self.level,
            "rects": [r.to_json() for r in self.rects],
            "window": self.window.to_json(),
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            level=read_int(data["level"], "level"),
            rects=tuple(Rect.from_json(r) for r in data["rects"]),
            window=Rect.from_json(data["window"]),
        )


def _validate_partition(part):
    win = part.window
    for r in part.rects:
        if not win.contains_rect(r):
            raise ValueError(f"rect {r} leaves the window {win}")
    # Paint on the grid cut by the window's and the rects' edges, which is
    # never larger than the window: each of its cells lies wholly inside or
    # outside every rect. at[k] maps an edge coordinate to its grid index.
    at = []
    for k in (0, 1):
        edges = sorted({e for r in (win, *part.rects) for e in (r.lo[k], r.hi[k] + 1)})
        at.append({e: i for i, e in enumerate(edges)})
    paint = np.zeros((len(at[1]) - 1, len(at[0]) - 1), dtype=np.int32)
    for r in part.rects:
        paint[at[1][r.lo[1]] : at[1][r.hi[1] + 1], at[0][r.lo[0]] : at[0][r.hi[0] + 1]] += 1
    if not (paint == 1).all():
        raise ValueError("rects must cover the window exactly once")


def _containing_rect(part, g):
    for r in part.rects:
        if r.contains(g):
            return r
    raise ValueError(f"probe {g} outside the partition window")


def check_partition_props(parts, probes):
    """Per-level size and probe-distance profiles of a partition sequence.

    v[k]/w[k] are the smallest/largest rectangle sides at level k. For each
    probe, phi lists its taxicab distance to the boundary ring of the
    containing rectangle, level by level. The increasing flags say whether
    those profiles grow strictly.
    """
    parts = list(parts)
    if parts:
        win = parts[0].window
        for part in parts:
            if part.window != win:
                raise ValueError("all partition levels must share one window")
            _validate_partition(part)
    v = [min(min(r.width, r.height) for r in part.rects) for part in parts]
    w = [max(max(r.width, r.height) for r in part.rects) for part in parts]
    phi = []
    for g in probes:
        col = []
        for part in parts:
            a, b, c, d = _containing_rect(part, g).bounds()
            col.append(min(g[0] - a, b - g[0], g[1] - c, d - g[1]))
        phi.append(col)
    return {
        "v": v,
        "w": w,
        "phi": phi,
        "v_strictly_increasing": all(y > x for x, y in zip(v, v[1:])),
        "phi_strictly_increasing": [
            all(y > x for x, y in zip(col, col[1:])) for col in phi
        ],
    }


# ----------------------------------------------------------------------- toast

@dataclass(frozen=True)
class ToastViolation:
    clause: str
    level: object
    where: object


@dataclass(frozen=True)
class Toast:
    """Leveled cell classes inside a window.

    ``levels[n]`` is a tuple of disjoint classes (frozensets of cells). In a
    layered toast a class at level n must nest into a single class one level
    up; unlayered toasts may skip levels.
    """

    levels: tuple
    layered: bool
    window: Rect

    def __post_init__(self):
        # Cells are (x, y) int tuples already (read_points checks JSON ones).
        # Each level lists its classes by least cell, empty classes first.
        norm = tuple(
            tuple(sorted(map(frozenset, level), key=lambda cl: [min(cl)] if cl else []))
            for level in self.levels
        )
        object.__setattr__(self, "levels", norm)

    @cached_property
    def interiors(self):
        """Per level, each class minus its boundary ring."""
        return tuple(tuple(cl - boundary(cl) for cl in level) for level in self.levels)

    @cached_property
    def rings(self):
        """Per level, the union of its classes' boundary rings."""
        return tuple(
            frozenset().union(*(cl - i for cl, i in zip(level, inner)))
            for level, inner in zip(self.levels, self.interiors)
        )

    @cached_property
    def exempt(self):
        """Per level, whether each class is excused from nesting (_rim_exempt)."""
        return tuple(tuple(_rim_exempt(self, cl) for cl in level) for level in self.levels)

    def to_json(self):
        return {
            "layered": self.layered,
            "window": self.window.to_json(),
            "levels": [
                [sorted([x, y] for (x, y) in cl) for cl in level]
                for level in self.levels
            ],
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            levels=tuple(
                tuple(read_points(cl, f"levels[{n}][{i}]") for i, cl in enumerate(level))
                for n, level in enumerate(data["levels"])
            ),
            layered=read_bool(data["layered"], "layered"),
            window=Rect.from_json(data["window"]),
        )


def _taxicab_diameter(cl):
    s = [x + y for (x, y) in cl]
    d = [x - y for (x, y) in cl]
    return max(max(s) - min(s), max(d) - min(d))


def _rim_exempt(t, cl):
    # A class that cannot dilate inside the window is excused from nesting.
    a, b, c, d = t.window.bounds()
    return not all(a < x < b and c < y < d for (x, y) in cl)


def check_toast(t):
    """All clause violations of the toast, as ToastViolation records.

    Clauses: "structure" (overlap within a level, empty class, or cells
    outside the window), "0" (a cell far enough from the window rim is in no
    class), "1" (a class has no superclass higher up), and "2'"/"2"
    (layered/unlayered: no superclass containing it strictly inside, away
    from the superclass boundary ring).
    """
    vs = []
    covered = set()
    margin = 0
    for n, level in enumerate(t.levels):
        seen = set()
        for cl in level:
            if not cl:
                vs.append(ToastViolation("structure", n, None))
                continue
            margin = max(margin, _taxicab_diameter(cl))
            outside = [g for g in cl if not t.window.contains(g)]
            if outside:
                vs.append(ToastViolation("structure", n, min(outside)))
            overlap = seen & cl
            if overlap:
                vs.append(ToastViolation("structure", n, min(overlap)))
            seen |= cl
            covered |= cl

    a, b, c, d = t.window.bounds()
    # Cells with rim >= margin, x-major: at most len(covered) + 1 are visited.
    # The ranges are walked lazily, and not at all when no row is left.
    xs, ys = range(a + margin, b - margin + 1), range(c + margin, d - margin + 1)
    cells = ((x, y) for x in xs for y in ys) if ys else ()
    gap = next((g for g in cells if g not in covered), None)
    if gap is not None:
        vs.append(ToastViolation("0", None, gap))

    strict = "2'" if t.layered else "2"
    for n, (level, exempt) in enumerate(zip(t.levels, t.exempt)):
        up = slice(n + 1, n + 2 if t.layered else None)
        above = [sup for lv in t.levels[up] for sup in lv]
        inner = [sup for lv in t.interiors[up] for sup in lv]
        for cl, ex in zip(level, exempt):
            if not cl or ex:
                continue
            if not any(cl <= sup for sup in above):
                vs.append(ToastViolation("1", n, min(cl)))
            if not any(cl <= sup for sup in inner):
                vs.append(ToastViolation(strict, n, min(cl)))
    return vs


def toast_report(t, probes):
    """The toast checker's report: clause violations, rim-exempt classes,
    each (x, y) probe's fx profile and, when layered, their strict growth."""
    vs = check_toast(t)
    profiles = [fx_profile(t, g) for g in probes]
    growth = _fx_growth(t, probes, profiles) if t.layered else None
    return {
        "ok": not vs,
        "violations": [
            {
                "clause": v.clause,
                "level": v.level,
                "where": list(v.where) if isinstance(v.where, tuple) else v.where,
            }
            for v in vs
        ],
        "rim_exempt": sum(map(sum, t.exempt)),
        "levels": len(t.levels),
        "fx": [{"probe": list(g), "profile": prof} for g, prof in zip(probes, profiles)],
        "growth": None if growth is None else {
            "ok": growth.ok,
            "failures": [[list(g), n] for (g, n) in growth.failures],
            "uncovered": [list(g) for g in growth.uncovered],
        },
    }


def fx_profile(t, g):
    """Per level: 0 when the (x, y) tuple ``g`` is in no class there, else
    the taxicab distance from ``g`` to the union of that level's class rings."""
    return [
        int(dist_to_set(g, ring)) if any(g in cl for cl in level) else 0
        for level, ring in zip(t.levels, t.rings)
    ]


@dataclass(frozen=True)
class FxReport:
    ok: bool
    failures: tuple = ()
    uncovered: tuple = ()


def _fx_growth(t, probes, profiles):
    """FxReport of the (x, y) probes, given their fx profiles."""
    failures = []
    uncovered = []
    for g, prof in zip(probes, profiles):
        in_level = [any(g in cl for cl in level) for level in t.levels]
        if not any(in_level):
            uncovered.append(g)
            continue
        k0 = in_level.index(True)
        for n in range(k0, len(prof) - 1):
            if prof[n + 1] <= prof[n]:
                failures.append((g, n))
    return FxReport(ok=not failures, failures=tuple(failures), uncovered=tuple(uncovered))


def check_fx_strict_growth(t, probes):
    """From the first level covering each probe upward, the fx profile must
    grow strictly. Failures record (probe, level) for the lower level of each
    non-increasing step; probes covered nowhere are reported separately."""
    if not t.layered:
        raise ValueError("strict growth is defined for layered toasts only")
    probes = list(map(tuple, probes))
    return _fx_growth(t, probes, [fx_profile(t, g) for g in probes])
