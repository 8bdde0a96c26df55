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

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import add, sub

import numpy as np

from .geometry import Box, Rect, dist_to_set
from .grid import boundary, Config
from .serialize import (at, construct, points_json, read_bool, read_int, read_list, read_object,
                        read_points)


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
    x = np.arange(b + 1)
    # copy at column block c is dropped by c mod m rows
    out = p.array[(x[:, None] + x // m) % m, x % m]
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
    def from_json(cls, data, where=""):
        """``where`` is the level's JSON path, named in errors."""
        data = read_object(data, where)
        rects = at(where, "rects")
        return cls(
            level=read_int(data.get("level"), at(where, "level")),
            rects=tuple(Rect.from_json(r, at(rects, j))
                        for j, r in enumerate(read_list(data.get("rects"), rects))),
            window=Rect.from_json(data.get("window"), at(where, "window")),
        )


def _validate_partition(part):
    win = part.window
    for r in part.rects:
        if not win.contains_rect(r):
            raise ValueError(f"rect {r} leaves the window {win}")
    # The indicator of [x0, x1] x [y0, y1] has mixed difference +1 at (x0, y0)
    # and (x1+1, y1+1), -1 at (x1+1, y0) and (x0, y1+1), and that map is
    # injective. So the rects cover the window once iff the rects' + corners
    # with the window's - corners make the same multiset as the rest. An
    # inverted Rect covers nothing and adds no corner.
    signed = [], []
    for flip, r in ((1, win), *((0, r) for r in part.rects)):
        (x0, y0), (x1, y1) = r.lo, (r.hi[0] + 1, r.hi[1] + 1)
        if x0 < x1 and y0 < y1:
            signed[flip].extend(((x0, y0), (x1, y1)))
            signed[1 - flip].extend(((x1, y0), (x0, y1)))
    if Counter(signed[0]) != Counter(signed[1]):
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
    those profiles grow strictly. A level that does not cover the window
    exactly once, or a probe outside it, raises ValueError naming ``levels[i]`` or ``probes[k]``.
    """
    parts = list(parts)
    if parts:
        win = parts[0].window
        for i, part in enumerate(parts):
            if part.window != win:
                raise ValueError("all partition levels must share one window")
            construct(f"levels[{i}]", _validate_partition, part)
    v = [min(min(r.width, r.height) for r in part.rects) for part in parts]
    w = [max(max(r.width, r.height) for r in part.rects) for part in parts]
    phi = []
    for k, g in enumerate(probes):
        where = f"probes[{k}]"
        phi.append([_edge_dist(g, *construct(where, _containing_rect, part, g).bounds())
                    for part in parts])
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

    ``levels[n]`` is a tuple of disjoint classes. A class read as a
    ``geometry.Box`` (``read_points`` reads one box's cells as a Box) stays a
    Box, and the checks read its bounds; any other class is a frozenset of
    cells. In a layered toast a class at level n must nest into a single
    class one level up; unlayered toasts may skip levels.
    """

    levels: tuple
    layered: bool
    window: Rect

    def __post_init__(self):
        # Cells are (x, y) int tuples already (read_points checks JSON ones).
        # Each level lists its classes by least cell, empty classes first.
        norm = tuple(
            tuple(sorted((cl if type(cl) in (Box, frozenset) else frozenset(cl) for cl in level),
                         key=lambda cl: [_least(cl)] if cl else []))
            for level in self.levels
        )
        object.__setattr__(self, "levels", norm)

    @cached_property
    def extents(self):
        """Per level, each class's (x0, x1, y0, y1, taxicab diameter), or
        None for an empty class."""
        return tuple(tuple(map(_extent, level)) for level in self.levels)

    @cached_property
    def interiors(self):
        """Per level, each class minus its boundary ring: for a Box, the Box
        shrunk by one, or an empty frozenset."""
        return tuple(tuple(map(_interior, level)) for level in self.levels)

    @cached_property
    def owners(self):
        """Per level, (map, shared). The map sends each cell to the index of
        its class (the last one, where classes overlap). ``shared`` is None
        when the classes are disjoint, else it holds, per class, the least
        cell the class shares with the classes before it, or None."""
        out = []
        for level in self.levels:
            seen, shared = {}, []
            for i, cl in enumerate(level):
                mine = dict.fromkeys(cl, i)
                shared.append(min(seen.keys() & mine.keys(), default=None))
                seen.update(mine)
            out.append((seen, tuple(shared) if any(shared) else None))
        return tuple(out)

    @cached_property
    def exempt(self):
        """Per level, whether each class is excused from nesting (_rim_exempt)."""
        return tuple(tuple(_rim_exempt(self.window, e) for e in ext) for ext in self.extents)

    def to_json(self):
        return {
            "layered": self.layered,
            "window": self.window.to_json(),
            "levels": [[points_json(cl) for cl in level] for level in self.levels],
        }

    @classmethod
    def from_json(cls, data, where=""):
        """``where`` is the toast's JSON path, named in errors."""
        data = read_object(data, where)
        levels = at(where, "levels")
        return cls(
            levels=tuple(
                tuple(read_points(cl, at(at(levels, n), i))
                      for i, cl in enumerate(read_list(level, at(levels, n))))
                for n, level in enumerate(read_list(data.get("levels"), levels))
            ),
            layered=read_bool(data.get("layered"), at(where, "layered")),
            window=Rect.from_json(data.get("window"), at(where, "window")),
        )


def _least(cl):
    """The least cell of a nonempty class."""
    return (cl.x0, cl.y0) if type(cl) is Box else min(cl)


def _extent(cl):
    if type(cl) is Box:
        x0, x1, y0, y1 = cl.bounds
        return x0, x1, y0, y1, x1 - x0 + y1 - y0
    if not cl:
        return None
    xs, ys = zip(*cl)
    s, d = list(map(add, xs, ys)), list(map(sub, xs, ys))
    return min(xs), max(xs), min(ys), max(ys), max(max(s) - min(s), max(d) - min(d))


def _interior(cl):
    if type(cl) is Box:
        x0, x1, y0, y1 = cl.bounds
        return Box(x0 + 1, x1 - 1, y0 + 1, y1 - 1) if x1 - x0 > 1 and y1 - y0 > 1 else frozenset()
    return cl - boundary(cl)


def _rim_exempt(win, ext):
    # A class that cannot dilate inside the window is excused from nesting.
    if ext is None:
        return False
    a, b, c, d = win.bounds()
    x0, x1, y0, y1, _ = ext
    return not (a < x0 and x1 < b and c < y0 and y1 < d)


def _within(cl, ext, sup):
    """Is the nonempty class cl, of extent ext, a subset of sup? By the
    bounds alone when sup is a Box."""
    if type(sup) is Box:
        x0, x1, y0, y1, _ = ext
        return sup.x0 <= x0 and x1 <= sup.x1 and sup.y0 <= y0 and y1 <= sup.y1
    return sup.issuperset(cl)


def _nests(t, n, cl, ext, g):
    """(clause 1, clause 2/2') for the nonempty class cl of level n, of
    extent ext and least cell g: is it within a class of a level above (the
    next one, when layered), and within the interior of one? cl ⊆ sup puts
    g in sup, so a level offers only the class its cell -> class map sends g
    to, or all of its classes where they overlap."""
    held = False
    top = n + 2 if t.layered else None
    for (seen, shared), level, inner in islice(zip(t.owners, t.levels, t.interiors), n + 1, top):
        i = seen.get(g)
        if i is None:
            continue
        for j in range(len(level)) if shared else (i,):
            if g in inner[j] and _within(cl, ext, inner[j]):
                return True, True
            held = held or (g in level[j] and _within(cl, ext, level[j]))
    return held, False


def check_toast(t):
    """All clause violations of the toast, as ToastViolation records.

    Clauses: "structure" (overlap within a level, empty class, or cells
    outside the window), "0" (a cell far enough from the window rim is in no
    class), "1" (a class has no superclass higher up), and "2'"/"2"
    (layered/unlayered: no superclass containing it strictly inside, away
    from the superclass boundary ring).
    """
    vs = []
    win = t.window
    a, b, c, d = win.bounds()
    margin = 0
    for n, (level, extents, (_seen, shared)) in enumerate(zip(t.levels, t.extents, t.owners)):
        for i, (cl, ext) in enumerate(zip(level, extents)):
            if ext is None:
                vs.append(ToastViolation("structure", n, None))
                continue
            x0, x1, y0, y1, diameter = ext
            margin = max(margin, diameter)
            if not (a <= x0 and x1 <= b and c <= y0 and y1 <= d):
                vs.append(ToastViolation("structure", n, min(g for g in cl if not win.contains(g))))
            if shared and shared[i] is not None:
                vs.append(ToastViolation("structure", n, shared[i]))

    # Cells with rim >= margin, x-major: at most len(covered) + 1 are visited.
    # The ranges are walked lazily, and not at all when no row is left.
    xs, ys = range(a + margin, b - margin + 1), range(c + margin, d - margin + 1)
    if xs and ys:
        covered = set().union(*(seen for (seen, _shared) in t.owners))
        gap = next((g for g in ((x, y) for x in xs for y in ys) if g not in covered), None)
        if gap is not None:
            vs.append(ToastViolation("0", None, gap))

    # Clauses 1 and 2/2': a class excused by the rim is never looked up.
    strict = "2'" if t.layered else "2"
    for n, (level, extents, exempt) in enumerate(zip(t.levels, t.extents, t.exempt)):
        for cl, ext, ex in zip(level, extents, exempt):
            if ext is None or ex:
                continue
            g = _least(cl)
            held, inside = _nests(t, n, cl, ext, g)
            if not held:
                vs.append(ToastViolation("1", n, g))
            if not inside:
                vs.append(ToastViolation(strict, n, g))
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
    the taxicab distance from ``g`` to the union of that level's class rings.
    A path from g out of its class crosses that class's ring first, so in a
    level of disjoint classes the nearest ring cell is on the ring of g's
    own class; a level whose classes overlap takes the union."""
    prof = []
    for level, inner, (seen, shared) in zip(t.levels, t.interiors, t.owners):
        i = seen.get(g)
        if i is None:
            prof.append(0)
        elif shared:
            prof.append(int(dist_to_set(g, [h for cl, ci in zip(level, inner) for h in cl - ci])))
        elif type(level[i]) is Box:
            prof.append(_edge_dist(g, *level[i].bounds))
        else:
            prof.append(int(dist_to_set(g, level[i] - inner[i])))
    return prof


def _edge_dist(g, x0, x1, y0, y1):
    """Taxicab distance from a cell g of [x0, x1] x [y0, y1] to its ring."""
    return min(g[0] - x0, x1 - g[0], g[1] - y0, y1 - g[1])


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
        in_level = [g in seen for (seen, _shared) in t.owners]
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
