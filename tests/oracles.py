"""Slow, obviously-correct reference routines used to pin expected test values.

Everything here favors readability over speed: dict-of-cells configs, explicit
quantifier loops, no numpy. The library is checked against these on small
random instances, and several frozen constants in the test files were computed
by running these by hand first. The few routines that take library arrays
keep the loops the library used before it vectorized them.
"""

import bisect
import random
from collections import Counter
from types import SimpleNamespace

import numpy as np

from gridwindows.geometry import Rect
from gridwindows.grid import Config
from gridwindows.gridperiod import GpCondition, _is_power
from gridwindows.markers import ToastViolation
from gridwindows.mincolor import MtCondition, _lex_least_differing


def taxicab(g):
    return abs(g[0]) + abs(g[1])


def rect_cells(a, b, c, d):
    """All integer points of [a,b] x [c,d], lexicographic (x, then y)."""
    return [(x, y) for x in range(a, b + 1) for y in range(c, d + 1)]


def naive_dist_to_set(g, pts):
    ds = [abs(g[0] - p[0]) + abs(g[1] - p[1]) for p in pts]
    return min(ds) if ds else float("inf")


def naive_lattice_points(anchor, spacings, bounds):
    a, b, c, d = bounds
    out = []
    for x in range(a, b + 1):
        if (x - anchor[0]) % spacings[0]:
            continue
        for y in range(c, d + 1):
            if (y - anchor[1]) % spacings[1] == 0:
                out.append((x, y))
    return out


def naive_boundary(points):
    pts = set(points)
    out = set()
    for (x, y) in pts:
        for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if nb not in pts:
                out.add((x, y))
                break
    return out


# Cell-dict configs: {point: 0 or 1}; holes are simply absent from the dict,
# with the domain rectangle carried separately when it matters.

def cells_of(cfg):
    """Library Config -> (bounds, dict of defined cells)."""
    r = cfg.rect
    bounds = (r.lo[0], r.hi[0], r.lo[1], r.hi[1])
    cells = {}
    for g in rect_cells(*bounds):
        v = cfg.value(g)
        if v is not None:
            cells[g] = v
    return bounds, cells


def naive_occurrences(p_bounds, p_cells, f_cells, flipped):
    """All offsets s with s + support(f) inside the defined part of p and matching."""
    a, b, c, d = p_bounds
    out = set()
    fpts = list(f_cells.items())
    for sx in range(a - max(u[0] for u, _ in fpts), b + 1):
        for sy in range(c - max(u[1] for u, _ in fpts), d + 1):
            ok = True
            for (ux, uy), v in fpts:
                w = p_cells.get((sx + ux, sy + uy))
                want = 1 - v if flipped else v
                if w != want:
                    ok = False
                    break
            if ok:
                out.add((sx, sy))
    return out


def naive_shift_ok(p_cells, t, T):
    """Clause (a): every g in dom has a witness offset in T."""
    dom = set(p_cells)
    for g in dom:
        found = False
        for tau in T:
            u = (g[0] + tau[0], g[1] + tau[1])
            v = (u[0] + t[0], u[1] + t[1])
            if u in dom and v in dom and p_cells[u] != p_cells[v]:
                found = True
                break
        if not found:
            return False
    return True


def naive_pattern_ok(p_cells, f_rect_cells, F, flipped):
    """Clause (b1)/(b2): every g reaches a (possibly flipped) f-match via F."""
    dom = set(p_cells)
    for g in dom:
        found = False
        for s in F:
            base = (g[0] + s[0], g[1] + s[1])
            ok = True
            for (ux, uy), v in f_rect_cells.items():
                q = (base[0] + ux, base[1] + uy)
                want = 1 - v if flipped else v
                if q not in dom or p_cells[q] != want:
                    ok = False
                    break
            if ok:
                found = True
                break
        if not found:
            return False
    return True


def naive_reach(target, srect, grid, offsets):
    """One slice-OR per offset: the library's witness kernel before it
    queried summed-area tables per box of offsets. target and srect are
    library Rects, grid a boolean array over srect (srect may be None)."""
    ok = np.zeros((target.height, target.width), dtype=bool)
    if srect is None:
        return ok

    def index(rect, sub):
        return (
            slice(sub.lo[1] - rect.lo[1], sub.hi[1] - rect.lo[1] + 1),
            slice(sub.lo[0] - rect.lo[0], sub.hi[0] - rect.lo[0] + 1),
        )

    for o in offsets:
        r = target.intersect(srect.translate((-o[0], -o[1])))
        if r is not None:
            ok[index(target, r)] |= grid[index(srect, r.translate(o))]
    return ok


def naive_window_check(x_cells, bounds, s, T):
    """Two-coloring window check with the stay-in-window edge policy."""
    a, b, c, d = bounds
    inside = lambda g: a <= g[0] <= b and c <= g[1] <= d

    def probes(g):
        for tau in T:
            yield (g[0] + tau[0], g[1] + tau[1])
            yield (g[0] + s[0] + tau[0], g[1] + s[1] + tau[1])

    # Admissible g can sit outside the window; bound the scan generously.
    reach = max((abs(t[0]) + abs(t[1]) for t in T), default=0) + abs(s[0]) + abs(s[1])
    for gx in range(a - reach, b + reach + 1):
        for gy in range(c - reach, d + reach + 1):
            g = (gx, gy)
            if not all(inside(p) for p in probes(g)):
                continue
            hit = False
            for tau in T:
                u = (g[0] + tau[0], g[1] + tau[1])
                v = (u[0] + s[0], u[1] + s[1])
                if u in x_cells and v in x_cells and x_cells[u] != x_cells[v]:
                    hit = True
                    break
            if not hit:
                return False
    return True


def naive_recurrence(x_cells, bounds, pattern_cell_maps, T):
    """(ok, failing g list). B-position = some pattern matches at that offset."""
    a, b, c, d = bounds
    inside = lambda g: a <= g[0] <= b and c <= g[1] <= d

    def is_bpos(v):
        for fc in pattern_cell_maps:
            if all(inside((v[0] + ux, v[1] + uy))
                   and x_cells.get((v[0] + ux, v[1] + uy)) == bit
                   for (ux, uy), bit in fc.items()):
                return True
        return False

    def admissible(g):
        for tau in T:
            for fc in pattern_cell_maps:
                for (ux, uy) in fc:
                    if not inside((g[0] + tau[0] + ux, g[1] + tau[1] + uy)):
                        return False
        return True

    failing = []
    reach = max((abs(t[0]) + abs(t[1]) for t in T), default=0) + 8
    for gx in range(a - reach, b + reach + 1):
        for gy in range(c - reach, d + reach + 1):
            g = (gx, gy)
            if not admissible(g):
                continue
            if not any(is_bpos((g[0] + t0, g[1] + t1)) for (t0, t1) in T):
                failing.append(g)
    return (not failing), failing


def naive_lex_least_differing(p_cells, t):
    """Least defined g (by x, then y) whose translate g+t is defined with
    the other value, or None."""
    found = [
        g for g, v in p_cells.items()
        if p_cells.get((g[0] + t[0], g[1] + t[1]), v) != v
    ]
    return min(found, default=None)


def naive_grid_periodicity(x, w, h, u):
    """One residue class modulo (w, h) at a time: the library's loop before
    it reduced all classes at once. x is a library Config."""
    arr = x.array
    lo = x.rect.lo
    ex = (u[0] % w, u[1] % h)
    for ry in range(h):
        for rx in range(w):
            if (rx, ry) == ex:
                continue
            sub = arr[(ry - lo[1]) % h :: h, (rx - lo[0]) % w :: w]
            vals = sub[sub != REF_HOLE]
            if vals.size > 1 and not (vals == vals[0]).all():
                return False
    return True


def odd_ball(r):
    return [(x, y) for x in range(-r, r + 1) for y in range(-r, r + 1)
            if (abs(x) + abs(y)) % 2 == 1 and abs(x) + abs(y) <= r]


def naive_min_period(seq):
    n = len(seq)
    for p in range(1, n):
        if all(seq[i] == seq[i + p] for i in range(n - p)):
            return p
    return n


def naive_line_period(seq):
    """detect_line_period's loop over the line's array before it ran in
    linear time: O(n * p) for least period p."""
    n = len(seq)
    if n < 2:
        return None
    for p in range(1, n):
        if (seq[: n - p] == seq[p:]).all():
            return p
    return n


def naive_hole_offset(q, counts, toward, lines, skip=()):
    """The block offset gridperiod._grow moves the hole by, from its walk
    over every block offset of the grown window before it chose one axis at
    a time: the lex-greatest offset outside skip whose hole misses every
    line, else the lex-greatest outside skip."""
    u = q.u
    sides = (q.p.rect.width, q.p.rect.height)
    grown = [side * c for side, c in zip(sides, counts)]
    ranges = [(0, c - 1) if b >= 0 else (1 - c, 0) for b, c in zip(toward, counts)]
    (i0, i1), (j0, j1) = ranges
    cands = [(i * sides[0], j * sides[1]) for i in range(i1, i0 - 1, -1)
             for j in range(j1, j0 - 1, -1) if (i * sides[0], j * sides[1]) not in skip]
    axes = {"col": 0, "row": 1}
    lines = [(axes[axis], idx) for axis, idx in lines if axis in axes]
    clean = [t for t in cands if all((idx - u[k] - t[k]) % grown[k] for k, idx in lines)]
    return (clean or cands)[0]


def naive_largest_two_colored(values):
    """values: dict point -> color. Best proper <=2-color sub-rect bounds, or None.

    Ranked by (min side, area); ties resolved toward the lexicographically
    smallest (a, c, b, d) so the answer is deterministic.
    """
    xs = sorted({p[0] for p in values})
    ys = sorted({p[1] for p in values})
    best = None
    best_key = None
    for a in xs:
        for b in xs:
            if b < a:
                continue
            for c in ys:
                for d in ys:
                    if d < c:
                        continue
                    cols = set()
                    proper = True
                    for x in range(a, b + 1):
                        for y in range(c, d + 1):
                            v = values[(x, y)]
                            cols.add(v)
                            if x < b and values[(x + 1, y)] == v:
                                proper = False
                            if y < d and values[(x, y + 1)] == v:
                                proper = False
                    if not proper or len(cols) > 2:
                        continue
                    w, h = b - a + 1, d - c + 1
                    key = (min(w, h), w * h, (-a, -c, -b, -d))
                    if best_key is None or key > best_key:
                        best, best_key = (a, b, c, d), key
    return best


def naive_shifted_stack(p_cells, a, b):
    """Place copies column-block by column-block, column c shifted down by c mod m.

    Returns {point: bit} on [0,b]^2. Independent of any index formula: it
    literally stamps translated copies of p.
    """
    m = 2 * a + 1
    out = {}
    ncols = b // m + 2
    for c in range(ncols):
        cx = c * m + a
        # Unshifted tiling has centers at y = a + k*m; column c drops by c mod m.
        for k in range(-2, b // m + 2):
            cy = a + k * m - (c % m)
            for (dx, dy), v in p_cells.items():
                x, y = cx + dx, cy + dy
                if 0 <= x <= b and 0 <= y <= b:
                    out[(x, y)] = v
    return out


def naive_stack_centers(a, bounds):
    """Centers of full copies inside bounds, from the same placement process."""
    lo_x, hi_x, lo_y, hi_y = bounds
    m = 2 * a + 1
    out = set()
    for c in range(lo_x // m - 2, hi_x // m + 3):
        cx = c * m + a
        for k in range((lo_y - hi_y) // m - 3, hi_y // m + 3):
            cy = a + k * m - (c % m)
            if lo_x <= cx - a and cx + a <= hi_x and lo_y <= cy - a and cy + a <= hi_y:
                out.add((cx, cy))
    return out


def rand_cells(rng, a, b, c, d, hole_prob=0.0):
    cells = {}
    holes = set()
    for g in rect_cells(a, b, c, d):
        if hole_prob and rng.random() < hole_prob:
            holes.add(g)
        else:
            cells[g] = rng.randrange(2)
    return cells, holes


def seeded(seed):
    return random.Random(seed)


# Per-cell reference codec: the row, window-PGM and PGM loops the library
# used before its lookup-table codecs, kept here to pin their output. Cell
# values are 0, 1 and 255 (hole); images are lists of rows of ints.

REF_HOLE = 255
_REF_CHAR_TO_BIT = {"0": 0, "1": 1, ".": REF_HOLE}
_REF_BIT_TO_CHAR = {0: "0", 1: "1", REF_HOLE: "."}


def ref_from_rows(width, height, rows):
    """Rows low-y first -> list of rows of cell values."""
    if len(rows) != height:
        raise ValueError(f"expected {height} rows, got {len(rows)}")
    data = [[0] * width for _ in range(height)]
    for j, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"row {j} has length {len(row)}, expected {width}")
        for i, ch in enumerate(row):
            if ch not in _REF_CHAR_TO_BIT:
                raise ValueError(f"bad cell character {ch!r}")
            data[j][i] = _REF_CHAR_TO_BIT[ch]
    return data


def ref_rows(bits):
    return ["".join(_REF_BIT_TO_CHAR[int(v)] for v in bits[j]) for j in range(len(bits))]


def ref_pgm_dumps(rows, maxval):
    if not rows:
        raise ValueError("empty image")
    width = len(rows[0])
    lines = ["P2", f"{width} {len(rows)}", str(maxval)]
    for row in rows:
        if len(row) != width:
            raise ValueError("ragged image rows")
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def parse_pgm(data):
    """The sample rows, top line first, of a plain PGM file's bytes. Raises
    ValueError unless the file is the magic ``P2``, a positive width and
    height, a maxval in 1..65535 and exactly width * height decimal samples,
    each at most maxval, all separated by whitespace (comments are not
    read)."""
    tokens = data.split()
    if not data.startswith(b"P2") or tokens[:1] != [b"P2"]:
        raise ValueError("magic is not P2")
    if len(tokens) < 4 or not all(tok.isdigit() for tok in tokens[1:]):
        raise ValueError("header and samples must be decimal integers")
    width, height, maxval, *samples = map(int, tokens[1:])
    if width < 1 or height < 1:
        raise ValueError(f"image is {width} x {height}")
    if not 1 <= maxval <= 65535:
        raise ValueError(f"maxval {maxval} is outside 1..65535")
    if len(samples) != width * height:
        raise ValueError(f"{len(samples)} samples for a {width} x {height} image")
    if max(samples) > maxval:
        raise ValueError(f"sample {max(samples)} exceeds maxval {maxval}")
    return [samples[i : i + width] for i in range(0, len(samples), width)]


def ref_to_pgm(bits):
    """Window PGM: top line = highest-y row; 0/1 -> 0/2, holes -> 1."""
    rows = []
    for j in range(len(bits) - 1, -1, -1):
        rows.append([1 if v == REF_HOLE else 2 * int(v) for v in bits[j]])
    return ref_pgm_dumps(rows, 2)


# The tiling before it was one numpy expression: one slice write per copy,
# asking flip_mask copy by copy, row j by row j.

def naive_tile(q, counts, flip_mask, anchor):
    nx, ny = counts
    if nx < 1 or ny < 1:
        raise ValueError(f"tile counts must be >= 1, got {counts}")
    if not q.hole_free():
        raise ValueError("cannot tile a window with holes")
    w, h = q.rect.width, q.rect.height
    qa = q.array
    out = np.empty((ny * h, nx * w), dtype=np.uint8)
    for j in range(ny):
        for i in range(nx):
            out[j * h : (j + 1) * h, i * w : (i + 1) * w] = qa ^ 1 if flip_mask(i, j) else qa
    return Config(Rect(anchor, (anchor[0] + nx * w - 1, anchor[1] + ny * h - 1)), out)


# The builder's shift step before it tiled toward t directly: a negative
# shift mirrors the window, tiles it toward +|t|, mirrors it back and
# reflects the witness box one point at a time.

def _mirror_config(cfg, fx, fy, about=None):
    """Mirror a window along the chosen axes, about the center of ``about``
    (default: its own center, which keeps the rect in place)."""
    if not fx and not fy:
        return cfg
    arr = cfg.array
    if fx:
        arr = arr[:, ::-1]
    if fy:
        arr = arr[::-1, :]
    base = cfg.rect if about is None else about
    sx = base.lo[0] + base.hi[0]
    sy = base.lo[1] + base.hi[1]
    r = cfg.rect
    lo = (sx - r.hi[0] if fx else r.lo[0], sy - r.hi[1] if fy else r.lo[1])
    hi = (sx - r.lo[0] if fx else r.hi[0], sy - r.lo[1] if fy else r.hi[1])
    return Config(Rect(lo, hi), arr)


def mirror_extend_shift(c, t):
    t = (int(t[0]), int(t[1]))
    if t == (0, 0):
        raise ValueError("shift must be nonzero")
    for (s, _T) in c.shifts:
        if s == t:
            return c
    u = _lex_least_differing(c.p, t)
    if u is not None:
        T = frozenset((u[0] - gx, u[1] - gy) for (gx, gy) in c.p.rect.points())
        return MtCondition(c.p, c.shifts + ((t, T),), c.patterns, c.odd_mode)
    fx, fy = t[0] < 0, t[1] < 0
    q = _mirror_config(c.p, fx, fy)
    tt = (abs(t[0]), abs(t[1]))
    a, b, cc, d = q.rect.bounds()
    w, h = q.rect.width, q.rect.height
    i0 = (w - 1 + tt[0]) // w
    j0 = (h - 1 + tt[1]) // h
    if c.odd_mode:
        i0 += i0 % 2
        j0 += j0 % 2
    bi = (b + tt[0] - a) // w
    bj = (d + tt[1] - cc) // h
    grown = naive_tile(q, (i0 + 1, j0 + 1), lambda i, j: False, (a, cc))
    if grown.value((b, d)) == grown.value((b + tt[0], d + tt[1])):
        grown = naive_tile(q, (i0 + 1, j0 + 1), lambda i, j: (i, j) == (bi, bj), (a, cc))
    T = frozenset(Rect.from_bounds(-i0 * w, b - a, -j0 * h, d - cc).points())
    newp = _mirror_config(grown, fx, fy, about=c.p.rect)
    T = frozenset(((-x if fx else x), (-y if fy else y)) for (x, y) in T)
    return MtCondition(newp, c.shifts + ((t, T),), c.patterns, c.odd_mode)


# The gp tile step before it went whole-array: the block offsets and the
# displaced hole slots as sets, and one write per block.

def naive_extend_tile_gp(q, ranges, t_star, hole_fills=None):
    (i0, i1), (j0, j1) = ranges
    if i0 > 0 or i1 < 0 or j0 > 0 or j1 < 0:
        raise ValueError("tile ranges must include block 0")
    w, h = q.p.rect.width, q.p.rect.height
    if not _is_power(i1 - i0 + 1, q.n) or not _is_power(j1 - j0 + 1, q.n):
        raise ValueError("block counts must be powers of the base")
    offsets = {(i * w, j * h) for i in range(i0, i1 + 1) for j in range(j0, j1 + 1)}
    t_star = (int(t_star[0]), int(t_star[1]))
    if t_star not in offsets:
        raise ValueError("new hole must land on a tiled block")
    u = q.u
    fills = {}
    if hole_fills:
        fills = {(int(k[0]), int(k[1])): int(v) for k, v in hole_fills.items()}
    new_hole = (u[0] + t_star[0], u[1] + t_star[1])
    slots = {(u[0] + tx, u[1] + ty) for (tx, ty) in offsets}
    for k, v in fills.items():
        if k not in slots or k == new_hole:
            raise ValueError(f"fill at {k} is not a displaced hole slot")
        if v not in (0, 1):
            raise ValueError(f"fill value {v} is not a bit")
    a, _b, cc, _d = q.p.rect.bounds()
    lo = (a + i0 * w, cc + j0 * h)
    out = np.tile(q.p.array, (j1 - j0 + 1, i1 - i0 + 1))
    for (tx, ty) in offsets:
        pos = (u[0] + tx, u[1] + ty)
        row, col = pos[1] - lo[1], pos[0] - lo[0]
        out[row, col] = REF_HOLE if (tx, ty) == t_star else fills.get(pos, 0)
    rect = Rect(lo, (lo[0] + (i1 - i0 + 1) * w - 1, lo[1] + (j1 - j0 + 1) * h - 1))
    return GpCondition(q.n, Config(rect, out))


# The marker checkers before each toast class's interior was computed once:
# the ring of every superclass rebuilt per pair, every window cell scanned
# for clause 0, and the centre and segment scans cell by cell.

def naive_copy_centers(a, win):
    m = 2 * a + 1
    lo_x, lo_y = win.lo
    hi_x, hi_y = win.hi
    out = set()
    for cx in range(lo_x + a, hi_x - a + 1):
        if (cx - a) % m != 0:
            continue
        c = (cx - a) // m
        r = (a - c) % m
        for cy in range(lo_y + a, hi_y - a + 1):
            if (cy - r) % m == 0:
                out.add((cx, cy))
    return out


def naive_partition_exact(win, rects):
    """Every cell of the window lies in exactly one of the rects, which all
    lie inside it: a count per cell."""
    counts = Counter(g for r in rects for g in rect_cells(*r.bounds()))
    return all(counts[g] == 1 for g in rect_cells(*win.bounds()))


def naive_check_segment_center_cover(a, win, length):
    if length < 1:
        raise ValueError(f"segment length must be >= 1, got {length}")
    lo_x, lo_y = win.lo
    hi_x, hi_y = win.hi
    y_first, y_last = lo_y + 2 * a, hi_y - 2 * a
    x_last = hi_x - length + 1
    if x_last < lo_x or y_first > y_last:
        raise ValueError("window holds no admissible segment of this length")
    centers = naive_copy_centers(a, win)
    for y in range(y_first, y_last + 1):
        row = sorted(x for (x, cy) in centers if cy == y)
        for x0 in range(lo_x, x_last + 1):
            k = bisect.bisect_left(row, x0)
            if k >= len(row) or row[k] > x0 + length - 1:
                return False, ((x0, y), length)
    return True, None


def _naive_diameter(cl):
    s = [x + y for (x, y) in cl]
    d = [x - y for (x, y) in cl]
    return max(max(s) - min(s), max(d) - min(d))


def _naive_rim_exempt(t, cl):
    a, b, c, d = t.window.bounds()
    return not all(a < x < b and c < y < d for (x, y) in cl)


def naive_check_toast(t):
    vs = []
    covered = set()
    for n, level in enumerate(t.levels):
        seen = set()
        for cl in level:
            if not cl:
                vs.append(ToastViolation("structure", n, None))
                continue
            outside = [g for g in cl if not t.window.contains(g)]
            if outside:
                vs.append(ToastViolation("structure", n, min(outside)))
            overlap = seen & cl
            if overlap:
                vs.append(ToastViolation("structure", n, min(overlap)))
            seen |= cl
            covered |= cl

    margin = 0
    for level in t.levels:
        for cl in level:
            if cl:
                margin = max(margin, _naive_diameter(cl))
    a, b, c, d = t.window.bounds()
    for g in t.window.points():
        rim = min(g[0] - a, b - g[0], g[1] - c, d - g[1])
        if rim >= margin and g not in covered:
            vs.append(ToastViolation("0", None, g))
            break

    top = len(t.levels) - 1
    for n, level in enumerate(t.levels):
        for cl in level:
            if not cl or _naive_rim_exempt(t, cl):
                continue
            if t.layered:
                above = t.levels[n + 1] if n < top else ()
                strict = "2'"
            else:
                above = [sup for m in range(n + 1, top + 1) for sup in t.levels[m]]
                strict = "2"
            if not any(cl <= sup for sup in above):
                vs.append(ToastViolation("1", n, min(cl)))
            if not any(cl <= (sup - naive_boundary(sup)) for sup in above):
                vs.append(ToastViolation(strict, n, min(cl)))
    return vs


def naive_fx_profile(t, g):
    g = (int(g[0]), int(g[1]))
    prof = []
    for level in t.levels:
        if not any(g in cl for cl in level):
            prof.append(0)
            continue
        ring = set()
        for cl in level:
            ring |= naive_boundary(cl)
        prof.append(int(naive_dist_to_set(g, ring)))
    return prof


# Whole-certificate verifiers. Each reads a certificate's JSON directly,
# with none of the library's readers or checks, and writes down what the
# certificate claims. A malformed field rejects, as ``gridwin verify``
# exits 2; a claim that fails rejects, as it exits 4.

class _Reject(Exception):
    """The certificate is malformed or one of its claims fails."""


def _need(ok):
    if not ok:
        raise _Reject


def _json_field(obj, key):
    _need(isinstance(obj, dict) and key in obj)
    return obj[key]


def _json_int(v):
    return type(v) is int


def _json_point(v):
    _need(isinstance(v, list) and len(v) == 2 and all(map(_json_int, v)))
    return (v[0], v[1])


def _json_points(v):
    _need(isinstance(v, list))
    return {_json_point(g) for g in v}


def _json_window(v):
    """(bounds, cells, holes): cells maps each defined point to its bit, and
    the declared holes must be exactly the '.' cells."""
    rect = _json_field(v, "rect")
    _need(isinstance(rect, list) and len(rect) == 4 and all(map(_json_int, rect)))
    a, b, c, d = rect
    _need(a <= b and c <= d)
    rows = _json_field(v, "rows")
    _need(isinstance(rows, list) and len(rows) == d - c + 1)
    cells, holes = {}, set()
    for j, row in enumerate(rows):
        _need(isinstance(row, str) and len(row) == b - a + 1 and set(row) <= set("01."))
        for i, ch in enumerate(row):
            if ch == ".":
                holes.add((a + i, c + j))
            else:
                cells[(a + i, c + j)] = int(ch)
    _need(_json_points(v.get("holes", [])) == holes)
    return (a, b, c, d), cells, holes


def _json_limits(cert):
    limits = _json_field(cert, "limits")
    side, steps = _json_field(limits, "max_side"), _json_field(limits, "max_steps")
    _need(_json_int(side) and _json_int(steps))
    return side, steps


def _json_records(cert, key):
    records = _json_field(cert, key)
    _need(isinstance(records, list))
    return records


def _step_request(rec):
    """The record's request object and its op."""
    req = _json_field(rec, "req")
    _need(isinstance(req, dict))
    return req, req.get("op")


def _json_mt_condition(v):
    shifts, patterns = _json_field(v, "shifts"), _json_field(v, "patterns")
    _need(isinstance(shifts, list) and isinstance(patterns, list))
    odd = _json_field(v, "odd")
    _need(type(odd) is bool)
    return {
        "p": _json_window(_json_field(v, "p")),
        "shifts": [(_json_point(_json_field(e, "t")), _json_points(_json_field(e, "T")))
                   for e in shifts],
        "patterns": [(_json_window(_json_field(e, "f")), _json_points(_json_field(e, "F")))
                     for e in patterns],
        "odd": odd,
    }


def _naive_mt_valid(cond):
    """No holes, odd sides in odd mode, no zero shift, hole-free patterns,
    and every clause a, b1 and b2 on the window. The structure is checked
    first, so a malformed condition is refused without a clause."""
    (a, b, c, d), cells, holes = cond["p"]
    _need(not holes)
    _need(not cond["odd"] or ((b - a) % 2 == 0 and (d - c) % 2 == 0))
    _need(all(t != (0, 0) for t, _T in cond["shifts"]))
    _need(not any(f_holes for (_bounds, _cells, f_holes), _F in cond["patterns"]))
    for t, T in cond["shifts"]:
        _need(naive_shift_ok(cells, t, T))
    for (_bounds, f_cells, _f_holes), F in cond["patterns"]:
        _need(naive_pattern_ok(cells, f_cells, F, False))
        _need(naive_pattern_ok(cells, f_cells, F, True))


def naive_verify_mt(cert):
    """True when the mt certificate JSON holds:
    - seed and final are valid conditions, in the same mode;
    - the seed's shifts and patterns are a prefix of the final's, and the
      final window agrees with the seed's on the seed rectangle;
    - each final shift passes the windowed two-coloring check;
    - the step records tie the seed to the final: a shift step is "noop"
      exactly when its t is already installed, and the shifts its "extend"
      steps install, in order, are the final's after the seed's; each
      self_pattern step's pattern_index counts the patterns before it, and
      the final has no others; a cover step's g lies in the final window; a
      duplicate_odd step is in odd mode, with an offset [w, 0] whose w
      divides the final width and placements [[0, 0], offset];
    - the final sides are at most limits.max_side and the step count at
      most limits.max_steps."""
    try:
        _need(_json_field(cert, "kind") == "mt")
        seed, final = (_json_mt_condition(_json_field(cert, k)) for k in ("seed", "final"))
        steps = _json_records(cert, "steps")
        max_side, max_steps = _json_limits(cert)
        _naive_mt_valid(seed)
        _naive_mt_valid(final)
        (a, b, c, d), cells, _holes = final["p"]
        (sa, sb, sc, sd), seed_cells, _seed_holes = seed["p"]
        _need(seed["odd"] == final["odd"])
        _need(final["shifts"][: len(seed["shifts"])] == seed["shifts"])
        _need(final["patterns"][: len(seed["patterns"])] == seed["patterns"])
        _need(a <= sa and sb <= b and c <= sc and sd <= d)
        # Both windows are hole-free by now.
        for g in rect_cells(sa, sb, sc, sd):
            _need(cells.get(g) == seed_cells[g])
        for t, T in final["shifts"]:
            _need(naive_window_check(cells, (a, b, c, d), t, T))
        shifts = [t for t, _T in seed["shifts"]]
        patterns = len(seed["patterns"])
        for rec in steps:
            req, op = _step_request(rec)
            if op == "shift":
                t = _json_point(req.get("t"))
                _need(rec.get("mode") == ("noop" if t in shifts else "extend"))
                if rec["mode"] == "extend":
                    shifts.append(t)
            elif op == "cover":
                gx, gy = _json_point(req.get("g"))
                _need(a <= gx <= b and c <= gy <= d)
            elif op == "self_pattern":
                _need(_json_int(rec.get("pattern_index")) and rec["pattern_index"] == patterns)
                patterns += 1
            elif op == "duplicate_odd":
                w, dy = _json_point(rec.get("offset"))
                _need(final["odd"] and dy == 0 and w >= 1 and (b - a + 1) % w == 0)
                placements = rec.get("placements")
                _need(isinstance(placements, list) and len(placements) == 2)
                _need([_json_point(g) for g in placements] == [(0, 0), (w, 0)])
            else:
                raise _Reject
        _need([t for t, _T in final["shifts"]] == shifts and len(final["patterns"]) == patterns)
        _need(max(b - a, d - c) + 1 <= max_side and len(steps) <= max_steps)
    except _Reject:
        return False
    return True


def _naive_is_power(k, n):
    m = 1
    while m < k:
        m *= n
    return m == k


def _json_gp_condition(v):
    n = _json_field(v, "n")
    _need(_json_int(n))
    window = _json_field(v, "p")
    if "u" in v:
        # The declared hole is the window's declared holes, which
        # _json_window then checks are its '.' cells; so a window with
        # another hole is refused before its cells are read.
        _need(isinstance(window, dict))
        _need(_json_points(window.get("holes", [])) == {_json_point(v["u"])})
    return n, _json_window(window)


def _naive_gp_valid(cond):
    """Base at least 2, sides powers of it, exactly one hole."""
    n, ((a, b, c, d), _cells, holes) = cond
    _need(n >= 2 and _naive_is_power(b - a + 1, n) and _naive_is_power(d - c + 1, n))
    _need(len(holes) == 1)


def _gp_stage(cond):
    _n, ((a, b, c, d), _cells, holes) = cond
    (u,) = holes
    return {"w": b - a + 1, "h": d - c + 1, "u": list(u)}


def naive_verify_gp(cert):
    """True when the gp certificate JSON holds:
    - seed and final are valid conditions of the same base n;
    - the final window is tiled by aligned copies of the seed's block that
      agree with the seed off its hole, the holes in the same block slot;
    - there is one stage per step and one more; stage 0 is the seed's sides
      and hole, the last stage the final's, and each stage's sides divide
      the next stage's;
    - each stage's sides are powers of n dividing the final sides, its hole
      lies in the final hole's class, and every other residue class modulo
      its sides is constant on the final window;
    - a shift step's pair is two defined cells of different values, s
      apart; a line_clear step's row or column misses the final hole's
      class and, where it crosses the window, its least period divides its
      length (at least 2); a cover step's g lies in the final window;
    - the final sides are at most limits.max_side and the step count at
      most limits.max_steps."""
    try:
        _need(_json_field(cert, "kind") == "gp")
        seed, final = (_json_gp_condition(_json_field(cert, k)) for k in ("seed", "final"))
        steps, stages = _json_records(cert, "steps"), _json_records(cert, "stages")
        max_side, max_steps = _json_limits(cert)
        _naive_gp_valid(seed)
        _naive_gp_valid(final)
        n, ((a, b, c, d), cells, (fu,)) = final
        (sa, sb, sc, sd), seed_cells, (su,) = seed[1]
        W, H, w, h = b - a + 1, d - c + 1, sb - sa + 1, sd - sc + 1
        _need(seed[0] == n and a <= sa and sb <= b and c <= sc and sd <= d)
        _need((sa - a) % w == 0 and (sc - c) % h == 0 and W % w == 0 and H % h == 0)
        _need((fu[0] - su[0]) % w == 0 and (fu[1] - su[1]) % h == 0)
        for x, y in rect_cells(a, b, c, d):
            home = (sa + (x - sa) % w, sc + (y - sc) % h)
            _need(home not in seed_cells or cells.get((x, y)) == seed_cells[home])
        _need(len(stages) == len(steps) + 1)
        # naive_grid_periodicity reads a window's array and low corner only.
        grid = SimpleNamespace(
            array=np.array([[cells.get((x, y), REF_HOLE) for x in range(a, b + 1)]
                            for y in range(c, d + 1)], dtype=np.uint8),
            rect=SimpleNamespace(lo=(a, c)),
        )
        for i, st in enumerate(stages):
            sw, sh = _json_field(st, "w"), _json_field(st, "h")
            u = _json_point(_json_field(st, "u"))
            _need(_json_int(sw) and _json_int(sh))
            _need(_naive_is_power(sw, n) and _naive_is_power(sh, n) and W % sw == 0 and H % sh == 0)
            _need((u[0] - fu[0]) % sw == 0 and (u[1] - fu[1]) % sh == 0)
            _need(naive_grid_periodicity(grid, sw, sh, u))
            _need(i > 0 or st == _gp_stage(seed))
            if i + 1 < len(stages):
                nw, nh = _json_field(stages[i + 1], "w"), _json_field(stages[i + 1], "h")
                _need(_json_int(nw) and _json_int(nh) and nw % sw == 0 and nh % sh == 0)
            else:
                _need(st == _gp_stage(final))
        for rec in steps:
            req, op = _step_request(rec)
            if op == "shift":
                s = _json_point(req.get("s"))
                pair = rec.get("pair")
                _need(isinstance(pair, list) and len(pair) == 2)
                g1, g2 = map(_json_point, pair)
                _need({cells.get(g1), cells.get(g2)} == {0, 1})
                _need((g2[0] - g1[0], g2[1] - g1[1]) == s)
            elif op == "line_clear":
                axis, index = req.get("axis"), req.get("index")
                _need(axis in ("col", "row") and _json_int(index))
                if axis == "col":
                    _need((index - fu[0]) % W != 0)
                    line = [cells[(index, y)] for y in range(c, d + 1)] if a <= index <= b else None
                else:
                    _need((index - fu[1]) % H != 0)
                    line = [cells[(x, index)] for x in range(a, b + 1)] if c <= index <= d else None
                _need(line is None or (len(line) >= 2 and len(line) % naive_min_period(line) == 0))
            elif op == "cover":
                gx, gy = _json_point(req.get("g"))
                _need(a <= gx <= b and c <= gy <= d)
            else:
                raise _Reject
        _need(max(W, H) <= max_side and len(steps) <= max_steps)
    except _Reject:
        return False
    return True
