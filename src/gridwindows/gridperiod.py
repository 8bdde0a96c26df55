"""Windows that are exactly periodic on a block grid except at one hole.

A condition here is a window whose sides are powers of a base n, together
with a single undefined cell u. Growing always tiles whole blocks, filling
the displaced copies of the hole with concrete values and moving the hole
to a chosen block, so earlier block structure survives: off the (sliding)
hole, every residue class modulo any past block size stays constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_side
from .geometry import Lattice, Rect, lattice_points_in
from .grid import HOLE, Config
from .schedule import (Cover, certificate_class, check_steps, covered, is_int, is_point, read_int,
                       read_point, report, run_schedule, within_limits)


def _is_power(k, n):
    if k < 1:
        return False
    while k % n == 0:
        k //= n
    return k == 1


@dataclass(frozen=True)
class GpCondition:
    n: int
    p: Config

    @property
    def u(self):
        holes = self.p.holes
        if len(holes) != 1:
            raise ValueError("condition must have exactly one hole")
        return next(iter(holes))

    def to_json(self):
        u = self.u
        return {"n": self.n, "p": self.p.to_json(), "u": [u[0], u[1]]}

    @classmethod
    def from_json(cls, data, where=""):
        """``where`` is the condition's JSON path, named in errors."""
        at = f"{where}." if where else ""
        cond = cls(read_int(data["n"], f"{at}n"), Config.from_json(data["p"]))
        if "u" in data and read_point(data["u"], f"{at}u") != cond.u:
            raise ValueError("declared hole does not match the window")
        return cond


def validate_gp(c):
    if c.n < 2:
        return False
    if not _is_power(c.p.rect.width, c.n) or not _is_power(c.p.rect.height, c.n):
        return False
    return len(c.p.holes) == 1


def is_extension_gp(c1, c2):
    """c1 extends c2: same base, c1's window is tiled by aligned copies of
    c2's block size, every copy agrees with c2 off the hole, and the holes
    sit in the same block slot."""
    if c1.n != c2.n:
        return False
    r1, r2 = c1.p.rect, c2.p.rect
    if not r1.contains_rect(r2):
        return False
    w, h = r2.width, r2.height
    if (r2.lo[0] - r1.lo[0]) % w or (r2.lo[1] - r1.lo[1]) % h:
        return False
    if r1.width % w or r1.height % h:
        return False
    if len(c1.p.holes) != 1 or len(c2.p.holes) != 1:
        return False
    (u1,) = c1.p.holes
    (u2,) = c2.p.holes
    if (u1[0] - u2[0]) % w or (u1[1] - u2[1]) % h:
        return False
    qa = c2.p.array
    pa = c1.p.array
    mask = qa != HOLE
    hh, ww = pa.shape
    blocks = pa.reshape(hh // h, h, ww // w, w).transpose(0, 2, 1, 3)
    return bool((blocks[:, :, mask] == qa[mask]).all())


def extend_tile_gp(q, ranges, t_star, hole_fills=None):
    """Tile the window over the given block ranges (powers of n per axis,
    including block 0), keep the hole only in the block offset by t_star,
    and fill the other displaced hole slots (default 0). hole_fills is
    keyed by absolute position."""
    (i0, i1), (j0, j1) = ranges
    if i0 > 0 or i1 < 0 or j0 > 0 or j1 < 0:
        raise ValueError("tile ranges must include block 0")
    w, h = q.p.rect.width, q.p.rect.height
    if not _is_power(i1 - i0 + 1, q.n) or not _is_power(j1 - j0 + 1, q.n):
        raise ValueError("block counts must be powers of the base")

    def tiled(d):
        """d is the offset (i * w, j * h) of a block inside the ranges."""
        return all(r == 0 and lo <= k <= hi
                   for (k, r), (lo, hi) in zip(map(divmod, d, (w, h)), ranges))

    t_star = (int(t_star[0]), int(t_star[1]))
    if not tiled(t_star):
        raise ValueError("new hole must land on a tiled block")
    u = q.u
    fills = {(int(k[0]), int(k[1])): int(v) for k, v in (hole_fills or {}).items()}
    new_hole = (u[0] + t_star[0], u[1] + t_star[1])
    for k, v in fills.items():
        if not tiled((k[0] - u[0], k[1] - u[1])) or k == new_hole:
            raise ValueError(f"fill at {k} is not a displaced hole slot")
        if v not in (0, 1):
            raise ValueError(f"fill value {v} is not a bit")
    a, _b, cc, _d = q.p.rect.bounds()
    lo = (a + i0 * w, cc + j0 * h)
    out = np.tile(q.p.array, (j1 - j0 + 1, i1 - i0 + 1))
    out[u[1] - cc :: h, u[0] - a :: w] = 0
    for (x, y), v in fills.items():
        out[y - lo[1], x - lo[0]] = v
    out[new_hole[1] - lo[1], new_hole[0] - lo[0]] = HOLE
    rect = Rect(lo, (lo[0] + (i1 - i0 + 1) * w - 1, lo[1] + (j1 - j0 + 1) * h - 1))
    return GpCondition(q.n, Config._trusted(rect, out, frozenset({new_hole})))


def _span(b, count):
    """Range of count block indices from block 0 toward block b."""
    return (0, count - 1) if b >= 0 else (1 - count, 0)


# Axis index of a scheduled line: a column fixes x, a row fixes y.
_AXIS = {"col": 0, "row": 1}


def _grow(q, ranges, lines, max_side, skip=(), fills=None):
    """Tile q over the block ranges, moving the hole to the lex-greatest
    block offset outside skip whose hole dodges every scheduled line in the
    grown window; if none can, ignore the schedule. A grown side above
    max_side raises ResourceLimitError before anything is built."""
    u = q.u
    sides = (q.p.rect.width, q.p.rect.height)
    grown = [side * (hi - lo + 1) for side, (lo, hi) in zip(sides, ranges)]
    check_side(max(grown), max_side)
    (i0, i1), (j0, j1) = ranges
    cands = [t for i in range(i1, i0 - 1, -1) for j in range(j1, j0 - 1, -1)
             if (t := (i * sides[0], j * sides[1])) not in skip]
    lines = [(_AXIS[axis], idx) for axis, idx in lines if axis in ("col", "row")]
    clean = (t for t in cands if all((idx - u[k] - t[k]) % grown[k] for k, idx in lines))
    return extend_tile_gp(q, ranges, next(clean, cands[0]), fills)


def discriminate_shift_gp(q, s, max_side, avoid_lines=()):
    """Grow the window so that u and u+s are both defined and differ.

    The hole slot at u+s (reduced into the block) gets filled with the
    complement of the value already there; when u+s falls back onto u's own
    slot, both cells are displaced hole slots and get opposite fills.
    Returns the new condition and the differing pair (u, u+s). A grown side
    above max_side raises ResourceLimitError before any tiling.
    """
    s = (int(s[0]), int(s[1]))
    if s == (0, 0):
        raise ValueError("shift must be nonzero")
    u = q.u
    w, h = q.p.rect.width, q.p.rect.height
    a, _b, cc, _d = q.p.rect.bounds()
    target = (u[0] + s[0], u[1] + s[1])
    bi, rx = divmod(target[0] - a, w)
    bj, ry = divmod(target[1] - cc, h)
    rel = (a + rx, cc + ry)
    skip = {(0, 0)}
    if rel == u:
        skip.add(s)
        fills = {u: 0, target: 1}
    else:
        fills = {u: 1 - q.p.value(rel)}
    counts = [1, 1]
    for k, b in enumerate((bi, bj)):
        while counts[k] <= abs(b):
            counts[k] *= q.n
    # Every skipped offset is a tiled block, so this widens until one is left.
    while counts[0] * counts[1] <= len(skip):
        counts[0] *= q.n
    ranges = [_span(b, cnt) for b, cnt in zip((bi, bj), counts)]
    return _grow(q, ranges, avoid_lines, max_side, skip, fills), (u, target)


def detect_line_period(cfg, axis, index):
    """Smallest period of the given full row or column, or None when the
    line is too short to constrain anything."""
    if axis not in ("col", "row"):
        raise ValueError(f"axis must be 'row' or 'col', got {axis!r}")
    k = _AXIS[axis]
    if not cfg.rect.lo[k] <= index <= cfg.rect.hi[k]:
        raise ValueError(f"{('column', 'row')[k]} outside the window")
    seq = cfg.array.take(index - cfg.rect.lo[k], axis=1 - k)
    if (seq == HOLE).any():
        raise ValueError("line crosses the hole")
    n = len(seq)
    if n < 2:
        return None
    for p in range(1, n):
        if (seq[: n - p] == seq[p:]).all():
            return p
    return n


def verify_grid_periodicity(x, w, h, u):
    """Each residue class modulo (w, h) is constant on x, excusing only the
    class containing u. Holes are skipped."""
    if w < 1 or h < 1:
        raise ValueError(f"period sides must be >= 1, got {w}x{h}")
    # Classes are counted from the window's low corner, the same partition
    # as absolute residues. A side at or beyond the window's puts each line
    # in a class of its own, so the fold is never wider than the window.
    rows, cols = x.array.shape
    fw, fh = min(w, cols), min(h, rows)
    ny, nx = -(-rows // fh), -(-cols // fw)
    # Cells as bits in uint8: 0 -> 1, 1 -> 2 and HOLE wraps to 0, like the
    # padding that makes the blocks whole. A class holding both values ORs to 3.
    bits = np.zeros((ny * fh, nx * fw), dtype=np.uint8)
    np.add(x.array, 1, out=bits[:rows, :cols])
    fold = np.bitwise_or.reduce(bits.reshape(ny, fh, nx * fw), axis=0)
    mixed = np.bitwise_or.reduce(fold.reshape(fh, nx, fw), axis=1) == 3
    ey, ex = (u[1] - x.rect.lo[1]) % h, (u[0] - x.rect.lo[0]) % w
    if ey < fh and ex < fw:
        mixed[ey, ex] = False
    return not mixed.any()


@dataclass(frozen=True)
class Shift:
    s: tuple


@dataclass(frozen=True)
class LineClear:
    axis: str
    index: int

    def __post_init__(self):
        if self.axis not in ("row", "col"):
            raise ValueError(f"axis must be 'row' or 'col', got {self.axis!r}")


GpCertificate = certificate_class("GpCertificate", "gp", GpCondition, extra=("stages",))


def _stage(c):
    u = c.u
    return {"w": c.p.rect.width, "h": c.p.rect.height, "u": [u[0], u[1]]}


def _grow_shift(q, req, env):
    out, (u, v) = discriminate_shift_gp(q, req.s, env["max_side"], avoid_lines=env["lines"])
    return out, {"pair": [list(u), list(v)]}


def _check_shift(final, req, rec, env):
    pair = rec.get("pair")
    if not (isinstance(pair, list) and len(pair) == 2 and all(map(is_point, pair))):
        return False
    (x1, y1), (x2, y2) = pair
    return (x2 - x1, y2 - y1) == req.s and {final.p.value(g) for g in pair} == {0, 1}


def _grow_line(q, req, env):
    """Tile along the line's axis so the hole leaves the line. No-op when
    the line already misses the hole's residue class."""
    k = _AXIS[req.axis]
    sides = (q.p.rect.width, q.p.rect.height)
    m, r = divmod(req.index - q.u[k], sides[k])
    if r:
        return q, {}
    counts = [1, 1]
    counts[k] = q.n
    on_line = tuple(m % cnt * side for cnt, side in zip(counts, sides))
    ranges = [(0, cnt - 1) for cnt in counts]
    return _grow(q, ranges, env["lines"], env["max_side"], skip={on_line}), {}


def _check_line(final, req, rec, env):
    """The line misses the hole's class; across the window, its period divides the side."""
    k, fu, sides = _AXIS[req.axis], env["u"], env["sides"]
    if fu is None or (req.index - fu[k]) % sides[k] == 0:
        return False
    if not final.p.rect.lo[k] <= req.index <= final.p.rect.hi[k]:
        return True
    per = detect_line_period(final.p, req.axis, req.index)
    return per is not None and sides[1 - k] % per == 0


def _grow_cover(q, req, env):
    while not q.p.rect.contains(req.g):
        rect = q.p.rect
        counts = [1, 1]
        counts[int(rect.lo[0] <= req.g[0] <= rect.hi[0])] = q.n
        ranges = [_span(x - hi, cnt) for x, hi, cnt in zip(req.g, rect.hi, counts)]
        q = _grow(q, ranges, env["lines"], env["max_side"])
    return q, {}


STEPS = {
    "shift": (Shift, _grow_shift, "shift {s} pair differs", _check_shift),
    "line_clear": (LineClear, _grow_line, "line {axis} {index} cleared", _check_line),
    "cover": (Cover, _grow_cover, "cover {g} contained", covered),
}


def build_generic_gp(seed, sched, limits):
    """Run a schedule of shift, line-clear and cover requests. The hole is
    steered away from every line the schedule will clear, so cleared lines
    stay clear through later growth."""
    if not validate_gp(seed):
        raise ValueError("invalid seed condition")
    lines = [(r.axis, r.index) for r in sched if type(r) is LineClear]
    chain, steps, used = run_schedule(seed, sched, limits, STEPS, lines=lines)
    return GpCertificate(
        seed=seed,
        final=chain[-1],
        steps=steps,
        stages=[_stage(c) for c in chain],
        limits=used,
        chain=tuple(chain),
    )


def verify_gp_certificate(cert):
    """Recheck the final window against every stage's block structure and
    every recorded step's claim. The stages are the chain of the build:
    one per condition, from the seed's to the final's, each stage's sides
    dividing the next one's. A chain verdict lands in its stage's check,
    and the stage count and the limits in "final extends seed"."""
    seed, final, stages = cert.seed, cert.final, cert.stages
    checks = [
        ("seed valid", validate_gp(seed)),
        ("final valid", validate_gp(final)),
        ("final extends seed", is_extension_gp(final, seed)
         and len(stages) == len(cert.steps) + 1 and within_limits(cert)),
    ]
    fin = final.p
    holes = fin.holes
    fu = next(iter(holes)) if len(holes) == 1 else None
    W, H = fin.rect.width, fin.rect.height
    first, last = (_stage(c) if len(c.p.holes) == 1 else None for c in (seed, final))
    # A no-op line_clear repeats its stage; each distinct stage is checked once.
    stage_ok = {}
    for i, st in enumerate(stages):
        w, h, su = st["w"], st["h"], st["u"]
        # Non-integer claims fail here, before 2.0 could share the entry of 2.
        key = (w, h, tuple(su)) if is_int(w) and is_int(h) and is_point(su) else None
        if key is not None and key not in stage_ok:
            # The stage's hole is in the final hole's class modulo its block
            # sides, which are powers of n dividing the final sides.
            stage_ok[key] = (
                fu is not None
                and final.n >= 2
                and all(
                    _is_power(k, final.n) and side % k == 0 for k, side in ((w, W), (h, H))
                )
                and (su[0] - fu[0]) % w == 0
                and (su[1] - fu[1]) % h == 0
                and verify_grid_periodicity(fin, w, h, su)
            )
        ok = stage_ok.get(key, False) and (i > 0 or st == first)
        if i + 1 < len(stages):
            nw, nh = stages[i + 1]["w"], stages[i + 1]["h"]
            ok = ok and is_int(nw) and is_int(nh) and nw % w == 0 and nh % h == 0
        else:
            ok = ok and st == last
        checks.append((f"stage[{i}] periodicity {st['w']}x{st['h']}", ok))
    checks += check_steps(cert.steps, STEPS, final, {"u": fu, "sides": (W, H)})
    return report(checks)


def _lattice_window(block):
    """4 x 4 copies of a square block whose side is a power of two and whose
    last cell is made the hole; the hole stays only in the last copy, and
    the other copies' hole slots are filled with 0."""
    s = len(block)
    block = np.array(block, dtype=np.uint8)
    block[s - 1, s - 1] = HOLE
    seed = GpCondition(2, Config._trusted(Rect((0, 0), (s - 1, s - 1)), block))
    return extend_tile_gp(seed, ((0, 3), (0, 3)), (3 * s, 3 * s)).p


def lattice_demo(f):
    """Build a window where the given hole-free pattern repeats on a square
    lattice. Returns (window, lattice, report); the report counts the
    lattice placements that fit and lists any that fail to match."""
    if not f.hole_free():
        raise ValueError("pattern must be hole-free")
    fh, fw = f.array.shape
    s = 1 << max(fw, fh).bit_length()  # the least power of two above both sides
    window = _lattice_window(np.pad(f.array, ((0, s - fh), (0, s - fw))))
    lat = Lattice((0, 0), (s, s))
    # The placements where f fits in the window, each compared as one slice.
    # The window's low corner is (0, 0), so a point is its own array index.
    x1, y1 = window.rect.hi
    fits = lattice_points_in(lat, Rect((0, 0), (x1 - fw + 1, y1 - fh + 1)))
    mismatches = [(x, y) for x, y in fits
                  if not np.array_equal(window.array[y : y + fh, x : x + fw], f.array)]
    return window, lat, {
        "verified": len(fits) >= 9 and not mismatches,
        "points": len(fits),
        "mismatches": mismatches,
    }


def constant_on_lattice_demo(rule, r):
    """Build a window on which the local rule (applied to the (2r+1)-square
    patch, rows low-y first) takes a single value over a full lattice of
    anchors. Returns (window, lattice, value)."""
    if r < 1:
        raise ValueError("radius must be at least 1")
    s = 1 << (2 * r + 1).bit_length()  # the least power of two >= 2r + 2
    window = _lattice_window(np.indices((s, s)).sum(axis=0) % 2)
    lat = Lattice((r, r), (s, s))
    # The anchors whose patch lies in the window; its low corner is (0, 0).
    x1, y1 = window.rect.hi
    values = {
        rule(window.array[y - r : y + r + 1, x - r : x + r + 1].tolist())
        for x, y in lattice_points_in(lat, Rect((r, r), (x1 - r, y1 - r)))
    }
    assert len(values) == 1, "rule must be constant on the hole-free lattice"
    return window, lat, values.pop()
