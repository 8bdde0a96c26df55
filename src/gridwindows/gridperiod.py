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

from .errors import ResourceLimitError
from .geometry import Lattice, Rect, lattice_points_in
from .grid import HOLE, Config
from .schedule import Cover, certificate_class, is_point, run_schedule


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
    def from_json(cls, data):
        cond = cls(int(data["n"]), Config.from_json(data["p"]))
        if "u" in data and tuple(data["u"]) != cond.u:
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
        out[row, col] = HOLE if (tx, ty) == t_star else fills.get(pos, 0)
    rect = Rect(lo, (lo[0] + (i1 - i0 + 1) * w - 1, lo[1] + (j1 - j0 + 1) * h - 1))
    return GpCondition(q.n, Config(rect, out))


def _pad_pow(lo, hi, n):
    cnt = hi - lo + 1
    p = 1
    while p < cnt:
        p *= n
    pad = p - cnt
    if hi > 0:
        return lo, hi + pad
    return lo - pad, hi


def _choose_tstar(cands, u, new_w, new_h, avoid_lines):
    """Lex-greatest candidate whose hole dodges every scheduled line in the
    grown window; if none can, ignore the schedule."""
    def clean(t):
        hx, hy = u[0] + t[0], u[1] + t[1]
        for axis, idx in avoid_lines:
            if axis == "row" and (idx - hy) % new_h == 0:
                return False
            if axis == "col" and (idx - hx) % new_w == 0:
                return False
        return True

    good = [t for t in cands if clean(t)]
    return max(good) if good else max(cands)


def discriminate_shift_gp(q, s, avoid_lines=()):
    """Grow the window so that u and u+s are both defined and differ.

    The hole slot at u+s (reduced into the block) gets filled with the
    complement of the value already there; when u+s falls back onto u's own
    slot, both cells are displaced hole slots and get opposite fills.
    Returns the new condition and the differing pair (u, u+s).
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
    i0, i1 = _pad_pow(min(0, bi), max(0, bi), q.n)
    j0, j1 = _pad_pow(min(0, bj), max(0, bj), q.n)
    rel = (a + rx, cc + ry)
    while True:
        offsets = {(i * w, j * h) for i in range(i0, i1 + 1) for j in range(j0, j1 + 1)}
        excluded = {(0, 0)}
        if rel == u:
            excluded.add((target[0] - u[0], target[1] - u[1]))
        cands = sorted(offsets - excluded)
        if cands:
            break
        cnt = (i1 - i0 + 1) * q.n
        if bi >= 0:
            i1 = i0 + cnt - 1
        else:
            i0 = i1 - cnt + 1
    if rel == u:
        fills = {u: 0, target: 1}
    else:
        fills = {u: 1 - q.p.value(rel)}
    t_star = _choose_tstar(
        cands, u, (i1 - i0 + 1) * w, (j1 - j0 + 1) * h, avoid_lines
    )
    return extend_tile_gp(q, ((i0, i1), (j0, j1)), t_star, fills), (u, target)


def detect_line_period(cfg, axis, index):
    """Smallest period of the given full row or column, or None when the
    line is too short to constrain anything."""
    a, b, cc, d = cfg.rect.bounds()
    if axis == "row":
        if not cc <= index <= d:
            raise ValueError("row outside the window")
        seq = cfg.array[index - cc, :]
    elif axis == "col":
        if not a <= index <= b:
            raise ValueError("column outside the window")
        seq = cfg.array[:, index - a]
    else:
        raise ValueError(f"axis must be 'row' or 'col', got {axis!r}")
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
    # Pad with holes so that row and column 0 are residue 0 and the blocks
    # are whole; cell [ry, rx] of a block reduction is then class (rx, ry).
    rows, cols = x.array.shape
    ox, oy = x.rect.lo[0] % w, x.rect.lo[1] % h
    ny, nx = -(-(oy + rows) // h), -(-(ox + cols) // w)
    pad = np.full((ny * h, nx * w), HOLE, dtype=np.uint8)
    pad[oy : oy + rows, ox : ox + cols] = x.array
    blocks = pad.reshape(ny, h, nx, w)
    # A class holds both bits when its largest bit (holes as 0) exceeds its
    # least value (holes as 255).
    mixed = np.where(blocks == HOLE, 0, blocks).max(axis=(0, 2)) > blocks.min(axis=(0, 2))
    mixed[u[1] % h, u[0] % w] = False
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


def _clear_line(cur, axis, index, lines):
    """Tile along the line's axis so the hole leaves the line. No-op when
    the line already misses the hole's residue class."""
    u = cur.u
    w, h = cur.p.rect.width, cur.p.rect.height
    n = cur.n
    if axis == "row":
        if (index - u[1]) % h != 0:
            return cur
        m = (index - u[1]) // h
        cands = [(0, k * h) for k in range(n) if (m - k) % n != 0]
        t_star = _choose_tstar(cands, u, w, n * h, lines)
        return extend_tile_gp(cur, ((0, 0), (0, n - 1)), t_star, None)
    if (index - u[0]) % w != 0:
        return cur
    m = (index - u[0]) // w
    cands = [(k * w, 0) for k in range(n) if (m - k) % n != 0]
    t_star = _choose_tstar(cands, u, n * w, h, lines)
    return extend_tile_gp(cur, ((0, n - 1), (0, 0)), t_star, None)


def _cover_gp(cur, g, lines, max_side):
    n = cur.n
    while not cur.p.rect.contains(g):
        a, b, cc, d = cur.p.rect.bounds()
        w, h = cur.p.rect.width, cur.p.rect.height
        if g[0] > b:
            ranges = ((0, n - 1), (0, 0))
        elif g[0] < a:
            ranges = ((-(n - 1), 0), (0, 0))
        elif g[1] > d:
            ranges = ((0, 0), (0, n - 1))
        else:
            ranges = ((0, 0), (-(n - 1), 0))
        new_w = w * (ranges[0][1] - ranges[0][0] + 1)
        new_h = h * (ranges[1][1] - ranges[1][0] + 1)
        if max(new_w, new_h) > max_side:
            raise ResourceLimitError(f"cover of {g} would exceed max_side={max_side}")
        offsets = sorted(
            (i * w, j * h)
            for i in range(ranges[0][0], ranges[0][1] + 1)
            for j in range(ranges[1][0], ranges[1][1] + 1)
        )
        t_star = _choose_tstar(offsets, cur.u, new_w, new_h, lines)
        cur = extend_tile_gp(cur, ranges, t_star, None)
    return cur


def _grow_shift(q, req, env):
    out, (u, v) = discriminate_shift_gp(q, req.s, avoid_lines=env["lines"])
    return out, {"pair": [list(u), list(v)]}


def _grow_line(q, req, env):
    return _clear_line(q, req.axis, req.index, env["lines"]), {}


def _grow_cover(q, req, env):
    return _cover_gp(q, req.g, env["lines"], env["max_side"]), {}


STEPS = {
    "shift": (Shift, _grow_shift),
    "line_clear": (LineClear, _grow_line),
    "cover": (Cover, _grow_cover),
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
    every recorded step's claim."""
    seed, final = cert.seed, cert.final
    checks = [
        {"name": "seed valid", "ok": validate_gp(seed)},
        {"name": "final valid", "ok": validate_gp(final)},
        {"name": "final extends seed", "ok": is_extension_gp(final, seed)},
    ]
    fin = final.p
    holes = fin.holes
    fu = next(iter(holes)) if len(holes) == 1 else None
    W, H = fin.rect.width, fin.rect.height
    # A no-op line_clear repeats its stage; each distinct stage is checked once.
    stage_ok = {}
    for i, st in enumerate(cert.stages):
        w, h, su = int(st["w"]), int(st["h"]), st["u"]
        pair = is_point(su)
        key = (w, h, tuple(su) if pair else None)
        if key not in stage_ok:
            # The stage's hole is a pair of integers in the final hole's
            # class modulo its block sides, which are powers of n dividing
            # the final sides.
            stage_ok[key] = (
                pair
                and fu is not None
                and final.n >= 2
                and all(
                    _is_power(k, final.n) and side % k == 0 for k, side in ((w, W), (h, H))
                )
                and (su[0] - fu[0]) % w == 0
                and (su[1] - fu[1]) % h == 0
                and verify_grid_periodicity(fin, w, h, su)
            )
        checks.append(
            {"name": f"stage[{i}] periodicity {st['w']}x{st['h']}", "ok": stage_ok[key]}
        )
    a, b, cc, d = fin.rect.bounds()
    for srec in cert.steps:
        op = srec["req"]["op"]
        if op == "shift":
            pair = srec["pair"]
            ok = isinstance(pair, list) and len(pair) == 2 and all(map(is_point, pair))
            if ok:
                (x1, y1), (x2, y2) = pair
                v1, v2 = fin.value((x1, y1)), fin.value((x2, y2))
                ok = (
                    v1 is not None
                    and v2 is not None
                    and v1 != v2
                    and [x2 - x1, y2 - y1] == srec["req"]["s"]
                )
            checks.append(
                {"name": f"shift {srec['req']['s']} pair differs", "ok": ok}
            )
        elif op == "line_clear":
            axis = srec["req"]["axis"]
            idx = int(srec["req"]["index"])
            if fu is None:
                ok = False
            elif axis == "row":
                ok = (idx - fu[1]) % H != 0
                if ok and cc <= idx <= d:
                    per = detect_line_period(fin, "row", idx)
                    ok = per is not None and W % per == 0
            else:
                ok = (idx - fu[0]) % W != 0
                if ok and a <= idx <= b:
                    per = detect_line_period(fin, "col", idx)
                    ok = per is not None and H % per == 0
            checks.append({"name": f"line {axis} {idx} cleared", "ok": ok})
        elif op == "cover":
            g = srec["req"]["g"]
            checks.append(
                {"name": f"cover {g} contained", "ok": is_point(g) and fin.rect.contains(g)}
            )
    return {"ok": all(ch["ok"] for ch in checks), "checks": checks}


def lattice_demo(f, limits=None):
    """Build a window where the given hole-free pattern repeats on a square
    lattice. Returns (window, lattice, report); the report counts the
    lattice placements that fit and lists any that fail to match."""
    if not f.hole_free():
        raise ValueError("pattern must be hole-free")
    s = 1
    while s < max(f.rect.width, f.rect.height) + 1:
        s *= 2
    block = np.zeros((s, s), dtype=np.uint8)
    block[: f.rect.height, : f.rect.width] = f.array
    block[s - 1, s - 1] = HOLE
    seed = GpCondition(2, Config(Rect((0, 0), (s - 1, s - 1)), block))
    window = extend_tile_gp(seed, ((0, 3), (0, 3)), (3 * s, 3 * s), None).p
    lat = Lattice((0, 0), (s, s))
    flo = f.rect.lo
    count = 0
    mismatches = []
    for g in lattice_points_in(lat, window.rect):
        hi = (g[0] + f.rect.width - 1, g[1] + f.rect.height - 1)
        if not window.rect.contains(hi):
            continue
        count += 1
        match = all(
            window.value((g[0] + ux - flo[0], g[1] + uy - flo[1])) == f.value((ux, uy))
            for (ux, uy) in f.rect.points()
        )
        if not match:
            mismatches.append(g)
    report = {
        "verified": count >= 9 and not mismatches,
        "points": count,
        "mismatches": mismatches,
    }
    return window, lat, report


def constant_on_lattice_demo(rule, r, limits=None):
    """Build a window on which the local rule (applied to the (2r+1)-square
    patch, rows low-y first) takes a single value over a full lattice of
    anchors. Returns (window, lattice, value)."""
    if r < 1:
        raise ValueError("radius must be at least 1")
    s = 1
    while s < 2 * r + 2:
        s *= 2
    ys, xs = np.indices((s, s))
    block = ((xs + ys) % 2).astype(np.uint8)
    block[s - 1, s - 1] = HOLE
    seed = GpCondition(2, Config(Rect((0, 0), (s - 1, s - 1)), block))
    window = extend_tile_gp(seed, ((0, 3), (0, 3)), (3 * s, 3 * s), None).p
    lat = Lattice((r, r), (s, s))
    values = set()
    for g in lattice_points_in(lat, window.rect):
        if not (
            window.rect.contains((g[0] - r, g[1] - r))
            and window.rect.contains((g[0] + r, g[1] + r))
        ):
            continue
        patch = [
            [window.value((g[0] + dx, g[1] + dy)) for dx in range(-r, r + 1)]
            for dy in range(-r, r + 1)
        ]
        values.add(rule(patch))
    assert len(values) == 1, "rule must be constant on the hole-free lattice"
    return window, lat, values.pop()
