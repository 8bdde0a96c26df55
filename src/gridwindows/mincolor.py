"""Window conditions carrying shift and pattern witnesses, and the builder
that grows them by block tilings.

A condition is a hole-free window p together with a list of shifts, each
holding a witness set T for the two-coloring clause, and a list of
patterns, each holding a witness set F for both polarities. Every grow
operation tiles whole copies of the current window (some complemented), so
previously installed witness sets keep working: for any position, the probe
cells land inside that position's own block, where values are an exact
(possibly complemented) copy of the window the witness was built for.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .geometry import Box
from .grid import HOLE, Config, tile
from .errors import check_reach, check_side
from .schedule import (Cover, certificate_class, check_steps, covered, report, run_schedule,
                       within_limits)
from .serialize import (at, canon_dumps, fail, is_int, is_point, points_json, read_bool,
                        read_object, read_point, read_points, read_records)
from .witness import _boxes, _differs, _pattern_ok_grid, _shift_ok_grid, window_two_coloring_check


@dataclass(frozen=True)
class Violation:
    clause: str
    index: object
    g: object


def _doc_points(S):
    return S if type(S) is Box else points_json(S)


@dataclass(frozen=True)
class MtCondition:
    """p with shift witnesses ((t, T), ...) and pattern witnesses
    ((f, F), ...); odd_mode forces odd side lengths throughout."""

    p: Config
    shifts: tuple
    patterns: tuple
    odd_mode: bool

    def doc(self):
        """The condition's JSON value for ``canon_dumps``: each Box witness set
        kept as a Box, written from its bounds, and each window's rows one Raw text."""
        return {
            "p": self.p.doc(),
            "odd": self.odd_mode,
            "shifts": [{"t": [t[0], t[1]], "T": _doc_points(T)} for (t, T) in self.shifts],
            "patterns": [{"f": f.doc(), "F": _doc_points(F)} for (f, F) in self.patterns],
        }

    def to_json(self):
        return json.loads(canon_dumps(self.doc()))

    @classmethod
    def from_json(cls, data, where=""):
        """``where`` is the condition's JSON path, named in errors."""
        data = read_object(data, where)
        p = Config.from_json(data.get("p"), at(where, "p"))
        shifts = read_records(data.get("shifts"), at(where, "shifts"))
        patterns = read_records(data.get("patterns"), at(where, "patterns"))
        # Every t is read before any T, so a bad t is the error named.
        ts = [read_point(e.get("t"), at(path, "t")) for path, e in shifts]
        return cls(
            p=p,
            shifts=tuple((t, read_points(e.get("T"), at(path, "T")))
                         for t, (path, e) in zip(ts, shifts)),
            patterns=tuple((Config.from_json(e.get("f"), at(path, "f")),
                            read_points(e.get("F"), at(path, "F"))) for path, e in patterns),
            odd_mode=read_bool(data.get("odd"), at(where, "odd")),
        )


def _first_bad(rect, mask):
    """Least marked cell (by x, then y) of a mask over rect, or None."""
    if mask is None or not mask.any():
        return None
    x = int(mask.any(axis=0).argmax())
    return (x + rect.lo[0], int(mask[:, x].argmax()) + rect.lo[1])


def _structure(c):
    """Structural violations: holes, even sides in odd mode, zero shifts and
    patterns with holes. The witness clauses assume there are none."""
    vs = []
    if not c.p.hole_free():
        vs.append(Violation("structure", None, None))
    if c.odd_mode and (c.p.rect.width % 2 == 0 or c.p.rect.height % 2 == 0):
        vs.append(Violation("structure", None, None))
    for i, (t, _T) in enumerate(c.shifts):
        if tuple(t) == (0, 0):
            vs.append(Violation("structure", i, None))
    for j, (f, _F) in enumerate(c.patterns):
        if not f.hole_free():
            vs.append(Violation("structure", j, None))
    return vs


def _clauses(c, where=""):
    """(clause, index, grid) of each witness clause: a per shift, then b1 and b2
    per pattern from one ``_pattern_ok_grid`` call. A zero shift or a pattern
    with a hole, which the kernels refuse, gets None: that clause fails. Each
    witness set's boxes pass ``check_reach`` before its table is built, which
    names the set's JSON path below the condition's, ``where``."""
    def boxes(S, path):
        out = _boxes(S)
        check_reach(len(out), c.p.array.size, path)
        return out

    shifts, patterns = at(where, "shifts"), at(where, "patterns")
    out = [("a", i, None if tuple(t) == (0, 0) else
            _shift_ok_grid(c.p, t, boxes(T, f"{shifts}[{i}].T")))
           for i, (t, T) in enumerate(c.shifts)]
    for j, (f, F) in enumerate(c.patterns):
        grids = (_pattern_ok_grid(c.p, f, boxes(F, f"{patterns}[{j}].F")) if f.hole_free()
                 else (None, None))
        out += [("b1", j, grids[0]), ("b2", j, grids[1])]
    return out


def validate(c, where=""):
    """All violations of the condition at JSON path ``where``. Structural problems
    are reported alone, since the witness clauses assume a well-formed input."""
    vs = _structure(c)
    if vs:
        return vs
    # The complement grid only for a clause that fails.
    return [Violation(clause, k, _first_bad(c.p.rect, ~ok))
            for clause, k, ok in _clauses(c, where) if not ok.all()]


def is_extension(c1, c2):
    """c1 extends c2: same mode, c2's witnesses are a prefix of c1's, and
    the windows agree where c2 is defined."""
    if c1.odd_mode != c2.odd_mode:
        return False
    if len(c1.shifts) < len(c2.shifts) or c1.shifts[: len(c2.shifts)] != c2.shifts:
        return False
    if len(c1.patterns) < len(c2.patterns) or c1.patterns[: len(c2.patterns)] != c2.patterns:
        return False
    if not c1.p.rect.contains_rect(c2.p.rect):
        return False
    return c1.p.restrict(c2.p.rect) == c2.p


def _lex_least_differing(p, t):
    """Least position u (by x, then y) with u and u+t defined in the window
    and carrying different values, or None."""
    return _first_bad(*_differs(p, t))


def extend_cover(c, g):
    """Grow the window by whole unflipped copies until it contains g."""
    if c.p.rect.contains(g):
        return c
    return MtCondition(_cover_tiling(c, g, False), c.shifts, c.patterns, c.odd_mode)


def _cover_axis(gx, a, b, odd):
    """Fewest copies of the side [a, b] reaching gx, odd in odd mode, and their low anchor."""
    w = b - a + 1
    cnt = max(gx - a, b - gx) // w + 1
    if odd and cnt % 2 == 0:
        cnt += 1
    return cnt, (a if gx >= a else b - cnt * w + 1)


def _cover_tiling(c, g, flip):
    """The window tiled by the fewest whole copies that reach cell g, the
    copy holding g complemented when flip is set."""
    a, b, cc, d = c.p.rect.bounds()
    nx, ax = _cover_axis(g[0], a, b, c.odd_mode)
    ny, ay = _cover_axis(g[1], cc, d, c.odd_mode)
    target = ((g[0] - ax) // c.p.rect.width, (g[1] - ay) // c.p.rect.height) if flip else None
    return tile(c.p, (nx, ny), lambda i, j: (i, j) == target, (ax, ay))


def extend_shift(c, t):
    """Install shift t with a valid witness set.

    When the current window already shows a differing pair at offset t, the
    witness set points every position at that pair and the window is left
    alone. Otherwise the window is tiled to cover the image under t of its
    corner facing t, flipping the image's copy when unflipped it would make
    the two agree, and T reaches that copy from every cell of the tiling.
    """
    t = (int(t[0]), int(t[1]))
    if t == (0, 0):
        raise ValueError("shift must be nonzero")
    for (s, _T) in c.shifts:
        if s == t:
            return c
    a, b, cc, d = c.p.rect.bounds()
    u = _lex_least_differing(c.p, t)
    if u is not None:
        T = Box(u[0] - b, u[0] - a, u[1] - d, u[1] - cc)
        return MtCondition(c.p, c.shifts + ((t, T),), c.patterns, c.odd_mode)
    w, h = c.p.rect.width, c.p.rect.height
    cx, cy = (b if t[0] >= 0 else a), (d if t[1] >= 0 else cc)
    image = (cx + t[0], cy + t[1])
    # Unflipped, the image shows the window's value at the image reduced into it.
    same = c.p.value((cx, cy)) == c.p.value((a + (image[0] - a) % w, cc + (image[1] - cc) % h))
    grown = _cover_tiling(c, image, same)
    W, H = grown.rect.width, grown.rect.height
    tx0, tx1 = (w - W, w - 1) if t[0] >= 0 else (1 - w, W - w)
    ty0, ty1 = (h - H, h - 1) if t[1] >= 0 else (1 - h, H - h)
    T = Box(tx0, tx1, ty0, ty1)
    return MtCondition(grown, c.shifts + ((t, T),), c.patterns, c.odd_mode)


def extend_pattern(c):
    """Append the current window as a pattern of the condition, covering the
    cell just right of it with a complemented copy (two copies, three in
    odd mode) so both polarities occur. The witness box covers a full block
    period, so it keeps working under all later tilings."""
    q = c.p
    a, b, cc, d = q.rect.bounds()
    newp = _cover_tiling(c, (b + 1, cc), True)
    # Offsets reaching both polarities from every cell of any window built
    # from whole copies of the doubled block, flips included.
    F = Box(a - 2 * b - 1, b - 2 * a + 1, -d, -cc)
    return MtCondition(newp, c.shifts, c.patterns + ((q, F),), c.odd_mode)


def duplicate_odd(c):
    """Three plain copies side by side: the cover of the cell two widths
    right of the window. Returns the new condition and the copies' offset."""
    if not c.odd_mode:
        raise ValueError("duplicate_odd requires an odd-mode condition")
    w = c.p.rect.width
    return extend_cover(c, (c.p.rect.hi[0] + 2 * w, c.p.rect.lo[1])), (w, 0)


@dataclass(frozen=True)
class Shift:
    t: tuple


@dataclass(frozen=True)
class SelfPattern:
    pass


@dataclass(frozen=True)
class DuplicateOdd:
    pass


def _grow_shift(c, req, env):
    # A window with a witness for t holds a pair at offset t: a side above max |t_k|.
    check_side(max(map(abs, req.t)) + 1, env["max_side"])
    out = extend_shift(c, req.t)
    return out, {"mode": "noop" if len(out.shifts) == len(c.shifts) else "extend"}


def _check_shift(final, req, rec, env):
    """The mode is "noop" exactly when t is already installed; an "extend"
    installs it, in the order ``env["shifts"]`` keeps."""
    mode = rec.get("mode")
    ok = mode == ("noop" if req.t in env["shifts"] else "extend")
    if mode == "extend":
        env["shifts"].append(req.t)
    return ok


def _grow_cover(c, req, env):
    # The grown window spans both the window and g.
    a, b, cc, d = c.p.rect.bounds()
    check_side(max(req.g[0] - a, b - req.g[0], req.g[1] - cc, d - req.g[1]) + 1, env["max_side"])
    return extend_cover(c, req.g), {}


def _grow_pattern(c, req, env):
    out = extend_pattern(c)
    return out, {"pattern_index": len(out.patterns) - 1}


def _check_pattern(final, req, rec, env):
    """The pattern's index is the count of patterns before it."""
    index = env["patterns"]
    env["patterns"] += 1
    return is_int(rec.get("pattern_index")) and rec["pattern_index"] == index


def _grow_odd(c, req, env):
    out, (dx, dy) = duplicate_odd(c)
    return out, {"offset": [dx, dy], "placements": [[0, 0], [dx, dy]]}


def _check_odd(final, req, rec, env):
    """Three plain copies of an odd-mode window side by side: the offset is
    that window's width, so it divides the final width."""
    off, placements = rec.get("offset"), rec.get("placements")
    return (final.odd_mode and is_point(off) and off[0] >= 1 and off[1] == 0
            and final.p.rect.width % off[0] == 0
            and placements == [[0, 0], off] and all(map(is_point, placements)))


# An mt step's claim is part of an existing check, named in its row.
STEPS = {
    "shift": (Shift, _grow_shift, "final extends seed", _check_shift),
    "cover": (Cover, _grow_cover, "final extends seed", covered),
    "self_pattern": (SelfPattern, _grow_pattern, "final extends seed", _check_pattern),
    "duplicate_odd": (DuplicateOdd, _grow_odd, "odd sides", _check_odd),
}


Certificate = certificate_class("Certificate", "mt", MtCondition)


def build_generic(start, sched, limits):
    """Run a schedule of grow requests, recording each step. Deterministic:
    the same start and schedule always give the same certificate."""
    vs = validate(start, "seed")
    if vs:
        raise fail("seed", f"invalid start condition (clause {vs[0].clause})")
    chain, steps, used = run_schedule(start, sched, limits, STEPS)
    return Certificate(
        seed=start, final=chain[-1], steps=steps, limits=used, chain=tuple(chain)
    )


def verify_certificate(cert):
    """Recompute every witness clause on the final window once, through
    ``_clauses`` as ``validate`` does. "final validate" is derived from the
    structural check and those clause checks, so it equals ``validate(final)
    == []``; a shift's window check is True without computing it where the
    final is hole-free and clause a holds. The step records are tied to the
    final condition: the shifts their "extend" steps install and the
    patterns their self_pattern steps add are the final's beyond the seed's,
    and the limits hold. Each record's claim lands in the check its row
    names; a record of no known op gets its own."""
    seed, final = cert.seed, cert.final
    # The seed and extension checks run before the clauses, so a certificate
    # that would make several of them raise gets the first one's error.
    seed_ok = validate(seed, "seed") == []
    env = {"shifts": [t for (t, _T) in seed.shifts], "patterns": len(seed.patterns)}
    claims = {}
    for name, ok in check_steps(cert.steps, STEPS, final, env):
        claims[name] = claims.get(name, True) and ok
    extends = (
        claims.pop("final extends seed", True)
        and is_extension(final, seed)
        and [t for (t, _T) in final.shifts] == env["shifts"]
        and len(final.patterns) == env["patterns"]
        and within_limits(cert)
    )
    checks, clauses_ok = [], True
    defined = final.p.array != HOLE
    for clause, k, grid in _clauses(final, "final"):
        ok = grid is not None and bool(grid[defined].all())
        clauses_ok &= ok
        if clause != "a":
            checks.append((f"pattern[{k}] clause {clause}", ok))
            continue
        t, T = final.shifts[k]
        name = f"shift[{k}] t=({t[0]},{t[1]})"
        checks.append((f"{name} clause a", ok))
        # Clause a on a hole-free window implies the window check (tests/test_witness.py).
        checks.append((f"{name} window two-coloring", (ok and final.p.hole_free()) or (
            grid is not None and window_two_coloring_check(final.p, t, T))))
    if final.odd_mode or "odd sides" in claims:
        odd = final.p.rect.width % 2 == 1 and final.p.rect.height % 2 == 1
        checks.append(("odd sides", claims.pop("odd sides", True) and odd))
    return report([
        ("seed validate", seed_ok),
        ("final validate", clauses_ok and not _structure(final)),
        ("final extends seed", extends),
        *checks,
        *claims.items(),
    ])
