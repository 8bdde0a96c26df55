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

from dataclasses import dataclass

from .geometry import Box
from .grid import Config, tile
from .errors import check_side
from .schedule import (Cover, certificate_class, check_steps, covered, is_int, is_point, read_bool,
                       read_point, read_points, report, run_schedule, within_limits)
from .witness import (
    _differs,
    _pattern_ok_grid,
    _shift_ok_grid,
    check_pattern_witness,
    check_shift_witness,
    window_two_coloring_check,
)


@dataclass(frozen=True)
class Violation:
    clause: str
    index: object
    g: object


@dataclass(frozen=True)
class MtCondition:
    """p with shift witnesses ((t, T), ...) and pattern witnesses
    ((f, F), ...); odd_mode forces odd side lengths throughout."""

    p: Config
    shifts: tuple
    patterns: tuple
    odd_mode: bool

    def to_json(self):
        return {
            "p": self.p.to_json(),
            "odd": self.odd_mode,
            "shifts": [{"t": [t[0], t[1]], "T": _points_json(T)} for (t, T) in self.shifts],
            "patterns": [{"f": f.to_json(), "F": _points_json(F)} for (f, F) in self.patterns],
        }

    @classmethod
    def from_json(cls, data, where=""):
        """``where`` is the condition's JSON path, named in errors."""
        at = f"{where}." if where else ""
        p = Config.from_json(data["p"])
        ts = [read_point(e["t"], f"{at}t") for e in data["shifts"]]
        return cls(
            p=p,
            shifts=tuple((t, read_points(e["T"], f"{at}T")) for t, e in zip(ts, data["shifts"])),
            patterns=tuple(
                (Config.from_json(e["f"]), read_points(e["F"], f"{at}F"))
                for e in data["patterns"]
            ),
            odd_mode=read_bool(data["odd"], f"{at}odd"),
        )


def _points_json(S):
    """A witness set as a JSON point list in lex order: a Box lists its
    cells in that order already."""
    if isinstance(S, Box):
        return list(map(list, S))
    return sorted([x, y] for (x, y) in S)


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


def validate(c):
    """All violations of the condition's clauses. Structural problems are
    reported alone, since the witness clauses assume a well-formed input."""
    vs = _structure(c)
    if vs:
        return vs
    for i, (t, T) in enumerate(c.shifts):
        g = _first_bad(c.p.rect, ~_shift_ok_grid(c.p, t, T))
        if g is not None:
            vs.append(Violation("a", i, g))
    for j, (f, F) in enumerate(c.patterns):
        for clause, flipped in (("b1", False), ("b2", True)):
            g = _first_bad(c.p.rect, ~_pattern_ok_grid(c.p, f, F, flipped))
            if g is not None:
                vs.append(Violation(clause, j, g))
    return vs


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
    a, b, cc, d = c.p.rect.bounds()
    cnt_x, lo_x = _cover_axis(g[0], a, b, c.p.rect.width, c.odd_mode)
    cnt_y, lo_y = _cover_axis(g[1], cc, d, c.p.rect.height, c.odd_mode)
    newp = tile(c.p, (cnt_x, cnt_y), lambda i, j: False, (lo_x, lo_y))
    return MtCondition(newp, c.shifts, c.patterns, c.odd_mode)


def _cover_axis(gx, a, b, w, odd):
    cnt = max(gx - a, b - gx) // w + 1
    if odd and cnt % 2 == 0:
        cnt += 1
    return cnt, (a if gx >= a else b - cnt * w + 1)


def extend_shift(c, t):
    """Install shift t with a valid witness set.

    When the current window already shows a differing pair at offset t, the
    witness set points every position at that pair and the window is left
    alone. Otherwise the window is tiled out toward t so that its corner
    facing t can be compared against its image under t, flipping the block
    the image lands in when the unflipped tiling would make the two values
    agree.
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
    nx, ax, cx, (tx0, tx1) = _shift_axis(t[0], a, b, c.odd_mode)
    ny, ay, cy, (ty0, ty1) = _shift_axis(t[1], cc, d, c.odd_mode)
    w, h = c.p.rect.width, c.p.rect.height
    image = (cx + t[0], cy + t[1])
    # Unflipped, the image shows the window's value at the image reduced into it.
    same = c.p.value((cx, cy)) == c.p.value((a + (image[0] - a) % w, cc + (image[1] - cc) % h))
    flipped = ((image[0] - ax) // w, (image[1] - ay) // h) if same else None
    grown = tile(c.p, (nx, ny), lambda i, j: (i, j) == flipped, (ax, ay))
    T = Box(tx0, tx1, ty0, ty1)
    return MtCondition(grown, c.shifts + ((t, T),), c.patterns, c.odd_mode)


def _shift_axis(tx, a, b, odd):
    """One axis of extend_shift's tiling: the block count, the low anchor,
    the window's coordinate facing tx, and the witness interval."""
    w = b - a + 1
    k = (w - 1 + abs(tx)) // w
    if odd:
        k += k % 2
    if tx < 0:
        return k + 1, a - k * w, a, (a - b, k * w)
    return k + 1, a, b, (-k * w, b - a)


def extend_pattern(c):
    """Append the current window as a pattern of the condition, doubling the
    window with a complemented copy (plus a plain third copy in odd mode)
    so both polarities occur. The witness box covers a full block period,
    so it keeps working under all later tilings."""
    q = c.p
    a, b, cc, d = q.rect.bounds()
    copies = 3 if c.odd_mode else 2
    newp = tile(q, (copies, 1), lambda i, j: i == 1, (a, cc))
    # Offsets reaching both polarities from every cell of any window built
    # from whole copies of the doubled block, flips included.
    F = Box(a - 2 * b - 1, b - 2 * a + 1, -d, -cc)
    return MtCondition(newp, c.shifts, c.patterns + ((q, F),), c.odd_mode)


def duplicate_odd(c):
    """Three plain copies side by side (keeping the width odd). Returns the
    new condition and the offset between consecutive copies."""
    if not c.odd_mode:
        raise ValueError("duplicate_odd requires an odd-mode condition")
    q = c.p
    newp = tile(q, (3, 1), lambda i, j: False, q.rect.lo)
    return MtCondition(newp, c.shifts, c.patterns, c.odd_mode), (q.rect.width, 0)


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
    vs = validate(start)
    if vs:
        raise ValueError(f"invalid start condition (clause {vs[0].clause})")
    chain, steps, used = run_schedule(start, sched, limits, STEPS)
    return Certificate(
        seed=start, final=chain[-1], steps=steps, limits=used, chain=tuple(chain)
    )


def verify_certificate(cert):
    """Recompute every witness clause on the final window, each once.
    "final validate" is derived from the structural check and the clause
    a/b1/b2 checks below, so it equals ``validate(final) == []``. The step
    records are tied to the final condition: the shifts their "extend"
    steps install and the patterns their self_pattern steps add are the
    final's beyond the seed's, and the limits hold. Each record's claim
    lands in the check its row names; a record of no known op gets its own."""
    seed, final = cert.seed, cert.final
    # The seed and extension checks run before the clauses, so a certificate
    # that would make several of them raise gets the first one's error.
    seed_ok = validate(seed) == []
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
    for i, (t, T) in enumerate(final.shifts):
        ok = check_shift_witness(final.p, t, T)
        clauses_ok &= ok
        name = f"shift[{i}] t=({t[0]},{t[1]})"
        checks.append((f"{name} clause a", ok))
        checks.append((f"{name} window two-coloring", window_two_coloring_check(final.p, t, T)))
    for j, (f, F) in enumerate(final.patterns):
        for clause, flipped in (("b1", False), ("b2", True)):
            ok = check_pattern_witness(final.p, f, F, flipped)
            clauses_ok &= ok
            checks.append((f"pattern[{j}] clause {clause}", ok))
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
