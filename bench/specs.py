"""Seeded inputs for the benchmark workloads.

Every generator takes a ``random.Random`` and returns one *round*: a list of
items with a fixed design (sizes, step counts, modes), whose contents the
seed chooses. A run repeats whole rounds, so its mix of sizes is the same
however many rounds fit in the time, and the metrics stay comparable
between runs and seeds. Window sizes are planned here from the growth rules of
the build steps, so the spec files alone fix what the program builds.

The cert and checker generators use only the standard library. The storm
generator builds ``Config`` and ``MtCondition`` values, because its
operations take them in memory; occurrences for its pattern witnesses come
from the slow oracle in ``tests/oracles.py``, not from the program.
"""

from __future__ import annotations

import math

# --------------------------------------------------------------------- mt-cert

# (target final area, shifts, self_pattern steps, odd mode, one shift grows)
# Areas grow from about 0.5k to 16k cells; the step counts and modes spread
# over the range so that every size class has a fixed, known witness load.
# An odd number of slots puts the median operation inside one size class,
# and that class appears three times: one operation's time varies by about
# 10% from run to run, so the median is taken over several items.
MT_SLOTS = (
    (512, 2, 1, False, False),
    (1024, 3, 1, False, True),
    (2048, 8, 2, False, True),
    (3072, 4, 1, True, False),
    (3072, 4, 1, True, False),
    (3072, 4, 1, True, False),
    (4096, 5, 1, True, True),
    (8192, 6, 1, True, False),
    (16384, 2, 1, True, False),
)

MT_LIMITS = {"max_side": 4096, "max_steps": 64}


def _rand_rows(rng, w, h):
    return ["".join(str(rng.randrange(2)) for _ in range(w)) for _ in range(h)]


def _is_torus_period(rows, t):
    h, w = len(rows), len(rows[0])
    return all(
        rows[y][x] == rows[(y + t[1]) % h][(x + t[0]) % w]
        for y in range(h)
        for x in range(w)
    )


def _mt_item(rng, area, nshift, npat, odd, grow):
    """One build-mt spec. After the cover step the window is a plain tiling
    of the seed block B, so a shift t finds a differing pair exactly when t
    is not a period of B on the torus. The non-growing shifts are drawn
    among non-periods; the growing one is a period of B, so build-mt
    tiles (and, for negative components, reflects) the window."""
    sides = (3, 5) if odd else (2, 3, 4)
    while True:
        if grow:
            w, h = (3, rng.choice((3, 5))) if odd else (rng.choice((2, 3)), rng.choice((2, 3)))
        else:
            w, h = rng.choice(sides), rng.choice(sides)
        rows = _rand_rows(rng, w, h)
        free = [
            (x, y)
            for x in range(-3, 4)
            for y in range(-3, 4)
            if (x, y) != (0, 0) and not _is_torus_period(rows, (x, y))
        ]
        if len(free) >= nshift:
            break
    shifts = rng.sample(free, nshift - 1 if grow else nshift)
    gx = gy = 1
    if grow:
        # A period of B along axes whose side is at most 3, so |t| <= 3;
        # signs seeded.
        kind = rng.choice(("x", "y", "xy") if h <= 3 else ("x",))
        tx = w * rng.choice((-1, 1)) if kind in ("x", "xy") else 0
        ty = h * rng.choice((-1, 1)) if kind in ("y", "xy") else 0
        copies = 3 if odd else 2
        gx = copies if tx else 1
        gy = copies if ty else 1
        shifts.insert(rng.randrange(len(shifts) + 1), (tx, ty))
    mult = (3 if odd else 2) ** npat
    # Copies per axis from the cover step: at least 3, so every residue of B
    # has a probe pair inside the window; odd counts in odd mode. Pick the
    # counts whose final area is within 4% of the target (or nearest), then
    # the squarest.
    step = 2 if odd else 1
    fw, fh = w * gx * mult, h * gy
    cands = []
    for cx in range(3, 200, step):
        want = area / (cx * fw * fh)
        for cy in (want - want % step, want - want % step + step):
            cy = max(3, int(cy) | (1 if odd else 0))
            cands.append((cx, cy))
    cnt = min(
        cands,
        key=lambda c: (round(abs(math.log(c[0] * fw * c[1] * fh / area)) / 0.04),
                       abs(math.log(c[0] * fw / (c[1] * fh)))),
    )
    g = []
    for c, unit in zip(cnt, (w, h)):
        # Grow toward the positive or the negative side; either way c copies.
        g.append(c * unit - 1 if rng.random() < 0.5 else unit - c * unit)
    sched = [{"op": "cover", "g": g}]
    sched += [{"op": "shift", "t": [t[0], t[1]]} for t in shifts]
    sched += [{"op": "self_pattern"}] * npat
    spec = {
        "odd": odd,
        "seed": {"rect": [0, w - 1, 0, h - 1], "rows": rows, "holes": []},
        "schedule": sched,
        "limits": dict(MT_LIMITS),
    }
    return {"spec": spec, "seed_rect": (w, h), "planned": (cnt[0] * fw, cnt[1] * fh)}


def mt_cert_round(rng):
    """Nine build-mt specs, one per slot of MT_SLOTS, in seeded order. One
    seeded item per round gets a tampered certificate."""
    items = [_mt_item(rng, *slot) for slot in MT_SLOTS]
    rng.shuffle(items)
    tampered = rng.randrange(len(items))
    for i, item in enumerate(items):
        item["tamper"] = i == tampered
        # Flip one cell inside the seed rectangle: "final extends seed" fails.
        w, h = item["seed_rect"]
        item["flip"] = (rng.randrange(w), rng.randrange(h))
    return items


# --------------------------------------------------------------------- gp-cert

# (base n, final width, final height). Sides are powers of n from 128 to 1024
# (n = 2) and 81 to 729 (n = 3); the largest windows are half a million cells
# and their certificates about half a megabyte. The median operation is a
# 256 x 256 item, so that size appears five times: its time is then the
# median of several items, not one item's noise.
GP_SLOTS = (
    (3, 81, 81),
    (2, 128, 128),
    (3, 243, 243),
    (2, 256, 256),
    (2, 256, 256),
    (2, 256, 256),
    (2, 256, 256),
    (2, 256, 256),
    (3, 729, 243),
    (2, 512, 512),
    (2, 1024, 512),
)


def _gp_item(rng, n, width, height):
    """One build-gp spec. Shift components are non-negative and every grow
    step tiles toward +x/+y, so the window stays anchored at (0, 0). Before
    the last cover a side is at most 32 (n = 2) or 81 (n = 3), no more than
    the smallest final side, so the final window is exactly width x height."""
    w = h = n ** rng.choice((1, 2)) if n == 2 else n
    rows = _rand_rows(rng, w, h)
    u = (rng.randrange(w), rng.randrange(h))
    rows[u[1]] = rows[u[1]][: u[0]] + "." + rows[u[1]][u[0] + 1 :]
    s = (0, 0)
    while s == (0, 0):
        s = (rng.randint(0, 3), rng.randint(0, 3))
    lines = [
        {"op": "line_clear", "axis": axis, "index": rng.randrange(width if axis == "col" else height)}
        for axis in rng.sample(("row", "col"), 2)
    ]
    mid = n ** 3
    sched = (
        [{"op": "shift", "s": [s[0], s[1]]}, lines[0]]
        + [{"op": "cover", "g": [mid - 1, mid - 1]}, lines[1]]
        + [{"op": "cover", "g": [width - 1, height - 1]}]
    )
    spec = {
        "seed": {"n": n, "p": {"rect": [0, w - 1, 0, h - 1], "rows": rows, "holes": [[u[0], u[1]]]}},
        "schedule": sched,
        "limits": {"max_side": 4096, "max_steps": 64},
    }
    return {"spec": spec, "seed_rect": (w, h), "hole": u, "planned": (width, height)}


def gp_cert_round(rng):
    """Eleven build-gp specs, one per slot of GP_SLOTS, in seeded order. One
    seeded item per round gets a tampered certificate."""
    items = [_gp_item(rng, *slot) for slot in GP_SLOTS]
    rng.shuffle(items)
    tampered = rng.randrange(len(items))
    for i, item in enumerate(items):
        item["tamper"] = i == tampered
        # Flip one cell outside the hole's class modulo the seed block: that
        # class is constant in every honest window, so the seed stage's
        # periodicity and "final extends seed" both fail.
        w, h = item["seed_rect"]
        ux, uy = item["hole"]
        width, height = item["planned"]
        while True:
            x, y = rng.randrange(width), rng.randrange(height)
            if (x - ux) % w or (y - uy) % h:
                break
        item["flip"] = (x, y)
    return items


# -------------------------------------------------------------------- mt-storm

STORM_CONDITIONS = 300


def _differing_positions(cells, dom, t):
    return [
        g for g in dom
        if (g[0] + t[0], g[1] + t[1]) in cells and cells[g] != cells[(g[0] + t[0], g[1] + t[1])]
    ]


def storm_condition(rng):
    """A criterion-1-style condition: a window of at most 9x9 cells tiled
    from a random block with random flips, 0-3 shift witnesses and 0-2
    pattern witnesses, each valid by construction."""
    from oracles import naive_occurrences

    from gridwindows.geometry import Rect
    from gridwindows.grid import Config
    from gridwindows.mincolor import MtCondition

    odd = rng.random() < 0.3
    sides = (1, 3) if odd else (1, 2, 3)
    bw, bh = rng.choice(sides), rng.choice(sides)
    base = [[rng.randrange(2) for _ in range(bw)] for _ in range(bh)]
    nx, ny = rng.choice(sides), rng.choice(sides)
    flips = {(i, j): rng.random() < 0.5 for i in range(nx) for j in range(ny)}
    W, H = nx * bw, ny * bh
    cells = {
        (x, y): base[y % bh][x % bw] ^ flips[(x // bw, y // bh)]
        for x in range(W)
        for y in range(H)
    }
    rect = Rect.from_bounds(0, W - 1, 0, H - 1)
    rows = ["".join(str(cells[(x, y)]) for x in range(W)) for y in range(H)]
    p = Config.from_rows(rect, rows)
    dom = sorted(cells)

    shifts = []
    for _ in range(rng.randint(0, 3)):
        t = (0, 0)
        while t == (0, 0):
            t = (rng.randint(-3, 3), rng.randint(-3, 3))
        if any(t == s for (s, _) in shifts):
            continue
        cands = _differing_positions(cells, dom, t)
        if not cands:
            continue
        u = rng.choice(cands)
        shifts.append((t, frozenset((u[0] - g[0], u[1] - g[1]) for g in dom)))

    patterns = []
    for _ in range(rng.randint(0, 2)):
        fw, fh = rng.randint(1, min(3, W)), rng.randint(1, min(3, H))
        fx, fy = rng.randint(0, W - fw), rng.randint(0, H - fh)
        f = p.restrict(Rect.from_bounds(fx, fx + fw - 1, fy, fy + fh - 1))
        f_cells = {(x, y): cells[(x, y)] for x in range(fx, fx + fw) for y in range(fy, fy + fh)}
        bounds = (0, W - 1, 0, H - 1)
        true_occ = sorted(naive_occurrences(bounds, cells, f_cells, False))
        flip_occ = sorted(naive_occurrences(bounds, cells, f_cells, True))
        if not true_occ or not flip_occ:
            continue
        v, vf = rng.choice(true_occ), rng.choice(flip_occ)
        F = frozenset((q[0] - g[0], q[1] - g[1]) for g in dom for q in (v, vf))
        patterns.append((f, F))
    return MtCondition(p=p, shifts=tuple(shifts), patterns=tuple(patterns), odd_mode=odd)


def storm_round(rng):
    """STORM_CONDITIONS conditions, each with one grow request. The request
    kinds cycle cover, shift, pattern, so every round has the same mix."""
    ops = []
    for i in range(STORM_CONDITIONS):
        cond = storm_condition(rng)
        kind = ("cover", "shift", "pattern")[i % 3]
        if kind == "cover":
            arg = (rng.randint(-20, 20), rng.randint(-20, 20))
        elif kind == "shift":
            arg = (0, 0)
            while arg == (0, 0):
                arg = (rng.randint(-3, 3), rng.randint(-3, 3))
        else:
            arg = None
        ops.append({"cond": cond, "kind": kind, "arg": arg})
    return ops


# -------------------------------------------------------------------- checkers

# Layered toasts of nested squares: a level-(n+1) square of side 3s + 4 holds
# a 3x3 array of level-n squares of side s, one cell in from its boundary
# ring and one cell apart. (levels, level-0 side, top squares across, down)
# The toast check is quadratic in the classes per level: these toasts of 91
# to 820 classes take 0.1 to 2 s each on the seed code and most of a round.
# The smallest shape, the median operation, appears three times, so that
# its time is the median of several items, not one item's noise.
TOAST_SLOTS = (
    (3, 3, 1, 1),
    (3, 3, 1, 1),
    (3, 3, 1, 1),
    (3, 1, 2, 1),
    (3, 1, 2, 2),
    (3, 3, 2, 1),
    (3, 1, 3, 2),
    (4, 1, 1, 1),
)


def _toast_sides(levels, s0):
    sides = [s0]
    for _ in range(levels - 1):
        sides.append(3 * sides[-1] + 4)
    return sides


def _square(x0, y0, s):
    return [[x, y] for x in range(x0, x0 + s) for y in range(y0, y0 + s)]


def nested_toast(levels, s0, nx, ny):
    """Level sides, and per level the classes as (low corner, slot) where
    slot is the (column, row) inside the parent's 3x3 array. Top squares
    tile the window, so each touches its rim and is exempt."""
    sides = _toast_sides(levels, s0)
    top = sides[-1]
    classes = [[] for _ in range(levels)]
    classes[-1] = [((i * top, j * top), None) for i in range(nx) for j in range(ny)]
    for n in range(levels - 1, 0, -1):
        s = sides[n - 1]
        for ((x0, y0), _slot) in classes[n]:
            for a in range(3):
                for b in range(3):
                    classes[n - 1].append(((x0 + 1 + a * (s + 1), y0 + 1 + b * (s + 1)), (a, b)))
    window = [0, nx * top - 1, 0, ny * top - 1]
    return sides, classes, window


def _toast_item(rng, levels, s0, nx, ny, broken):
    sides, classes, window = nested_toast(levels, s0, nx, ny)
    corners = [[c for (c, _slot) in level] for level in classes]
    top = sides[-1]
    centers = [(x0 + top // 2, y0 + top // 2) for (x0, y0) in corners[-1]]
    expect = {"ok": not broken}
    if broken:
        # Move one class on the rim of its parent's 3x3 array one cell
        # outward, onto the parent's boundary ring: it stays inside the
        # parent, but not strictly, which is clause 2' at its level. Only
        # moves that keep the class a cell away from the window rim qualify,
        # so the class is not rim-exempt.
        while True:
            n = rng.randrange(levels - 1)
            k = rng.randrange(len(classes[n]))
            (x0, y0), (a, b) = classes[n][k]
            moves = [(-1, 0)] * (a == 0) + [(1, 0)] * (a == 2) + [(0, -1)] * (b == 0) + [(0, 1)] * (b == 2)
            if not moves:
                continue
            dx, dy = rng.choice(moves)
            x1, y1 = x0 + dx, y0 + dy
            s = sides[n]
            if x1 >= 1 and y1 >= 1 and x1 + s <= window[1] and y1 + s <= window[3]:
                break
        corners[n][k] = (x1, y1)
        expect.update(clause="2'", level=n, centers=[])
    else:
        # At a top-square centre every level's class is centred too, so the
        # fx profile is each class's half side.
        expect["centers"] = [[c[0], c[1]] for c in centers]
        expect["profile"] = [(s - 1) // 2 for s in sides]
    level_json = [[_square(x0, y0, sides[n]) for (x0, y0) in corners[n]] for n in range(levels)]
    # Besides the centres, four probes in random level-0 classes: covered at
    # every level, so each probe costs the same fx work whatever the seed.
    probes = [[c[0], c[1]] for c in centers]
    for _ in range(4):
        x0, y0 = rng.choice(corners[0])
        probes.append([x0 + rng.randrange(sides[0]), y0 + rng.randrange(sides[0])])
    spec = {
        "toast": {"layered": True, "window": window, "levels": level_json},
        "probes": probes,
    }
    count = sum(len(c) for c in corners)
    return {"cmd": "toast", "spec": spec, "expect": expect, "classes": count}


def _stack_item(rng, a):
    m = 2 * a + 1
    side = 5 * m * m + rng.randrange(m)
    spec = {"demo": "shifted_stack", "a": a, "side": side}
    # Segments of length 2m^2 + 1 always hold a copy centre. For a >= 1 a
    # segment of length m can miss every centre; for a = 0 every cell is a
    # centre, so the short segment is covered too.
    expect = {"threshold": 2 * m * m, "long_ok": True, "short_ok": a == 0}
    return {"cmd": "markers", "spec": spec, "expect": expect}


def _partition_item(rng, c, k):
    """A chain of square grids on a window of side 2^k * c: level j cuts it
    into blocks of side c * 2^j, so the block sides grow strictly."""
    side = c * 2 ** k
    window = [0, side - 1, 0, side - 1]
    levels = []
    for j in range(k + 1):
        b = c * 2 ** j
        rects = [[x, x + b - 1, y, y + b - 1] for x in range(0, side, b) for y in range(0, side, b)]
        levels.append({"level": j, "rects": rects})
    probes = [[rng.randrange(side), rng.randrange(side)] for _ in range(6)]
    phi = []
    for (px, py) in probes:
        col = []
        for j in range(k + 1):
            b = c * 2 ** j
            x0, y0 = px - px % b, py - py % b
            col.append(min(px - x0, x0 + b - 1 - px, py - y0, y0 + b - 1 - py))
        phi.append(col)
    spec = {"demo": "partitions", "window": window, "levels": levels, "probes": probes}
    expect = {"v": [c * 2 ** j for j in range(k + 1)], "phi": phi}
    return {"cmd": "markers", "spec": spec, "expect": expect}


def checkers_round(rng):
    """Eight toasts (the first slot broken), shifted stacks for a = 1..4 and
    one partition chain, in seeded order. With thirteen items the median
    operation is one of the three smallest toasts, which take long enough
    (about 0.1 s) for their time to be steady."""
    # The first slot is the broken one in every round, so that each round
    # has the same mix of work; the seed picks the class that moves.
    items = [_toast_item(rng, *slot, broken=(i == 0)) for i, slot in enumerate(TOAST_SLOTS)]
    items += [_stack_item(rng, a) for a in range(1, 5)]
    items.append(_partition_item(rng, rng.randint(2, 4), rng.randint(4, 5)))
    rng.shuffle(items)
    return items
