"""Config's two constructor paths and its cached holes.

The public constructor (``Config(rect, bits)``, ``from_rows``,
``from_json``) copies and checks its input. The package's kernels build
their outputs through a trusted path that does neither; every such output
must still be read-only and carry exactly the holes a checked copy finds.
Toasts normalize their classes once, with the level order unchanged."""

import random

import numpy as np
import pytest

from gridwindows.geometry import Rect
from gridwindows.grid import HOLE, Config, flip, tile
from gridwindows.gridperiod import (
    STEPS as GP_STEPS,
    GpCondition,
    build_generic_gp,
    constant_on_lattice_demo,
    extend_tile_gp,
    lattice_demo,
    validate_gp,
)
from gridwindows.markers import Toast, build_shifted_stack, toast_report
from gridwindows.mincolor import STEPS as MT_STEPS
from gridwindows.mincolor import MtCondition, build_generic
from gridwindows.schedule import parse_schedule

LIMITS = {"max_side": 256, "max_steps": 64}


def rand_config(rng, hole_prob=0.0, max_side=6):
    x, y = rng.randint(-5, 5), rng.randint(-5, 5)
    rect = Rect((x, y), (x + rng.randint(1, max_side) - 1, y + rng.randint(1, max_side) - 1))
    bits = np.array([[HOLE if rng.random() < hole_prob else rng.randrange(2)
                      for _ in range(rect.width)] for _ in range(rect.height)], dtype=np.uint8)
    return Config(rect, bits)


def rand_gp(rng):
    """A base-2 condition with one hole, sides 1 to 8."""
    w, h = 2 ** rng.randint(0, 3), 2 ** rng.randint(0, 3)
    x, y = rng.randint(-5, 5), rng.randint(-5, 5)
    bits = np.array([[rng.randrange(2) for _ in range(w)] for _ in range(h)], dtype=np.uint8)
    bits[rng.randrange(h), rng.randrange(w)] = HOLE
    return GpCondition(2, Config(Rect((x, y), (x + w - 1, y + h - 1)), bits))


def kernel_outputs():
    """(kernel name, output Config) over seeded inputs."""
    rng = random.Random(1101)
    for _ in range(40):
        p = rand_config(rng, hole_prob=0.2)
        yield "flip", flip(p)
        q = rand_config(rng)
        counts = (rng.randint(1, 3), rng.randint(1, 3))
        yield "tile", tile(q, counts, lambda i, j: (i + j) % 2 == 1, (rng.randint(-9, 9), 0))
        x0, y0 = p.rect.lo
        x1, y1 = rng.randint(x0, p.rect.hi[0]), rng.randint(y0, p.rect.hi[1])
        yield "restrict", p.restrict(Rect((rng.randint(x0, x1), rng.randint(y0, y1)), (x1, y1)))
        yield "translate", p.translate((rng.randint(-10**6, 10**6), rng.randint(-9, 9)))
        g = rand_gp(rng)
        ranges = [(-rng.choice((0, 1)), rng.choice((0, 1))) for _ in range(2)]
        ranges = [(lo, hi + (hi - lo + 1 == 3)) for lo, hi in ranges]  # counts 1, 2 or 4
        sides = (g.p.rect.width, g.p.rect.height)
        t_star = tuple(rng.randint(lo, hi) * side for (lo, hi), side in zip(ranges, sides))
        yield "extend_tile_gp", extend_tile_gp(g, ranges, t_star).p
    checker = Config.from_rows(Rect((0, 0), (2, 2)), ["010", "101", "010"])
    mt_seed = MtCondition(checker, (), (), False)
    mt_sched = [{"op": "shift", "t": [1, 0]}, {"op": "cover", "g": [6, 4]}, {"op": "self_pattern"},
                {"op": "shift", "t": [0, 5]}]
    cert = build_generic(mt_seed, parse_schedule(mt_sched, MT_STEPS), LIMITS)
    for c in cert.chain:
        yield "build_generic", c.p
    gp_seed = GpCondition(2, Config.from_rows(Rect((0, 0), (1, 1)), ["01", "1."]))
    gp_sched = [{"op": "shift", "s": [1, 0]}, {"op": "line_clear", "axis": "row", "index": 0},
                {"op": "cover", "g": [12, 12]}, {"op": "shift", "s": [-5, 3]}]
    cert = build_generic_gp(gp_seed, parse_schedule(gp_sched, GP_STEPS), LIMITS)
    for c in cert.chain:
        yield "build_generic_gp", c.p
    yield "lattice_demo", lattice_demo(Config.from_rows(Rect((0, 0), (1, 0)), ["01"]))[0]
    yield "constant_on_lattice_demo", constant_on_lattice_demo(lambda patch: 0, 1)[0]
    marker = Config.from_rows(Rect((-1, -1), (1, 1)), ["010", "111", "010"])
    yield "build_shifted_stack", build_shifted_stack(marker, 11)


def test_kernel_outputs_match_a_checked_copy():
    seen = set()
    for name, out in kernel_outputs():
        seen.add(name)
        assert not out.array.flags.writeable, name
        with pytest.raises(ValueError):
            out.array[0, 0] = 0
        checked = Config(out.rect, out.array.copy())
        assert out.holes == checked.holes, name
        assert out.hole_free() == checked.hole_free(), name
        assert out == checked, name
        assert out.holes is out.holes, name
    assert len(seen) == 10, seen


def test_trusted_views_share_the_window_array():
    p = Config.from_rows(Rect((0, 0), (2, 1)), ["01.", "110"])
    assert np.shares_memory(p.translate((5, -3)).array, p.array)
    assert np.shares_memory(p.restrict(Rect((1, 0), (2, 1))).array, p.array)
    assert p.translate((5, -3)).holes == {(7, -3)}


def test_holes_scanned_once_per_config(monkeypatch):
    real = np.nonzero
    calls = []
    monkeypatch.setattr(np, "nonzero", lambda a: calls.append(1) or real(a))
    data = {"n": 2, "p": {"rect": [0, 1, 0, 1], "rows": ["01", "1."], "holes": [[1, 1]]},
            "u": [1, 1]}
    cond = GpCondition.from_json(data)
    for _ in range(3):
        assert cond.u == (1, 1)
        assert validate_gp(cond)
        assert cond.to_json() == data
        assert not cond.p.hole_free()
    assert len(calls) == 1


@pytest.mark.parametrize("value", [2, 7, 254])
def test_public_constructor_rejects_bad_cell_values(value):
    bits = np.zeros((2, 3), dtype=np.uint8)
    bits[1, 2] = value
    with pytest.raises(ValueError, match="cell values must be 0, 1 or hole"):
        Config(Rect((0, 0), (2, 1)), bits)
    with pytest.raises(ValueError):
        Config(Rect((0, 0), (2, 1)), bits.tolist())


def test_public_constructor_copies_the_callers_array():
    bits = np.array([[0, 1], [HOLE, 1]], dtype=np.uint8)
    cfg = Config(Rect((0, 0), (1, 1)), bits)
    assert cfg.holes == {(0, 1)}
    bits[:] = 0
    assert bits.flags.writeable
    assert cfg.rows() == ["01", ".1"]
    assert cfg.holes == {(0, 1)}


def test_config_is_immutable():
    cfg = Config.from_rows(Rect((0, 0), (1, 0)), ["0."])
    assert cfg.holes == {(1, 0)}
    for name in ("rect", "_bits", "_holes", "extra"):
        with pytest.raises(AttributeError):
            setattr(cfg, name, frozenset())
    with pytest.raises(ValueError):
        cfg.array[0, 0] = 1
    assert cfg.holes == {(1, 0)} and cfg.rows() == ["0."]


def old_levels(levels):
    """The level normalization of earlier releases: int cells, and each
    level sorted by a full sort of every class."""
    return tuple(
        tuple(sorted((frozenset((int(x), int(y)) for (x, y) in cl) for cl in level),
                     key=lambda cl: sorted(cl)[:1]))
        for level in levels
    )


def test_toast_levels_and_reports_unchanged():
    box = [[x, y] for x in range(-2, 3) for y in range(-2, 3)]  # read as a Box
    points = [[1, 1], [0, 0], [0, 1]]                           # read as a frozenset
    data = {
        "layered": True,
        "window": [-4, 4, -4, 4],
        "levels": [
            [points, [], [[-3, -3]], [[3, -3], [3, -2]], []],
            [box, [], [[-4, 4]]],
            [[[x, y] for x in range(-4, 5) for y in range(-4, 5)]],
        ],
    }
    t = Toast.from_json(data)
    raw = [[{tuple(g) for g in cl} for cl in level] for level in data["levels"]]
    assert t.levels == old_levels(raw)
    assert all(type(cl) is frozenset for level in t.levels for cl in level)
    # The empty classes come first, in their level, as they always did.
    assert [len(cl) for cl in t.levels[0]] == [0, 0, 1, 3, 2]
    again = Toast(levels=tuple(map(tuple, raw)), layered=True, window=t.window)
    assert again.levels == t.levels
    report = toast_report(t, [])
    assert report == toast_report(again, [])
    assert report["violations"][0] == {"clause": "structure", "level": 0, "where": None}
