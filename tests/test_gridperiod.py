import json
import random
import re

import pytest

from gridwindows.errors import ResourceLimitError
from gridwindows.geometry import Lattice, Rect, lattice_points_in
from gridwindows.grid import Config
from gridwindows.gridperiod import (
    Cover,
    GpCertificate,
    GpCondition,
    LineClear,
    Shift,
    build_generic_gp,
    constant_on_lattice_demo,
    detect_line_period,
    discriminate_shift_gp,
    extend_tile_gp,
    is_extension_gp,
    lattice_demo,
    validate_gp,
    verify_gp_certificate,
    verify_grid_periodicity,
)
from gridwindows.serialize import canon_dumps

from oracles import naive_extend_tile_gp, naive_min_period, rect_cells


def gp(rows, n=2, lo=(0, 0)):
    w = len(rows[0])
    h = len(rows)
    rect = Rect.from_bounds(lo[0], lo[0] + w - 1, lo[1], lo[1] + h - 1)
    return GpCondition(n=n, p=Config.from_rows(rect, rows))


SEED = gp(["01", "1."])     # 2x2, hole at (1,1)


def checkerboard_cfg(a, b, c, d):
    rows = ["".join(str((x + y) % 2) for x in range(a, b + 1)) for y in range(c, d + 1)]
    return Config.from_rows(Rect.from_bounds(a, b, c, d), rows)


# ------------------------------------------------------------------ validation

def test_validate_gp_smallest():
    assert validate_gp(SEED)
    assert SEED.u == (1, 1)


def test_validate_gp_rejects_bad_inputs():
    assert not validate_gp(gp(["01", "10"]))          # no hole
    assert not validate_gp(gp(["0.", "1."]))          # two holes
    assert not validate_gp(gp(["010", "1.0"]))        # side 3 not a power of 2
    assert not validate_gp(GpCondition(n=1, p=SEED.p))


def test_validate_gp_powers_of_three():
    c = gp(["010", "110", "01."], n=3)
    assert validate_gp(c)
    assert not validate_gp(gp(["01", "1."], n=3))


# ---------------------------------------------------------------- is_extension

def test_is_extension_gp_reflexive():
    assert is_extension_gp(SEED, SEED)


def test_is_extension_gp_tiling():
    out = extend_tile_gp(SEED, ((0, 1), (0, 1)), (2, 2))
    assert is_extension_gp(out, SEED)
    assert not is_extension_gp(SEED, out)


def test_is_extension_gp_value_disagreement():
    out = extend_tile_gp(SEED, ((0, 1), (0, 1)), (2, 2))
    rows = out.p.rows()
    tweaked = rows[:]
    tweaked[0] = ("1" if rows[0][0] == "0" else "0") + rows[0][1:]
    bad = GpCondition(n=2, p=Config.from_rows(out.p.rect, tweaked))
    assert not is_extension_gp(bad, SEED)


# -------------------------------------------------------------- extend_tile_gp

def test_extend_tile_gp_example():
    out = extend_tile_gp(SEED, ((0, 1), (0, 1)), (2, 2))
    assert out.p.rect == Rect.from_bounds(0, 3, 0, 3)
    assert out.u == (3, 3)
    # Former hole slots (other than the new hole) default to 0.
    assert out.p.value((1, 1)) == 0
    assert out.p.value((3, 1)) == 0
    assert out.p.value((1, 3)) == 0
    # Every block copies the seed values off the hole class.
    for (bx, by) in [(0, 0), (2, 0), (0, 2), (2, 2)]:
        assert out.p.value((bx + 0, by + 0)) == 0
        assert out.p.value((bx + 1, by + 0)) == 1
        assert out.p.value((bx + 0, by + 1)) == 1
    assert validate_gp(out)


def test_extend_tile_gp_hole_fills():
    out = extend_tile_gp(SEED, ((0, 1), (0, 1)), (2, 2), hole_fills={(1, 1): 1})
    assert out.p.value((1, 1)) == 1
    assert out.p.value((3, 1)) == 0


def test_extend_tile_gp_rejections():
    with pytest.raises(ValueError):
        extend_tile_gp(SEED, ((0, 2), (0, 0)), (2, 0))       # count 3, not a power of 2
    with pytest.raises(ValueError):
        extend_tile_gp(SEED, ((0, 1), (0, 1)), (1, 1))       # t* not block-aligned
    with pytest.raises(ValueError):
        extend_tile_gp(SEED, ((1, 2), (0, 1)), (2, 2))       # ranges exclude block 0


def test_extend_tile_gp_matches_per_block_oracle():
    rng = random.Random(211)
    kept = rejected = 0
    for _ in range(1500):
        n = rng.choice([2, 3])
        w, h = n ** rng.randrange(3), n ** rng.randrange(3)
        bits = [[str(rng.randrange(2)) for _ in range(w)] for _ in range(h)]
        bits[rng.randrange(h)][rng.randrange(w)] = "."
        q = gp(["".join(r) for r in bits], n=n, lo=(rng.randint(-4, 4), rng.randint(-4, 4)))
        ranges = []
        for _ in range(2):
            cnt = n ** rng.randrange(3) + (rng.random() < 0.05)
            lo = -rng.randrange(cnt) if rng.random() < 0.95 else 1
            ranges.append((lo, lo + cnt - 1))
        (i0, i1), (j0, j1) = ranges
        t_star = (rng.randint(i0, i1) * w + (rng.random() < 0.05),
                  rng.randint(j0, j1 + (rng.random() < 0.05)) * h)
        fills = {}
        for _ in range(rng.randrange(4)):
            off = (rng.randint(i0, i1) * w, rng.randint(j0, j1) * h + (rng.random() < 0.03))
            fills[(q.u[0] + off[0], q.u[1] + off[1])] = rng.choice([0, 1] * 20 + [2])
        try:
            want = naive_extend_tile_gp(q, ranges, t_star, fills)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                extend_tile_gp(q, ranges, t_star, fills)
            rejected += 1
            continue
        assert extend_tile_gp(q, ranges, t_star, fills) == want
        kept += 1
    assert kept > 500 and rejected > 300


# -------------------------------------------------------- discriminate_shift_gp

@pytest.mark.parametrize("s,bounds,u", [((2, 0), (0, 7, 0, 1), (7, 1)),
                                        ((0, -2), (0, 3, -2, 1), (3, 1)),
                                        ((-4, 2), (-6, 1, 0, 3), (1, 3))])
def test_discriminate_onto_displaced_hole_slot(s, bounds, u):
    # u + s is a copy of the hole slot: both cells get opposite fills.
    out, pair = discriminate_shift_gp(SEED, s, 256)
    assert pair == ((1, 1), (1 + s[0], 1 + s[1]))
    assert out.p.rect == Rect.from_bounds(*bounds)
    assert out.u == u
    assert [out.p.value(g) for g in pair] == [0, 1]
    assert is_extension_gp(out, SEED)


def test_discriminate_small_shift():
    out, pair = discriminate_shift_gp(SEED, (1, 0), 256)
    assert pair == ((1, 1), (2, 1))
    assert out.p.rect == Rect.from_bounds(0, 3, 0, 1)
    assert out.u == (3, 1)
    v0 = out.p.value(pair[0])
    v1 = out.p.value(pair[1])
    assert v0 is not None and v1 is not None and v0 != v1
    assert validate_gp(out)
    assert is_extension_gp(out, SEED)


def test_discriminate_rejects_zero():
    with pytest.raises(ValueError):
        discriminate_shift_gp(SEED, (0, 0), 256)


def test_discriminate_random_shifts():
    rng = random.Random(89)
    for _ in range(40):
        bits = [[str(rng.randrange(2)) for _ in range(4)] for _ in range(4)]
        hx, hy = rng.randrange(4), rng.randrange(4)
        bits[hy][hx] = "."
        q = gp(["".join(r) for r in bits])
        s = (0, 0)
        while s == (0, 0):
            s = (rng.randint(-3, 3), rng.randint(-3, 3))
        out, pair = discriminate_shift_gp(q, s, 256)
        assert pair[0] == q.u
        assert pair[1] == (q.u[0] + s[0], q.u[1] + s[1])
        a = out.p.value(pair[0])
        b = out.p.value(pair[1])
        assert a is not None and b is not None and a != b
        assert validate_gp(out)
        assert is_extension_gp(out, q)


# ------------------------------------------------------------------ line period

def line_cfg(bits):
    return Config.from_rows(Rect.from_bounds(0, len(bits) - 1, 0, 0), [bits])


def test_detect_line_period_examples():
    assert detect_line_period(line_cfg("00000000"), "row", 0) == 1
    assert detect_line_period(line_cfg("01010101"), "row", 0) == 2
    assert detect_line_period(line_cfg("0110"), "row", 0) == 3
    assert detect_line_period(line_cfg("0"), "row", 0) is None
    assert detect_line_period(line_cfg("01"), "row", 0) == 2


def test_detect_line_period_columns():
    cfg = Config.from_rows(Rect.from_bounds(0, 1, 0, 3), ["00", "10", "00", "10"])
    assert detect_line_period(cfg, "col", 0) == 2
    assert detect_line_period(cfg, "col", 1) == 1


@pytest.mark.parametrize("s", [(10**30, 0), (0, -(10**6)), (300, 0)])
def test_discriminate_shift_gp_refuses_oversized_growth(s):
    with pytest.raises(ResourceLimitError, match="exceeds max_side=256"):
        discriminate_shift_gp(SEED, s, 256)
    out, _pair = discriminate_shift_gp(SEED, (100, 0), 256)
    assert out.p.rect.width <= 256


def test_detect_line_period_rejects_holes():
    cfg = Config.from_rows(Rect.from_bounds(0, 2, 0, 0), ["0.0"])
    with pytest.raises(ValueError):
        detect_line_period(cfg, "row", 0)


def test_detect_line_period_matches_oracle():
    rng = random.Random(97)
    for _ in range(100):
        bits = "".join(str(rng.randrange(2)) for _ in range(rng.randint(2, 12)))
        assert detect_line_period(line_cfg(bits), "row", 0) == naive_min_period(bits)


# ------------------------------------------------------------ grid periodicity

def test_grid_periodicity_checkerboard():
    x = checkerboard_cfg(0, 7, 0, 7)
    for u in [(0, 0), (1, 0), (5, 3)]:
        assert verify_grid_periodicity(x, 2, 2, u)


def test_grid_periodicity_detects_corruption():
    rows = ["".join(str((x + y) % 2) for x in range(8)) for y in range(8)]
    rows[4] = rows[4][:3] + ("1" if rows[4][3] == "0" else "0") + rows[4][4:]
    x = Config.from_rows(Rect.from_bounds(0, 7, 0, 7), rows)
    assert not verify_grid_periodicity(x, 2, 2, (0, 0))
    # Unless the damaged cell sits on the exempt hole class.
    assert verify_grid_periodicity(x, 2, 2, (3, 4))


def test_grid_periodicity_window_not_multiple_of_period():
    x = checkerboard_cfg(0, 6, 0, 4)
    assert verify_grid_periodicity(x, 2, 2, (0, 0))


# -------------------------------------------------------------------- builder

GP_LIMITS = {"max_side": 512, "max_steps": 64}


def test_build_generic_gp_empty():
    cert = build_generic_gp(SEED, [], GP_LIMITS)
    assert cert.final == SEED
    assert verify_gp_certificate(cert)["ok"]


def test_build_generic_gp_full_route():
    sched = [
        Shift((1, 0)),
        Shift((0, 1)),
        LineClear("row", 0),
        LineClear("col", 3),
        Cover((20, 20)),
    ]
    cert = build_generic_gp(SEED, sched, GP_LIMITS)
    final = cert.final
    assert validate_gp(final)
    assert verify_gp_certificate(cert)["ok"]

    w = final.p.rect.width
    h = final.p.rect.height
    assert w >= 21 and h >= 21
    assert w & (w - 1) == 0 and h & (h - 1) == 0      # powers of two
    assert final.p.rect.contains((20, 20))

    # Cleared lines carry no hole and a power-of-two period dividing the side.
    u = final.u
    for axis, idx in [("row", 0), ("col", 3)]:
        if axis == "row":
            assert (idx - u[1]) % h != 0
        else:
            assert (idx - u[0]) % w != 0
        p = detect_line_period(final.p, axis, idx)
        side = w if axis == "row" else h
        assert p is not None and side % p == 0


def test_build_generic_gp_chain_ordered():
    sched = [Shift((1, 0)), Cover((5, 5)), LineClear("row", 1)]
    cert = build_generic_gp(SEED, sched, GP_LIMITS)
    chain = cert.chain
    for i in range(len(chain)):
        for j in range(i, len(chain)):
            assert is_extension_gp(chain[j], chain[i])


def test_build_generic_gp_resource_limit():
    with pytest.raises(ResourceLimitError):
        build_generic_gp(SEED, [Cover((600, 0))], GP_LIMITS)
    with pytest.raises(ResourceLimitError):
        build_generic_gp(SEED, [Shift((1, 0))] * 4, {"max_side": 512, "max_steps": 2})


def test_gp_certificate_round_trip():
    cert = build_generic_gp(SEED, [Shift((1, 0)), LineClear("row", 0)], GP_LIMITS)
    blob = canon_dumps(cert.to_json())
    back = GpCertificate.from_json(json.loads(blob))
    assert canon_dumps(back.to_json()) == blob
    assert verify_gp_certificate(back)["ok"]


def test_gp_certificate_tamper_detection():
    cert = build_generic_gp(SEED, [Shift((1, 0)), Cover((6, 6))], GP_LIMITS)
    data = cert.to_json()
    rows = data["final"]["p"]["rows"]
    # Damage one defined cell away from the hole class.
    target = None
    for y, row in enumerate(rows):
        for x, ch in enumerate(row):
            if ch in "01" and (x % 2, y % 2) != (data["seed"]["p"]["holes"][0][0] % 2,
                                                 data["seed"]["p"]["holes"][0][1] % 2):
                target = (x, y)
                break
        if target:
            break
    x, y = target
    rows[y] = rows[y][:x] + ("1" if rows[y][x] == "0" else "0") + rows[y][x + 1:]
    bad = GpCertificate.from_json(data)
    assert not verify_gp_certificate(bad)["ok"]


# ---------------------------------------------------------------- lattice demos

def test_lattice_demo_single_cell():
    f = Config.from_rows(Rect.from_bounds(0, 0, 0, 0), ["0"])
    window, lat, report = lattice_demo(f)
    assert report["verified"]
    assert report["points"] >= 9
    assert report["mismatches"] == []
    assert isinstance(lat, Lattice)


def test_lattice_demo_two_by_two():
    f = Config.from_rows(Rect.from_bounds(0, 1, 0, 1), ["01", "10"])
    window, lat, report = lattice_demo(f)
    assert report["verified"] and report["points"] >= 9
    assert lat.spacings == (4, 4)
    # Spot-check every reported lattice point really matches.
    for g in lattice_points_in(lat, window.rect):
        if g[0] + 1 <= window.rect.hi[0] and g[1] + 1 <= window.rect.hi[1]:
            for (ux, uy) in rect_cells(0, 1, 0, 1):
                assert window.value((g[0] + ux, g[1] + uy)) == f.value((ux, uy))


def test_lattice_demo_random_patterns():
    rng = random.Random(101)
    for _ in range(10):
        w, h = rng.randint(1, 3), rng.randint(1, 3)
        rows = ["".join(str(rng.randrange(2)) for _ in range(w)) for _ in range(h)]
        f = Config.from_rows(Rect.from_bounds(0, w - 1, 0, h - 1), rows)
        window, lat, report = lattice_demo(f)
        assert report["verified"], report
        assert report["points"] >= 9


def test_constant_on_lattice_demo():
    def rule(patch):
        return sum(sum(row) for row in patch) % 2

    window, lat, value = constant_on_lattice_demo(rule, 2)
    assert value in (0, 1)

    def corner(patch):
        return patch[0][0]

    window2, lat2, value2 = constant_on_lattice_demo(corner, 1)
    assert value2 in (0, 1)
