import json
import random

import pytest

from gridwindows.errors import ResourceLimitError
from gridwindows.geometry import Rect, taxicab_norm
from gridwindows.grid import Config, find_occurrences, flip
from gridwindows.mincolor import (
    Certificate,
    Cover,
    DuplicateOdd,
    MtCondition,
    SelfPattern,
    Shift,
    build_generic,
    duplicate_odd,
    extend_cover,
    extend_pattern,
    extend_shift,
    is_extension,
    validate,
    verify_certificate,
)
from gridwindows.serialize import canon_dumps
from gridwindows.witness import check_pattern_witness, check_shift_witness

from oracles import mirror_extend_shift, naive_tile, rect_cells


def checkerboard(a, b, c, d):
    rows = ["".join(str((x + y) % 2) for x in range(a, b + 1)) for y in range(c, d + 1)]
    return Config.from_rows(Rect.from_bounds(a, b, c, d), rows)


def constant(a, b, c, d, bit=0):
    rows = [str(bit) * (b - a + 1) for _ in range(c, d + 1)]
    return Config.from_rows(Rect.from_bounds(a, b, c, d), rows)


def bare(p, odd=False):
    return MtCondition(p=p, shifts=(), patterns=(), odd_mode=odd)


# -------------------------------------------------------------------- validate

def test_validate_empty_condition():
    assert validate(bare(checkerboard(0, 2, 0, 2))) == []


def test_validate_checkerboard_shift_entry():
    cond = MtCondition(
        p=checkerboard(0, 2, 0, 2),
        shifts=(((1, 0), frozenset({(0, 0), (-1, 0)})),),
        patterns=(),
        odd_mode=False,
    )
    assert validate(cond) == []


def test_validate_flags_failing_shift():
    cond = MtCondition(
        p=constant(0, 2, 0, 2),
        shifts=(((1, 0), frozenset({(0, 0), (-1, 0)})),),
        patterns=(),
        odd_mode=False,
    )
    vs = validate(cond)
    assert vs, "constant config cannot witness any shift"
    v = vs[0]
    assert v.clause == "a"
    assert v.index == 0
    assert v.g in set(rect_cells(0, 2, 0, 2))


def test_validate_flags_zero_shift():
    cond = MtCondition(
        p=checkerboard(0, 2, 0, 2),
        shifts=(((0, 0), frozenset({(0, 0)})),),
        patterns=(),
        odd_mode=False,
    )
    vs = validate(cond)
    assert vs and vs[0].clause == "structure"


def test_validate_flags_even_sides_in_odd_mode():
    cond = bare(checkerboard(0, 1, 0, 2), odd=True)
    vs = validate(cond)
    assert vs and vs[0].clause == "structure"
    assert validate(bare(checkerboard(0, 2, 0, 2), odd=True)) == []


def test_validate_flags_holes():
    p = Config.from_rows(Rect.from_bounds(0, 1, 0, 0), ["0."])
    vs = validate(bare(p))
    assert vs and vs[0].clause == "structure"


def test_validate_flags_failing_pattern():
    f = constant(0, 0, 0, 0, bit=1)
    cond = MtCondition(
        p=constant(0, 2, 0, 2, bit=0),
        shifts=(),
        patterns=((f, frozenset({(0, 0)})),),
        odd_mode=False,
    )
    clauses = {v.clause for v in validate(cond)}
    assert "b1" in clauses     # no true match anywhere


# ----------------------------------------------------------------- is_extension

def test_is_extension_reflexive():
    cond = MtCondition(
        p=checkerboard(0, 2, 0, 2),
        shifts=(((1, 0), frozenset({(0, 0), (-1, 0)})),),
        patterns=(),
        odd_mode=False,
    )
    assert is_extension(cond, cond)


def test_is_extension_prefix_rules():
    small = bare(checkerboard(0, 2, 0, 2))
    grown = extend_shift(small, (1, 0))
    assert is_extension(grown, small)
    assert not is_extension(small, grown)

    # Same sizes but a tampered witness set is not an extension.
    t, T = grown.shifts[0]
    tampered = MtCondition(
        p=grown.p,
        shifts=((t, frozenset(set(T) | {(99, 99)})),),
        patterns=grown.patterns,
        odd_mode=grown.odd_mode,
    )
    assert not is_extension(tampered, grown)


def test_is_extension_requires_value_agreement():
    small = bare(constant(0, 1, 0, 1))
    other = bare(constant(-1, 2, -1, 2, bit=1))
    assert not is_extension(other, small)


def test_is_extension_odd_flag_must_match():
    a = bare(checkerboard(0, 2, 0, 2), odd=False)
    b = bare(checkerboard(0, 2, 0, 2), odd=True)
    assert not is_extension(a, b)
    assert not is_extension(b, a)


# ----------------------------------------------------------------- extend_cover

def test_extend_cover_noop_inside_domain():
    cond = bare(checkerboard(0, 2, 0, 2))
    assert extend_cover(cond, (1, 1)) == cond


def test_extend_cover_example():
    cond = bare(checkerboard(0, 1, 0, 1))
    out = extend_cover(cond, (5, 3))
    assert out.p.rect == Rect.from_bounds(0, 5, 0, 3)
    assert validate(out) == []
    assert is_extension(out, cond)
    # Whole blocks of the seed, never partial strips.
    for (x, y) in rect_cells(0, 5, 0, 3):
        assert out.p.value((x, y)) == cond.p.value((x % 2, y % 2))


def test_extend_cover_negative_direction():
    cond = bare(checkerboard(0, 1, 0, 1))
    out = extend_cover(cond, (-3, 0))
    assert out.p.rect == Rect.from_bounds(-4, 1, 0, 1)
    assert is_extension(out, cond)
    assert validate(out) == []


def test_extend_cover_keeps_sides_odd():
    cond = bare(constant(0, 0, 0, 0), odd=True)
    out = extend_cover(cond, (3, 0))
    assert out.p.rect == Rect.from_bounds(0, 4, 0, 0)
    assert out.p.rect.width % 2 == 1
    assert is_extension(out, cond)


# ----------------------------------------------------------------- extend_shift

def test_extend_shift_example():
    cond = bare(checkerboard(0, 1, 0, 1))
    out = extend_shift(cond, (3, 3))
    assert out.p.rect == Rect.from_bounds(0, 5, 0, 5)
    assert len(out.shifts) == 1
    t, T = out.shifts[0]
    assert t == (3, 3)
    assert T == frozenset(rect_cells(-4, 1, -4, 1))
    assert out.p.value((1, 1)) != out.p.value((4, 4))
    assert validate(out) == []
    assert is_extension(out, cond)


def test_extend_shift_existing_is_noop():
    cond = bare(checkerboard(0, 2, 0, 2))
    once = extend_shift(cond, (1, 0))
    twice = extend_shift(once, (1, 0))
    assert once == twice


def test_extend_shift_rejects_zero():
    with pytest.raises(ValueError):
        extend_shift(bare(checkerboard(0, 1, 0, 1)), (0, 0))


def test_extend_shift_negative_components():
    rng = random.Random(73)
    for t in [(-1, 0), (0, -2), (-2, -1), (2, -3)]:
        w = rng.randint(1, 3)
        h = rng.randint(1, 3)
        rows = ["".join(str(rng.randrange(2)) for _ in range(w)) for _ in range(h)]
        cond = bare(Config.from_rows(Rect.from_bounds(0, w - 1, 0, h - 1), rows))
        out = extend_shift(cond, t)
        assert validate(out) == []
        assert is_extension(out, cond)
        tt, T = out.shifts[-1]
        assert tt == t
        assert check_shift_witness(out.p, t, T)


def test_extend_shift_matches_mirror_oracle():
    rng = random.Random(79)
    tiled = 0
    for _ in range(600):
        odd = rng.random() < 0.4
        sides = (1, 3, 5) if odd else (1, 2, 3, 4)
        w, h = rng.choice(sides), rng.choice(sides)
        a, c = rng.randint(-4, 4), rng.randint(-4, 4)
        if rng.random() < 0.5:
            p = constant(a, a + w - 1, c, c + h - 1, rng.randrange(2))
        else:
            rows = ["".join(str(rng.randrange(2)) for _ in range(w)) for _ in range(h)]
            p = Config.from_rows(Rect.from_bounds(a, a + w - 1, c, c + h - 1), rows)
        cond = bare(p, odd)
        for _step in range(rng.randint(1, 3)):
            t = (rng.randint(-9, 9), rng.randint(-9, 9))
            if t == (0, 0):
                continue
            out = extend_shift(cond, t)
            ref = mirror_extend_shift(cond, t)
            assert (out.p, out.shifts) == (ref.p, ref.shifts), (cond, t)
            tiled += out.p != cond.p
            cond = out
    assert tiled > 400


def test_extend_shift_odd_mode_keeps_sides_odd():
    cond = bare(constant(0, 0, 0, 0), odd=True)
    out = extend_shift(cond, (1, 1))
    assert out.p.rect == Rect.from_bounds(0, 2, 0, 2)
    assert out.p.value((0, 0)) != out.p.value((1, 1))
    assert validate(out) == []
    assert is_extension(out, cond)


# --------------------------------------------------------------- extend_pattern

def test_extend_pattern_single_cell():
    cond = bare(constant(0, 0, 0, 0))
    out = extend_pattern(cond)
    assert out.p.rect == Rect.from_bounds(0, 1, 0, 0)
    assert len(out.patterns) == 1
    f, F = out.patterns[0]
    assert f == cond.p
    assert F == frozenset(rect_cells(-1, 1, 0, 0))
    assert validate(out) == []
    assert is_extension(out, cond)


def test_extend_pattern_doubles_and_flips():
    cond = bare(checkerboard(0, 2, 0, 1))
    out = extend_pattern(cond)
    assert out.p.rect == Rect.from_bounds(0, 5, 0, 1)
    left = out.p.restrict(Rect.from_bounds(0, 2, 0, 1))
    right = out.p.restrict(Rect.from_bounds(3, 5, 0, 1))
    assert left == cond.p
    assert right == flip(cond.p).translate((3, 0))
    f, F = out.patterns[0]
    assert check_pattern_witness(out.p, f, F, flipped=False)
    assert check_pattern_witness(out.p, f, F, flipped=True)


def test_extend_pattern_odd_mode_three_copies():
    cond = bare(constant(0, 0, 0, 0), odd=True)
    out = extend_pattern(cond)
    assert out.p.rect == Rect.from_bounds(0, 2, 0, 0)
    assert out.p.rows() == ["010"]
    assert out.p.rect.width % 2 == 1
    assert validate(out) == []
    assert is_extension(out, cond)


# ---------------------------------------------------------------- duplicate_odd

def test_duplicate_odd_single_cell():
    cond = bare(constant(0, 0, 0, 0), odd=True)
    out, offset = duplicate_odd(cond)
    assert offset == (1, 0)
    assert taxicab_norm(offset) % 2 == 1
    assert out.p.rect == Rect.from_bounds(0, 2, 0, 0)
    assert find_occurrences(out.p, cond.p, False) >= {(0, 0), (1, 0)}
    assert validate(out) == []
    assert is_extension(out, cond)


def test_duplicate_odd_three_by_three():
    rng = random.Random(79)
    rows = ["".join(str(rng.randrange(2)) for _ in range(3)) for _ in range(3)]
    cond = bare(Config.from_rows(Rect.from_bounds(0, 2, 0, 2), rows), odd=True)
    out, offset = duplicate_odd(cond)
    assert offset == (3, 0)
    assert out.p.rect == Rect.from_bounds(0, 8, 0, 2)
    occ = find_occurrences(out.p, cond.p, False)
    assert {(0, 0), (3, 0)} <= occ


def test_duplicate_odd_is_three_plain_copies_from_the_low_corner():
    """The cover of the cell two widths right of the window gives what the
    old step tiled directly: three plain copies anchored at the window's low
    corner, on every odd window of sides 1 to 5."""
    rng = random.Random(36)
    for w in (1, 3, 5):
        for h in (1, 3, 5):
            for _ in range(4):
                a, c = rng.randint(-9, 9), rng.randint(-9, 9)
                rows = ["".join(rng.choice("01") for _ in range(w)) for _ in range(h)]
                q = Config.from_rows(Rect.from_bounds(a, a + w - 1, c, c + h - 1), rows)
                cond = bare(q, odd=True)
                out, offset = duplicate_odd(cond)
                assert out.p == naive_tile(q, (3, 1), lambda i, j: False, q.rect.lo)
                assert offset == (w, 0) and out.odd_mode
                assert (out.shifts, out.patterns) == (cond.shifts, cond.patterns)


def test_duplicate_odd_requires_odd_mode():
    cond = bare(constant(0, 0, 0, 0), odd=False)
    with pytest.raises(ValueError):
        duplicate_odd(cond)


# ---------------------------------------------------------------- build_generic

LIMITS = {"max_side": 256, "max_steps": 64}


def test_build_generic_empty_schedule():
    start = bare(checkerboard(0, 2, 0, 2))
    cert = build_generic(start, [], LIMITS)
    assert cert.final == start
    rep = verify_certificate(cert)
    assert rep["ok"]


def test_build_generic_example_schedule():
    start = bare(checkerboard(0, 2, 0, 2))
    cert = build_generic(start, [Shift((1, 0)), Shift((0, 1)), SelfPattern()], LIMITS)
    assert validate(cert.final) == []
    ts = [t for (t, _) in cert.final.shifts]
    assert (1, 0) in ts and (0, 1) in ts
    assert len(cert.final.patterns) == 1
    assert verify_certificate(cert)["ok"]


def test_build_generic_chain_is_ordered():
    start = bare(checkerboard(0, 2, 0, 2))
    cert = build_generic(
        start,
        [Cover((7, 4)), Shift((1, 0)), SelfPattern(), Shift((-2, 1))],
        LIMITS,
    )
    chain = cert.chain
    assert chain[0] == start
    assert chain[-1] == cert.final
    for i in range(len(chain)):
        for j in range(i, len(chain)):
            assert is_extension(chain[j], chain[i])


def test_build_generic_resource_limit():
    start = bare(checkerboard(0, 2, 0, 2))
    with pytest.raises(ResourceLimitError):
        build_generic(start, [Cover((50, 50))], {"max_side": 32, "max_steps": 64})
    with pytest.raises(ResourceLimitError):
        build_generic(start, [Shift((1, 0))] * 5, {"max_side": 64, "max_steps": 3})


def test_build_generic_side_checks_refuse_no_fitting_step():
    """The side checks made before a cover or a shift tiles refuse no step
    whose grown window fits: with max_side set to its grown side, it runs."""
    rng = random.Random(89)
    for _ in range(400):
        odd = rng.random() < 0.4
        w, h = (rng.choice((1, 3, 5) if odd else (1, 2, 3, 4)) for _ in range(2))
        a, c = rng.randint(-4, 4), rng.randint(-4, 4)
        rows = ["".join(str(rng.randrange(2)) for _ in range(w)) for _ in range(h)]
        cond = bare(Config.from_rows(Rect.from_bounds(a, a + w - 1, c, c + h - 1), rows), odd)
        if rng.random() < 0.5:
            cond = extend_shift(cond, (rng.randint(1, 4), rng.randint(-4, 4)))
        v = (rng.randint(-12, 12), rng.randint(-12, 12))
        if v == (0, 0):
            continue
        req, grow = rng.choice([(Cover(v), extend_cover), (Shift(v), extend_shift)])
        rect = grow(cond, v).p.rect
        limits = {"max_side": max(rect.width, rect.height), "max_steps": 1}
        assert build_generic(cond, [req], limits).final.p.rect == rect


def test_build_generic_rejects_duplicate_odd_outside_odd_mode():
    start = bare(checkerboard(0, 2, 0, 2))
    with pytest.raises(ValueError):
        build_generic(start, [DuplicateOdd()], LIMITS)


def test_build_generic_rejects_invalid_start():
    broken = MtCondition(
        p=constant(0, 2, 0, 2),
        shifts=(((1, 0), frozenset({(0, 0)})),),
        patterns=(),
        odd_mode=False,
    )
    with pytest.raises(ValueError):
        build_generic(broken, [], LIMITS)


def test_build_generic_odd_route():
    rng = random.Random(83)
    rows = ["".join(str(rng.randrange(2)) for _ in range(3)) for _ in range(3)]
    start = bare(Config.from_rows(Rect.from_bounds(0, 2, 0, 2), rows), odd=True)
    cert = build_generic(start, [DuplicateOdd(), SelfPattern(), Cover((0, 12))], LIMITS)
    final = cert.final
    assert final.p.rect.width % 2 == 1 and final.p.rect.height % 2 == 1
    assert validate(final) == []
    assert verify_certificate(cert)["ok"]


def test_build_generic_deterministic():
    start = bare(checkerboard(0, 2, 0, 2))
    sched = [Shift((1, 0)), Cover((6, 6)), SelfPattern()]
    a = build_generic(start, sched, LIMITS)
    b = build_generic(start, sched, LIMITS)
    assert canon_dumps(a.to_json()) == canon_dumps(b.to_json())


def test_certificate_round_trip():
    start = bare(checkerboard(0, 2, 0, 2))
    cert = build_generic(start, [Shift((1, 0)), SelfPattern()], LIMITS)
    blob = canon_dumps(cert.to_json())
    back = Certificate.from_json(json.loads(blob))
    assert canon_dumps(back.to_json()) == blob
    assert back.final == cert.final
    assert verify_certificate(back)["ok"]


def test_verify_certificate_catches_tampering():
    start = bare(checkerboard(0, 2, 0, 2))
    cert = build_generic(start, [Shift((1, 0))], LIMITS)
    data = cert.to_json()
    # Flip one recorded witness offset to something absurd.
    data["final"]["shifts"][0]["T"] = [[99, 99]]
    bad = Certificate.from_json(data)
    rep = verify_certificate(bad)
    assert not rep["ok"]
    assert any(not c["ok"] for c in rep["checks"])
