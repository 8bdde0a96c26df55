import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridwindows.geometry import Box, Lattice, Rect, taxicab_norm
from gridwindows.grid import Config, PatternSet
from gridwindows.witness import (
    ColorGrid,
    OddSet,
    check_pattern_witness,
    check_shift_witness,
    chromatic_check,
    find_lattice_in,
    find_odd_recurrence,
    largest_two_colored_rect,
    recurrence_check,
    window_two_coloring_check,
)

from oracles import (
    cells_of,
    naive_largest_two_colored,
    naive_pattern_ok,
    naive_recurrence,
    naive_shift_ok,
    naive_window_check,
    odd_ball,
    rect_cells,
)


def checkerboard(a, b, c, d, phase=0):
    rows = []
    for y in range(c, d + 1):
        rows.append("".join(str((x + y + phase) % 2) for x in range(a, b + 1)))
    return Config.from_rows(Rect.from_bounds(a, b, c, d), rows)


def checkerblock(a, b, c, d, block=2):
    rows = []
    for y in range(c, d + 1):
        rows.append("".join(str(((x - a) // block + (y - c) // block) % 2)
                            for x in range(a, b + 1)))
    return Config.from_rows(Rect.from_bounds(a, b, c, d), rows)


def constant(a, b, c, d, bit=0):
    rows = [str(bit) * (b - a + 1) for _ in range(c, d + 1)]
    return Config.from_rows(Rect.from_bounds(a, b, c, d), rows)


def cell(bit, at=(0, 0)):
    return Config.from_rows(Rect.from_bounds(at[0], at[0], at[1], at[1]), [str(bit)])


def rand_config(rng, max_side=6):
    a = rng.randint(-3, 3)
    c = rng.randint(-3, 3)
    w = rng.randint(1, max_side)
    h = rng.randint(1, max_side)
    rows = ["".join(str(rng.randrange(2)) for _ in range(w)) for _ in range(h)]
    return Config.from_rows(Rect.from_bounds(a, a + w - 1, c, c + h - 1), rows)


# ---------------------------------------------------------------- shift witness

def test_shift_witness_checkerboard_example():
    p = checkerboard(0, 2, 0, 2)
    assert check_shift_witness(p, (1, 0), {(0, 0), (-1, 0)})


def test_shift_witness_constant_fails():
    p = constant(0, 2, 0, 2)
    assert not check_shift_witness(p, (1, 0), {(0, 0), (-1, 0)})


def test_shift_witness_empty_T_fails():
    p = checkerboard(0, 2, 0, 2)
    assert not check_shift_witness(p, (1, 0), set())


def test_shift_witness_rejects_zero_shift():
    p = checkerboard(0, 2, 0, 2)
    with pytest.raises(ValueError):
        check_shift_witness(p, (0, 0), {(0, 0)})


def test_shift_witness_matches_oracle():
    rng = random.Random(41)
    for _ in range(60):
        p = rand_config(rng, max_side=5)
        t = (0, 0)
        while t == (0, 0):
            t = (rng.randint(-2, 2), rng.randint(-2, 2))
        T = {(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(0, 6))}
        _, pc = cells_of(p)
        assert check_shift_witness(p, t, T) == naive_shift_ok(pc, t, T)


def test_shift_witness_monotone_in_T():
    rng = random.Random(43)
    for _ in range(40):
        p = rand_config(rng, max_side=5)
        t = (1, 0)
        T = {(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(4)}
        bigger = T | {(rng.randint(-2, 2), rng.randint(-2, 2))}
        if check_shift_witness(p, t, T):
            assert check_shift_witness(p, t, bigger)


# -------------------------------------------------------------- pattern witness

def test_pattern_witness_all_zeros():
    p = constant(0, 2, 0, 2)
    f = cell(0)
    F = set(rect_cells(-2, 0, -2, 0))
    assert check_pattern_witness(p, f, F, flipped=False)
    assert not check_pattern_witness(p, f, F, flipped=True)


def test_pattern_witness_empty_F_fails():
    p = constant(0, 2, 0, 2)
    assert not check_pattern_witness(p, cell(0), set(), flipped=False)


def test_pattern_witness_matches_oracle():
    rng = random.Random(47)
    for _ in range(50):
        p = rand_config(rng, max_side=5)
        f = rand_config(rng, max_side=2)
        F = {(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(0, 8))}
        _, pc = cells_of(p)
        _, fc = cells_of(f)
        for flipped in (False, True):
            assert check_pattern_witness(p, f, F, flipped) == \
                naive_pattern_ok(pc, fc, F, flipped)


# ------------------------------------------------------------ windowed checking

def test_window_check_checkerboard_any_window():
    for bounds in [(0, 1, 0, 0), (0, 5, 0, 3), (-2, 2, -2, 2)]:
        x = checkerboard(*bounds)
        assert window_two_coloring_check(x, (1, 0), {(0, 0)})


def test_window_check_constant_fails():
    x = constant(0, 4, 0, 4)
    assert not window_two_coloring_check(x, (1, 0), {(0, 0)})


def test_window_check_empty_T_fails():
    x = checkerboard(0, 3, 0, 3)
    assert not window_two_coloring_check(x, (1, 0), set())


def test_window_check_vacuous_when_probes_never_fit():
    x = constant(0, 1, 0, 1)
    # Probe spread exceeds the window: no admissible g, so the check passes.
    assert window_two_coloring_check(x, (5, 0), {(0, 0), (9, 9)})


def test_window_check_hole_probes_never_witness():
    x = Config.from_rows(Rect.from_bounds(0, 1, 0, 0), ["0."])
    assert not window_two_coloring_check(x, (1, 0), {(0, 0)})


def test_window_check_matches_oracle():
    rng = random.Random(53)
    for _ in range(60):
        x = rand_config(rng, max_side=5)
        s = (0, 0)
        while s == (0, 0):
            s = (rng.randint(-2, 2), rng.randint(-2, 2))
        T = {(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.randint(1, 5))}
        b, xc = cells_of(x)
        assert window_two_coloring_check(x, s, T) == naive_window_check(xc, b, s, T)


def test_window_check_stable_under_subwindows():
    rng = random.Random(59)
    hits = 0
    for _ in range(80):
        x = rand_config(rng, max_side=7)
        s = (rng.choice([1, -1]), rng.randint(-1, 1))
        T = {(rng.randint(-1, 1), rng.randint(-1, 1)) for _ in range(rng.randint(1, 4))}
        if not window_two_coloring_check(x, s, T):
            continue
        hits += 1
        r = x.rect
        a = rng.randint(r.lo[0], r.hi[0])
        b = rng.randint(a, r.hi[0])
        c = rng.randint(r.lo[1], r.hi[1])
        d = rng.randint(c, r.hi[1])
        sub = x.restrict(Rect.from_bounds(a, b, c, d))
        assert window_two_coloring_check(sub, s, T)
    assert hits >= 5


COORD = st.integers(-3, 3) | st.sampled_from([-10**30, 10**30])
NEAR = st.tuples(st.integers(-7, 7), st.integers(-7, 7))


@st.composite
def clause_a_cases(draw):
    """(window, t, T, want): a hole-free window of at most 5 x 5 cells
    anywhere, a nonzero t in [-3, 3]² and a witness set T, as a Box or a
    frozenset, near the origin or moved 10**30 away. ``want`` is clause a's
    verdict where the draw decides it, else None:
    - no pair t apart differs, so clause a fails whatever T is;
    - "full": T holds the box of every offset whose two probes fit in the
      window from some cell, so clause a holds when some pair t apart differs;
    - "picked": T holds, for each cell, one offset to a differing pair;
    - moved away, no probe fits and clause a fails."""
    t = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any))
    # The window is wide enough for a pair t apart; a narrower one fails clause a.
    w, h = (draw(st.integers(abs(k) + 1, 5)) for k in t)
    x0, y0 = draw(COORD), draw(COORD)
    rng = draw(st.randoms(use_true_random=False))
    rows = ["".join(rng.choice("01") for _ in range(w)) for _ in range(h)]
    p = Config.from_rows(Rect.from_bounds(x0, x0 + w - 1, y0, y0 + h - 1), rows)
    _, cells = cells_of(p)
    starts = [d for d, v in cells.items() if cells.get((d[0] + t[0], d[1] + t[1]), v) != v]
    # tau_k fits from some cell when 1 - side <= tau_k + min(0, t_k) and
    # tau_k + max(0, t_k) <= side - 1.
    lo = (1 - w - min(0, t[0]), 1 - h - min(0, t[1]))
    hi = (w - 1 - max(0, t[0]), h - 1 - max(0, t[1]))
    kind = draw(st.sampled_from(["full", "picked", "picked", "box", "points"]))
    want = None if starts else False
    if kind == "full" and lo[0] <= hi[0] and lo[1] <= hi[1]:
        T, want = Box(lo[0], hi[0], lo[1], hi[1]), bool(starts)
        extra = draw(st.frozensets(NEAR, max_size=3))
        if extra:
            T = frozenset(T) | extra
    elif kind == "picked" and starts:
        T, want = frozenset(draw(st.sampled_from([(a - x, b - y) for a, b in starts]))
                            for x, y in cells), True
    elif kind != "points":
        (a, b), (c, d) = draw(NEAR), draw(NEAR)
        T = Box(min(a, c), max(a, c), min(b, d), max(b, d))
    else:
        T = draw(st.frozensets(NEAR, min_size=1, max_size=12))
    far = draw(st.sampled_from([0] * 8 + [10**30, -10**30]))
    if far:
        T, want = (Box(T.x0 + far, T.x1 + far, T.y0 - far, T.y1 - far) if isinstance(T, Box)
                   else frozenset((x + far, y - far) for x, y in T)), False
    return p, t, T, want


@given(clause_a_cases())
def test_clause_a_implies_the_window_check(case):
    """Clause a on a hole-free window implies the window check, so
    ``window two-coloring`` fails only where ``final validate`` fails too
    (a final with a hole fails ``final validate`` by itself).

    Proof. Let clause a hold for (t, T) on the hole-free window [lo, hi].
    At the cell lo it gives some tau in T with lo + tau and lo + tau + t in
    the window, so tau_k >= max(0, -t_k) on each axis k, and hence
    max_T tau_k >= max(0, -t_k). At the cell hi it gives some tau with
    tau_k <= min(0, -t_k), so min_T tau_k <= min(0, -t_k). The window check
    admits the positions g with
        lo_k - min_T tau_k - min(0, t_k) <= g_k <= hi_k - max_T tau_k - max(0, t_k),
    so every admissible g has lo_k + |t_k| <= g_k <= hi_k - |t_k|: it is a
    cell of the window. There clause a gives a tau whose probes g + tau and
    g + tau + t are defined and differ, which is all the window check asks
    of g. With no admissible position the check holds vacuously."""
    p, t, T, want = case
    clause_a = check_shift_witness(p, t, T)
    # The premise is not vacuous: the draw makes clause a hold often.
    assert want is None or clause_a == want
    if clause_a:
        assert window_two_coloring_check(p, t, T)


# ------------------------------------------------------------------- recurrence

def test_recurrence_example():
    x = checkerboard(0, 3, 0, 3)
    B = PatternSet((cell(1),))
    rep = recurrence_check(x, B, {(0, 0), (1, 0)})
    assert rep.ok and bool(rep)
    assert rep.failing == ()


def test_recurrence_failing_positions_reported():
    x = constant(0, 3, 0, 3, bit=0)
    B = PatternSet((cell(1),))
    rep = recurrence_check(x, B, {(0, 0)})
    assert not rep.ok
    assert set(rep.failing) == set(rect_cells(0, 3, 0, 3))


def test_recurrence_empty_T_fails_nonvacuously():
    x = checkerboard(0, 3, 0, 3)
    B = PatternSet((cell(1),))
    rep = recurrence_check(x, B, set())
    assert not rep.ok


def test_recurrence_matches_oracle():
    rng = random.Random(61)
    for _ in range(40):
        x = rand_config(rng, max_side=5)
        pats = tuple(rand_config(rng, max_side=2) for _ in range(rng.randint(1, 2)))
        B = PatternSet(pats)
        T = {(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.randint(1, 4))}
        b, xc = cells_of(x)
        maps = [cells_of(f)[1] for f in pats]
        ok, failing = naive_recurrence(xc, b, maps, T)
        rep = recurrence_check(x, B, T)
        assert rep.ok == ok
        assert set(rep.failing) == set(failing)


def test_recurrence_reports_rim_exclusions():
    x = checkerboard(0, 4, 0, 4)
    B = PatternSet((cell(1),))
    rep = recurrence_check(x, B, {(2, 0), (-2, 0), (1, 0)})
    # Offsets reach 2 to the left/right, so a rim strip is excluded.
    assert rep.rim_excluded > 0
    assert rep.admissible_count + rep.rim_excluded == 25


# -------------------------------------------------------------- odd recurrence

def test_odd_set_members():
    s = OddSet(2)
    assert set(s.points()) == {(-1, 0), (0, -1), (0, 1), (1, 0)}
    assert all(taxicab_norm(g) % 2 == 1 for g in OddSet(5).points())
    assert set(OddSet(3).points()) == set(odd_ball(3))
    with pytest.raises(ValueError):
        OddSet(0)


def test_find_odd_recurrence_unit_checkerboard_has_none():
    # Odd steps flip coordinate-sum parity, so cells carrying a 1 can never
    # reach another 1: no odd radius works, at any size. The window is kept
    # large enough that every radius up to 5 still has admissible positions,
    # so each failure below is non-vacuous.
    x = checkerboard(0, 12, 0, 12)
    B = PatternSet((cell(1),))
    assert find_odd_recurrence(x, B, 5) is None
    for r in range(1, 6):
        rep = recurrence_check(x, B, set(odd_ball(r)))
        assert rep.admissible_count > 0
        assert not rep.ok


def test_find_odd_recurrence_block_checkerboard():
    # With 2x2 blocks every cell sees a 1 at distance 1 (in-block for 1-cells,
    # cross-block for 0-cells), so the smallest odd radius is 1.
    x = checkerblock(0, 7, 0, 7)
    B = PatternSet((cell(1),))
    got = find_odd_recurrence(x, B, 5)
    assert got == OddSet(1)
    assert set(got.points()) == {(-1, 0), (0, -1), (0, 1), (1, 0)}


def test_find_odd_recurrence_no_match_is_none():
    x = constant(0, 5, 0, 5, bit=0)
    B = PatternSet((cell(1),))
    assert find_odd_recurrence(x, B, 4) is None


def test_find_odd_recurrence_match_everywhere():
    x = constant(0, 5, 0, 5, bit=0)
    B = PatternSet((cell(0),))
    assert find_odd_recurrence(x, B, 4) == OddSet(1)


# ------------------------------------------------------------------- lattices

def test_find_lattice_match_everywhere():
    x = constant(0, 4, 0, 4)
    B = PatternSet((cell(0),))
    lat = find_lattice_in(x, B, max_spacing=3)
    assert lat == Lattice((0, 0), (1, 1))


def test_find_lattice_checkerboard():
    x = checkerboard(0, 6, 0, 6)        # zeros on even coordinate sums
    B = PatternSet((cell(0),))
    lat = find_lattice_in(x, B, max_spacing=4)
    assert lat == Lattice((0, 0), (2, 2))


def test_find_lattice_none_when_absent():
    x = constant(0, 6, 0, 6, bit=1)
    B = PatternSet((cell(0),))
    assert find_lattice_in(x, B, max_spacing=3) is None


def test_find_lattice_requires_min_points():
    x = constant(0, 2, 0, 2)
    B = PatternSet((cell(0),))
    assert find_lattice_in(x, B, max_spacing=2, min_points=10) is None
    assert find_lattice_in(x, B, max_spacing=2, min_points=9) == Lattice((0, 0), (1, 1))


def test_find_lattice_result_checks_out():
    rng = random.Random(67)
    found = 0
    for _ in range(40):
        w = rng.randint(1, 3)
        h = rng.randint(1, 3)
        seed_rows = ["".join(str(rng.randrange(2)) for _ in range(w)) for _ in range(h)]
        seed = Config.from_rows(Rect.from_bounds(0, w - 1, 0, h - 1), seed_rows)
        x_rows = [(seed_rows[y % h] * 12)[:12] for y in range(12)]
        x = Config.from_rows(Rect.from_bounds(0, 11, 0, 11), x_rows)
        B = PatternSet((seed,))
        lat = find_lattice_in(x, B, max_spacing=4)
        if lat is None:
            continue
        found += 1
        from gridwindows.grid import find_occurrences
        occ = find_occurrences(x, seed, False)
        from gridwindows.geometry import lattice_points_in
        for g in lattice_points_in(lat, x.rect):
            fits = (g[0] + w - 1 <= 11) and (g[1] + h - 1 <= 11)
            if fits:
                assert g in occ
    assert found >= 20


# ------------------------------------------------------------------ colorings

def diagonal_stripes(a, b, c, d, k=3):
    vals = [[(x + y) % k for x in range(a, b + 1)] for y in range(c, d + 1)]
    return ColorGrid(Rect.from_bounds(a, b, c, d), vals)


def test_chromatic_check_examples():
    cb = diagonal_stripes(0, 5, 0, 5, k=2)
    assert chromatic_check(cb, 2)
    assert chromatic_check(cb, 3)
    stripes = diagonal_stripes(0, 5, 0, 5, k=3)
    assert chromatic_check(stripes, 3)
    flat = ColorGrid(Rect.from_bounds(0, 2, 0, 2), [[0] * 3] * 3)
    assert not chromatic_check(flat, 2)


def test_chromatic_check_rejects_out_of_range_colors():
    g = ColorGrid(Rect.from_bounds(0, 1, 0, 0), [[0, 3]])
    with pytest.raises(ValueError):
        chromatic_check(g, 2)


def test_largest_two_colored_rect_checkerboard():
    cb = diagonal_stripes(0, 4, 0, 3, k=2)
    rect = largest_two_colored_rect(cb)
    assert rect == Rect.from_bounds(0, 4, 0, 3)


def test_largest_two_colored_rect_three_stripes():
    g = diagonal_stripes(0, 5, 0, 5, k=3)
    rect = largest_two_colored_rect(g)
    dims = sorted((rect.width, rect.height))
    assert dims == [1, 2]


def test_largest_two_colored_rect_matches_oracle():
    rng = random.Random(71)
    for _ in range(25):
        w, h = rng.randint(1, 4), rng.randint(1, 4)
        vals = [[rng.randrange(3) for _ in range(w)] for _ in range(h)]
        g = ColorGrid(Rect.from_bounds(0, w - 1, 0, h - 1), vals)
        cellmap = {(x, y): vals[y][x] for x in range(w) for y in range(h)}
        want = naive_largest_two_colored(cellmap)
        got = largest_two_colored_rect(g)
        if want is None:
            assert got is None
        else:
            a, b, c, d = want
            gw, gh = b - a + 1, d - c + 1
            assert (min(rect_dims(got)), got.area) == (min(gw, gh), gw * gh)


def rect_dims(r):
    return (r.width, r.height)
