import math
import random

import pytest

from gridwindows.geometry import (
    INFINITY,
    Box,
    Lattice,
    Rect,
    dist_to_set,
    lattice_points_in,
    taxicab_norm,
)

from oracles import naive_dist_to_set, naive_lattice_points


def test_taxicab_values():
    assert taxicab_norm((0, 0)) == 0
    assert taxicab_norm((1, -2)) == 3
    assert taxicab_norm((-4, -4)) == 8
    assert taxicab_norm((3, -4)) == 7


def test_taxicab_triangle_inequality():
    rng = random.Random(7)
    for _ in range(200):
        g = (rng.randint(-30, 30), rng.randint(-30, 30))
        h = (rng.randint(-30, 30), rng.randint(-30, 30))
        s = (g[0] + h[0], g[1] + h[1])
        assert taxicab_norm(s) <= taxicab_norm(g) + taxicab_norm(h)
        assert taxicab_norm(g) >= 0


def test_dist_to_set_empty_is_infinite():
    assert dist_to_set((0, 0), set()) == INFINITY
    assert math.isinf(dist_to_set((5, -2), frozenset()))


def test_dist_to_set_values():
    assert dist_to_set((0, 0), {(0, 0), (5, 5)}) == 0
    assert dist_to_set((0, 0), {(2, 1), (-3, 0)}) == 3


def test_dist_to_set_matches_oracle():
    rng = random.Random(11)
    for _ in range(100):
        g = (rng.randint(-10, 10), rng.randint(-10, 10))
        pts = {(rng.randint(-10, 10), rng.randint(-10, 10))
               for _ in range(rng.randint(0, 6))}
        assert dist_to_set(g, pts) == naive_dist_to_set(g, pts)
        if pts:
            assert dist_to_set(g, pts | {g}) == 0


def test_rect_basics():
    r = Rect.from_bounds(0, 3, -1, 1)
    assert r.width == 4 and r.height == 3
    assert r.contains((0, -1)) and r.contains((3, 1))
    assert not r.contains((4, 0))
    assert r.contains_rect(Rect.from_bounds(1, 2, 0, 0))
    assert not r.contains_rect(Rect.from_bounds(1, 4, 0, 0))
    with pytest.raises(ValueError):
        Rect.from_bounds(2, 1, 0, 0)


def test_rect_points_lexicographic():
    r = Rect.from_bounds(0, 1, 0, 1)
    assert list(r.points()) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_rect_intersect():
    a = Rect.from_bounds(0, 4, 0, 4)
    b = Rect.from_bounds(3, 6, 2, 9)
    assert a.intersect(b) == Rect.from_bounds(3, 4, 2, 4)
    assert a.intersect(Rect.from_bounds(5, 6, 0, 4)) is None


def test_lattice_points_examples():
    win = Rect.from_bounds(0, 1, 0, 1)
    assert lattice_points_in(Lattice((0, 0), (1, 1)), win) == \
        [(0, 0), (0, 1), (1, 0), (1, 1)]
    win = Rect.from_bounds(0, 3, 0, 3)
    assert lattice_points_in(Lattice((0, 0), (2, 2)), win) == \
        [(0, 0), (0, 2), (2, 0), (2, 2)]
    win = Rect.from_bounds(2, 4, 2, 4)
    assert lattice_points_in(Lattice((1, 1), (5, 5)), win) == []


def test_lattice_points_match_oracle_and_order():
    rng = random.Random(3)
    for _ in range(100):
        anchor = (rng.randint(-5, 5), rng.randint(-5, 5))
        sp = (rng.randint(1, 4), rng.randint(1, 4))
        a = rng.randint(-6, 6)
        c = rng.randint(-6, 6)
        bounds = (a, a + rng.randint(0, 8), c, c + rng.randint(0, 8))
        win = Rect.from_bounds(*bounds)
        got = lattice_points_in(Lattice(anchor, sp), win)
        assert got == naive_lattice_points(anchor, sp, bounds)
        assert got == sorted(got)
        lat = Lattice(anchor, sp)
        assert all(lat.contains(g) for g in got)


def test_lattice_points_grow_with_window():
    lat = Lattice((1, 0), (2, 3))
    small = Rect.from_bounds(0, 4, 0, 4)
    big = Rect.from_bounds(-2, 6, -3, 6)
    assert set(lattice_points_in(lat, small)) <= set(lattice_points_in(lat, big))


@pytest.mark.parametrize("bounds", [(1, 0, 0, 0), (0, 0, 5, 4)])
def test_inverted_box_rejected(bounds):
    with pytest.raises(ValueError, match="inverted box bounds"):
        Box(*bounds)


def test_lattice_spacing_validation():
    with pytest.raises(ValueError):
        Lattice((0, 0), (0, 1))
    with pytest.raises(ValueError):
        Lattice((0, 0), (1, -2))
