"""Points, rectangles and lattices on the integer grid.

Points are plain ``(x, y)`` tuples throughout; all distances are taxicab.
"""

from __future__ import annotations

import math
from collections.abc import Set
from dataclasses import dataclass
from itertools import product

INFINITY = math.inf


def taxicab_norm(g):
    return abs(g[0]) + abs(g[1])


def dist_to_set(g, points):
    """Taxicab distance from ``g`` to a set of points; INFINITY when empty."""
    if not points:
        return INFINITY
    gx, gy = g
    return min(abs(gx - x) + abs(gy - y) for (x, y) in points)


@dataclass(frozen=True)
class Rect:
    """Closed integer rectangle [lo.x, hi.x] x [lo.y, hi.y]."""

    lo: tuple
    hi: tuple

    @classmethod
    def from_bounds(cls, a, b, c, d):
        if a > b or c > d:
            raise ValueError(f"inverted rectangle bounds ({a},{b},{c},{d})")
        return cls((a, c), (b, d))

    @property
    def width(self):
        return self.hi[0] - self.lo[0] + 1

    @property
    def height(self):
        return self.hi[1] - self.lo[1] + 1

    @property
    def area(self):
        return self.width * self.height

    def bounds(self):
        return (self.lo[0], self.hi[0], self.lo[1], self.hi[1])

    def contains(self, g):
        return self.lo[0] <= g[0] <= self.hi[0] and self.lo[1] <= g[1] <= self.hi[1]

    def contains_rect(self, other):
        return self.contains(other.lo) and self.contains(other.hi)

    def intersect(self, other):
        a = max(self.lo[0], other.lo[0])
        b = min(self.hi[0], other.hi[0])
        c = max(self.lo[1], other.lo[1])
        d = min(self.hi[1], other.hi[1])
        if a > b or c > d:
            return None
        return Rect((a, c), (b, d))

    def translate(self, d):
        dx, dy = d
        return Rect((self.lo[0] + dx, self.lo[1] + dy), (self.hi[0] + dx, self.hi[1] + dy))

    def points(self):
        """All cells, lexicographic (x first, then y): the cells of its Box."""
        return list(Box(*self.bounds()))

    def to_json(self):
        return [self.lo[0], self.hi[0], self.lo[1], self.hi[1]]

    @classmethod
    def from_json(cls, data):
        # JSON integers only: no floats, strings or bools.
        if not (isinstance(data, list) and len(data) == 4 and {*map(type, data)} <= {int}):
            raise ValueError("rect: expected four integers")
        return cls.from_bounds(*data)


@dataclass(frozen=True, eq=False)
class Box(Set):
    """The cells of [x0, x1] x [y0, y1], bounds inclusive, as an immutable
    set of (x, y) tuples, listed in lex order (x first, then y) like
    ``Rect.points()``. It equals, and hashes like, the frozenset of the same
    cells. Membership and equality with another Box read the bounds only;
    iteration and ``hash`` list the cells."""

    x0: int
    x1: int
    y0: int
    y1: int

    def __post_init__(self):
        if self.x0 > self.x1 or self.y0 > self.y1:
            raise ValueError(f"inverted box bounds {self.bounds}")

    @property
    def bounds(self):
        return (self.x0, self.x1, self.y0, self.y1)

    @property
    def area(self):
        return (self.x1 - self.x0 + 1) * (self.y1 - self.y0 + 1)

    @classmethod
    def from_lex(cls, pts):
        """The Box whose cells in lex order are exactly ``pts``, a list of
        [x, y] lists of ints, else None. The bounds and the area are tested
        before any cell is listed."""
        if not pts:
            return None
        (x0, y0), (x1, y1) = pts[0], pts[-1]
        if x0 > x1 or y0 > y1 or (x1 - x0 + 1) * (y1 - y0 + 1) != len(pts):
            return None
        box = cls(x0, x1, y0, y1)
        return box if pts == list(map(list, box)) else None

    def __iter__(self):
        return product(range(self.x0, self.x1 + 1), range(self.y0, self.y1 + 1))

    def __len__(self):
        return self.area

    def __contains__(self, g):
        return (isinstance(g, tuple) and len(g) == 2
                and self.x0 <= g[0] <= self.x1 and self.y0 <= g[1] <= self.y1)

    def __eq__(self, other):
        if isinstance(other, Box):
            return self.bounds == other.bounds
        if not isinstance(other, Set):
            return NotImplemented
        return len(other) == self.area and all(g in self for g in other)

    def __hash__(self):
        return hash(frozenset(self))

    @classmethod
    def _from_iterable(cls, it):
        # Set operations (&, |, -, ^) give frozensets.
        return frozenset(it)


@dataclass(frozen=True)
class Lattice:
    """anchor + spacings[0]*Z x spacings[1]*Z"""

    anchor: tuple
    spacings: tuple

    def __post_init__(self):
        if self.spacings[0] < 1 or self.spacings[1] < 1:
            raise ValueError(f"lattice spacings must be >= 1, got {self.spacings}")
        object.__setattr__(self, "anchor", (int(self.anchor[0]), int(self.anchor[1])))
        object.__setattr__(self, "spacings", (int(self.spacings[0]), int(self.spacings[1])))

    def contains(self, g):
        return (g[0] - self.anchor[0]) % self.spacings[0] == 0 and (
            g[1] - self.anchor[1]
        ) % self.spacings[1] == 0

    def to_json(self):
        return {"anchor": list(self.anchor), "spacings": list(self.spacings)}

    @classmethod
    def from_json(cls, data):
        return cls(tuple(data["anchor"]), tuple(data["spacings"]))


def lattice_points_in(lat, rect):
    """Lattice points inside ``rect``, lexicographic."""
    sx, sy = lat.spacings
    ax, ay = lat.anchor
    x0 = rect.lo[0] + (ax - rect.lo[0]) % sx
    y0 = rect.lo[1] + (ay - rect.lo[1]) % sy
    return [
        (x, y)
        for x in range(x0, rect.hi[0] + 1, sx)
        for y in range(y0, rect.hi[1] + 1, sy)
    ]
