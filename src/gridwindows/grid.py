"""Finite binary windows with optional holes.

A ``Config`` assigns 0/1 to the cells of a rectangle, except at hole cells
where it is undefined. Values are stored in a numpy array indexed
``[y - lo.y, x - lo.x]`` with 255 marking holes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Rect
from .schedule import read_points
from .serialize import pgm_dumps

HOLE = 255
# The hole set of every hole-free window: an empty frozenset costs 216 bytes.
_NO_HOLES = frozenset()

# Byte lookup tables of the row and PGM codecs; cell values are 0, 1 and HOLE.
_BAD = 2
_CHAR_TO_BIT = np.full(256, _BAD, dtype=np.uint8)
_CHAR_TO_BIT[list(b"01.")] = (0, 1, HOLE)
_BIT_TO_CHAR = np.zeros(256, dtype=np.uint8)
_BIT_TO_CHAR[[0, 1, HOLE]] = list(b"01.")
_BIT_TO_GRAY = np.zeros(256, dtype=np.uint8)
_BIT_TO_GRAY[[0, 1, HOLE]] = (0, 2, 1)


def _slices(rect, sub):
    """numpy index for ``sub`` inside an array laid out over ``rect``."""
    return (
        slice(sub.lo[1] - rect.lo[1], sub.hi[1] - rect.lo[1] + 1),
        slice(sub.lo[0] - rect.lo[0], sub.hi[0] - rect.lo[0] + 1),
    )


class Config:
    """Immutable rectangular 0/1 window, possibly with holes."""

    __slots__ = ("rect", "_bits", "_holes")

    def __new__(cls, rect, bits):
        arr = np.array(bits, dtype=np.uint8)
        if arr.shape != (rect.height, rect.width):
            raise ValueError(
                f"bit array shape {arr.shape} does not match rect {rect.width}x{rect.height}"
            )
        if ((arr > 1) & (arr != HOLE)).any():
            raise ValueError("cell values must be 0, 1 or hole")
        return cls._trusted(rect, arr)

    @classmethod
    def _trusted(cls, rect, arr, holes=None):
        """A Config over a uint8 array of 0, 1 and HOLE that the package has
        just made, taken as it is: no copy, no value check. ``holes`` is the
        hole set, when the caller knows it."""
        cfg = object.__new__(cls)
        arr.setflags(write=False)
        object.__setattr__(cfg, "rect", rect)
        object.__setattr__(cfg, "_bits", arr)
        object.__setattr__(cfg, "_holes", holes)
        return cfg

    def __setattr__(self, name, value):
        raise AttributeError("Config is immutable")

    @property
    def array(self):
        return self._bits

    @classmethod
    def from_rows(cls, rect, rows):
        """Rows are listed low-y first; characters 0, 1 and '.' (hole)."""
        if len(rows) != rect.height:
            raise ValueError(f"expected {rect.height} rows, got {len(rows)}")
        # The rows are checked before anything the size of rect is allocated.
        for j, row in enumerate(rows):
            if not isinstance(row, str):
                raise ValueError(f"row {j} is not a string")
            if len(row) != rect.width:
                raise ValueError(f"row {j} has length {len(row)}, expected {rect.width}")
        text = "".join(rows)
        # "replace" keeps one byte per character, so indices match the text.
        data = _CHAR_TO_BIT[np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)]
        bad = data == _BAD
        if bad.any():
            raise ValueError(f"bad cell character {text[int(bad.argmax())]!r}")
        return cls._trusted(rect, data.reshape(rect.height, rect.width))

    def rows(self):
        """Low-y row first, as strings over 0/1/'.'."""
        h, w = self._bits.shape
        text = _BIT_TO_CHAR[self._bits].tobytes().decode("ascii")
        return [text[j * w : (j + 1) * w] for j in range(h)]

    def value(self, g):
        """0/1 at a defined cell, None at holes and outside the window."""
        if not self.rect.contains(g):
            return None
        v = int(self._bits[g[1] - self.rect.lo[1], g[0] - self.rect.lo[0]])
        return None if v == HOLE else v

    @property
    def holes(self):
        """The hole cells, found on first use and kept."""
        if self._holes is None:
            ys, xs = np.nonzero(self._bits == HOLE)
            lo = self.rect.lo
            holes = frozenset((int(x) + lo[0], int(y) + lo[1]) for x, y in zip(xs, ys)) or _NO_HOLES
            object.__setattr__(self, "_holes", holes)
        return self._holes

    def hole_free(self):
        return not self.holes

    def restrict(self, rect):
        if not self.rect.contains_rect(rect):
            raise ValueError("restriction rectangle not inside the window")
        return Config._trusted(rect, self._bits[_slices(self.rect, rect)])

    def translate(self, d):
        return Config._trusted(self.rect.translate(d), self._bits)

    def to_json(self):
        return {
            "rect": self.rect.to_json(),
            "rows": self.rows(),
            "holes": sorted([x, y] for (x, y) in self.holes),
        }

    @classmethod
    def from_json(cls, data):
        rect = Rect.from_json(data["rect"])
        cfg = cls.from_rows(rect, list(data["rows"]))
        if read_points(data.get("holes", []), "holes") != cfg.holes:
            raise ValueError("declared holes do not match row data")
        return cfg

    def to_pgm(self):
        """P2 image, top row of text = highest-y row; 0/1 cells map to 0/2,
        holes to the middle gray 1."""
        return pgm_dumps(_BIT_TO_GRAY[self._bits[::-1]], 2)

    def to_ascii(self):
        """Top-down text rendering over 0/1/'.', one line per row."""
        lines = self.rows()[::-1]
        return "".join(line + "\n" for line in lines)

    def __eq__(self, other):
        if not isinstance(other, Config):
            return NotImplemented
        return self.rect == other.rect and np.array_equal(self._bits, other._bits)

    def __hash__(self):
        return hash((self.rect, self._bits.tobytes()))

    def __repr__(self):
        a, b, c, d = self.rect.bounds()
        return f"Config([{a},{b}]x[{c},{d}], {self.rows()!r})"


def flip(p):
    """Exchange 0 and 1 everywhere; holes stay holes."""
    return Config._trusted(p.rect, p.array ^ (p.array != HOLE), p._holes)


def tile(q, counts, flip_mask, anchor):
    """Tile ``counts = (nx, ny)`` copies of ``q`` into one window anchored at
    ``anchor`` (low corner), flipping the copy at block index (i, j) whenever
    ``flip_mask(i, j)`` is true.

    The index law: out(anchor + (i*w + i', j*h + j')) equals
    q(lo + (i', j')), flipped on masked blocks.
    """
    nx, ny = counts
    if nx < 1 or ny < 1:
        raise ValueError(f"tile counts must be >= 1, got {counts}")
    if not q.hole_free():
        raise ValueError("cannot tile a window with holes")
    w, h = q.rect.width, q.rect.height
    qa = q.array
    qf = flip(q).array
    out = np.empty((ny * h, nx * w), dtype=np.uint8)
    for j in range(ny):
        for i in range(nx):
            out[j * h : (j + 1) * h, i * w : (i + 1) * w] = qf if flip_mask(i, j) else qa
    rect = Rect(anchor, (anchor[0] + nx * w - 1, anchor[1] + ny * h - 1))
    return Config._trusted(rect, out, _NO_HOLES)


def _match_offsets(p, f, flipped):
    """(offset rect, boolean grid over it) marking the offsets s with
    s + rect(f) in the hole-free part of p and every cell matching
    (complemented when ``flipped``); (None, None) when f cannot fit in p."""
    if not f.hole_free():
        raise ValueError("pattern must be hole-free")
    pa = p.array
    plo, phi = p.rect.lo, p.rect.hi
    flo, fhi = f.rect.lo, f.rect.hi
    sx0, sx1 = plo[0] - flo[0], phi[0] - fhi[0]
    sy0, sy1 = plo[1] - flo[1], phi[1] - fhi[1]
    if sx0 > sx1 or sy0 > sy1:
        return None, None
    nsx, nsy = sx1 - sx0 + 1, sy1 - sy0 + 1
    fa = (flip(f) if flipped else f).array
    fh, fw = fa.shape
    # Offset (sx0, sy0) puts f's low corner on p's low corner. Loop over
    # f's cells or over the offsets, whichever are fewer.
    if fh * fw <= nsx * nsy:
        acc = np.ones((nsy, nsx), dtype=bool)
        for v in range(fh):
            for u in range(fw):
                acc &= pa[v : v + nsy, u : u + nsx] == fa[v, u]
    else:
        acc = np.empty((nsy, nsx), dtype=bool)
        for j in range(nsy):
            for i in range(nsx):
                acc[j, i] = np.array_equal(pa[j : j + fh, i : i + fw], fa)
    return Rect((sx0, sy0), (sx1, sy1)), acc


def find_occurrences(p, f, flipped):
    """Offsets s such that s + rect(f) lies in the hole-free part of p and
    p(s + u) = f(u) for every cell u of f (values complemented when
    ``flipped``). Cell coordinates of ``f`` are absolute: its own rect.
    Offsets are searched over [lo(p) - hi(f), hi(p)] per axis."""
    srect, grid = _match_offsets(p, f, flipped)
    if srect is None:
        return set()
    (x0, y0), (hx, hy) = srect.lo, p.rect.hi
    ys, xs = np.nonzero(grid[: max(0, hy - y0 + 1), : max(0, hx - x0 + 1)])
    return {(x + x0, y + y0) for x, y in zip(xs.tolist(), ys.tolist())}


def boundary(points):
    """Cells of the set having a 4-neighbor outside the set."""
    pts = set(points)
    out = set()
    for (x, y) in pts:
        for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if nb not in pts:
                out.add((x, y))
                break
    return out


@dataclass(frozen=True)
class PatternSet:
    """A nonempty tuple of hole-free patterns (a finite cylinder base)."""

    patterns: tuple

    def __post_init__(self):
        object.__setattr__(self, "patterns", tuple(self.patterns))
        if not self.patterns:
            raise ValueError("pattern set must be nonempty")
        for f in self.patterns:
            if not f.hole_free():
                raise ValueError("patterns must be hole-free")

    def to_json(self):
        return {"patterns": [f.to_json() for f in self.patterns]}

    @classmethod
    def from_json(cls, data):
        return cls(tuple(Config.from_json(d) for d in data["patterns"]))
