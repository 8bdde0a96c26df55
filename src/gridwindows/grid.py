"""Finite binary windows with optional holes.

A ``Config`` assigns 0/1 to the cells of a rectangle, except at hole cells
where it is undefined. Values are stored in a numpy array indexed
``[y - lo.y, x - lo.x]`` with 255 marking holes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Rect
from .serialize import (Raw, at, construct, fail, pgm_dumps, points_json, read_list,
                        read_object, read_points)

HOLE = 255
# The hole set of every hole-free window: an empty frozenset costs 216 bytes.
_NO_HOLES = frozenset()


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
        data = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8) - ord("0")
        # '.' wraps to HOLE - 1, and every other byte but '0' and '1' to above 1.
        hole = data == HOLE - 1
        bad = data > 1
        bad ^= hole
        if bad.any():
            raise ValueError(f"bad cell character {text[int(bad.argmax())]!r}")
        data |= hole
        return cls._trusted(rect, data.reshape(rect.height, rect.width))

    @staticmethod
    def _render(bits, sep):
        """The rows of ``bits`` over 0/1/'.' joined by ``sep``: one numpy
        pass, with nothing to escape."""
        h, w = bits.shape
        out = np.empty((h, w + len(sep)), dtype=np.uint8)
        out[:, w:] = np.frombuffer(sep.encode(), np.uint8)
        np.add(bits, ord("0"), out=out[:, :w])
        np.copyto(out[:, :w], ord("."), where=bits == HOLE)
        return str(out.reshape(-1).data[: out.size - len(sep)], "ascii")

    def rows(self):
        """Low-y row first, as strings over 0/1/'.'."""
        h, w = self._bits.shape
        text = self._render(self._bits, "")
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
            # Flat indices count cells in row order, whatever the array's layout.
            (x0, y0), w = self.rect.lo, self.rect.width
            flat = np.flatnonzero(self._bits == HOLE).tolist()
            holes = frozenset((x0 + i % w, y0 + i // w) for i in flat) or _NO_HOLES
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
            "holes": points_json(self.holes),
        }

    def doc(self):
        """``to_json()`` for ``canon_dumps``, the rows one Raw JSON text."""
        rows = Raw('["%s"]' % self._render(self._bits, '","'))
        return {"rect": self.rect.to_json(), "rows": rows, "holes": points_json(self.holes)}

    @classmethod
    def from_json(cls, data, where=""):
        """``where`` is the window's JSON path, named in errors."""
        data = read_object(data, where)
        rect = Rect.from_json(data.get("rect"), at(where, "rect"))
        rows = read_list(data.get("rows"), at(where, "rows"))
        cfg = construct(where, cls.from_rows, rect, rows)
        if read_points(data.get("holes", []), at(where, "holes")) != cfg.holes:
            raise fail(where, "declared holes do not match row data")
        return cfg

    def to_pgm(self):
        """P2 file bytes, top row of text = highest-y row; 0/1 cells map to
        0/2, holes to the middle gray 1."""
        gray = self._bits[::-1] << 1
        np.copyto(gray, 1, where=gray > 2)  # HOLE << 1 wraps to 254
        return pgm_dumps(gray, 2)

    def to_ascii(self):
        """Top-down text rendering over 0/1/'.', one line per row."""
        return self._render(self._bits[::-1], "\n") + "\n"

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
    ``flip_mask(i, j)``, asked once per copy with j outer, is truthy.

    The index law: out(anchor + (i*w + i', j*h + j')) equals
    q(lo + (i', j')), flipped on masked blocks.
    """
    nx, ny = counts
    if nx < 1 or ny < 1:
        raise ValueError(f"tile counts must be >= 1, got {counts}")
    if not q.hole_free():
        raise ValueError("cannot tile a window with holes")
    h, w = q.array.shape
    # Allocated first, so a tiling too large to hold fails before flip_mask is
    # asked. q is hole-free, so a flipped copy is q ^ 1.
    out = np.empty((ny, h, nx, w), dtype=np.uint8)
    flips = np.fromiter((bool(flip_mask(i, j)) for j in range(ny) for i in range(nx)), np.uint8)
    np.bitwise_xor(q.array[:, None, :], flips.reshape(ny, 1, nx, 1), out=out)
    rect = Rect(anchor, (anchor[0] + nx * w - 1, anchor[1] + ny * h - 1))
    return Config._trusted(rect, out.reshape(ny * h, nx * w), _NO_HOLES)


def _match_offsets(p, f):
    """(offset rect, boolean stack (2, rows, cols) over it): plane 0 marks
    the offsets s with s + rect(f) in the hole-free part of p and every cell
    matching f, plane 1 those where every cell matches f complemented;
    (None, None) when f cannot fit in p. A hole matches neither."""
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
    fa = f.array
    fh, fw = fa.shape
    # Offset (sx0, sy0) puts f's low corner on p's low corner. Loop over
    # f's cells or over the offsets, whichever are fewer.
    if fh * fw <= nsx * nsy:
        # A cell of value b matches planes[b] plain, planes[b + 1] complemented.
        planes = pa == np.array((0, 1, 0), dtype=np.uint8).reshape(3, 1, 1)
        acc = np.ones((2, nsy, nsx), dtype=bool)
        for v, row in enumerate(fa.tolist()):
            for u, b in enumerate(row):
                acc &= planes[b : b + 2, v : v + nsy, u : u + nsx]
    else:
        # Each offset's cells, one offset at a time, as bytes against f and
        # against its complement: two bools per offset.
        plain, flipped = fa.tobytes(), (fa ^ 1).tobytes()
        cells = (pa[j : j + fh, i : i + fw].tobytes() for j in range(nsy) for i in range(nsx))
        hits = (b for c in cells for b in (c == plain, c == flipped))
        acc = np.fromiter(hits, bool, 2 * nsy * nsx).reshape(nsy, nsx, 2).transpose(2, 0, 1)
    return Rect((sx0, sy0), (sx1, sy1)), acc


def find_occurrences(p, f, flipped):
    """Offsets s such that s + rect(f) lies in the hole-free part of p and
    p(s + u) = f(u) for every cell u of f (values complemented when
    ``flipped``). Cell coordinates of ``f`` are absolute: its own rect.
    Offsets are searched over [lo(p) - hi(f), hi(p)] per axis."""
    srect, grids = _match_offsets(p, f)
    if srect is None:
        return set()
    (x0, y0), (hx, hy) = srect.lo, p.rect.hi
    ys, xs = np.nonzero(grids[int(flipped)][: max(0, hy - y0 + 1), : max(0, hx - x0 + 1)])
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
    def from_json(cls, data, where=""):
        """``where`` is the set's JSON path, named in errors."""
        path = at(where, "patterns")
        return construct(where, cls, tuple(
            Config.from_json(f, at(path, i))
            for i, f in enumerate(read_list(read_object(data, where).get("patterns"), path))))
