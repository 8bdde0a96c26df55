"""Canonical serialization helpers: the one reader and writer of JSON values.

Everything written to disk goes through ``canon_dumps`` so that reruns of
the same build produce byte-identical artifacts. Each ``read_*`` raises a
ValueError naming the value's JSON path ``where`` when its type is wrong.
"""

import json
from itertools import chain

import numpy as np

from .geometry import Box


def at(where, key):
    """The JSON path of member ``key`` (a name, or a list index) of the value at ``where``."""
    if isinstance(key, int):
        return f"{where}[{key}]"
    return f"{where}.{key}" if where else key


def fail(where, message):
    """A ValueError naming the JSON path ``where``; "" is a document's root."""
    return ValueError(f"{where}: {message}" if where else message)


def _expect(v, ok, where, noun):
    if not ok:
        raise fail(where, f"expected {noun}")
    return v


def is_int(v):
    """v is a JSON integer (not a float, a string or a bool)."""
    return type(v) is int


def is_point(v):
    """v is a JSON point: a list of two integers."""
    return isinstance(v, list) and len(v) == 2 and is_int(v[0]) and is_int(v[1])


def read_int(v, where):
    """The JSON integer v."""
    return _expect(v, is_int(v), where, "an integer")


def read_point(v, where):
    """The JSON point v as (x, y)."""
    return tuple(_expect(v, is_point(v), where, "two integers"))


def read_bool(v, where):
    """The JSON boolean v."""
    return _expect(v, type(v) is bool, where, "a boolean")


def read_list(v, where):
    """The JSON list v, copied."""
    return list(_expect(v, isinstance(v, list), where, "a list"))


def read_object(v, where):
    """The JSON object v."""
    return _expect(v, isinstance(v, dict), where, "an object")


def read_records(v, where):
    """The JSON list of objects v, as (path, object) pairs."""
    return [(at(where, i), read_object(e, at(where, i)))
            for i, e in enumerate(read_list(v, where))]


def read_points(v, where):
    """The JSON list of points v as a set of (x, y) tuples: a Box when v
    lists exactly one box's cells in lex order, which is how ``points_json``
    writes a Box, and a frozenset otherwise."""
    # is_point over the whole list, with the loops in C: witness sets run to
    # tens of thousands of points.
    ok = (isinstance(v, list) and set(map(type, v)) <= {list} and set(map(len, v)) <= {2}
          and set(map(type, chain.from_iterable(v))) <= {int})
    _expect(v, ok, where, "a list of points")
    return Box.from_lex(v) or frozenset(map(tuple, v))


def points_json(S):
    """A set of (x, y) cells as a JSON point list in lex order: a Box lists
    its cells in that order already."""
    return list(map(list, S if isinstance(S, Box) else sorted(S)))


def canon_dumps(data):
    """Deterministic JSON: sorted keys, no whitespace."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def pgm_dumps(rows, maxval):
    """Plain-text PGM (P2). ``rows`` is a 2-D array, or a list of rows, of
    non-negative ints or bools, the first row being the TOP line of the image."""
    img = np.asarray(rows)
    if img.ndim != 2 or img.size == 0:
        raise ValueError(f"expected a non-empty rectangular image, got shape {img.shape}")
    if img.dtype.kind not in "biu":
        raise ValueError(f"gray levels must be integers, got dtype {img.dtype}")
    top = int(img.max())
    if img.min() < 0 or top > maxval:
        raise ValueError(f"gray levels must lie in 0..{maxval}")
    if top < 10:
        # Every level is one digit: each cell is that digit and a separator.
        cells = np.empty((*img.shape, 2), dtype=np.uint8)
        np.add(img, ord("0"), out=cells[..., 0], casting="unsafe")
        cells[..., 1] = ord(" ")
        cells[:, -1, 1] = ord("\n")
    else:
        # Each cell as ``digits`` columns, most significant first, and a
        # separator; a leading zero column is dropped after the fill.
        digits = len(str(top))
        levels = img.astype(np.uint64)
        cells = np.empty((*img.shape, digits + 1), dtype=np.uint8)
        keep = np.ones(cells.shape, dtype=bool)
        for j in range(digits):
            power = np.uint64(10 ** (digits - 1 - j))
            np.add(levels // power % 10, ord("0"), out=cells[..., j], casting="unsafe")
            if j < digits - 1:
                keep[..., j] = levels >= power
        cells[..., -1] = ord(" ")
        cells[:, -1, -1] = ord("\n")
        cells = cells[keep]
    body = cells.tobytes().decode("ascii")
    return f"P2\n{img.shape[1]} {img.shape[0]}\n{maxval}\n" + body
