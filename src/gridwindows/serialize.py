"""Canonical serialization helpers: the one reader and writer of JSON values.

Everything written to disk goes through ``canon_dumps`` so that reruns of
the same build produce byte-identical artifacts. Each ``read_*`` raises a
ValueError naming the value's JSON path ``where`` when its type is wrong.
"""

import io
import json
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

from .geometry import Box

_X, _Y = itemgetter(0), itemgetter(1)


def at(where, key):
    """The JSON path of member ``key`` (a name, or a list index) of the value at ``where``."""
    if isinstance(key, int):
        return f"{where}[{key}]"
    return f"{where}.{key}" if where else key


def fail(where, message):
    """A ValueError naming the JSON path ``where``; "" is a document's root."""
    return ValueError(f"{where}: {message}" if where else message)


def construct(where, make, *args, **kwargs):
    """``make(*args, **kwargs)``; its ValueError is raised again naming the
    JSON path ``where`` of the value it was made from."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise fail(where, str(exc)) from None


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
    # is_point over the whole list, on its x and y columns with the loops in
    # C: witness sets run to tens of thousands of points.
    ok = isinstance(v, list) and set(map(type, v)) <= {list} and set(map(len, v)) <= {2}
    if ok:
        xs, ys = list(map(_X, v)), list(map(_Y, v))
        ok = set(map(type, xs)) <= {int} and set(map(type, ys)) <= {int}
    _expect(v, ok, where, "a list of points")
    return Box.from_lex(xs, ys) or frozenset(zip(xs, ys))


def points_json(S):
    """A set of (x, y) cells as a JSON point list in lex order."""
    return list(map(list, sorted(S)))


class Raw(str):
    """JSON text that ``canon_dumps`` writes as it is, e.g. a value dumped once already."""


def _listed(v):
    if type(v) is Box:
        return points_json(v)
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_listed).encode


def canon_dumps(data):
    """Deterministic JSON: sorted keys, no whitespace. The text is
    ``json.dumps(data, sort_keys=True, separators=(",", ":"))`` of data
    with each ``geometry.Box`` listed by ``points_json``; a Box is written
    from its bounds, one join per column, and a ``Raw`` text as it is,
    standing for the value it encodes."""
    chunks = []
    _write(data, chunks.append)
    return "".join(chunks)


def _write(v, put):
    # Written as it is: a Raw text. Written from its bounds: a Box. Walked: a
    # dict with only str keys, and a list or tuple that directly holds one of
    # these. Anything else is encoded whole by the standard library (a Box
    # there is listed point by point), so a long value such as a window's
    # rows is one chunk, copied at most once, by the join.
    kind = type(v)
    if kind is Raw:
        put(v)
    elif kind is Box:
        x0, x1, y0, y1 = v.bounds
        ys = list(map(str, range(y0, y1 + 1)))
        put("[" + ",".join(f"[{x}," + f"],[{x},".join(ys) + "]" for x in range(x0, x1 + 1)) + "]")
    elif kind is dict and set(map(type, v)) <= {str}:
        put("{")
        for i, k in enumerate(sorted(v)):
            put(("," if i else "") + encode_basestring_ascii(k) + ":")
            _write(v[k], put)
        put("}")
    elif (kind is list or kind is tuple) and not {dict, Box, Raw}.isdisjoint(map(type, v)):
        put("[")
        for i, e in enumerate(v):
            if i:
                put(",")
            _write(e, put)
        put("]")
    else:
        put(_encode(v))


def pgm_dumps(rows, maxval):
    """The bytes of a plain-text PGM (P2) file. ``rows`` is a 2-D array, or a
    list of rows, of non-negative ints or bools, the first row the TOP line."""
    img = np.asarray(rows)
    if img.ndim != 2 or img.size == 0:
        raise ValueError(f"expected a non-empty rectangular image, got shape {img.shape}")
    if img.dtype.kind not in "biu":
        raise ValueError(f"gray levels must be integers, got dtype {img.dtype}")
    top = int(img.max())
    if img.min() < 0 or top > maxval:
        raise ValueError(f"gray levels must lie in 0..{maxval}")
    header = f"P2\n{img.shape[1]} {img.shape[0]}\n{maxval}\n".encode("ascii")
    if top >= 10:
        # Wider levels: numpy's text writer, one decimal row at a time.
        buf = io.BytesIO()
        buf.write(header)
        np.savetxt(buf, img, fmt="%d")
        return buf.getvalue()
    # Every level is one digit: each cell is one little-endian uint16, that
    # digit in its low byte and a separator in its high byte.
    cells = np.empty(img.shape, dtype="<u2")
    np.add(img, np.uint16(ord("0") | ord(" ") << 8), out=cells, casting="unsafe")
    cells[:, -1] -= (ord(" ") - ord("\n")) << 8
    return b"".join((header, cells.data))
