"""Canonical serialization helpers.

Everything written to disk goes through ``canon_dumps`` so that reruns of
the same build produce byte-identical artifacts.
"""

import json

import numpy as np


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
