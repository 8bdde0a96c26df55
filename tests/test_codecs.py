"""Differential tests of the row and PGM codecs against the per-cell
reference codec in oracles.py."""

import numpy as np
import pytest

from gridwindows.cli import main
from gridwindows.geometry import Rect
from gridwindows.grid import Config
from gridwindows.serialize import canon_dumps, pgm_dumps

from test_cli import run_bounded

from oracles import ref_from_rows, ref_pgm_dumps, ref_rows, ref_to_pgm, seeded


def test_window_codecs_match_reference_with_holes():
    rng = seeded(41)
    for _ in range(200):
        w, h = rng.randint(1, 12), rng.randint(1, 12)
        a, c = rng.randint(-5, 5), rng.randint(-5, 5)
        rows = ["".join(rng.choice("0011.") for _ in range(w)) for _ in range(h)]
        cfg = Config.from_rows(Rect.from_bounds(a, a + w - 1, c, c + h - 1), rows)
        bits = ref_from_rows(w, h, rows)
        assert cfg.array.tolist() == bits
        assert cfg.rows() == ref_rows(bits) == rows
        assert cfg.to_pgm() == ref_to_pgm(bits)


@pytest.mark.parametrize("maxval", [1, 2, 9, 10, 12, 255, 1000])
def test_pgm_dumps_matches_reference(maxval):
    rng = seeded(maxval)
    for _ in range(30):
        w, h = rng.randint(1, 9), rng.randint(1, 9)
        img = [[rng.randint(0, maxval) for _ in range(w)] for _ in range(h)]
        expected = ref_pgm_dumps(img, maxval)
        assert pgm_dumps(img, maxval) == expected
        assert pgm_dumps(np.array(img), maxval) == expected


# One-digit images are written one byte per cell, wider ones digit column by
# digit column, so the cases straddle the digit boundary in both the levels
# and the header.
LEVEL_CASES = [(bool, 1, 1), (bool, 1, 10)] + [
    (dtype, top, maxval)
    for dtype in (np.uint8, np.int64)
    for top, maxval in [(9, 9), (10, 10), (2, 10), (9, 255), (12, 255)]
]


@pytest.mark.parametrize("dtype,top,maxval", LEVEL_CASES,
                         ids=[f"{np.dtype(d).name}-{t}-of-{v}" for d, t, v in LEVEL_CASES])
@pytest.mark.parametrize("shape", [(1, 1), (1, 17), (17, 1), (5, 7), (200, 300)],
                         ids=["1x1", "1xn", "nx1", "5x7", "200x300"])
def test_pgm_dumps_dtypes_and_shapes_match_reference(dtype, top, maxval, shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1] + top)
    img = rng.integers(0, top + 1, size=shape)
    img.flat[0] = top
    img = img.astype(dtype)
    expected = ref_pgm_dumps(img.tolist(), maxval)
    assert pgm_dumps(img, maxval) == expected
    assert pgm_dumps(np.asfortranarray(img), maxval) == expected


def test_toast_pgm_with_two_digit_levels_matches_reference(tmp_path, capsys):
    # Level n holds the column x = n - 6 for y <= 3, so cell (x, y) sits at
    # depth x + 7 (2..12) below row 4 and at depth 0 above it.
    levels = [[[[n - 6, y] for y in range(-5, 4)]] for n in range(12)]
    spec = {"toast": {"layered": False, "window": [-5, 5, -5, 5], "levels": levels}}
    path = tmp_path / "toast.json"
    path.write_text(canon_dumps(spec) + "\n")
    out_dir = tmp_path / "o"
    assert main(["toast", "--spec", str(path), "--out", str(out_dir), "--format", "pgm"]) == 0
    capsys.readouterr()
    expected = [[x + 7 if y <= 3 else 0 for x in range(-5, 6)] for y in range(5, -6, -1)]
    assert (out_dir / "toast.pgm").read_text() == ref_pgm_dumps(expected, 12)


# Levels of many digits, mixed with short ones and zeros in each row. Tops
# beyond a few million run only in the bounded child below, since a writer
# whose cost grew with the top level would exhaust memory in this process.
WIDE_CASES = [(np.int64, 10**7), (np.uint32, 10**6 + 7), (np.uint16, 65535)]


def wide_image(rng, top):
    w, h = rng.randint(1, 7), rng.randint(1, 7)
    return [[rng.choice((0, 9, 10, rng.randint(0, top), top)) for _ in range(w)]
            for _ in range(h)]


@pytest.mark.parametrize("dtype,top", WIDE_CASES,
                         ids=[f"{np.dtype(d).name}-{t}" for d, t in WIDE_CASES])
def test_pgm_dumps_wide_levels_match_reference(dtype, top):
    rng = seeded(top % 1000)
    for _ in range(20):
        img = wide_image(rng, top)
        expected = ref_pgm_dumps(img, top)
        arr = np.array(img, dtype=dtype)
        assert pgm_dumps(arr, top) == expected
        assert pgm_dumps(np.asfortranarray(arr), top) == expected


# The writer once built a table entry per gray level up to the image's
# maximum: [[2**40]] ran out of memory under this cap, and [[10**7]] took
# seconds. Its cost is now the image size times the digit count, also for
# the widest levels of each dtype.
FAR_LEVELS = """
import random, sys
import numpy as np
from gridwindows.serialize import pgm_dumps
rng = random.Random(7)
for dtype, top in [(np.uint64, 2**64 - 1), (np.int64, 2**63 - 1), (np.uint32, 2**32 - 1),
                   (np.int64, 2**40), (np.int64, 10**12 + 7)]:
    for _ in range(20):
        img = [[rng.choice((0, 9, 10, rng.randint(0, top), top)) for _ in range(rng.randint(1, 7))]]
        img = img * rng.randint(1, 4)
        body = "".join(" ".join(map(str, row)) + "\\n" for row in img)
        arr = np.array(img, dtype=dtype)
        for a in (arr, np.asfortranarray(arr)):
            assert pgm_dumps(a, top) == f"P2\\n{len(img[0])} {len(img)}\\n{top}\\n" + body
print(pgm_dumps([[2**40]], 2**40) == "P2\\n1 1\\n1099511627776\\n1099511627776\\n",
      pgm_dumps([[10**7, 0]], 10**7) == "P2\\n2 1\\n10000000\\n10000000 0\\n")
"""


def test_pgm_dumps_far_levels_bounded():
    proc = run_bounded(["-c", FAR_LEVELS], timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True"]


@pytest.mark.parametrize(
    "rows",
    [["02"], ["0é"], ["01", "1"], ["0"]],
    ids=["bad-char", "non-ascii", "ragged", "short"],
)
def test_from_rows_rejects_like_reference(rows):
    with pytest.raises(ValueError) as ref:
        ref_from_rows(2, len(rows), rows)
    with pytest.raises(ValueError) as lib:
        Config.from_rows(Rect.from_bounds(0, 1, 0, len(rows) - 1), rows)
    assert str(lib.value) == str(ref.value)


@pytest.mark.parametrize("rows", [[["0", "1"]], [[0, 1]], [5]], ids=["chars", "ints", "int"])
def test_from_rows_rejects_rows_that_are_not_strings(rows):
    with pytest.raises(ValueError, match="row 0 is not a string"):
        Config.from_rows(Rect.from_bounds(0, 1, 0, 0), rows)


@pytest.mark.parametrize("img", [[], [[1, 2], [1]], [[1], [1, 2]]])
def test_pgm_dumps_rejects_like_reference(img):
    with pytest.raises(ValueError):
        ref_pgm_dumps(img, 2)
    with pytest.raises(ValueError):
        pgm_dumps(img, 2)


@pytest.mark.parametrize("img", [[[0, 3]], [[-1, 0]]], ids=["above-maxval", "negative"])
def test_pgm_dumps_rejects_gray_levels_outside_maxval(img):
    with pytest.raises(ValueError):
        pgm_dumps(img, 2)
