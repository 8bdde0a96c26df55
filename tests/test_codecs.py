"""Differential tests of the JSON, row and PGM codecs: the JSON writer
against the standard library's, the point-set reader and the row and PGM
codecs against the per-cell references in oracles.py."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridwindows import gridperiod, mincolor
from gridwindows.cli import main
from gridwindows.geometry import Box, Lattice, Rect
from gridwindows.grid import Config, PatternSet
from gridwindows.markers import RectPartition
from gridwindows.serialize import canon_dumps, pgm_dumps, points_json, read_points
from gridwindows.witness import ColorGrid, OddSet

from test_cli import PINNED, run_bounded, write_spec

from oracles import (REF_HOLE, _json_points, _Reject, parse_pgm, ref_from_rows, ref_pgm_dumps,
                     ref_rows, ref_to_pgm, seeded)


# ------------------------------------------------------------------- JSON

def std_dumps(v):
    return json.dumps(v, sort_keys=True, separators=(",", ":"))


def outcome(dumps, v):
    """The text, or the type of the error, that ``dumps`` gives for v."""
    try:
        return dumps(v)
    except (TypeError, ValueError) as exc:
        return type(exc)


COORDS = st.integers(-4, 4) | st.sampled_from([-10**30, 10**30, 10**30 - 3])
BOXES = st.builds(lambda x0, y0, w, h: Box(x0, x0 + w, y0, y0 + h),
                  COORDS, COORDS, st.integers(0, 3), st.integers(0, 3))


def listed(v):
    """v with every Box in it listed by ``points_json``."""
    if isinstance(v, Box):
        return points_json(v)
    if isinstance(v, (list, tuple)):
        return type(v)(map(listed, v))
    if isinstance(v, dict):
        return {k: listed(e) for k, e in v.items()}
    return v


SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-10**40, 10**40)
           | st.floats() | st.text(max_size=4))
KEYS = st.text(max_size=4) | st.sampled_from(['"', "\\", "\n", "\x00", "é", "☃", "\ud800"])
TREES = st.recursive(
    SCALARS | BOXES,
    lambda kids: (st.lists(kids, max_size=4) | st.tuples(kids, kids)
                  | st.dictionaries(KEYS, kids, max_size=4)
                  | st.dictionaries(st.integers() | st.floats(allow_nan=False), kids, max_size=3)
                  | st.dictionaries(KEYS | st.integers() | st.booleans() | st.none(), kids,
                                    max_size=3)),
    max_leaves=12,
)


@given(TREES)
def test_canon_dumps_is_the_standard_library_text(v):
    # A Box is written from its bounds, as the standard library writes its cells.
    assert outcome(canon_dumps, v) == outcome(std_dumps, listed(v))


@given(BOXES)
def test_box_point_list_is_a_plain_json_value(box):
    v = points_json(box)
    cells = [list(g) for g in box]
    assert type(v) is list and v == cells and json.loads(std_dumps(v)) == cells
    assert canon_dumps(box) == canon_dumps(v) == std_dumps(cells)


def test_points_edited_in_place_are_written_as_edited():
    # to_json() is a plain value: an edit of one of its points in place is
    # written as the standard library writes it.
    cert = mincolor.build_generic(
        mincolor.MtCondition(Config.from_rows(Rect.from_bounds(0, 1, 0, 1), ["01", "10"]),
                             (), (), False),
        [mincolor.Shift((1, 0)), mincolor.Shift((0, 3)), mincolor.SelfPattern()],
        {"max_side": 64, "max_steps": 8})
    assert all(type(T) is Box for (_t, T) in cert.final.shifts)
    cond, data = cert.final.to_json(), cert.to_json()
    cond["shifts"][0]["T"][0][0] = 99
    cond["patterns"][0]["F"][-1][1] = -99
    data["final"]["shifts"][-1]["T"][0][0] = 99
    for v in (cond, data):
        text = canon_dumps(v)
        assert text == std_dumps(v) and '"T":[[99,' in text
    assert ",-99]]" in canon_dumps(cond)


@pytest.mark.parametrize("cmd,spec", [(cmd, spec) for (cmd, spec, _c, _r) in PINNED],
                         ids=[f"{cmd}-{i}" for i, (cmd, *_r) in enumerate(PINNED)])
def test_certificates_and_conditions_dump_like_the_standard_library(tmp_path, capsys, cmd, spec):
    out = tmp_path / "out"
    assert main([cmd, "--spec", write_spec(tmp_path / "spec.json", spec), "--out", str(out)]) == 0
    capsys.readouterr()
    text = (out / "certificate.json").read_text()
    data = json.loads(text)
    cls = mincolor.Certificate if data["kind"] == "mt" else gridperiod.GpCertificate
    cert = cls.from_json(data)
    assert canon_dumps(cert.doc()) + "\n" == canon_dumps(cert.to_json()) + "\n" == text
    for x in (cert, cert.seed, cert.final):
        assert canon_dumps(x.to_json()) == std_dumps(x.to_json())


@st.composite
def windows(draw, cells="01."):
    """A window of 1 to 7 cells a side over ``cells``: 1 x n and n x 1 too."""
    w, h, x0, y0 = draw(st.integers(1, 7)), draw(st.integers(1, 7)), draw(COORDS), draw(COORDS)
    rows = draw(st.lists(st.text(cells, min_size=w, max_size=w), min_size=h, max_size=h))
    return Config.from_rows(Rect.from_bounds(x0, x0 + w - 1, y0, y0 + h - 1), rows)


@st.composite
def one_hole_windows(draw):
    p = draw(windows("01"))
    rows, (w, h) = p.rows(), (p.rect.width, p.rect.height)
    j, i = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
    rows[j] = rows[j][:i] + "." + rows[j][i + 1 :]
    return Config.from_rows(p.rect, rows)


MT_CONDITIONS = st.builds(
    lambda p, f, t, odd: mincolor.MtCondition(p, ((t, frozenset({t})),), ((f, Box(0, 1, 0, 0)),),
                                              odd),
    windows(), windows("01"), st.tuples(COORDS, COORDS), st.booleans())
GP_CONDITIONS = st.builds(gridperiod.GpCondition, st.integers(2, 3), one_hole_windows())


@given(windows() | one_hole_windows())
def test_window_doc_dumps_as_its_rows(cfg):
    # doc() renders the rows as one JSON text; to_json() lists them.
    assert canon_dumps(cfg.doc()) == canon_dumps(cfg.to_json()) == std_dumps(cfg.to_json())


@given(MT_CONDITIONS | GP_CONDITIONS)
def test_condition_doc_dumps_as_its_to_json(cond):
    text = canon_dumps(cond.doc())
    assert text == canon_dumps(cond.to_json())
    assert json.loads(text)["p"] == cond.p.to_json()


def oracle_points(v):
    try:
        return _json_points(v)
    except _Reject:
        return None


def lib_points(v):
    try:
        return read_points(v, "v")
    except ValueError:
        return None


def swap(v, i, j):
    v[i], v[j] = v[j], v[i]


# Mutations of point i of a list, some with a second point j != i.
POINT_MUTATIONS = {
    "none": None,
    "swap": swap,
    "repeat": lambda v, i, j: v.insert(j, list(v[i])),
    "other-x": lambda v, i, j: v[i].__setitem__(0, v[j][0]),
    "other-y": lambda v, i, j: v[i].__setitem__(1, v[j][1]),
    "float": lambda v, i, j: v[i].__setitem__(j % 2, float(v[i][j % 2])),
    "bool": lambda v, i, j: v[i].__setitem__(j % 2, True),
    "three": lambda v, i, j: v[i].append(0),
    "one": lambda v, i, j: v[i].pop(),
    "tuple": lambda v, i, j: v.__setitem__(i, tuple(v[i])),
    "string": lambda v, i, j: v[i].__setitem__(j % 2, str(v[i][j % 2])),
}


@pytest.mark.parametrize("mutate", POINT_MUTATIONS.values(), ids=POINT_MUTATIONS.keys())
@settings(max_examples=40)
@given(st.one_of(BOXES.map(list), st.lists(st.tuples(COORDS, COORDS), max_size=8)), st.data())
def test_read_points_matches_the_oracle(mutate, pts, data):
    v = [[x, y] for (x, y) in pts]
    if mutate is not None and v:
        index = st.integers(0, len(v) - 1)
        i, j = data.draw(st.lists(index, min_size=2, max_size=2, unique=len(v) > 1))
        mutate(v, i, j)
    want, got = oracle_points(v), lib_points(v)
    assert (got is None) == (want is None)
    if want is None:
        return
    assert got == want
    # A Box exactly when v lists its bounding box's cells in lex order.
    lex = False
    if v:
        xs, ys = [x for x, _ in v], [y for _, y in v]
        bbox = Box(min(xs), max(xs), min(ys), max(ys))
        lex = bbox.area == len(v) and v == [list(g) for g in bbox]
    assert isinstance(got, Box) == lex


def ref_holes(rect, bits):
    """The hole cells of a window with cell values ``bits`` over rect."""
    return {(rect.lo[0] + i, rect.lo[1] + j)
            for j, row in enumerate(bits) for i, v in enumerate(row) if v == REF_HOLE}


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
        assert cfg.to_ascii() == "".join(row + "\n" for row in rows[::-1])
        assert cfg.to_pgm() == ref_to_pgm(bits).encode("ascii")
        assert cfg.holes == ref_holes(cfg.rect, bits)
        # A sub-window is a strided view of the array, and a translate shares it.
        x1, y1 = rng.randint(a, a + w - 1), rng.randint(c, c + h - 1)
        x0, y0 = rng.randint(a, x1), rng.randint(c, y1)
        sub = [row[x0 - a : x1 - a + 1] for row in bits[y0 - c : y1 - c + 1]]
        move = (rng.randint(-9, 9), rng.choice((0, 10**30)))
        for view, want in [(cfg.restrict(Rect.from_bounds(x0, x1, y0, y1)), sub),
                           (cfg.translate(move), bits)]:
            assert view.rows() == ref_rows(want)
            assert canon_dumps(view.doc()) == std_dumps(view.to_json())
            assert view.to_pgm() == ref_to_pgm(want).encode("ascii")
            assert view.holes == ref_holes(view.rect, want)


@pytest.mark.parametrize("maxval", [1, 2, 9, 10, 12, 255, 1000])
def test_pgm_dumps_matches_reference(maxval):
    rng = seeded(maxval)
    for _ in range(30):
        w, h = rng.randint(1, 9), rng.randint(1, 9)
        img = [[rng.randint(0, maxval) for _ in range(w)] for _ in range(h)]
        expected = ref_pgm_dumps(img, maxval).encode("ascii")
        assert pgm_dumps(img, maxval) == expected
        assert pgm_dumps(np.array(img), maxval) == expected


# One-digit images are written one uint16 per cell, wider ones row by row by
# numpy's text writer, so the cases straddle the digit boundary in both the
# levels and the header.
LEVEL_CASES = [(bool, 1, 1), (bool, 1, 10)] + [
    (dtype, top, maxval)
    for dtype in (np.uint8, np.uint16, np.int32, np.int64)
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
    expected = ref_pgm_dumps(img.tolist(), maxval).encode("ascii")
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
    assert parse_pgm((out_dir / "toast.pgm").read_bytes()) == expected
    assert (out_dir / "toast.pgm").read_text() == ref_pgm_dumps(expected, 12)


def test_toast_pgm_box_and_point_classes_match_reference(tmp_path, capsys):
    # Classes that fill a box, some reaching past the window, and classes
    # that do not, near the origin and at 10**30.
    rng = seeded(23)
    for k in range(40):
        far = rng.choice((0, 10**30))
        a, c = far + rng.randint(-3, 3), rng.randint(-3, 3)
        win = [a, a + rng.randint(0, 6), c, c + rng.randint(0, 6)]
        levels = []
        for _ in range(rng.randint(1, 4)):
            level = []
            for _ in range(rng.randint(0, 3)):
                x0, y0 = win[0] + rng.randint(-2, 6), win[2] + rng.randint(-2, 6)
                w, h = rng.randint(1, 4), rng.randint(1, 4)
                cells = [[x, y] for x in range(x0, x0 + w) for y in range(y0, y0 + h)]
                if rng.random() < 0.4:
                    cells = rng.sample(cells, rng.randint(1, len(cells)))
                level.append(cells)
            levels.append(level)
        path = tmp_path / f"toast{k}.json"
        path.write_text(canon_dumps({"toast": {"layered": False, "window": win,
                                               "levels": levels}}) + "\n")
        out_dir = tmp_path / f"o{k}"
        assert main(["toast", "--spec", str(path), "--out", str(out_dir), "--format", "pgm"]) == 0
        capsys.readouterr()
        depth = [[max([n + 1 for n, level in enumerate(levels)
                       if any([x, y] in cl for cl in level)], default=0)
                  for x in range(win[0], win[1] + 1)]
                 for y in range(win[3], win[2] - 1, -1)]
        assert parse_pgm((out_dir / "toast.pgm").read_bytes()) == depth
        assert (out_dir / "toast.pgm").read_text() == ref_pgm_dumps(depth, max(1, len(levels)))


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
        expected = ref_pgm_dumps(img, top).encode("ascii")
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
            assert pgm_dumps(a, top) == (f"P2\\n{len(img[0])} {len(img)}\\n{top}\\n" + body).encode()
print(pgm_dumps([[2**40]], 2**40) == b"P2\\n1 1\\n1099511627776\\n1099511627776\\n",
      pgm_dumps([[10**7, 0]], 10**7) == b"P2\\n2 1\\n10000000\\n10000000 0\\n")
"""


def test_pgm_dumps_far_levels_bounded():
    proc = run_bounded(["-c", FAR_LEVELS], timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True"]


# Every one-character row but "0", "1" and ".": the codec reads a byte as
# its value minus ord("0"), so "/" would wrap to HOLE if it were not refused.
BAD_CHARS = [chr(c) for c in range(256) if chr(c) not in "01."] + ["☃"]


@pytest.mark.parametrize(
    "width,rows",
    [(2, ["02"]), (2, ["0é"]), (2, ["01", "1"]), (2, ["0"])] + [(1, [c]) for c in BAD_CHARS],
    ids=["bad-char", "non-ascii", "ragged", "short"] + [f"char-{ord(c)}" for c in BAD_CHARS],
)
def test_from_rows_rejects_like_reference(width, rows):
    with pytest.raises(ValueError) as ref:
        ref_from_rows(width, len(rows), rows)
    with pytest.raises(ValueError) as lib:
        Config.from_rows(Rect.from_bounds(0, width - 1, 0, len(rows) - 1), rows)
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


def test_pgm_dumps_rejects_float_images():
    with pytest.raises(ValueError, match="gray levels must be integers"):
        pgm_dumps([[0.0, 1.0]], 2)


def test_window_pgm_peak_memory_per_cell():
    # The file is the header and the body array's bytes joined once; the
    # body decoded to text and encoded back peaked at 7 bytes per cell.
    rng = seeded(3)
    rows = ["".join(rng.choice("01") for _ in range(1024)) for _ in range(512)]
    rows[100] = rows[100][:7] + "." + rows[100][8:]
    cfg = Config.from_rows(Rect.from_bounds(0, 1023, 0, 511), rows)
    cfg.to_pgm()
    tracemalloc.start()
    try:
        cfg.to_pgm()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * 1024 * 512


def test_pgm_dumps_wide_levels_peak_memory():
    # Levels of 10 or more are written a row at a time; digit columns over
    # the whole image as uint64 peaked at 9.0 MiB here.
    img = np.random.default_rng(5).integers(0, 65536, (512, 512), dtype=np.uint16)
    img[0, 0] = 65535
    expected = ref_pgm_dumps(img.tolist(), 65535).encode("ascii")
    assert pgm_dumps(img, 65535) == expected
    tracemalloc.start()
    try:
        pgm_dumps(img, 65535)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


# What P2 forbids: another magic, an empty image, a maxval outside 1..65535,
# too few or too many samples, and a sample above maxval or not a decimal.
@pytest.mark.parametrize("data", [
    b"P5\n1 1\n1\n0\n", b"P2\n0 1\n1\n", b"P2\n1 1\n0\n0\n", b"P2\n1 1\n65536\n0\n",
    b"P2\n2 1\n1\n0\n", b"P2\n1 1\n1\n0 0\n", b"P2\n1 1\n1\n2\n", b"P2\n1 1\n1\n-1\n",
    b"P2\n1 1\n1\n0x1\n", b"\nP2\n1 1\n1\n0\n",
], ids=["magic", "empty", "maxval-0", "maxval-65536", "short", "long", "above-maxval",
        "negative", "hex", "leading-space"])
def test_parse_pgm_refuses_what_p2_forbids(data):
    with pytest.raises(ValueError):
        parse_pgm(data)


@pytest.mark.parametrize("top", [1, 9, 12, 65535])
def test_parse_pgm_reads_back_what_pgm_dumps_writes(top):
    rng = seeded(top)
    img = [[rng.randint(0, top) for _ in range(rng.randint(1, 9))]] * rng.randint(1, 9)
    assert parse_pgm(pgm_dumps(img, top)) == img


# Each reader names the bad field's JSON path below ``where``. Before, these
# raised a bare KeyError or TypeError, or truncated the value with int().
READER_PATHS = [
    (RectPartition, {}, "doc.level: expected an integer"),
    (RectPartition, {"level": 1, "rects": 5}, "doc.rects: expected a list"),
    (RectPartition, {"level": 1, "rects": [[0, 1, 0]]}, "doc.rects[0]: expected four integers"),
    (RectPartition, {"level": 1, "rects": [], "window": [0, 1, 1, 0]},
     "doc.window: inverted rectangle bounds (0,1,1,0)"),
    (Lattice, {"anchor": [0.5, 0], "spacings": [1, 1]}, "doc.anchor: expected two integers"),
    (Lattice, {"anchor": [True, 0], "spacings": [1, 1]}, "doc.anchor: expected two integers"),
    (Lattice, {"anchor": [0, 0]}, "doc.spacings: expected two integers"),
    (Lattice, [0, 0], "doc: expected an object"),
    (OddSet, {"radius": 2.5}, "doc.radius: expected an integer"),
    (OddSet, {"radius": "3"}, "doc.radius: expected an integer"),
    (OddSet, 3, "doc: expected an object"),
    (PatternSet, {}, "doc.patterns: expected a list"),
    (PatternSet, {"patterns": [5]}, "doc.patterns[0]: expected an object"),
    (ColorGrid, {"rect": [0, 0, 0, 0], "colors": [[0.7]]}, "doc.colors[0][0]: expected an integer"),
    (ColorGrid, {"rect": [0, 0, 0, 0], "colors": ["0"]}, "doc.colors[0]: expected a list"),
    (ColorGrid, {"colors": [[0]]}, "doc.rect: expected four integers"),
    (Rect, [0, -1, 0, 5], "doc: inverted rectangle bounds (0,-1,0,5)"),
    # Range checks made after the types are read name the reader's path too.
    (Lattice, {"anchor": [0, 0], "spacings": [0, 1]},
     "doc: lattice spacings must be >= 1, got (0, 1)"),
    (OddSet, {"radius": 0}, "doc: radius must be >= 1"),
    (PatternSet, {"patterns": []}, "doc: pattern set must be nonempty"),
    (ColorGrid, {"rect": [0, 1, 0, 0], "colors": [[0]]},
     "doc: color rows do not match the window size"),
]


@pytest.mark.parametrize("cls,data,message", READER_PATHS,
                         ids=[f"{cls.__name__}-{i}" for i, (cls, _d, _m) in enumerate(READER_PATHS)])
def test_readers_name_the_json_path(cls, data, message):
    with pytest.raises(ValueError) as exc:
        cls.from_json(data, "doc")
    assert str(exc.value) == message
