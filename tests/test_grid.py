import json
import random

import numpy as np
import pytest

from gridwindows.geometry import Rect
from gridwindows.grid import Config, PatternSet, boundary, find_occurrences, flip, tile
from gridwindows.serialize import canon_dumps

from oracles import cells_of, naive_boundary, naive_occurrences, naive_tile, rect_cells


def rand_config(rng, max_side=6, holes=False):
    a = rng.randint(-4, 4)
    c = rng.randint(-4, 4)
    w = rng.randint(1, max_side)
    h = rng.randint(1, max_side)
    rect = Rect.from_bounds(a, a + w - 1, c, c + h - 1)
    rows = []
    hole_pts = []
    for y in range(c, c + h):
        row = ""
        for x in range(a, a + w):
            if holes and rng.random() < 0.15:
                row += "."
                hole_pts.append((x, y))
            else:
                row += str(rng.randrange(2))
        rows.append(row)
    return Config.from_rows(rect, rows)


def test_config_value_and_holes():
    cfg = Config.from_rows(Rect.from_bounds(0, 2, 0, 1), ["01.", "110"])
    assert cfg.value((0, 0)) == 0
    assert cfg.value((1, 0)) == 1
    assert cfg.value((2, 0)) is None
    assert cfg.value((2, 1)) == 0
    assert cfg.holes == frozenset({(2, 0)})
    assert not cfg.hole_free()
    assert cfg.value((3, 0)) is None  # outside the domain


def test_config_rejects_bad_rows():
    with pytest.raises(ValueError):
        Config.from_rows(Rect.from_bounds(0, 1, 0, 0), ["012"])
    with pytest.raises(ValueError):
        Config.from_rows(Rect.from_bounds(0, 1, 0, 0), ["0"])


@pytest.mark.parametrize("bits,shape", [([[0, 1]], "(1, 2)"), ([[0], [1], [0]], "(3, 1)"),
                                        ([0, 1, 0], "(3,)")])
def test_config_rejects_bits_of_the_wrong_shape(bits, shape):
    with pytest.raises(ValueError) as exc:
        Config(Rect.from_bounds(0, 2, 0, 0), bits)
    assert str(exc.value) == f"bit array shape {shape} does not match rect 3x1"


def test_equal_windows_hash_alike():
    rect = Rect.from_bounds(-1, 1, 2, 3)
    made = Config(rect, [[0, 1, 255], [1, 1, 0]])
    read = Config.from_rows(rect, ["01.", "110"])
    big = Config.from_rows(Rect.from_bounds(-2, 2, 1, 3), ["00000", "001.0", "01100"])
    cut = big.restrict(rect)
    assert made == read == cut
    assert hash(made) == hash(read) == hash(cut)
    assert len({made, read, cut}) == 1
    assert made != Config.from_rows(rect, ["011", "110"])


def test_flip_examples():
    cfg = Config.from_rows(Rect.from_bounds(0, 1, 0, 0), ["01"])
    assert flip(cfg).rows() == ["10"]
    holed = Config.from_rows(Rect.from_bounds(0, 2, 0, 0), ["0.1"])
    assert flip(holed).rows() == ["1.0"]
    assert flip(holed).holes == holed.holes


def test_flip_is_involution():
    rng = random.Random(21)
    for _ in range(50):
        cfg = rand_config(rng, holes=True)
        assert flip(flip(cfg)) == cfg


def test_tile_identity():
    rng = random.Random(5)
    cfg = rand_config(rng)
    out = tile(cfg, (1, 1), lambda i, j: False, cfg.rect.lo)
    assert out == cfg


def test_tile_single_cell():
    q = Config.from_rows(Rect.from_bounds(0, 0, 0, 0), ["0"])
    out = tile(q, (2, 1), lambda i, j: i == 1, (0, 0))
    assert out.rect == Rect.from_bounds(0, 1, 0, 0)
    assert out.value((0, 0)) == 0 and out.value((1, 0)) == 1


def test_tile_checkerblock_example():
    # 2x2 seed (rows "01", "10") tiled 2x2 without flips: doubly periodic.
    q = Config.from_rows(Rect.from_bounds(0, 1, 0, 1), ["01", "10"])
    out = tile(q, (2, 2), lambda i, j: False, (0, 0))
    assert out.rect == Rect.from_bounds(0, 3, 0, 3)
    assert out.value((3, 3)) == q.value((1, 1))
    for (x, y) in rect_cells(0, 3, 0, 3):
        assert out.value((x, y)) == q.value((x % 2, y % 2))


def test_tile_index_law_randomized():
    rng = random.Random(9)
    for _ in range(30):
        q = rand_config(rng, max_side=4)
        nx, ny = rng.randint(1, 3), rng.randint(1, 3)
        flips = {(i, j): rng.random() < 0.5 for i in range(nx) for j in range(ny)}
        anchor = (rng.randint(-3, 3), rng.randint(-3, 3))
        out = tile(q, (nx, ny), lambda i, j: flips[(i, j)], anchor)
        w, h = q.rect.width, q.rect.height
        assert out.rect.lo == anchor
        assert out.rect.width == nx * w and out.rect.height == ny * h
        for i in range(nx):
            for j in range(ny):
                for (qx, qy) in rect_cells(*[q.rect.lo[0], q.rect.hi[0],
                                             q.rect.lo[1], q.rect.hi[1]]):
                    v = q.value((qx, qy))
                    if flips[(i, j)]:
                        v = 1 - v
                    got = out.value((anchor[0] + i * w + (qx - q.rect.lo[0]),
                                     anchor[1] + j * h + (qy - q.rect.lo[1])))
                    assert got == v


def test_tile_rejects_holes():
    holed = Config.from_rows(Rect.from_bounds(0, 1, 0, 0), ["0."])
    with pytest.raises(ValueError):
        tile(holed, (2, 1), lambda i, j: False, (0, 0))


@pytest.mark.parametrize("counts", [(0, 1), (1, 0)])
def test_tile_rejects_zero_counts(counts):
    q = Config.from_rows(Rect.from_bounds(0, 1, 0, 0), ["01"])
    with pytest.raises(ValueError, match="tile counts must be >= 1"):
        tile(q, counts, lambda i, j: False, (0, 0))


# (falsy, truthy) answers of a flip mask: a copy is flipped exactly where
# the answer is truthy, whatever its type.
MASK_ANSWERS = [(0, 1), (0, 2), (None, "x"), (np.bool_(False), np.bool_(True))]
TILE_COUNTS = [(1, 1), (1, 6), (6, 1), (2, 3), (5, 4), (6, 6)]
TILE_ANCHORS = [(0, 0), (-3, 5), (-(10**12), 10**12), (10**12, -(10**12))]


@pytest.mark.parametrize("falsy,truthy", MASK_ANSWERS, ids=["0-1", "0-2", "None-x", "np.bool_"])
def test_tile_matches_the_per_copy_loop(falsy, truthy):
    """tile equals naive_tile, the per-copy loop it replaced, on q of sides 1
    to 4, counts 1 to 6 and far anchors; it asks flip_mask once per copy in
    the same order, and returns a read-only, hole-free window of its own."""
    rng = random.Random(36)
    for w in range(1, 5):
        for h in range(1, 5):
            rows = ["".join(rng.choice("01") for _ in range(w)) for _ in range(h)]
            q = Config.from_rows(Rect.from_bounds(-2, w - 3, 1, h), rows)
            for counts in TILE_COUNTS:
                flips = {(i, j): rng.random() < 0.5 for i in range(counts[0])
                         for j in range(counts[1])}
                for anchor in TILE_ANCHORS:
                    asked = {"tile": [], "naive": []}

                    def mask(name):
                        def answer(i, j):
                            asked[name].append((i, j))
                            return truthy if flips[i, j] else falsy
                        return answer

                    out = tile(q, counts, mask("tile"), anchor)
                    assert out == naive_tile(q, counts, mask("naive"), anchor)
                    assert asked["tile"] == asked["naive"]
                    assert not out.array.flags.writeable
                    assert not np.shares_memory(out.array, q.array)
                    assert out.holes == frozenset() and out.hole_free()


@pytest.mark.parametrize("rect", [Rect.from_bounds(0, 2, 0, 0), Rect.from_bounds(-1, 0, 0, 0)])
def test_restrict_outside_the_window_rejected(rect):
    q = Config.from_rows(Rect.from_bounds(0, 1, 0, 0), ["01"])
    with pytest.raises(ValueError, match="not inside the window"):
        q.restrict(rect)


def test_find_occurrences_single_cell():
    p = Config.from_rows(Rect.from_bounds(0, 1, 0, 1), ["00", "00"])
    f = Config.from_rows(Rect.from_bounds(0, 0, 0, 0), ["0"])
    assert find_occurrences(p, f, False) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert find_occurrences(p, f, True) == set()


def test_find_occurrences_self():
    rng = random.Random(13)
    p = rand_config(rng)
    assert (0, 0) in find_occurrences(p, p, False)


def test_find_occurrences_respects_holes():
    p = Config.from_rows(Rect.from_bounds(0, 2, 0, 0), ["0.0"])
    f = Config.from_rows(Rect.from_bounds(0, 0, 0, 0), ["0"])
    assert find_occurrences(p, f, False) == {(0, 0), (2, 0)}


def test_find_occurrences_matches_oracle():
    rng = random.Random(17)
    for _ in range(40):
        p = rand_config(rng, max_side=6, holes=True)
        f = rand_config(rng, max_side=2)
        pb, pc = cells_of(p)
        _, fc = cells_of(f)
        for flipped in (False, True):
            assert find_occurrences(p, f, flipped) == \
                naive_occurrences(pb, pc, fc, flipped)


def test_find_occurrences_rejects_holey_pattern():
    p = Config.from_rows(Rect.from_bounds(0, 1, 0, 0), ["00"])
    f = Config.from_rows(Rect.from_bounds(0, 1, 0, 0), ["0."])
    with pytest.raises(ValueError):
        find_occurrences(p, f, False)


def test_boundary_small_cases():
    assert boundary({(0, 0)}) == {(0, 0)}
    assert boundary(set()) == set()
    cells = set(rect_cells(0, 2, 0, 2))
    assert boundary(cells) == cells - {(1, 1)}
    column = set(rect_cells(0, 0, 0, 4))
    assert boundary(column) == column


def test_boundary_rect_count():
    rng = random.Random(29)
    for _ in range(20):
        w, h = rng.randint(3, 9), rng.randint(3, 9)
        cells = set(rect_cells(0, w - 1, 0, h - 1))
        got = boundary(cells)
        assert got == naive_boundary(cells)
        assert len(got) == 2 * w + 2 * h - 4


def test_boundary_matches_oracle_on_blobs():
    rng = random.Random(31)
    for _ in range(30):
        pts = {(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(rng.randint(1, 25))}
        assert boundary(pts) == naive_boundary(pts)


def test_config_json_round_trip():
    rng = random.Random(37)
    for _ in range(40):
        cfg = rand_config(rng, holes=True)
        blob = canon_dumps(cfg.to_json())
        back = Config.from_json(json.loads(blob))
        assert back == cfg
        assert canon_dumps(back.to_json()) == blob


def test_config_json_shape():
    cfg = Config.from_rows(Rect.from_bounds(1, 2, -1, 0), ["0.", "11"])
    data = cfg.to_json()
    assert data["rect"] == [1, 2, -1, 0]
    assert data["rows"] == ["0.", "11"]     # low y first
    assert data["holes"] == [[2, -1]]
    assert Config.from_json(data) == cfg


def test_config_json_rejects_mismatched_holes():
    data = {"rect": [0, 1, 0, 0], "rows": ["0."], "holes": []}
    with pytest.raises(ValueError):
        Config.from_json(data)


def test_pgm_render():
    cfg = Config.from_rows(Rect.from_bounds(0, 2, 0, 1), ["01.", "110"])
    text = cfg.to_pgm()
    lines = text.splitlines()
    assert lines[0] == b"P2"
    assert lines[1] == b"3 2"
    assert lines[2] == b"2"
    # Top line of the image is the high-y row.
    assert lines[3] == b"2 2 0"
    assert lines[4] == b"0 2 1"
    assert text.endswith(b"\n")


def test_ascii_render():
    cfg = Config.from_rows(Rect.from_bounds(0, 2, 0, 1), ["01.", "110"])
    assert cfg.to_ascii() == "110\n01.\n"


def test_pattern_set_validation():
    f = Config.from_rows(Rect.from_bounds(0, 0, 0, 0), ["1"])
    ps = PatternSet((f,))
    assert len(ps.patterns) == 1
    with pytest.raises(ValueError):
        PatternSet(())
    holed = Config.from_rows(Rect.from_bounds(0, 1, 0, 0), ["1."])
    with pytest.raises(ValueError):
        PatternSet((holed,))


def test_pattern_set_round_trip():
    f = Config.from_rows(Rect.from_bounds(0, 1, 0, 0), ["10"])
    g = Config.from_rows(Rect.from_bounds(-1, -1, 2, 2), ["0"])
    ps = PatternSet((f, g))
    blob = canon_dumps(ps.to_json())
    assert PatternSet.from_json(json.loads(blob)) == ps
