"""The certificate verifiers: each mt witness clause is evaluated once,
the window check only where clause a does not prove it, reports of broken
finals keep their bytes, every gp stage and shift claim
is checked against the window, and the clause kernels agree with the
oracles."""

import copy
import dataclasses
import hashlib
import io
import json
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridwindows import cli, gridperiod, mincolor, witness
from gridwindows.cli import main
from gridwindows.errors import MAX_REACH_PASSES, ResourceLimitError, check_reach
from gridwindows.geometry import Box, Rect
from gridwindows.grid import HOLE, Config
from gridwindows.gridperiod import (
    GpCertificate,
    verify_gp_certificate,
    verify_grid_periodicity,
)
from gridwindows.mincolor import (
    Cover,
    MtCondition,
    SelfPattern,
    Shift,
    _lex_least_differing,
    build_generic,
    verify_certificate,
)
from gridwindows.schedule import parse_schedule, run_schedule
from gridwindows.serialize import canon_dumps
from gridwindows.witness import window_two_coloring_check

from oracles import (cells_of, naive_grid_periodicity, naive_lex_least_differing, naive_verify_gp,
                     naive_verify_mt, seeded)
from test_cli import PINNED, run_bounded, toast_spec, with_field


CHECKER = {"rect": [0, 2, 0, 2], "rows": ["010", "101", "010"], "holes": []}
LIMITS = {"max_side": 128, "max_steps": 64}
MT_SPEC = {
    "odd": False,
    "seed": CHECKER,
    "schedule": [
        {"op": "shift", "t": [1, 0]},
        {"op": "cover", "g": [6, 4]},
        {"op": "self_pattern"},
    ],
    "limits": LIMITS,
}
ODD_SPEC = dict(
    MT_SPEC,
    odd=True,
    schedule=[
        {"op": "duplicate_odd"},
        {"op": "self_pattern"},
        {"op": "shift", "t": [0, 1]},
        {"op": "cover", "g": [0, 12]},
    ],
)
GP_SPEC = {
    "seed": {"n": 2, "p": {"rect": [0, 1, 0, 1], "rows": ["01", "1."], "holes": [[1, 1]]}},
    "schedule": [
        {"op": "shift", "s": [1, 0]},
        {"op": "line_clear", "axis": "row", "index": 0},
        {"op": "cover", "g": [12, 12]},
    ],
    "limits": {"max_side": 256, "max_steps": 64},
}


def build_cert(tmp_path, capsys, cmd, spec):
    path = tmp_path / "spec.json"
    path.write_text(canon_dumps(spec) + "\n")
    assert main([cmd, "--spec", str(path), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    return json.loads((tmp_path / "out" / "certificate.json").read_text())


def verify_cert(tmp_path, capsys, data):
    path = tmp_path / "tampered.json"
    path.write_text(canon_dumps(data))
    code = main(["verify", "--spec", str(path)])
    return code, capsys.readouterr().out


def check(report_text, prefix):
    (entry,) = [c for c in json.loads(report_text)["checks"] if c["name"].startswith(prefix)]
    return entry["ok"]


# ------------------------------------------------------------- mt clauses


def test_verify_certificate_evaluates_each_clause_once(monkeypatch):
    seed = MtCondition(
        Config.from_json(CHECKER), shifts=(), patterns=(), odd_mode=False
    )
    sched = [Shift((1, 0)), SelfPattern(), Shift((0, 2)), Cover((9, 5)), SelfPattern()]
    cert = build_generic(seed, sched, LIMITS)
    final = cert.final
    calls = Counter()
    shift_grid, pattern_grid = witness._shift_ok_grid, witness._pattern_ok_grid

    def counted_shift(p, t, T):
        if p is final.p:
            calls[("a", tuple(t))] += 1
        return shift_grid(p, t, T)

    def counted_pattern(p, f, F):
        # One call gives both polarities, clauses b1 and b2.
        if p is final.p:
            calls[("b", id(f))] += 1
        return pattern_grid(p, f, F)

    for module in (witness, mincolor):
        monkeypatch.setattr(module, "_shift_ok_grid", counted_shift)
        monkeypatch.setattr(module, "_pattern_ok_grid", counted_pattern)
    report = verify_certificate(cert)
    assert report["ok"]
    expected = Counter({("a", t): 1 for (t, _T) in final.shifts})
    for (f, _F) in final.patterns:
        expected[("b", id(f))] = 1
    assert len(final.shifts) == 2 and len(final.patterns) == 2
    assert calls == expected


# Offsets far outside every window can never witness anything: verify drops
# them, whatever their size, and reports exactly as without them.
@pytest.mark.parametrize("entry,key", [("shifts", "T"), ("patterns", "F")])
def test_far_witness_offset_changes_nothing(tmp_path, capsys, entry, key):
    data = build_cert(tmp_path, capsys, "build-mt", MT_SPEC)
    code, honest = verify_cert(tmp_path, capsys, data)
    assert code == 0
    for far in ([10**30, 0], [-(10**40), 3]):
        data["final"][entry][0][key].append(far)
        assert verify_cert(tmp_path, capsys, data) == (0, honest)


# A witness set moved far away as a whole keeps a non-empty admissible
# region for the window check, near the far coordinates: verify reports
# the clause as failed (exit 4) and the window check as for the honest set.
@pytest.mark.parametrize("T", ["single", "translated"])
def test_far_translated_witness_set_exit_4(tmp_path, capsys, T):
    data = build_cert(tmp_path, capsys, "build-mt", MT_SPEC)
    code, honest = verify_cert(tmp_path, capsys, data)
    assert code == 0
    shift = data["final"]["shifts"][0]
    if T == "single":
        shift["T"] = [[10**30, 0]]
    else:
        shift["T"] = [[x + 10**30, y - 10**40] for x, y in shift["T"]]
    code, report = verify_cert(tmp_path, capsys, data)
    assert code == 4
    assert not check(report, "shift[0] t=(1,0) clause a")
    window = "shift[0] t=(1,0) window two-coloring"
    assert check(report, window) is (check(honest, window) if T == "translated" else False)


def test_far_pattern_with_far_witness_set_verifies(tmp_path, capsys):
    # Moving f by c and F by -c leaves clauses b1/b2 as they were, although
    # both offset rectangles sit near -10**30.
    data = build_cert(tmp_path, capsys, "build-mt", MT_SPEC)
    code, honest = verify_cert(tmp_path, capsys, data)
    assert code == 0
    c = 10**30
    pattern = data["final"]["patterns"][0]
    a, b, lo, hi = pattern["f"]["rect"]
    pattern["f"]["rect"] = [a + c, b + c, lo - c, hi - c]
    pattern["f"]["holes"] = [[x + c, y - c] for x, y in pattern["f"]["holes"]]
    pattern["F"] = [[x - c, y + c] for x, y in pattern["F"]]
    assert verify_cert(tmp_path, capsys, data) == (0, honest)


# A witness set of b boxes costs b passes over its clause's grid, so verify
# bounds b x cells by the input before it builds a table, and names the set.
def checkerboard_half(points):
    """The points (x, y) of a witness set with x + y even: one box each."""
    return [v for v in points if (v[0] + v[1]) % 2 == 0]


def square_spec(s, *steps):
    """Seed 01/10 covered to an s x s window, then the given steps."""
    return {"seed": {"rect": [0, 1, 0, 1], "rows": ["01", "10"], "holes": []},
            "schedule": [{"op": "cover", "g": [s - 1, s - 1]}, *steps],
            "limits": {"max_side": 256, "max_steps": 8}}


def test_scattered_witness_set_over_the_work_bound_exit_3(tmp_path, capsys):
    """The checkerboard half of an honest T over a 128x128 window is 8,192
    one-cell boxes. Unbounded, verify answered ok after 8,192 box queries."""
    data = build_cert(tmp_path, capsys, "build-mt", square_spec(128, {"op": "shift", "t": [1, 0]}))
    shift = data["final"]["shifts"][0]
    shift["T"] = checkerboard_half(shift["T"])
    assert len(shift["T"]) == 128 * 128 // 2
    path = tmp_path / "tampered.json"
    path.write_text(canon_dumps(data))
    assert main(["verify", "--spec", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "error: final.shifts[0].T: 8192 boxes over 16384 cells exceed the witness work bound "
        "of 256 passes per cell and box\n")


@pytest.mark.parametrize("key", ["seed", "final"])
@pytest.mark.parametrize("entry,name,steps", [
    ("shifts", "T", [{"op": "shift", "t": [1, 0]}]),
    ("patterns", "F", [{"op": "self_pattern"}]),
])
def test_work_bound_names_the_witness_set(tmp_path, capsys, key, entry, name, steps):
    """A seed is validated first, so a seed's set is the one named."""
    data = build_cert(tmp_path, capsys, "build-mt", square_spec(32, *steps))
    witness_set = data["final"][entry][0]
    witness_set[name] = checkerboard_half(witness_set[name])
    if key == "seed":
        data["seed"] = data["final"]
    path = tmp_path / "tampered.json"
    path.write_text(canon_dumps(data))
    assert main(["verify", "--spec", str(path)]) == 3
    assert f"error: {key}.{entry}[0].{name}: " in capsys.readouterr().err


def test_work_bound_never_refuses_few_boxes_or_small_windows():
    """One box, or at most MAX_REACH_PASSES boxes, passes over any window;
    any set passes over a window of at most MAX_REACH_PASSES cells."""
    bound = MAX_REACH_PASSES
    for cells in (1, bound, bound + 1, 10**6, 1 << 62):
        for boxes in (1, 2, bound):
            check_reach(boxes, cells, "T")
    for boxes in (bound + 1, 10**6, 1 << 62):
        check_reach(boxes, bound, "T")
    # The bound is exact: boxes * cells == bound * (cells + boxes) still passes.
    check_reach(2 * bound, 2 * bound, "T")
    with pytest.raises(ResourceLimitError, match="^F: 513 boxes over 512 cells"):
        check_reach(2 * bound + 1, 2 * bound, "F")


def test_window_check_far_offset_leaves_no_admissible_position():
    x = Config.from_rows(Rect.from_bounds(0, 4, 0, 4), ["00000"] * 5)
    assert not window_two_coloring_check(x, (1, 0), {(0, 0)})
    assert window_two_coloring_check(x, (1, 0), {(0, 0), (10**30, 0)})
    assert window_two_coloring_check(x, (1, 0), {(0, 0), (0, -(10**30))})


def hole_in_final(data):
    p = data["final"]["p"]
    a, _b, c, _d = p["rect"]
    p["rows"][0] = "." + p["rows"][0][1:]
    p["holes"] = [[a, c]]


def even_width_final(data):
    p = data["final"]["p"]
    p["rect"][1] -= 1
    p["rows"] = [row[:-1] for row in p["rows"]]


# Reports as printed before "final validate" was derived from the clause
# checks; a structurally broken final must keep them byte for byte.
PINNED_REPORTS = [
    (
        MT_SPEC,
        hole_in_final,
        '{"checks":[{"name":"seed validate","ok":true},{"name":"final validate","ok":false},'
        '{"name":"final extends seed","ok":false},{"name":"shift[0] t=(1,0) clause a","ok":true},'
        '{"name":"shift[0] t=(1,0) window two-coloring","ok":true},'
        '{"name":"pattern[0] clause b1","ok":false},{"name":"pattern[0] clause b2","ok":true}],'
        '"ok":false}\n',
    ),
    (
        ODD_SPEC,
        even_width_final,
        '{"checks":[{"name":"seed validate","ok":true},{"name":"final validate","ok":false},'
        '{"name":"final extends seed","ok":true},{"name":"shift[0] t=(0,1) clause a","ok":true},'
        '{"name":"shift[0] t=(0,1) window two-coloring","ok":true},'
        '{"name":"pattern[0] clause b1","ok":false},{"name":"pattern[0] clause b2","ok":true},'
        '{"name":"odd sides","ok":false}],"ok":false}\n',
    ),
]


@pytest.mark.parametrize("spec,tamper,expected", PINNED_REPORTS, ids=["hole", "even-odd"])
def test_broken_final_report_pinned(tmp_path, capsys, spec, tamper, expected):
    data = build_cert(tmp_path, capsys, "build-mt", spec)
    tamper(data)
    assert verify_cert(tmp_path, capsys, data) == (4, expected)


def test_lex_least_differing_matches_oracle():
    rng = seeded(41)
    for _ in range(400):
        w, h = rng.randint(1, 6), rng.randint(1, 6)
        lo = (rng.randint(-3, 3), rng.randint(-3, 3))
        bits = np.array(
            [[HOLE if rng.random() < 0.2 else rng.randrange(2) for _ in range(w)] for _ in range(h)],
            dtype=np.uint8,
        )
        p = Config(Rect(lo, (lo[0] + w - 1, lo[1] + h - 1)), bits)
        t = (rng.randint(-7, 7), rng.randint(-7, 7))
        _bounds, cells = cells_of(p)
        assert _lex_least_differing(p, t) == naive_lex_least_differing(cells, t)


# ----------------------------------------------------------- gp periodicity


def test_grid_periodicity_matches_oracle():
    rng = seeded(43)
    for _ in range(2000):
        # Sides up to 20 also reach past the window's sides (up to 13).
        w, h = (rng.randint(1, rng.choice((5, 5, 20))) for _ in range(2))
        cols, rows = rng.randint(1, 13), rng.randint(1, 13)
        lo = (rng.randint(-9, 9), rng.randint(-9, 9))
        block = [[rng.randrange(2) for _ in range(w)] for _ in range(h)]
        bits = np.array(
            [[block[(lo[1] + j) % h][(lo[0] + i) % w] for i in range(cols)] for j in range(rows)],
            dtype=np.uint8,
        )
        for _flip in range(rng.choice((0, 0, 1, 2))):
            j, i = rng.randrange(rows), rng.randrange(cols)
            bits[j, i] ^= 1
        bits[np.array([[rng.random() < 0.15 for _ in range(cols)] for _ in range(rows)])] = HOLE
        x = Config(Rect(lo, (lo[0] + cols - 1, lo[1] + rows - 1)), bits)
        u = (rng.randint(-20, 20), rng.randint(-20, 20))
        assert verify_grid_periodicity(x, w, h, u) == naive_grid_periodicity(x, w, h, u)


@pytest.mark.parametrize("w,h", [(0, 2), (2, 0), (-2, 2)])
def test_grid_periodicity_rejects_nonpositive_sides(w, h):
    x = Config.from_json(CHECKER)
    with pytest.raises(ValueError):
        verify_grid_periodicity(x, w, h, (0, 0))


# Sides were padded to whole blocks in full: 10**6 x 10**6 on a 4 x 4 window
# asked for 931 GiB. A side at or past the window's puts each line in a
# class of its own, and the exempt class may then lie outside the window.
FAR_SIDES = """
import numpy as np
from gridwindows.geometry import Rect
from gridwindows.grid import HOLE, Config
from gridwindows.gridperiod import verify_grid_periodicity as v
bits = np.zeros((4, 4), dtype=np.uint8)
bits[2, 1], bits[3, 3] = 1, HOLE
x = Config(Rect((5, 5), (8, 8)), bits)
print(v(x, 10**6, 10**6, (0, 0)), v(x, 10**6, 2, (6, 5)), v(x, 10**6, 2, (7, 5)),
      v(x, 2, 10**6, (0, 0)))
"""


def test_grid_periodicity_far_sides_bounded():
    proc = run_bounded(["-c", FAR_SIDES])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True", "False", "False"]


# Each stage's periodicity verdict in the certificate's verify report, in order.
def stage_verdicts(cert):
    report = verify_gp_certificate(cert)
    names = {c["name"]: c["ok"] for c in report["checks"]}
    return [names[f"stage[{i}] periodicity {st['w']}x{st['h']}"]
            for i, st in enumerate(cert.stages)]


GP3_SPEC = {
    "seed": {"n": 3, "p": {"rect": [0, 2, 0, 2], "rows": ["010", "110", "01."],
                           "holes": [[2, 2]]}},
    "schedule": [
        {"op": "shift", "s": [4, 1]},
        {"op": "line_clear", "axis": "col", "index": 2},
        {"op": "cover", "g": [-20, 30]},
    ],
    "limits": {"max_side": 256, "max_steps": 64},
}


@pytest.mark.parametrize("spec", [GP_SPEC, GP3_SPEC], ids=["readme-n2", "n3"])
def test_gp_stage_verdicts_match_oracle_under_flips(spec):
    seed = gridperiod.GpCondition.from_json(spec["seed"])
    sched = parse_schedule(spec["schedule"], gridperiod.STEPS)
    cert = gridperiod.build_generic_gp(seed, sched, spec["limits"])
    fin = cert.final.p
    assert all(stage_verdicts(cert))
    rng = seeded(47)
    rows, cols = fin.array.shape
    failed = 0
    for _ in range(40):
        bits = fin.array.copy()
        for _flip in range(rng.choice((1, 1, 2))):
            j, i = rng.randrange(rows), rng.randrange(cols)
            if bits[j, i] != HOLE:
                bits[j, i] ^= 1
        x = Config(fin.rect, bits)
        got = stage_verdicts(dataclasses.replace(cert, final=gridperiod.GpCondition(seed.n, x)))
        want = [naive_grid_periodicity(x, st["w"], st["h"], st["u"]) for st in cert.stages]
        assert got == want
        failed += not all(got)
    assert failed


# ------------------------------------------------------------ gp claims

# Stage 0 of GP_SPEC's certificate is 2x2 with its hole at (1, 1); the final
# window is 16x16 with its hole at (15, 15).
STAGE_TAMPERS = [
    ("w", 0),
    ("w", -2),
    ("u", [0, 0]),
    ("h", 10**12),
    ("u", [1]),
    ("u", [1, 1, 1]),
    ("u", [1.0, 1]),
]


@pytest.mark.parametrize(
    "key,value",
    STAGE_TAMPERS,
    ids=["w0", "w-2", "u", "h-huge", "u-short", "u-long", "u-float"],
)
def test_gp_stage_claim_checked_exit_4(tmp_path, capsys, key, value):
    data = build_cert(tmp_path, capsys, "build-gp", GP_SPEC)
    assert data["stages"][0] == {"w": 2, "h": 2, "u": [1, 1]}
    data["stages"][0][key] = value
    code, out = verify_cert(tmp_path, capsys, data)
    assert code == 4
    assert check(out, "stage[0] periodicity") is False
    assert [c["name"] for c in json.loads(out)["checks"] if not c["ok"]] == [
        f"stage[0] periodicity {data['stages'][0]['w']}x{data['stages'][0]['h']}"
    ]


def test_gp_shift_offset_claim_checked_exit_4(tmp_path, capsys):
    data = build_cert(tmp_path, capsys, "build-gp", GP_SPEC)
    assert data["steps"][0]["req"]["s"] == [1, 0]
    data["steps"][0]["req"]["s"] = [5, 7]
    code, out = verify_cert(tmp_path, capsys, data)
    assert code == 4
    assert check(out, "shift [5, 7] pair differs") is False


# A line_clear axis other than "row" was checked as a column, and a shift's
# s was compared with ==, so a float or a bool passed as the integer. A line
# in the final hole's class (the final window is 16x16 with its hole at
# (15, 15)) is not cleared, inside the window or not.
@pytest.mark.parametrize("step,key,value,name", [
    (1, "axis", "diag", "line diag 0 cleared"),
    (1, "axis", 7, "line 7 0 cleared"),
    (0, "s", [1.0, 0], "shift [1.0, 0] pair differs"),
    (0, "s", [True, 0], "shift [True, 0] pair differs"),
    (1, "index", 15, "line row 15 cleared"),
    (1, "index", 31, "line row 31 cleared"),
], ids=["axis-diag", "axis-int", "s-float", "s-bool", "index-hole-class", "index-hole-class-out"])
def test_gp_step_claim_read_strictly_exit_4(tmp_path, capsys, step, key, value, name):
    data = build_cert(tmp_path, capsys, "build-gp", GP_SPEC)
    data["steps"][step]["req"][key] = value
    code, out = verify_cert(tmp_path, capsys, data)
    assert code == 4
    assert [c["name"] for c in json.loads(out)["checks"] if not c["ok"]] == [name]


# Each step record gives one check: a record of an op the verifier does not
# know was skipped, so its claim went unchecked and verify still passed.
def test_gp_unknown_step_op_fails_its_check(tmp_path, capsys):
    data = build_cert(tmp_path, capsys, "build-gp", GP_SPEC)
    honest = verify_cert(tmp_path, capsys, data)[1]
    data["steps"][0]["req"]["op"] = "warp"
    code, out = verify_cert(tmp_path, capsys, data)
    assert code == 4
    checks = json.loads(out)["checks"]
    assert len(checks) == len(json.loads(honest)["checks"]) == 10
    assert [c["name"] for c in checks if not c["ok"]] == ["steps[0] unknown op 'warp'"]


def test_gp_appended_unknown_step_fails(tmp_path, capsys):
    data = build_cert(tmp_path, capsys, "build-gp", GP_SPEC)
    data["steps"].append({"req": {"op": "teleport", "g": [1000000000, 0]}})
    code, out = verify_cert(tmp_path, capsys, data)
    assert code == 4
    assert check(out, "steps[3] unknown op 'teleport'") is False


def test_gp_duplicate_stages_checked_once(monkeypatch):
    seed = gridperiod.GpCondition.from_json(GP_SPEC["seed"])
    sched = parse_schedule(GP_SPEC["schedule"], gridperiod.STEPS)
    cert = GpCertificate.from_json(
        gridperiod.build_generic_gp(seed, sched, GP_SPEC["limits"]).to_json()
    )
    calls = Counter()

    def counted(x, w, h, u):
        calls[(w, h, tuple(u))] += 1
        return verify_grid_periodicity(x, w, h, u)

    monkeypatch.setattr(gridperiod, "verify_grid_periodicity", counted)
    report = verify_gp_certificate(cert)
    stages = [(st["w"], st["h"], tuple(st["u"])) for st in cert.stages]
    assert len(set(stages)) < len(stages)
    assert calls == Counter(set(stages))
    names = [c["name"] for c in report["checks"] if c["name"].startswith("stage[")]
    assert names == [f"stage[{i}] periodicity {w}x{h}" for i, (w, h, _u) in enumerate(stages)]
    assert report["ok"]
    # A repeated stage with its hole moved is a different stage.
    assert cert.stages[2] == {"w": 4, "h": 2, "u": [3, 1]}
    cert.stages[2] = {"w": 4, "h": 2, "u": [1, 1]}
    report = verify_gp_certificate(cert)
    assert [c["name"] for c in report["checks"] if not c["ok"]] == ["stage[2] periodicity 4x2"]


# Specs whose line_clear left its line too short, or with a period not
# dividing the final side: their builds wrote certificates that failed their
# own "line ... cleared" check.
LINE_SPECS = [
    ({"n": 3, "p": {"rect": [1, 1, -1, 1], "rows": [".", "0", "0"], "holes": [[1, -1]]}}, [0]),
    ({"n": 3, "p": {"rect": [-1, 1, -1, 1], "rows": [".01", "101", "011"], "holes": [[-1, -1]]}},
     [0]),
    ({"n": 3, "p": {"rect": [0, 2, 0, 2], "rows": ["1.1", "001", "011"], "holes": [[1, 0]]}}, [0]),
    ({"n": 2, "p": {"rect": [0, 0, 0, 0], "rows": ["."], "holes": [[0, 0]]}}, [0, 1]),
]


@pytest.mark.parametrize("seed,rows", LINE_SPECS, ids=["short", "period-2", "tiles", "two-lines"])
def test_gp_build_keeps_every_line_claim(tmp_path, capsys, seed, rows):
    schedule = [{"op": "line_clear", "axis": "row", "index": j} for j in rows]
    data = build_cert(tmp_path, capsys, "build-gp",
                      {"seed": seed, "schedule": schedule, "limits": GP_SPEC["limits"]})
    code, out = verify_cert(tmp_path, capsys, data)
    assert code == 0
    assert all(check(out, f"line row {j} cleared") for j in rows)


# ------------------------------------------- extension, structure, schedule

def gp_cond(rect, rows):
    return gridperiod.GpCondition(2, Config.from_rows(Rect.from_bounds(*rect), rows))


GP_BLOCK = gp_cond((0, 1, 0, 1), ["01", "1."])


@pytest.mark.parametrize("c1,ok", [
    (gridperiod.extend_tile_gp(GP_BLOCK, ((0, 1), (0, 1)), (2, 2)), True),
    (gp_cond((-1, 2, -1, 2), ["0000", "0010", "0000", "000."]), False),
    (gp_cond((0, 2, 0, 1), ["010", "1.1"]), False),
    (gp_cond((0, 3, 0, 3), ["0101", "1.11", "0101", "1.1."]), False),
    (gp_cond((0, 3, 0, 3), ["0101", "1111", "0101", "1110"]), False),
    (gp_cond((0, 3, 0, 3), [".101", "1111", "0101", "1111"]), False),
], ids=["honest", "misaligned", "side-not-dividing", "two-holes", "no-hole", "hole-off-class"])
def test_is_extension_gp_rejects(c1, ok):
    assert gridperiod.is_extension_gp(c1, GP_BLOCK) is ok


MT_P = Config.from_json(CHECKER)
MT_F = Config.from_rows(Rect.from_bounds(0, 0, 0, 0), ["1"])
MT_F_HOLE = Config.from_rows(Rect.from_bounds(0, 0, 0, 0), ["."])
MT_BASE = MtCondition(MT_P, (((1, 0), Box(0, 0, 0, 0)),), ((MT_F, Box(0, 1, 0, 0)),), False)


@pytest.mark.parametrize("c1,ok", [
    (MT_BASE, True),
    (dataclasses.replace(MT_BASE, p=MT_P.translate((1, 0))), False),
    (dataclasses.replace(MT_BASE, patterns=()), False),
    (dataclasses.replace(MT_BASE, patterns=((MT_P, Box(0, 1, 0, 0)),)), False),
    (dataclasses.replace(MT_BASE, shifts=(((0, 1), Box(0, 0, 0, 0)),)), False),
    (dataclasses.replace(MT_BASE, odd_mode=True), False),
], ids=["same", "rect-not-contained", "patterns-dropped", "pattern-changed", "shift-changed",
        "odd-mode"])
def test_is_extension_rejects(c1, ok):
    assert mincolor.is_extension(c1, MT_BASE) is ok


@pytest.mark.parametrize("cond,index", [
    (dataclasses.replace(MT_BASE, patterns=((MT_F_HOLE, Box(0, 0, 0, 0)),)), 0),
    (dataclasses.replace(MT_BASE, shifts=(((0, 0), Box(0, 0, 0, 0)),)), 0),
    (dataclasses.replace(MT_BASE, p=Config.from_rows(MT_P.rect, ["010", "1.1", "010"])), None),
    (dataclasses.replace(MT_BASE, p=Config.from_rows(Rect.from_bounds(0, 1, 0, 0), ["01"]),
                         odd_mode=True), None),
], ids=["pattern-hole", "zero-shift", "window-hole", "even-side-odd-mode"])
def test_structure_rejects(cond, index):
    assert mincolor._structure(cond) == [mincolor.Violation("structure", index, None)]


@pytest.mark.parametrize("steps,start,req", [
    (mincolor.STEPS, MtCondition(MT_P, (), (), False), gridperiod.Shift((1, 0))),
    (gridperiod.STEPS, GP_BLOCK, mincolor.SelfPattern()),
    (gridperiod.STEPS, GP_BLOCK, object()),
], ids=["gp-request-to-mt", "mt-request-to-gp", "object"])
def test_run_schedule_rejects_unknown_request(steps, start, req):
    with pytest.raises(ValueError, match="unknown build step"):
        run_schedule(start, [req], LIMITS, steps)


# ------------------------------------------------------- chains and limits

# Whole lists emptied, repeated or cut, and limits the certificate breaks:
# each verified with exit 0 while no verifier read steps, stages or limits.
# (spec, tamper, failing checks)
CHAIN_TAMPERS = {
    "gp-empty": (GP_SPEC, lambda d: d.update(stages=[], steps=[]), ["final extends seed"]),
    "gp-final-stages": (GP_SPEC, lambda d: d.update(stages=[d["stages"][-1]] * 7),
                        ["final extends seed", "stage[0] periodicity 16x16"]),
    "gp-steps-cut": (GP_SPEC, lambda d: d.update(steps=d["steps"][2:]), ["final extends seed"]),
    "gp-stages-reversed": (GP_SPEC, lambda d: d["stages"].reverse(),
                           ["stage[0] periodicity 16x16", "stage[2] periodicity 4x2",
                            "stage[3] periodicity 2x2"]),
    "gp-limits": (GP_SPEC, lambda d: d.update(limits={"max_side": 1, "max_steps": 0}),
                  ["final extends seed"]),
    "mt-steps-empty": (MT_SPEC, lambda d: d.update(steps=[]), ["final extends seed"]),
    "mt-steps-nonsense": (MT_SPEC, lambda d: d.update(steps=[{"req": {"op": "nonsense"}}]),
                          ["final extends seed", "steps[0] unknown op 'nonsense'"]),
    "mt-shift-twice": (MT_SPEC, lambda d: d["steps"].append(d["steps"][0]),
                       ["final extends seed"]),
    "mt-mode": (MT_SPEC, lambda d: d["steps"][0].update(mode="noop"), ["final extends seed"]),
    # The shift chain alone holds for these two; only the mode claim fails.
    "mt-shift-repeated": (MT_SPEC, lambda d: (d["final"]["shifts"].append(d["final"]["shifts"][0]),
                                              d["steps"].append(d["steps"][0])),
                          ["final extends seed"]),
    "mt-noop-unseen": (MT_SPEC, lambda d: (d["final"].update(shifts=[]),
                                           d["steps"][0].update(mode="noop")),
                       ["final extends seed"]),
    "mt-pattern-index": (MT_SPEC, lambda d: d["steps"][2].update(pattern_index=1),
                         ["final extends seed"]),
    "mt-cover-outside": (MT_SPEC, lambda d: d["steps"][1]["req"].update(g=[60, 4]),
                         ["final extends seed"]),
    "mt-limits": (MT_SPEC, lambda d: d.update(limits={"max_side": 1, "max_steps": 64}),
                  ["final extends seed"]),
    "mt-max-steps": (MT_SPEC, lambda d: d.update(limits={"max_side": 128, "max_steps": 2}),
                     ["final extends seed"]),
    "gp-max-steps": (GP_SPEC, lambda d: d.update(limits={"max_side": 256, "max_steps": 2}),
                     ["final extends seed"]),
    "odd-offset": (ODD_SPEC, lambda d: d["steps"][0].update(offset=[2, 0]), ["odd sides"]),
    # Offset and placements agree, but 2 does not divide the final width 27.
    "odd-width": (ODD_SPEC, lambda d: d["steps"][0].update(offset=[2, 0],
                                                            placements=[[0, 0], [2, 0]]),
                  ["odd sides"]),
    "odd-placements": (ODD_SPEC, lambda d: d["steps"][0].update(placements=[[0, 0], [1, 0]]),
                       ["odd sides"]),
    "even-duplicate": (MT_SPEC, lambda d: d["steps"].append(
        {"req": {"op": "duplicate_odd"}, "offset": [9, 0], "placements": [[0, 0], [9, 0]]}),
                       ["odd sides"]),
}


@pytest.mark.parametrize("spec,tamper,failing", CHAIN_TAMPERS.values(), ids=CHAIN_TAMPERS.keys())
def test_chain_and_limit_tampers_exit_4(tmp_path, capsys, spec, tamper, failing):
    cmd = "build-gp" if "n" in spec["seed"] else "build-mt"
    data = build_cert(tmp_path, capsys, cmd, spec)
    tamper(data)
    code, out = verify_cert(tmp_path, capsys, data)
    assert code == 4
    assert [c["name"] for c in json.loads(out)["checks"] if not c["ok"]] == failing


# The same lists and limits of the wrong JSON type exit 2, naming their path.
@pytest.mark.parametrize("cmd,spec", [("build-mt", MT_SPEC), ("build-gp", GP_SPEC)],
                         ids=["mt", "gp"])
@pytest.mark.parametrize("key,value,message", [
    ("limits", "junk", "limits: expected an object"),
    ("limits", {"max_side": 1}, "limits.max_steps: expected an integer"),
    ("limits", {"max_side": 1.0, "max_steps": 3}, "limits.max_side: expected an integer"),
    ("steps", "junk", "steps: expected a list"),
    ("steps", {"req": {}}, "steps: expected a list"),
], ids=["limits-str", "limits-missing", "limits-float", "steps-str", "steps-object"])
def test_certificate_lists_and_limits_read_with_paths(tmp_path, capsys, cmd, spec, key, value,
                                                      message):
    data = build_cert(tmp_path, capsys, cmd, spec)
    data[key] = value
    path = tmp_path / "tampered.json"
    path.write_text(canon_dumps(data))
    assert main(["verify", "--spec", str(path)]) == 2
    assert f"error: {message}" in capsys.readouterr().err


# ------------------------------------------------------ malformed shapes

# Points of the wrong shape in a certificate. The mt reader needs t to be
# two values (exit 2); a gp step claim of the wrong shape fails its own
# check (exit 4). A huge rect is refused before anything is allocated.
SHAPE_TAMPERS = [
    ("build-mt", MT_SPEC, ("final", "shifts", 0, "t"), [1], 2),
    ("build-mt", MT_SPEC, ("final", "shifts", 0, "t"), [], 2),
    ("build-mt", MT_SPEC, ("seed", "shifts"), [{"t": [1], "T": []}], 2),
    ("build-mt", MT_SPEC, ("final", "p", "rect"), [0, 10**12, 0, 5], 2),
    ("build-gp", GP_SPEC, ("steps", 0, "pair"), [[0, 0]], 4),
    ("build-gp", GP_SPEC, ("steps", 0, "pair"), [[0], [1]], 4),
    ("build-gp", GP_SPEC, ("steps", 2, "req", "g"), [5], 4),
    ("build-gp", GP_SPEC, ("steps", 2, "req", "g"), [], 4),
    ("build-gp", GP_SPEC, ("steps", 2, "req", "g"), [[1, 2]], 4),
    # Non-integer numbers were truncated by int() and verified.
    ("build-mt", MT_SPEC, ("final", "shifts", 0, "t"), [1.5, 0], 2),
    ("build-mt", MT_SPEC, ("final", "shifts", 0, "T", 0), [-1.1, -2], 2),
    ("build-gp", GP_SPEC, ("steps", 1, "req", "index"), 0.5, 4),
    ("build-gp", GP_SPEC, ("stages", 0, "w"), 2.5, 4),
    ("build-gp", GP_SPEC, ("stages", 0, "w"), 2.0, 4),
    ("build-gp", GP_SPEC, ("final", "n"), 2.9, 2),
    ("build-gp", GP_SPEC, ("final", "p", "rect"), [0.5, 15, 0, 15], 2),
    ("build-gp", GP_SPEC, ("final", "p", "holes", 0), [15.2, 15], 2),
    # A declared hole was compared as a tuple, so 15.0 passed for 15.
    ("build-gp", GP_SPEC, ("final", "u"), [15.0, 15], 2),
    ("build-gp", GP_SPEC, ("seed", "u"), [1, True], 2),
    # A stage that is not an object, or lacks a field, raised a bare key
    # error or a TypeError (exit 2); it fails its own check.
    ("build-gp", GP_SPEC, ("stages", 0), {}, 4),
    ("build-gp", GP_SPEC, ("stages", 0), {"w": 1}, 4),
    ("build-gp", GP_SPEC, ("stages", 1), 5, 4),
    ("build-gp", GP_SPEC, ("stages", 1), "x", 4),
    ("build-gp", GP_SPEC, ("stages", 2), None, 4),
    ("build-gp", GP_SPEC, ("stages", 0), 2.5, 4),
    ("build-gp", GP_SPEC, ("stages", 0), True, 4),
    ("build-gp", GP_SPEC, ("stages",), [[0, 0]], 4),
    # A zero shift made the clause kernels raise (exit 2).
    ("build-mt", MT_SPEC, ("final", "shifts", 0, "t"), [0, 0], 4),
]


@pytest.mark.parametrize(
    "cmd,spec,path,value,code",
    SHAPE_TAMPERS,
    ids=["t-short", "t-empty", "seed-t-short", "huge-rect",
         "pair-short", "pair-points-short", "g-short", "g-empty", "g-nested",
         "t-float", "T-float", "index-float", "w-float", "w-integral-float", "n-float",
         "rect-float", "hole-float", "u-float", "seed-u-bool", "stage-empty",
         "stage-w-only", "stage-int", "stage-str", "stage-null", "stage-float", "stage-bool",
         "stages-list", "t-zero"],
)
def test_malformed_shape_exit_code(tmp_path, capsys, cmd, spec, path, value, code):
    data = build_cert(tmp_path, capsys, cmd, spec)
    *keys, last = path
    owner = data
    for key in keys:
        owner = owner[key]
    owner[last] = value
    assert verify_cert(tmp_path, capsys, data)[0] == code


@pytest.mark.parametrize("key", ["seed", "final"])
def test_gp_hole_claim_not_integers_names_path(tmp_path, capsys, key):
    data = build_cert(tmp_path, capsys, "build-gp", GP_SPEC)
    data[key]["u"] = [float(v) for v in data[key]["u"]]
    path = tmp_path / "tampered.json"
    path.write_text(canon_dumps(data))
    assert main(["verify", "--spec", str(path)]) == 2
    assert f"{key}.u: expected two integers" in capsys.readouterr().err


# A malformed stage fails its own check and its predecessor's, whose sides
# must divide its own; every other stage still passes.
@pytest.mark.parametrize("value", [{}, {"h": 4, "u": [3, 3]}, 5, None, [4, 4]],
                         ids=["empty", "w-missing", "int", "null", "list"])
def test_malformed_gp_stage_fails_it_and_the_stage_before(tmp_path, capsys, value):
    data = build_cert(tmp_path, capsys, "build-gp", GP_SPEC)
    data["stages"][2] = value
    code, out = verify_cert(tmp_path, capsys, data)
    checks = json.loads(out)["checks"]
    failed = [c["name"].split(" ")[0] for c in checks if not c["ok"]]
    assert code == 4 and failed == ["stage[1]", "stage[2]"]


def test_zero_shift_fails_both_of_its_checks(tmp_path, capsys):
    data = build_cert(tmp_path, capsys, "build-mt", MT_SPEC)
    data["final"]["shifts"][0]["t"] = [0, 0]
    code, out = verify_cert(tmp_path, capsys, data)
    failed = [c["name"] for c in json.loads(out)["checks"] if not c["ok"]]
    assert code == 4
    assert failed == ["final validate", "final extends seed", "shift[0] t=(0,0) clause a",
                      "shift[0] t=(0,0) window two-coloring"]


# A pattern with a hole made verify exit 2 with the pathless "pattern must be
# hole-free", though validate reports it as a structural fault. Its clauses
# fail instead, and final validate with them, as for a zero t; in the seed,
# seed validate fails too.
@pytest.mark.parametrize("in_seed", [False, True], ids=["final", "seed"])
def test_holed_pattern_fails_its_clauses(tmp_path, capsys, in_seed):
    data = build_cert(tmp_path, capsys, "build-mt", MT_SPEC)
    entry = data["final"]["patterns"][0]
    f = entry["f"]
    a, _b, c, _d = f["rect"]
    f["rows"][0] = "." + f["rows"][0][1:]
    f["holes"] = [[a, c]]
    if in_seed:
        data["seed"]["patterns"] = [entry]
    path = tmp_path / "holed.json"
    path.write_text(canon_dumps(data))
    code = main(["verify", "--spec", str(path)])
    out, err = capsys.readouterr()
    failed = [c["name"] for c in json.loads(out)["checks"] if not c["ok"]]
    assert (code, err) == (4, "")
    # A seed pattern is one more than the steps add, so the chain fails too.
    head = ["seed validate", "final validate", "final extends seed"] if in_seed else [
        "final validate"]
    assert failed == [*head, "pattern[0] clause b1", "pattern[0] clause b2"]


# Every shift's t is read before any T, so a bad t further down the list is
# the error named.
@pytest.mark.parametrize("key", ["seed", "final"])
def test_mt_shift_claim_not_integers_named_before_witness_sets(tmp_path, capsys, key):
    data = build_cert(tmp_path, capsys, "build-mt", MT_SPEC)
    final = data["final"]
    final["shifts"] = [dict(final["shifts"][0], T="x"), dict(final["shifts"][0], t=[0.5, 0])]
    data[key] = final
    path = tmp_path / "tampered.json"
    path.write_text(canon_dumps(data))
    assert main(["verify", "--spec", str(path)]) == 2
    assert f"{key}.shifts[1].t: expected two integers" in capsys.readouterr().err


# Exit-2 errors name the bad field's full JSON path, keeping the old text
# after it: (family, path, value, message).
PATH_TAMPERS = [
    ("mt", ("final", "shifts", 0, "T"), "x", "final.shifts[0].T: expected a list of points"),
    ("mt", ("final", "shifts", 0, "t"), [1.0, 0], "final.shifts[0].t: expected two integers"),
    ("mt", ("final", "shifts", 0), 5, "final.shifts[0]: expected an object"),
    ("mt", ("final", "shifts"), {}, "final.shifts: expected a list"),
    ("mt", ("final", "patterns", 0, "F"), None, "final.patterns[0].F: expected a list of points"),
    ("mt", ("final", "patterns", 0, "f", "rect"), [0], "final.patterns[0].f.rect: expected four"),
    ("mt", ("final", "p", "rect"), [0, 1], "final.p.rect: expected four integers"),
    ("mt", ("final", "p", "rect"), [0, -1, 0, 5],
     "final.p.rect: inverted rectangle bounds (0,-1,0,5)"),
    ("mt", ("final", "patterns", 0, "f", "rect"), [2, 1, 0, 0],
     "final.patterns[0].f.rect: inverted rectangle bounds (2,1,0,0)"),
    ("mt", ("final", "p", "rows", 0), "0", "final.p: row 0 has length 1, expected 18"),
    ("mt", ("final", "p", "rows"), "010", "final.p.rows: expected a list"),
    ("mt", ("seed", "p", "rows"), ["0"], "seed.p: expected 3 rows, got 1"),
    ("mt", ("seed", "odd"), None, "seed.odd: expected a boolean"),
    ("gp", ("final", "p", "holes"), [[0, 0]], "final.p: declared holes do not match row data"),
    ("gp", ("final", "p", "holes"), [[0.5, 0]], "final.p.holes: expected a list of points"),
    ("gp", ("final", "u"), [0, 0], "final.u: declared hole does not match the window"),
    ("gp", ("seed", "n"), None, "seed.n: expected an integer"),
    ("gp", ("seed", "p"), [], "seed.p: expected an object"),
    ("gp", ("final",), None, "final: expected an object"),
    ("gp", ("seed", "p", "rect"), [0, 1, 1, 0], "seed.p.rect: inverted rectangle bounds (0,1,1,0)"),
]


@pytest.mark.parametrize("family,path,value,message", PATH_TAMPERS,
                         ids=["T-str", "t-float", "shift-int", "shifts-object", "F-null",
                              "f-rect-short", "rect-short", "rect-inverted", "f-rect-inverted",
                              "row-short", "rows-str", "seed-rows", "seed-odd-null",
                              "holes-wrong", "holes-float", "u-wrong", "seed-n-null",
                              "seed-p-list", "final-null", "seed-rect-inverted"])
def test_reader_errors_name_the_full_path(tmp_path, capsys, family, path, value, message):
    data = build_cert(tmp_path, capsys, *{"mt": ("build-mt", MT_SPEC),
                                          "gp": ("build-gp", GP_SPEC)}[family])
    with_field(data, path, value)
    path = tmp_path / "tampered.json"
    path.write_text(canon_dumps(data))
    assert main(["verify", "--spec", str(path)]) == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_huge_seed_rect_build_exit_2(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(canon_dumps(dict(MT_SPEC, seed=dict(CHECKER, rect=[0, 10**12, 0, 2]))))
    assert main(["build-mt", "--spec", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "row 0 has length 3" in capsys.readouterr().err


# A build spec's seed is read with its path too.
@pytest.mark.parametrize("cmd,spec,message", [
    ("build-mt", dict(MT_SPEC, seed=None), "seed: expected an object"),
    ("build-mt", dict(MT_SPEC, seed=dict(CHECKER, rows=["01"])), "seed: expected 3 rows, got 1"),
    ("build-gp", dict(GP_SPEC, seed={"n": 2}), "seed.p: expected an object"),
    ("build-gp", dict(GP_SPEC, seed={"n": 2, "p": dict(CHECKER, rect=[0])}),
     "seed.p.rect: expected four integers"),
], ids=["mt-seed-null", "mt-rows", "gp-p-missing", "gp-rect-short"])
def test_build_spec_seed_errors_name_the_path(tmp_path, capsys, cmd, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(canon_dumps(spec))
    assert main([cmd, "--spec", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_certificate_kind_checked():
    gp = gridperiod.build_generic_gp(
        gridperiod.GpCondition.from_json(GP_SPEC["seed"]), [], GP_SPEC["limits"]
    ).to_json()
    with pytest.raises(ValueError, match='kind: expected "mt"'):
        mincolor.Certificate.from_json(gp)
    with pytest.raises(ValueError, match='kind: expected "gp"'):
        GpCertificate.from_json(dict(gp, kind="mt"))


# ------------------------------------------------------ mt reader round trip

# The pinned mt specs with the parent report's sha256 when the first
# witness set of the final condition loses its lex-least point.
MT_PINNED = [(spec, report_sha) for (cmd, spec, _cert_sha, report_sha) in PINNED
             if cmd == "build-mt"]
MISSING_SHA = [
    "88825598e5e3db656c5dbc9f031b5dbc534cd902f9f6494cde69a6ff4a1c5cd5",
    "10d1aa69d3a0f81caa058b35b5fdd05f3b1b1c4686b20dd029768996e9283933",
    "1bff1c1bda17576b7f978d2f44832503ceb999b0508bb67d06e21e470d9c6ed1",
    "d5914976e6661201140dd74a247996f0ca4166e56e3cc53d26f73c3561505fc6",
]
MT_IDS = ["mt", "odd", "neg", "neg-odd"]


def witness_sets(cond):
    return [T for (_t, T) in cond.shifts] + [F for (_f, F) in cond.patterns]


@pytest.mark.parametrize("spec,_sha", MT_PINNED, ids=MT_IDS)
def test_mt_reader_reads_builder_sets_as_boxes(tmp_path, capsys, spec, _sha):
    build_cert(tmp_path, capsys, "build-mt", spec)
    text = (tmp_path / "out" / "certificate.json").read_text()
    cert = mincolor.Certificate.from_json(json.loads(text))
    sets = witness_sets(cert.seed) + witness_sets(cert.final)
    assert sets and all(isinstance(S, Box) for S in sets)
    assert canon_dumps(cert.to_json()) + "\n" == text


def tamper_first_set(data, how):
    final = data["final"]
    entry, key = (final["shifts"][0], "T") if final["shifts"] else (final["patterns"][0], "F")
    S = entry[key]
    entry[key] = {
        "reordered": S[:1] + S[-2:0:-1] + S[-1:],
        "duplicate": S + S[:1],
        "missing": S[1:],
        "far": S + [[10**30, 0]],
    }[how]


@pytest.mark.parametrize("how", ["reordered", "duplicate", "missing", "far"])
@pytest.mark.parametrize("spec,report_sha,missing_sha",
                         [(*pin, sha) for pin, sha in zip(MT_PINNED, MISSING_SHA)], ids=MT_IDS)
def test_mt_reader_non_box_list_is_a_point_set(tmp_path, capsys, spec, report_sha,
                                               missing_sha, how):
    data = build_cert(tmp_path, capsys, "build-mt", spec)
    tamper_first_set(data, how)
    final = mincolor.Certificate.from_json(data).final
    assert not isinstance(witness_sets(final)[0], Box)
    code, report = verify_cert(tmp_path, capsys, data)
    want = missing_sha if how == "missing" else report_sha
    assert hashlib.sha256(report.encode()).hexdigest() == want
    assert code == (0 if json.loads(report)["ok"] else 4)


# ------------------------------------------------- derived window checks


def count_window_checks(monkeypatch):
    """The shifts t of each window check verify computes, in call order."""
    calls = []
    check = mincolor.window_two_coloring_check

    def counted(x, s, T):
        calls.append(tuple(s))
        return check(x, s, T)

    monkeypatch.setattr(mincolor, "window_two_coloring_check", counted)
    return calls


@pytest.mark.parametrize("spec,report_sha", MT_PINNED, ids=MT_IDS)
def test_honest_verify_derives_every_window_check(tmp_path, capsys, monkeypatch, spec,
                                                  report_sha):
    """verify reports a shift's ``window two-coloring`` as True without
    computing it when the final is hole-free and the shift's clause a holds.

    That entry is what the check would compute: clause a on a hole-free
    window implies the window check, by the proof in the docstring of
    ``test_witness.test_clause_a_implies_the_window_check`` (every position
    the check admits is a cell of the window, where clause a gives a
    differing pair through T). On an honest certificate every final is
    hole-free and every clause a holds, so no window check runs and the
    report keeps its pinned bytes. Where clause a fails, or the final has a
    hole, the check is computed (the tests below)."""
    data = build_cert(tmp_path, capsys, "build-mt", spec)
    calls = count_window_checks(monkeypatch)
    code, report = verify_cert(tmp_path, capsys, data)
    assert code == 0 and hashlib.sha256(report.encode()).hexdigest() == report_sha
    # The odd route installs no shift; the other three install three or one.
    assert report.count("window two-coloring") == len(data["final"]["shifts"])
    assert calls == []


def test_pattern_clauses_ask_nothing_of_the_final_holes(tmp_path, capsys):
    # A hole is no cell of the window, so clause b1 holds on a final of
    # zeros with one hole for f = "0" through F = {(0, 0)}, though no copy
    # of f lies on the hole; clause b2 finds no 1 anywhere.
    data = build_cert(tmp_path, capsys, "build-mt", MT_SPEC)
    p = data["final"]["p"]
    a, b, c, _d = p["rect"]
    p["rows"] = ["." + "0" * (b - a)] + ["0" * (b - a + 1)] * (len(p["rows"]) - 1)
    p["holes"] = [[a, c]]
    data["final"]["patterns"] = [{"f": {"rect": [0, 0, 0, 0], "rows": ["0"], "holes": []},
                                  "F": [[0, 0]]}]
    code, report = verify_cert(tmp_path, capsys, data)
    assert code == 4
    assert check(report, "pattern[0] clause b1") and not check(report, "pattern[0] clause b2")


def single_offset_T(data):
    data["final"]["shifts"][0]["T"] = [[0, 0]]


def far_T(data):
    entry = data["final"]["shifts"][0]
    entry["T"] = [[x + 10**30, y] for x, y in entry["T"]]


# A first shift whose clause a fails, with the sha256 of the report printed
# when verify computed every window check.
CLAUSE_A_TAMPERS = [
    (single_offset_T, MT_PINNED[0][0],
     "cfc191250b68a09d3cdc76217de0455500b33f55aabd1a911029685f766530d6"),
    (single_offset_T, MT_PINNED[2][0],
     "aea30315fc9a5832d141aea9dd91b4bf109574ac71da9e28d900d2f72f494bb3"),
    (far_T, MT_PINNED[0][0],
     "c0432f4edc73b01d09ed68c86a2687c49418302ab86309a02d89db826a1af6f2"),
    (far_T, MT_PINNED[3][0],
     "d5914976e6661201140dd74a247996f0ca4166e56e3cc53d26f73c3561505fc6"),
]


@pytest.mark.parametrize("tamper,spec,report_sha", CLAUSE_A_TAMPERS,
                         ids=["mt-single", "neg-single", "mt-far", "neg-odd-far"])
def test_clause_a_tamper_computes_its_window_check(tmp_path, capsys, monkeypatch, tamper,
                                                   spec, report_sha):
    data = build_cert(tmp_path, capsys, "build-mt", spec)
    tamper(data)
    calls = count_window_checks(monkeypatch)
    code, report = verify_cert(tmp_path, capsys, data)
    assert code == 4 and hashlib.sha256(report.encode()).hexdigest() == report_sha
    shifts = data["final"]["shifts"]
    assert not check(report, f"shift[0] t=({shifts[0]['t'][0]},{shifts[0]['t'][1]}) clause a")
    # Only the tampered shift's check runs; the others are derived.
    assert calls == [tuple(shifts[0]["t"])]


def test_final_with_a_hole_computes_every_window_check(tmp_path, capsys, monkeypatch):
    data = build_cert(tmp_path, capsys, "build-mt", MT_PINNED[2][0])
    hole_in_final(data)
    calls = count_window_checks(monkeypatch)
    code, report = verify_cert(tmp_path, capsys, data)
    assert code == 4 and hashlib.sha256(report.encode()).hexdigest() == (
        "8770a0842669028cb226d61061138416b1a1b74921a187e0227765122e554b08")
    assert calls == [tuple(e["t"]) for e in data["final"]["shifts"]] and len(calls) == 3


# Flags that are not JSON booleans were read with bool() and verified.
@pytest.mark.parametrize("key", ["seed", "final"])
@pytest.mark.parametrize("value", ["yes", 1, [0]], ids=["string", "int", "list"])
def test_mt_odd_flag_not_boolean_exit_2(tmp_path, capsys, key, value):
    data = build_cert(tmp_path, capsys, "build-mt", ODD_SPEC)
    data[key]["odd"] = value
    path = tmp_path / "tampered.json"
    path.write_text(canon_dumps(data))
    assert main(["verify", "--spec", str(path)]) == 2
    assert f"{key}.odd: expected a boolean" in capsys.readouterr().err


# ---------------------------------------------------------------- totality

# One JSON path of a certificate or a build spec, the root included, set to
# one of these. canon_dumps writes inf as Infinity, which json.load reads back.
JUNK = [None, True, 1.5, -1, 0, 10**30, "x", [], [1], [1, 2, 3], {}, [[0, 0]], [0.5, 0],
        [10**12, 0], float("inf")]


def json_paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from json_paths(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from json_paths(value, (*path, i))


@pytest.fixture(scope="module")
def spec_certs(tmp_path_factory):
    """The certificates of MT_SPEC and GP_SPEC, their JSON paths, and a file
    path for the mutated copy."""
    certs = {}
    for cmd, spec in (("build-mt", MT_SPEC), ("build-gp", GP_SPEC)):
        out = tmp_path_factory.mktemp(cmd)
        (out / "spec.json").write_text(canon_dumps(spec))
        with redirect_stdout(io.StringIO()):
            assert main([cmd, "--spec", str(out / "spec.json"), "--out", str(out)]) == 0
        data = json.loads((out / "certificate.json").read_text())
        certs[cmd] = (data, list(json_paths(data)), out / "mutated.json")
    return certs


@pytest.mark.parametrize("cmd", ["build-mt", "build-gp"])
@given(st.data())
def test_verify_total_under_single_field_mutation(spec_certs, cmd, data):
    """verify ends in exit 0, 2 or 4, never in a traceback."""
    cert, paths, path = spec_certs[cmd]
    where = data.draw(st.sampled_from(paths), label="path")
    value = data.draw(st.sampled_from(JUNK), label="value")
    doc = with_field(copy.deepcopy(cert), where, value) if where else value
    path.write_text(canon_dumps(doc))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(["verify", "--spec", str(path)]) in (0, 2, 4)


@pytest.fixture(scope="module")
def mutated_dir(tmp_path_factory):
    """A directory for the mutated spec and the artifacts of its build."""
    return tmp_path_factory.mktemp("mutated-spec")


@pytest.mark.parametrize("cmd,spec", [("build-mt", MT_SPEC), ("build-gp", GP_SPEC)],
                         ids=["build-mt", "build-gp"])
@given(st.data())
def test_build_total_under_single_field_mutation(mutated_dir, cmd, spec, data):
    """A build ends in exit 0, 2 or 3, never in a traceback or exit 4."""
    where = data.draw(st.sampled_from(list(json_paths(spec))), label="path")
    value = data.draw(st.sampled_from(JUNK), label="value")
    doc = with_field(copy.deepcopy(spec), where, value) if where else value
    path = mutated_dir / "spec.json"
    path.write_text(canon_dumps(doc))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main([cmd, "--spec", str(path), "--out", str(mutated_dir / "out")]) in (0, 2, 3)


@given(st.data())
def test_toast_total_under_single_field_mutation(mutated_dir, data):
    """gridwin toast ends in exit 0, 2 or 3, never in a traceback or exit 4."""
    spec = toast_spec()
    where = data.draw(st.sampled_from(list(json_paths(spec))), label="path")
    value = data.draw(st.sampled_from(JUNK), label="value")
    doc = with_field(copy.deepcopy(spec), where, value) if where else value
    path = mutated_dir / "toast.json"
    path.write_text(canon_dumps(doc))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(["toast", "--spec", str(path)]) in (0, 2, 3)


# ----------------------------------------------------------------- meaning

# Small random build specs of both families, with sides of at most 16 and
# limits the build exactly meets in steps. A spec whose build stops (exit 2
# or 3) is discarded.


def spec_window(draw, sides, hole):
    w, h = draw(sides), draw(sides)
    a, c = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    bits = draw(st.text("01", min_size=w * h, max_size=w * h))
    rows = [list(bits[j * w : (j + 1) * w]) for j in range(h)]
    holes = []
    if hole:
        i, j = draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1))
        rows[j][i] = "."
        holes = [[a + i, c + j]]
    return {"rect": [a, a + w - 1, c, c + h - 1], "rows": ["".join(r) for r in rows],
            "holes": holes}


def spec_point(draw, lo, hi):
    return [draw(st.integers(lo, hi)), draw(st.integers(lo, hi))]


def spec_shift(draw):
    return draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any).map(list))


@st.composite
def mt_specs(draw):
    odd = draw(st.booleans())
    ops = ["shift", "cover", "self_pattern"] + ["duplicate_odd"] * odd
    schedule = []
    for op in draw(st.lists(st.sampled_from(ops), max_size=3)):
        step = {"op": op}
        if op == "shift":
            step["t"] = spec_shift(draw)
        elif op == "cover":
            step["g"] = spec_point(draw, -6, 6)
        schedule.append(step)
    sides = st.sampled_from((1, 3)) if odd else st.integers(1, 4)
    return {"odd": odd, "seed": spec_window(draw, sides, False), "schedule": schedule,
            "limits": {"max_side": 16, "max_steps": len(schedule)}}


@st.composite
def gp_specs(draw):
    n = draw(st.sampled_from((2, 3)))
    schedule = []
    for op in draw(st.lists(st.sampled_from(["shift", "line_clear", "cover"]), max_size=3)):
        step = {"op": op}
        if op == "shift":
            step["s"] = spec_shift(draw)
        elif op == "line_clear":
            step.update(axis=draw(st.sampled_from(("row", "col"))),
                        index=draw(st.integers(-4, 6)))
        else:
            step["g"] = spec_point(draw, -6, 8)
        schedule.append(step)
    sides = st.sampled_from((1, 2, 4) if n == 2 else (1, 3))
    seed = {"n": n, "p": spec_window(draw, sides, True)}
    return {"seed": seed, "schedule": schedule,
            "limits": {"max_side": 16, "max_steps": len(schedule)}}


# Other values of each string field the certificate formats hold.
TOKENS = {
    "kind": ("mt", "gp"),
    "op": ("shift", "cover", "self_pattern", "duplicate_odd", "line_clear", "warp"),
    "mode": ("noop", "extend"),
    "axis": ("row", "col", "diag"),
}


def mutations(node, kind, path=()):
    """The mutations of one kind of a certificate's JSON, as (path, how, arg):
    "change" sets a leaf to a nearby value of its type (an integer +-1, a
    flag negated, a row's first cell changed, another token), and
    "delete", "duplicate" and "empty" act on a list of records, any list
    but a point or a rectangle."""
    out = []
    if isinstance(node, dict):
        for key, value in node.items():
            out += mutations(value, kind, (*path, key))
    elif isinstance(node, list):
        if node and not all(isinstance(v, int) for v in node):
            if kind in ("delete", "duplicate"):
                out += [(path, kind, i) for i in range(len(node))]
            elif kind == "empty":
                out.append((path, "set", []))
        for i, value in enumerate(node):
            out += mutations(value, kind, (*path, i))
    elif kind == "change":
        if isinstance(node, bool):
            out.append((path, "set", not node))
        elif isinstance(node, int):
            out += [(path, "set", node - 1), (path, "set", node + 1)]
        elif path[-1] in TOKENS:
            out += [(path, "set", v) for v in TOKENS[path[-1]] if v != node]
        else:
            out += [(path, "set", v + node[1:]) for v in "01." if v != node[0]]
    return out


def mutate(doc, path, how, arg):
    *keys, last = path
    owner = doc
    for key in keys:
        owner = owner[key]
    if how == "set":
        owner[last] = arg
    elif how == "delete":
        del owner[last][arg]
    else:
        owner[last].insert(arg, copy.deepcopy(owner[last][arg]))
    return doc


@pytest.fixture(scope="module")
def meaning_dir(tmp_path_factory):
    """A directory for the random spec, its build and the mutated certificate."""
    return tmp_path_factory.mktemp("meaning")


def run_quiet(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.mark.parametrize("cmd,specs,naive", [
    ("build-mt", mt_specs(), naive_verify_mt),
    ("build-gp", gp_specs(), naive_verify_gp),
], ids=["mt", "gp"])
@settings(max_examples=100)
@given(data=st.data())
def test_verify_accepts_what_the_naive_verifier_accepts(meaning_dir, cmd, specs, naive, data):
    """verify exits 0 exactly when the naive whole-certificate verifier
    accepts, on honest certificates and on every kind of mutation."""
    spec = data.draw(specs, label="spec")
    (meaning_dir / "spec.json").write_text(canon_dumps(spec))
    out = meaning_dir / "out"
    # A build ends in a certificate that verifies, or refuses the spec or
    # its limits; it never writes a certificate that fails its own verify.
    built = run_quiet([cmd, "--spec", str(meaning_dir / "spec.json"), "--out", str(out)])
    assert built in (0, 2, 3)
    assume(built == 0)
    cert = json.loads((out / "certificate.json").read_text())
    assert naive(cert)
    kind = data.draw(st.sampled_from(["change", "delete", "duplicate", "empty"]), label="kind")
    path, how, arg = data.draw(st.sampled_from(mutations(cert, kind) or mutations(cert, "change")),
                               label="mutation")
    doc = mutate(cert, path, how, arg)
    (meaning_dir / "mutated.json").write_text(canon_dumps(doc))
    code = run_quiet(["verify", "--spec", str(meaning_dir / "mutated.json")])
    assert code in (0, 2, 4)
    assert (code == 0) == naive(doc)


def small_mt_universe():
    """Every mt certificate that installs one shift t, nonzero in [-1, 1]²,
    with a witness set T ⊆ [-1, 1] x [-1, 0] on a 2x2 window (8,192 cases).
    A T that lists one box's cells in lex order is read as a Box, any other
    as a frozenset."""
    offsets = [(x, y) for x in (-1, 0, 1) for y in (-1, 0)]
    shifts = [[x, y] for x in (-1, 0, 1) for y in (-1, 0, 1) if (x, y) != (0, 0)]
    for bits in range(16):
        rows = [f"{bits & 3:02b}", f"{bits >> 2:02b}"]
        p = {"rect": [0, 1, 0, 1], "rows": rows, "holes": []}
        seed = {"p": p, "odd": False, "shifts": [], "patterns": []}
        for t in shifts:
            for k in range(1 << len(offsets)):
                T = [list(o) for i, o in enumerate(offsets) if k >> i & 1]
                yield {"kind": "mt", "seed": seed,
                       "final": {"p": p, "odd": False, "shifts": [{"t": t, "T": T}],
                                 "patterns": []},
                       "steps": [{"req": {"op": "shift", "t": t}, "mode": "extend"}],
                       "limits": {"max_side": 8, "max_steps": 4}}


def test_verify_agrees_with_the_naive_verifier_on_a_small_mt_universe():
    accepted, disagree = 0, []
    for cert in small_mt_universe():
        want = naive_verify_mt(cert)
        accepted += want
        if verify_certificate(mincolor.Certificate.from_json(cert))["ok"] != want:
            disagree.append((cert["final"]["p"]["rows"], cert["final"]["shifts"]))
    assert disagree == []
    # Both answers occur, so the universe tells a sound verifier from a constant one.
    assert 0 < accepted < 8192



# Steps of the second mt universe: a self pattern and two unit shifts.
MT_UNIVERSE_STEPS = [{"op": "self_pattern"}, {"op": "shift", "t": [1, 0]},
                     {"op": "shift", "t": [0, 1]}]


def small_mt_schedule_universe():
    """Every 1x2 and 2x1 seed window (8), built by every schedule of one or
    two MT_UNIVERSE_STEPS (12): the honest certificate, each single-cell
    flip of its final window, and each deletion or duplication of one
    ``steps``, final ``shifts`` or final ``patterns`` entry (1,240 cases)."""
    schedules = [[a] for a in MT_UNIVERSE_STEPS] + [
        [a, b] for a in MT_UNIVERSE_STEPS for b in MT_UNIVERSE_STEPS]
    for w, h in ((2, 1), (1, 2)):
        for bits in range(4):
            cells = f"{bits:02b}"
            p = {"rect": [0, w - 1, 0, h - 1], "rows": [cells] if h == 1 else list(cells),
                 "holes": []}
            seed = mincolor.MtCondition.from_json(
                {"p": p, "odd": False, "shifts": [], "patterns": []})
            for schedule in schedules:
                cert = mincolor.build_generic(seed, parse_schedule(schedule, mincolor.STEPS),
                                              {"max_side": 16, "max_steps": 4}).to_json()
                yield cert
                # Each case copies what it changes; the verifiers never edit their input.
                final = cert["final"]
                rows = final["p"]["rows"]
                for j, row in enumerate(rows):
                    for i, v in enumerate(row):
                        flip = row[:i] + "10"[int(v)] + row[i + 1:]
                        window = dict(final["p"], rows=[*rows[:j], flip, *rows[j + 1:]])
                        yield dict(cert, final=dict(final, p=window))
                for key, doc in (("steps", cert), ("shifts", final), ("patterns", final)):
                    entries = doc[key]
                    for k, e in enumerate(entries):
                        for mid in ([], [e, e]):
                            new = dict(doc, **{key: [*entries[:k], *mid, *entries[k + 1:]]})
                            yield new if doc is cert else dict(cert, final=new)


def test_verify_agrees_with_the_naive_verifier_on_an_mt_schedule_universe():
    accepted, count, disagree = 0, 0, []
    for cert in small_mt_schedule_universe():
        want = naive_verify_mt(cert)
        accepted += want
        count += 1
        if verify_certificate(mincolor.Certificate.from_json(cert))["ok"] != want:
            disagree.append((cert["final"], cert["steps"]))
    assert disagree == []
    assert count == 1240
    # Both answers occur, so the universe tells a sound verifier from a constant one.
    assert 0 < accepted < count


# Steps of the gp universe: a shift, a row clear and a cover up and right.
GP_UNIVERSE_STEPS = [{"op": "shift", "s": [1, 0]}, {"op": "line_clear", "axis": "row", "index": 1},
                     {"op": "cover", "g": [2, 3]}]


def small_gp_universe():
    """Every n = 2 seed on the 2x2 window [0, 1]² with one hole (32), built
    by every schedule of one or two GP_UNIVERSE_STEPS (12): the honest
    certificate, each single-cell flip of its final window off the hole, and
    each deletion, duplication, doubling or halving of one side of one
    stages entry (11,904 cases). A one-step universe leaves the chain,
    congruence and periodicity checks of the stages untested: with two
    stages, the seed extension and the stage count decide every case."""
    schedules = [[a] for a in GP_UNIVERSE_STEPS] + [
        [a, b] for a in GP_UNIVERSE_STEPS for b in GP_UNIVERSE_STEPS]
    for hole in range(4):
        for fill in range(8):
            bits = iter(f"{fill:03b}")
            cells = ["." if i == hole else next(bits) for i in range(4)]
            p = {"rect": [0, 1, 0, 1], "rows": ["".join(cells[:2]), "".join(cells[2:])],
                 "holes": [[hole % 2, hole // 2]]}
            seed = gridperiod.GpCondition.from_json({"n": 2, "p": p})
            for schedule in schedules:
                cert = gridperiod.build_generic_gp(
                    seed, parse_schedule(schedule, gridperiod.STEPS),
                    {"max_side": 16, "max_steps": 4}).to_json()
                yield cert
                # Each case copies what it changes; the verifiers never edit their input.
                final, stages = cert["final"], cert["stages"]
                rows = final["p"]["rows"]
                for j, row in enumerate(rows):
                    for i, v in enumerate(row):
                        if v != ".":
                            flip = row[:i] + "10"[int(v)] + row[i + 1:]
                            window = dict(final["p"], rows=[*rows[:j], flip, *rows[j + 1:]])
                            yield dict(cert, final=dict(final, p=window))
                for k, st in enumerate(stages):
                    for entries in ([], [st, st], [dict(st, w=2 * st["w"])],
                                    [dict(st, h=2 * st["h"])], [dict(st, w=st["w"] // 2)],
                                    [dict(st, h=st["h"] // 2)]):
                        yield dict(cert, stages=[*stages[:k], *entries, *stages[k + 1:]])


def test_verify_agrees_with_the_naive_verifier_on_a_small_gp_universe():
    accepted, count, disagree = 0, 0, []
    for cert in small_gp_universe():
        want = naive_verify_gp(cert)
        accepted += want
        count += 1
        if verify_gp_certificate(GpCertificate.from_json(cert))["ok"] != want:
            disagree.append((cert["final"]["p"]["rows"], cert["steps"], cert["stages"]))
    assert disagree == []
    assert count == 11904
    # Both answers occur, so the universe tells a sound verifier from a constant one.
    assert 0 < accepted < count


# ------------------------------------------------------------ linear in area

# Each doubling of the window's side may multiply the certificate's bytes and
# each traced peak of verify by at most this. Measured at sides 64, 128 and
# 256: mt bytes x4.25 and x4.29 (coordinates gain digits), reading x4.0,
# checking x3.9 and x4.0; gp below x4. An offset loop that holds offsets x
# cells at once, as a sliding window view does, read x7.7 in checking.
GROWTH_PER_DOUBLING = 4 * 1.25


def linear_mt_spec(s):
    """A 2s x s window: s x s by cover, three shifts, then the pattern of the
    whole window, whose clause runs _match_offsets' offset loop."""
    return {"odd": False, "seed": {"rect": [0, 1, 0, 1], "rows": ["01", "10"], "holes": []},
            "schedule": [{"op": "cover", "g": [s - 1, s - 1]}, {"op": "shift", "t": [1, 0]},
                         {"op": "shift", "t": [0, 1]}, {"op": "shift", "t": [1, 2]},
                         {"op": "self_pattern"}],
            "limits": {"max_side": 2 * s, "max_steps": 8}}


def linear_gp_spec(s):
    """An s x s window from the README's gp seed."""
    return {"seed": {"n": 2, "p": {"rect": [0, 1, 0, 1], "rows": ["01", "1."],
                                   "holes": [[1, 1]]}},
            "schedule": [{"op": "shift", "s": [1, 0]},
                         {"op": "line_clear", "axis": "row", "index": 0},
                         {"op": "cover", "g": [s - 1, s - 1]}],
            "limits": {"max_side": s, "max_steps": 8}}


@pytest.mark.parametrize("cmd,spec", [("build-mt", linear_mt_spec), ("build-gp", linear_gp_spec)],
                         ids=["mt", "gp"])
def test_certificate_bytes_and_verify_peak_grow_linearly_in_area(tmp_path, cmd, spec):
    """Verify cost and certificate size stay linear in window area, gated in
    bytes, which repeat run to run where times do not: the certificate file,
    and the tracemalloc peaks of verify's two stages as ``cmd_verify`` runs
    them (numpy reports its buffers to tracemalloc). Reading peaks far above
    checking, so checking is measured apart, above what reading left held."""
    sizes = []
    for s in (64, 128, 256):
        out = tmp_path / str(s)
        (tmp_path / "spec.json").write_text(canon_dumps(spec(s)))
        assert run_quiet([cmd, "--spec", str(tmp_path / "spec.json"), "--out", str(out)]) == 0
        cert = out / "certificate.json"
        tracemalloc.start()
        try:
            data = cli._load_json(cert)
            *_, cert_cls, verify = cli._family(data["kind"])
            read = cert_cls.from_json(data)
            held, read_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            assert verify(read)["ok"]
            check_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        sizes.append((cert.stat().st_size, read_peak, check_peak))
    for before, after in zip(sizes, sizes[1:]):
        assert all(b <= GROWTH_PER_DOUBLING * a for a, b in zip(before, after)), sizes
