"""The certificate verifiers: each mt witness clause is evaluated once,
reports of broken finals keep their bytes, every gp stage and shift claim
is checked against the window, and the clause kernels agree with the
oracles."""

import copy
import dataclasses
import hashlib
import io
import json
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridwindows import gridperiod, mincolor, witness
from gridwindows.cli import main
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
from gridwindows.schedule import parse_schedule
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

    def counted_pattern(p, f, F, flipped):
        if p is final.p:
            calls[("b", id(f), flipped)] += 1
        return pattern_grid(p, f, F, flipped)

    for module in (witness, mincolor):
        monkeypatch.setattr(module, "_shift_ok_grid", counted_shift)
        monkeypatch.setattr(module, "_pattern_ok_grid", counted_pattern)
    report = verify_certificate(cert)
    assert report["ok"]
    expected = Counter({("a", t): 1 for (t, _T) in final.shifts})
    for (f, _F) in final.patterns:
        expected[("b", id(f), False)] = 1
        expected[("b", id(f), True)] = 1
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
# s was compared with ==, so a float or a bool passed as the integer.
@pytest.mark.parametrize("step,key,value,name", [
    (1, "axis", "diag", "line diag 0 cleared"),
    (1, "axis", 7, "line 7 0 cleared"),
    (0, "s", [1.0, 0], "shift [1.0, 0] pair differs"),
    (0, "s", [True, 0], "shift [True, 0] pair differs"),
], ids=["axis-diag", "axis-int", "s-float", "s-bool"])
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
]


@pytest.mark.parametrize(
    "cmd,spec,path,value,code",
    SHAPE_TAMPERS,
    ids=["t-short", "t-empty", "seed-t-short", "huge-rect",
         "pair-short", "pair-points-short", "g-short", "g-empty", "g-nested",
         "t-float", "T-float", "index-float", "w-float", "w-integral-float", "n-float",
         "rect-float", "hole-float", "u-float", "seed-u-bool"],
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
    assert f"{key}.t: expected two integers" in capsys.readouterr().err


def test_huge_seed_rect_build_exit_2(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(canon_dumps(dict(MT_SPEC, seed=dict(CHECKER, rect=[0, 10**12, 0, 2]))))
    assert main(["build-mt", "--spec", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "row 0 has length 3" in capsys.readouterr().err


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
    # A build that fails its own verify (exit 4) still writes its certificate.
    built = run_quiet([cmd, "--spec", str(meaning_dir / "spec.json"), "--out", str(out)])
    assume(built in (0, 4))
    cert = json.loads((out / "certificate.json").read_text())
    assert naive(cert) is (built == 0)
    kind = data.draw(st.sampled_from(["change", "delete", "duplicate", "empty"]), label="kind")
    path, how, arg = data.draw(st.sampled_from(mutations(cert, kind) or mutations(cert, "change")),
                               label="mutation")
    doc = mutate(cert, path, how, arg)
    (meaning_dir / "mutated.json").write_text(canon_dumps(doc))
    code = run_quiet(["verify", "--spec", str(meaning_dir / "mutated.json")])
    assert code in (0, 2, 4)
    assert (code == 0) == naive(doc)
