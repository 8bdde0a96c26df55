import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gridwindows
from gridwindows import cli
from gridwindows.cli import main
from gridwindows.serialize import canon_dumps


CHECKER = {"rect": [0, 2, 0, 2], "rows": ["010", "101", "010"], "holes": []}


def write_spec(path, data):
    path.write_text(canon_dumps(data) + "\n")
    return str(path)


def mt_spec(**overrides):
    data = {
        "odd": False,
        "seed": CHECKER,
        "schedule": [
            {"op": "shift", "t": [1, 0]},
            {"op": "cover", "g": [6, 4]},
            {"op": "self_pattern"},
        ],
        "limits": {"max_side": 128, "max_steps": 64},
    }
    data.update(overrides)
    return data


def gp_spec(**overrides):
    data = {
        "seed": {"n": 2, "p": {"rect": [0, 1, 0, 1], "rows": ["01", "1."],
                               "holes": [[1, 1]]}},
        "schedule": [
            {"op": "shift", "s": [1, 0]},
            {"op": "line_clear", "axis": "row", "index": 0},
            {"op": "cover", "g": [12, 12]},
        ],
        "limits": {"max_side": 256, "max_steps": 64},
    }
    data.update(overrides)
    return data


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_bounded(args, mem_bytes=1536 * 2**20, timeout=20):
    """Python with these arguments in a child process with its address
    space capped and a time limit, for inputs that an unbounded program
    would answer by allocating gigabytes or by looping for ever. Returns
    the finished process, its output captured as text."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (mem_bytes, mem_bytes))

    env = dict(os.environ, PYTHONPATH=str(Path(gridwindows.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=timeout, preexec_fn=cap)


def run_cli_bounded(args):
    """The CLI under run_bounded. Returns (exit code, stderr)."""
    proc = run_bounded(["-m", "gridwindows.cli", *args])
    return proc.returncode, proc.stderr


# -------------------------------------------------------------------- build-mt

def test_build_mt_happy_path(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json", mt_spec())
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(["build-mt", "--spec", spec, "--out", str(out_dir)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert (out_dir / "window.json").exists()
    assert (out_dir / "certificate.json").exists()

    cert_path = str(out_dir / "certificate.json")
    code, out, _ = run_cli(["verify", "--spec", cert_path], capsys)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_build_mt_formats(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json", mt_spec())
    pgm_dir = tmp_path / "pgm"
    code, _, _ = run_cli(["build-mt", "--spec", spec, "--out", str(pgm_dir),
                          "--format", "pgm"], capsys)
    assert code == 0
    pgm = (pgm_dir / "window.pgm").read_text()
    assert pgm.startswith("P2\n")

    txt_dir = tmp_path / "txt"
    code, _, _ = run_cli(["build-mt", "--spec", spec, "--out", str(txt_dir),
                          "--format", "ascii"], capsys)
    assert code == 0
    body = (txt_dir / "window.txt").read_text()
    assert set(body) <= set("01.\n")


def test_build_mt_deterministic(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json", mt_spec())
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run_cli(["build-mt", "--spec", spec, "--out", str(a)], capsys)[0] == 0
    assert run_cli(["build-mt", "--spec", spec, "--out", str(b)], capsys)[0] == 0
    for name in ("window.json", "certificate.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_build_mt_invalid_spec_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run_cli(["build-mt", "--spec", str(bad), "--out",
                            str(tmp_path / "o")], capsys)
    assert code == 2
    assert err.strip()


def test_build_mt_odd_mode_even_seed_exit_2(tmp_path, capsys):
    data = mt_spec(odd=True, seed={"rect": [0, 1, 0, 1], "rows": ["01", "10"],
                                   "holes": []}, schedule=[])
    spec = write_spec(tmp_path / "spec.json", data)
    code, _, err = run_cli(["build-mt", "--spec", spec, "--out",
                            str(tmp_path / "o")], capsys)
    assert code == 2


def test_build_mt_odd_flag_not_boolean_exit_2(tmp_path, capsys):
    # "no" was read with bool() and built an odd-mode certificate.
    spec = write_spec(tmp_path / "spec.json", mt_spec(odd="no"))
    code, out, err = run_cli(["build-mt", "--spec", spec, "--out", str(tmp_path / "o")], capsys)
    assert code == 2 and out == ""
    assert "odd: expected a boolean" in err


def test_build_mt_unknown_op_exit_2(tmp_path, capsys):
    data = mt_spec(schedule=[{"op": "warp"}])
    spec = write_spec(tmp_path / "spec.json", data)
    assert run_cli(["build-mt", "--spec", spec, "--out", str(tmp_path / "o")],
                   capsys)[0] == 2


def test_build_mt_duplicate_odd_in_even_mode_exit_2(tmp_path, capsys):
    data = mt_spec(schedule=[{"op": "duplicate_odd"}])
    spec = write_spec(tmp_path / "spec.json", data)
    assert run_cli(["build-mt", "--spec", spec, "--out", str(tmp_path / "o")],
                   capsys)[0] == 2


def test_build_mt_resource_limit_exit_3(tmp_path, capsys):
    data = mt_spec(schedule=[{"op": "cover", "g": [50, 50]}])
    spec = write_spec(tmp_path / "spec.json", data)
    code, _, err = run_cli(["build-mt", "--spec", spec, "--out",
                            str(tmp_path / "o"), "--max-side", "32"], capsys)
    assert code == 3


# A far mt request used to be tiled first and checked against max_side only
# afterwards: 9.31 GiB for the cover, 931 GiB for the shift.
@pytest.mark.parametrize("step,side", [({"op": "cover", "g": [100000, 100000]}, 100001),
                                       ({"op": "shift", "t": [1000000, 1000000]}, 1000001)],
                         ids=["cover", "shift"])
def test_build_mt_far_request_exit_3_before_tiling(tmp_path, step, side):
    spec = write_spec(tmp_path / "spec.json", mt_spec(schedule=[step]))
    code, err = run_cli_bounded(["build-mt", "--spec", spec, "--out", str(tmp_path / "o")])
    assert code == 3
    assert f"window side {side} exceeds max_side=128" in err


# Limits were read with int(): Infinity ended in an OverflowError traceback,
# and "100", true and 2.9 were taken as 100, 1 and 2.
@pytest.mark.parametrize("cmd,spec", [("build-mt", mt_spec()), ("build-gp", gp_spec())],
                         ids=["mt", "gp"])
@pytest.mark.parametrize("key", ["max_side", "max_steps"])
@pytest.mark.parametrize("value", [float("inf"), "100", True, 2.9],
                         ids=["Infinity", "string", "true", "float"])
def test_build_limit_not_an_integer_exit_2(tmp_path, capsys, cmd, spec, key, value):
    spec = dict(spec, limits=dict(spec["limits"], **{key: value}))
    code, _, err = run_cli([cmd, "--spec", write_spec(tmp_path / "spec.json", spec),
                            "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert f"limits.{key}: expected an integer" in err


# A limits value that is not an object was read through `or {}` and
# dict.update: a list of pairs set the limits, and any false value fell
# back to the defaults.
@pytest.mark.parametrize("value", [[["max_side", 5]], False, 0, "", [], None],
                         ids=["pairs", "false", "zero", "empty-string", "empty-list", "null"])
def test_build_limits_not_an_object_exit_2(tmp_path, capsys, value):
    spec = write_spec(tmp_path / "spec.json", mt_spec(limits=value))
    code, _, err = run_cli(["build-mt", "--spec", spec, "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert "limits: expected an object" in err


# The spec's limits are read, with the defaults for a missing one, before the
# flags apply: a flag does not excuse a malformed limit in the spec.
def test_build_limits_read_before_flags(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json", mt_spec(limits={"max_side": "x"}))
    code, _, err = run_cli(["build-mt", "--spec", spec, "--out", str(tmp_path / "o"),
                            "--max-side", "32"], capsys)
    assert code == 2
    assert "limits.max_side: expected an integer" in err
    spec = write_spec(tmp_path / "spec.json", mt_spec(limits={"max_steps": 3}))
    code, _, _ = run_cli(["build-mt", "--spec", spec, "--out", str(tmp_path / "o"),
                          "--max-side", "32"], capsys)
    assert code == 0
    cert = json.loads((tmp_path / "o" / "certificate.json").read_text())
    assert cert["limits"] == {"max_side": 32, "max_steps": 3}


def test_build_without_limits_uses_defaults(tmp_path, capsys):
    spec = mt_spec()
    del spec["limits"]
    code, _, _ = run_cli(["build-mt", "--spec", write_spec(tmp_path / "spec.json", spec),
                          "--out", str(tmp_path / "o")], capsys)
    assert code == 0
    cert = json.loads((tmp_path / "o" / "certificate.json").read_text())
    assert cert["limits"] == {"max_side": 512, "max_steps": 256}


def test_verify_tampered_exit_4(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json", mt_spec())
    out_dir = tmp_path / "out"
    assert run_cli(["build-mt", "--spec", spec, "--out", str(out_dir)], capsys)[0] == 0
    cert_file = out_dir / "certificate.json"
    data = json.loads(cert_file.read_text())
    data["final"]["shifts"][0]["T"] = [[99, 99]]
    cert_file.write_text(canon_dumps(data))
    code, out, err = run_cli(["verify", "--spec", str(cert_file)], capsys)
    assert code == 4
    report = json.loads(out)
    assert report["ok"] is False
    failing = [c for c in report["checks"] if not c["ok"]]
    assert failing
    assert any("clause" in c["name"] or "shift" in c["name"] for c in failing)


# -------------------------------------------------------------------- build-gp

def test_build_gp_happy_path(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json", gp_spec())
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(["build-gp", "--spec", spec, "--out", str(out_dir)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert (out_dir / "window.json").exists()

    code, out, _ = run_cli(["verify", "--spec", str(out_dir / "certificate.json")],
                           capsys)
    assert code == 0


def test_build_gp_pgm_highlights_hole_lattice(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json", gp_spec())
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(["build-gp", "--spec", spec, "--out", str(out_dir),
                          "--format", "pgm"], capsys)
    assert code == 0
    assert (out_dir / "window.pgm").read_text().startswith("P2\n")
    assert (out_dir / "hole_lattice.pgm").read_text().startswith("P2\n")


def test_build_gp_invalid_seed_exit_2(tmp_path, capsys):
    data = gp_spec(seed={"n": 2, "p": {"rect": [0, 2, 0, 0], "rows": ["01."],
                                       "holes": [[2, 0]]}})
    spec = write_spec(tmp_path / "spec.json", data)
    assert run_cli(["build-gp", "--spec", spec, "--out", str(tmp_path / "o")],
                   capsys)[0] == 2


def test_build_gp_resource_limit_exit_3(tmp_path, capsys):
    data = gp_spec(schedule=[{"op": "cover", "g": [400, 0]}])
    spec = write_spec(tmp_path / "spec.json", data)
    assert run_cli(["build-gp", "--spec", spec, "--out", str(tmp_path / "o"),
                    "--max-side", "128"], capsys)[0] == 3


# A far shift used to size the tiling from s alone: [10**6, 10**6] ended in a
# MemoryError, and [10**30, 0] listed 10**29 candidate blocks.
@pytest.mark.parametrize("s", [[10**6, 10**6], [10**30, 0], [-(10**30), 10**30]],
                         ids=["1e6", "1e30", "far-diagonal"])
def test_build_gp_far_shift_exit_3_before_allocation(tmp_path, s):
    spec = write_spec(tmp_path / "spec.json", gp_spec(schedule=[{"op": "shift", "s": s}]))
    code, err = run_cli_bounded(["build-gp", "--spec", spec, "--out", str(tmp_path / "o")])
    assert code == 3
    assert "exceeds max_side=256" in err


def test_gp_certificate_tamper_exit_4(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json", gp_spec())
    out_dir = tmp_path / "out"
    assert run_cli(["build-gp", "--spec", spec, "--out", str(out_dir)], capsys)[0] == 0
    cert_file = out_dir / "certificate.json"
    data = json.loads(cert_file.read_text())
    rows = data["final"]["p"]["rows"]
    rows[0] = ("1" if rows[0][0] == "0" else "0") + rows[0][1:]
    cert_file.write_text(canon_dumps(data))
    assert run_cli(["verify", "--spec", str(cert_file)], capsys)[0] == 4


# ------------------------------------------------------------ schedule parsing

def build_err(tmp_path, capsys, cmd, schedule):
    base = mt_spec if cmd == "build-mt" else gp_spec
    spec = write_spec(tmp_path / "spec.json", base(schedule=schedule))
    code, _, err = run_cli([cmd, "--spec", spec, "--out", str(tmp_path / "o")], capsys)
    return code, err


@pytest.mark.parametrize("cmd", ["build-mt", "build-gp"])
def test_schedule_entry_not_an_object_exit_2(tmp_path, capsys, cmd):
    code, err = build_err(tmp_path, capsys, cmd, [5])
    assert code == 2
    assert "schedule[0]: expected an object" in err


def test_schedule_not_a_list_exit_2(tmp_path, capsys):
    code, err = build_err(tmp_path, capsys, "build-mt", {"op": "shift"})
    assert code == 2
    assert "schedule: expected a list" in err


def test_build_mt_short_shift_exit_2(tmp_path, capsys):
    code, err = build_err(tmp_path, capsys, "build-mt", [{"op": "shift", "t": [1]}])
    assert code == 2
    assert "schedule[0].t: expected two integers" in err


def test_build_mt_short_cover_exit_2(tmp_path, capsys):
    sched = [{"op": "shift", "t": [1, 0]}, {"op": "cover", "g": [1]}]
    code, err = build_err(tmp_path, capsys, "build-mt", sched)
    assert code == 2
    assert "schedule[1].g: expected two integers" in err


def test_build_gp_short_shift_exit_2(tmp_path, capsys):
    code, err = build_err(tmp_path, capsys, "build-gp", [{"op": "shift", "s": [1]}])
    assert code == 2
    assert "schedule[0].s: expected two integers" in err


def test_build_mt_three_element_shift_exit_2(tmp_path, capsys):
    code, err = build_err(tmp_path, capsys, "build-mt", [{"op": "shift", "t": [1, 0, 7]}])
    assert code == 2
    assert "schedule[0].t: expected two integers" in err


def test_build_gp_three_element_shift_exit_2(tmp_path, capsys):
    code, err = build_err(tmp_path, capsys, "build-gp", [{"op": "shift", "s": [1, 0, 3]}])
    assert code == 2
    assert "schedule[0].s: expected two integers" in err


def test_build_gp_float_line_index_exit_2(tmp_path, capsys):
    sched = [{"op": "line_clear", "axis": "row", "index": 1.0}]
    code, err = build_err(tmp_path, capsys, "build-gp", sched)
    assert code == 2
    assert "schedule[0].index: expected an integer" in err


# ------------------------------------------------------------- byte identity

ODD_ROUTE = mt_spec(odd=True, schedule=[{"op": "duplicate_odd"}, {"op": "self_pattern"},
                                        {"op": "cover", "g": [0, 12]}])

# sha256 of certificate.json and of the printed report; any change to the
# builders, records or codecs that alters an artifact shows up here.
PINNED = [
    ("build-mt", mt_spec(),
     "929cf31cb62f35a020284afab39993e9b93e0191d4f02db5a20e837f0df11e9f",
     "88825598e5e3db656c5dbc9f031b5dbc534cd902f9f6494cde69a6ff4a1c5cd5"),
    ("build-mt", ODD_ROUTE,
     "d48897b9a3f674aaab961e383406073d0fe543f9821aa74a07911199975a8ae8",
     "0c6a3a83e5564e42d4479257f649d08a749855790b32efae50bbb99d73a5b667"),
    ("build-mt", mt_spec(seed={"rect": [0, 1, 0, 1], "rows": ["00", "00"], "holes": []},
                         schedule=[{"op": "shift", "t": [-3, -1]}, {"op": "shift", "t": [2, -5]},
                                   {"op": "self_pattern"}, {"op": "shift", "t": [-1, 7]}]),
     "3221f0a03e2a1f9a4d19c81402c108475e39940f79154a32ed59a6f0ae34c4f0",
     "de6b3436442c91fe1751e1a6adf9862f51c3e1af709df09d98f13869282ca8f5"),
    ("build-mt", mt_spec(odd=True, seed={"rect": [0, 0, 0, 0], "rows": ["0"], "holes": []},
                         schedule=[{"op": "shift", "t": [-2, 3]}, {"op": "shift", "t": [4, -1]},
                                   {"op": "self_pattern"}, {"op": "shift", "t": [-5, -2]}]),
     "30d0e49d6a09171d441f30baba8e5e5d768faaccb446786ad779e7003d44841c",
     "cf9190e1bc5395f61507ec6f2901e9efffe7c2718e1810744596443e5237ba45"),
    ("build-gp", gp_spec(),
     "088c51f18674d160fb678e4c12271fd4cfec54365dbbaf6fe497bcf26e4f7f14",
     "5d71eda95c0be089c8b2b81dc4f93f7e543ac03c2d26800af6df169e23d342c2"),
    # Widening past a displaced hole slot, a column clear that tiles, a
    # cover down and left.
    ("build-gp", gp_spec(schedule=[{"op": "shift", "s": [2, 0]}, {"op": "shift", "s": [-3, 2]},
                                   {"op": "line_clear", "axis": "col", "index": 7},
                                   {"op": "line_clear", "axis": "row", "index": 1},
                                   {"op": "cover", "g": [-9, -7]}],
                         limits={"max_side": 128, "max_steps": 64}),
     "6543e1058e34d4ab945176f1c32939eec5ecf85ba92bd4f25bbea265468d01ec",
     "01e9aab1978c60dd67c7b6277f189e0126eac5fce00ea254ed0904abfaafa51d"),
    # Base 3: a row clear that tiles, growth to the left.
    ("build-gp", gp_spec(seed={"n": 3, "p": {"rect": [0, 2, 0, 2], "rows": ["010", "1.0", "011"],
                                             "holes": [[1, 1]]}},
                         schedule=[{"op": "line_clear", "axis": "row", "index": 1},
                                   {"op": "shift", "s": [-4, 5]},
                                   {"op": "line_clear", "axis": "col", "index": 1},
                                   {"op": "cover", "g": [20, -10]}, {"op": "shift", "s": [0, -9]}],
                         limits={"max_side": 243, "max_steps": 64}),
     "bcc51101977d7c66e404a71742b8a89595d9b1557f13f24206256056d681a1e4",
     "e8412abc31ab3e9ce3173e7625472e34f0b5c708bd95cdcf49914b240c3daf8d"),
]


@pytest.mark.parametrize("cmd,spec,cert_sha,report_sha", PINNED,
                         ids=["mt", "odd", "neg", "neg-odd", "gp", "gp-neg", "gp-n3"])
def test_build_artifacts_byte_identical(tmp_path, capsys, cmd, spec, cert_sha, report_sha):
    path = write_spec(tmp_path / "spec.json", spec)
    out_dir = tmp_path / "out"
    code, out, _ = run_cli([cmd, "--spec", path, "--out", str(out_dir)], capsys)
    assert code == 0
    cert = (out_dir / "certificate.json").read_bytes()
    assert hashlib.sha256(cert).hexdigest() == cert_sha
    assert hashlib.sha256(out.encode()).hexdigest() == report_sha


# ------------------------------------------------------------------ toast demo

def toast_spec():
    levels = []
    for k in range(5):
        cls = [[x, y] for x in range(-k, k + 1) for y in range(-k, k + 1)]
        levels.append([cls])
    return {"toast": {"layered": True, "window": [-4, 4, -4, 4], "levels": levels},
            "probes": [[0, 0]]}


def test_toast_pass_report(tmp_path, capsys):
    spec = write_spec(tmp_path / "toast.json", toast_spec())
    code, out, _ = run_cli(["toast", "--spec", spec], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["violations"] == []
    assert report["fx"][0]["profile"] == [0, 1, 2, 3, 4]
    assert report["growth"]["ok"] is True


def test_toast_violation_report(tmp_path, capsys):
    data = toast_spec()
    data["toast"]["levels"][2] = data["toast"]["levels"][3]
    spec = write_spec(tmp_path / "toast.json", data)
    code, out, _ = run_cli(["toast", "--spec", spec], capsys)
    assert code == 0      # checking succeeded; verdict lives in the report
    report = json.loads(out)
    assert report["ok"] is False
    assert any(v["clause"] == "2'" for v in report["violations"])


def test_toast_float_window_exit_2(tmp_path, capsys):
    data = toast_spec()
    data["toast"]["window"] = [-4.5, 4, -4, 4]
    spec = write_spec(tmp_path / "toast.json", data)
    code, _, err = run_cli(["toast", "--spec", spec], capsys)
    assert code == 2
    assert "rect: expected four integers" in err


def broken_toast_spec(layered=True):
    """toast_spec() with no top level, levels 2 and 3 equal, an overlap, an
    empty class, a cell outside the window and probes off every class."""
    data = toast_spec()
    levels = data["toast"]["levels"]
    levels[2] = levels[3]
    del levels[4]
    levels[0] = levels[0] + [[[0, 0], [1, 0]], [[6, 1], [3, 3]], []]
    levels[1] = levels[1] + [[[-4, -4], [-4, -3]]]
    data["toast"]["layered"] = layered
    data["probes"] = [[0, 0], [2, 1], [-4, -3], [9, 9]]
    return data


# sha256 of the printed report and of toast.pgm, computed before each toast
# class's interior was cached.
PINNED_TOAST = [
    (toast_spec(),
     "192d473562722a4b8309e206753c1fe750ccbc0afb0f19cf1d954094cdd2b2de",
     "936360209275efc5b358748f3217544047741e44f20774cf4490a89e4129e64a"),
    (broken_toast_spec(),
     "19dbd972e3ea5d2f208e9064ffb8b8283556b06185a4da56e72dbe404342263c",
     "21045f25fa52d34d2b017062ed2595eba914ca506ed0de6240411f27ab46604f"),
    (broken_toast_spec(layered=False),
     "514dd297bde686b6545838fd3c0ae6b32cbb1ad7ea9327e4e8edd5a53b34f9d1",
     "21045f25fa52d34d2b017062ed2595eba914ca506ed0de6240411f27ab46604f"),
]


@pytest.mark.parametrize("data,report_sha,pgm_sha", PINNED_TOAST,
                         ids=["pass", "broken", "broken-unlayered"])
def test_toast_artifacts_byte_identical(tmp_path, capsys, data, report_sha, pgm_sha):
    spec = write_spec(tmp_path / "toast.json", data)
    out_dir = tmp_path / "o"
    code, out, _ = run_cli(["toast", "--spec", spec, "--out", str(out_dir),
                            "--format", "pgm"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == report_sha
    assert hashlib.sha256((out_dir / "toast.pgm").read_bytes()).hexdigest() == pgm_sha


def huge_toast_spec():
    return {"toast": {"layered": True, "window": [0, 10**6, 0, 10**6],
                      "levels": [[[[1, 1]]]]}}


def test_toast_huge_window_bounded_by_input(tmp_path, capsys):
    spec = write_spec(tmp_path / "toast.json", huge_toast_spec())
    start = time.perf_counter()
    code, out, _ = run_cli(["toast", "--spec", spec], capsys)
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert json.loads(out)["violations"] == [
        {"clause": "0", "level": None, "where": [0, 0]},
        {"clause": "1", "level": 0, "where": [1, 1]},
        {"clause": "2'", "level": 0, "where": [1, 1]},
    ]


# The clause-0 scan stored its whole x-range as a tuple before yielding a
# cell: MemoryError at 10**12, OverflowError at 10**30. Here the y-range is
# empty, so not a single cell is scanned.
@pytest.mark.parametrize("hi_x", [10**12, 10**30], ids=["1e12", "1e30"])
def test_toast_far_window_edge_bounded(tmp_path, hi_x):
    data = toast_spec()
    data["toast"]["window"][1] = hi_x
    code, err = run_cli_bounded(["toast", "--spec", write_spec(tmp_path / "toast.json", data)])
    assert (code, err) == (0, "")


@pytest.mark.parametrize("window,code", [([0, 511, 0, 0], 0), ([0, 512, 0, 0], 3),
                                         ([0, 10**6, 0, 10**6], 3)])
def test_toast_pgm_side_limit(tmp_path, capsys, window, code):
    data = huge_toast_spec()
    data["toast"]["window"] = window
    spec = write_spec(tmp_path / "toast.json", data)
    got, _, err = run_cli(["toast", "--spec", spec, "--out", str(tmp_path / "o"),
                           "--format", "pgm"], capsys)
    assert got == code
    assert code == 0 or "exceeds max_side=512" in err
    # A refused image leaves no output directory behind.
    assert (tmp_path / "o").exists() == (code == 0)


def test_toast_pgm_far_coordinates(tmp_path, capsys):
    far = 10**30
    data = broken_toast_spec()
    toast = data["toast"]
    toast["window"] = [far - 4, far + 4, -4, 4]
    toast["levels"] = [[[[x + far, y] for x, y in cl] for cl in level] for level in toast["levels"]]
    pgms = []
    for name, spec in (("near", broken_toast_spec()), ("far", data)):
        path = write_spec(tmp_path / f"{name}.json", spec)
        code, _, _ = run_cli(["toast", "--spec", path, "--out", str(tmp_path / name),
                              "--format", "pgm"], capsys)
        assert code == 0
        pgms.append((tmp_path / name / "toast.pgm").read_bytes())
    assert pgms[0] == pgms[1]


def with_field(data, path, value):
    *keys, last = path
    node = data
    for k in keys:
        node = node[k]
    node[last] = value
    return data


def partitions_spec():
    return {"demo": "partitions", "window": [0, 7, 0, 7],
            "levels": [{"level": 0, "rects": [[0, 7, 0, 7]]}], "probes": [[3, 3]]}


# Numbers that are not JSON integers were truncated by int() before.
BAD_CHECKER_INPUTS = [
    ("toast", with_field(toast_spec(), ("toast", "levels", 0, 0, 0), [0.4, 0.3]),
     "levels[0][0]: expected a list of points"),
    ("toast", with_field(toast_spec(), ("toast", "levels", 1, 0), 5),
     "levels[1][0]: expected a list of points"),
    ("toast", with_field(toast_spec(), ("probes", 0), [0.7, 0]),
     "probes[0]: expected two integers"),
    ("toast", with_field(toast_spec(), ("probes", 0), [True, 0]),
     "probes[0]: expected two integers"),
    ("toast", with_field(toast_spec(), ("probes",), "00"),
     "probes: expected a list of points"),
    ("markers", {"demo": "shifted_stack", "a": 1.5}, "a: expected an integer"),
    ("markers", {"demo": "shifted_stack", "a": 1, "side": 45.0}, "side: expected an integer"),
    ("markers", with_field(partitions_spec(), ("levels", 0, "level"), 0.5),
     "levels[0].level: expected an integer"),
    ("markers", with_field(partitions_spec(), ("probes", 0), [0.7, 0]),
     "probes[0]: expected two integers"),
    ("markers", with_field(partitions_spec(), ("probes", 0), [True, 0]),
     "probes[0]: expected two integers"),
    # A flag that is not a JSON boolean was read with bool().
    ("toast", with_field(toast_spec(), ("toast", "layered"), "no"),
     "layered: expected a boolean"),
]


@pytest.mark.parametrize("cmd,data,message", BAD_CHECKER_INPUTS,
                         ids=["toast-point-float", "toast-class-int", "toast-probe-float",
                              "toast-probe-bool", "toast-probes-string", "stack-a-float",
                              "stack-side-float", "partition-level-float",
                              "partition-probe-float", "partition-probe-bool",
                              "toast-layered-string"])
def test_checker_non_integer_input_exit_2(tmp_path, capsys, cmd, data, message):
    spec = write_spec(tmp_path / "spec.json", data)
    code, out, err = run_cli([cmd, "--spec", spec], capsys)
    assert code == 2 and out == ""
    assert message in err


def test_toast_pgm_artifact(tmp_path, capsys):
    spec = write_spec(tmp_path / "toast.json", toast_spec())
    out_dir = tmp_path / "o"
    code, _, _ = run_cli(["toast", "--spec", spec, "--out", str(out_dir),
                          "--format", "pgm"], capsys)
    assert code == 0
    assert (out_dir / "toast.pgm").read_text().startswith("P2\n")


# ---------------------------------------------------------------- markers demo

def test_markers_report_threshold(tmp_path, capsys):
    spec = write_spec(tmp_path / "m.json", {"demo": "shifted_stack", "a": 1})
    code, out, _ = run_cli(["markers", "--spec", spec], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["threshold"] == 18
    assert report["segment_pass"]["len"] == 19
    assert report["segment_pass"]["ok"] is True
    assert report["segment_short"]["len"] == 3
    assert report["segment_short"]["ok"] is False


def test_markers_stack_huge_side_bounded_by_input(tmp_path, capsys):
    # The centre set of the whole side x side window was built before.
    spec = write_spec(tmp_path / "m.json", {"demo": "shifted_stack", "a": 1, "side": 10**6})
    start = time.perf_counter()
    code, out, _ = run_cli(["markers", "--spec", spec], capsys)
    assert time.perf_counter() - start < 10
    assert code == 0
    report = json.loads(out)
    assert report["window"] == [0, 10**6 - 1, 0, 10**6 - 1]
    assert report["segment_pass"]["ok"] is True
    assert report["segment_short"]["ok"] is False


# Each scanned row listed all of its centres: MemoryError at side 10**12.
# Three gaps decide a row, so the side no longer sets the cost.
@pytest.mark.parametrize("side", [10**12, 10**30], ids=["1e12", "1e30"])
def test_markers_stack_far_side_bounded(tmp_path, side):
    spec = write_spec(tmp_path / "m.json", {"demo": "shifted_stack", "a": 1, "side": side})
    code, err = run_cli_bounded(["markers", "--spec", spec])
    assert (code, err) == (0, "")


# The rows were scanned one by one, 2a + 1 of them: a = 10**30 never ended.
# The first failing row is now found from the gap conditions.
def test_markers_stack_far_a_bounded(tmp_path):
    spec = write_spec(tmp_path / "m.json", {"demo": "shifted_stack", "a": 10**30})
    proc = run_bounded(["-m", "gridwindows.cli", "markers", "--spec", spec], timeout=5)
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout)
    assert report["segment_pass"]["ok"] is True
    assert report["segment_short"]["ok"] is False


def test_markers_stack_negative_a_exit_2(tmp_path, capsys):
    spec = write_spec(tmp_path / "m.json", {"demo": "shifted_stack", "a": -1})
    code, out, err = run_cli(["markers", "--spec", spec], capsys)
    assert code == 2 and out == ""
    assert "a must be >= 0" in err


def test_markers_partitions_demo(tmp_path, capsys):
    data = {
        "demo": "partitions",
        "window": [0, 7, 0, 7],
        "levels": [
            {"level": 0, "rects": [[0, 7, 0, 7]]},
        ],
        "probes": [[3, 3]],
    }
    spec = write_spec(tmp_path / "m.json", data)
    code, out, _ = run_cli(["markers", "--spec", spec], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["v"] == [8]
    assert report["phi"][0] == [3]


# The partition check painted a cell array over the whole window: 3.64 TiB
# for this one. Either verdict is now reached within the child's memory cap.
@pytest.mark.parametrize("rects,code,msg", [
    ([[0, 1000000, 0, 1000000]], 0, ""),
    ([[0, 999999, 0, 1000000], [999999, 1000000, 0, 1000000]], 2, "exactly once"),
], ids=["cover", "overlap"])
def test_markers_partitions_far_window_bounded(tmp_path, rects, code, msg):
    spec = write_spec(tmp_path / "m.json", {
        "demo": "partitions", "window": [0, 1000000, 0, 1000000],
        "levels": [{"level": 0, "rects": rects}], "probes": [[3, 3]]})
    got, err = run_cli_bounded(["markers", "--spec", spec])
    assert got == code
    assert msg in err


@pytest.mark.parametrize("side,code", [(512, 0), (513, 3)])
def test_markers_stack_pgm_side_limit(tmp_path, capsys, side, code):
    spec = write_spec(tmp_path / "m.json", {"demo": "shifted_stack", "a": 1, "side": side})
    got, _, err = run_cli(["markers", "--spec", spec, "--out", str(tmp_path / "o"),
                           "--format", "pgm"], capsys)
    assert got == code
    assert code == 0 or "exceeds max_side=512" in err
    assert (tmp_path / "o").exists() == (code == 0)


# a = 40 gives the default side 5 * 81**2 = 32805: an 8 GiB stack before. A
# 10 x 10 window holds no segment of 2m^2 + 1 cells, so a = 50000 is refused
# before its 100001 x 100001 marker is allocated.
@pytest.mark.parametrize("spec,code,msg", [
    ({"a": 40}, 3, "window side 32805 exceeds max_side=512"),
    ({"a": 50000, "side": 10}, 2, "no admissible segment"),
], ids=["default-side", "large-marker"])
def test_markers_stack_pgm_refused_before_allocation(tmp_path, spec, code, msg):
    spec = write_spec(tmp_path / "m.json", {"demo": "shifted_stack", **spec})
    got, err = run_cli_bounded(["markers", "--spec", spec, "--out", str(tmp_path / "o"),
                                "--format", "pgm"])
    assert got == code
    assert msg in err
    assert not (tmp_path / "o").exists()


def test_markers_stack_pgm(tmp_path, capsys):
    spec = write_spec(tmp_path / "m.json", {"demo": "shifted_stack", "a": 1})
    out_dir = tmp_path / "o"
    code, _, _ = run_cli(["markers", "--spec", spec, "--out", str(out_dir),
                          "--format", "pgm"], capsys)
    assert code == 0
    assert (out_dir / "stack.pgm").read_text().startswith("P2\n")


# ------------------------------------------------------------ top-level JSON

# A file whose JSON is not an object: verify and markers raised
# AttributeError (exit 1), the others a TypeError without the reason.
@pytest.mark.parametrize("cmd", ["build-mt", "build-gp", "verify", "toast", "markers"])
@pytest.mark.parametrize("text", ["[1]", '"abc"'], ids=["list", "string"])
def test_top_level_json_not_an_object_exit_2(tmp_path, capsys, cmd, text):
    path = tmp_path / "spec.json"
    path.write_text(text + "\n")
    args = [cmd, "--spec", str(path)]
    if cmd.startswith("build"):
        args += ["--out", str(tmp_path / "out")]
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert "expected a JSON object" in err


# ----------------------------------------------------------------- entry point

def test_module_entry_point_help():
    proc = run_bounded(["-m", "gridwindows.cli", "--help"])
    assert proc.returncode == 0
    assert "build-mt" in proc.stdout


def test_missing_subcommand_exit_2(capsys):
    with pytest.raises(SystemExit):
        main([])


# ------------------------------------------------------- one parser per process

def artifacts(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_repeated_main_matches_fresh_processes(tmp_path, capsys):
    gp = write_spec(tmp_path / "gp.json", gp_spec())
    mt = write_spec(tmp_path / "mt.json", mt_spec())
    toast = write_spec(tmp_path / "toast.json", toast_spec())
    stack = write_spec(tmp_path / "stack.json", {"demo": "shifted_stack", "a": 1})

    def commands(out):
        return [
            ["build-gp", "--spec", gp, "--out", str(out / "gp"), "--format", "pgm",
             "--max-side", "200"],
            ["build-mt", "--spec", mt, "--out", str(out / "mt")],
            ["verify", "--spec", str(out / "gp" / "certificate.json")],
            ["toast", "--spec", toast, "--out", str(out / "toast"), "--format", "pgm"],
            ["markers", "--spec", stack, "--out", str(out / "stack"), "--format", "pgm"],
        ]

    here, fresh = tmp_path / "here", tmp_path / "fresh"
    for mine, theirs in zip(commands(here), commands(fresh)):
        code, out, err = run_cli(mine, capsys)
        proc = run_bounded(["-m", "gridwindows.cli", *theirs])
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr)
    for name in ("gp", "mt", "toast", "stack"):
        assert artifacts(here / name) == artifacts(fresh / name)


def test_handler_wrapped_after_first_call_is_used(tmp_path, capsys, monkeypatch):
    spec = write_spec(tmp_path / "gp.json", gp_spec())
    out_dir = tmp_path / "out"
    assert run_cli(["build-gp", "--spec", spec, "--out", str(out_dir)], capsys)[0] == 0
    cert = str(out_dir / "certificate.json")
    assert run_cli(["verify", "--spec", cert], capsys)[0] == 0
    seen = []

    def wrapped(args):
        seen.append(args.spec)
        return original(args)

    original = cli.cmd_verify
    monkeypatch.setattr(cli, "cmd_verify", wrapped)
    assert run_cli(["verify", "--spec", cert], capsys)[0] == 0
    assert seen == [cert]


@pytest.mark.parametrize("argv", [["verify"], ["nope"], ["verify", "--spec"],
                                  ["build-gp", "--spec", "x.json", "--format", "gif"]])
def test_bad_argv_after_good_call_exit_2(tmp_path, capsys, argv):
    spec = write_spec(tmp_path / "m.json", {"demo": "shifted_stack", "a": 1})
    assert run_cli(["markers", "--spec", spec], capsys)[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
