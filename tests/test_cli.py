import gc
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
from gridwindows import cli, mincolor
from gridwindows.cli import main
from gridwindows.geometry import Box
from gridwindows.grid import Config
from gridwindows.serialize import Raw, canon_dumps, pgm_dumps

from oracles import parse_pgm


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


def read_pgm(path):
    """The file's bytes, once parse_pgm has read them as a plain PGM."""
    data = path.read_bytes()
    parse_pgm(data)
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
    assert read_pgm(pgm_dir / "window.pgm").startswith(b"P2\n")

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


# Limits that allow more than the machine holds: the tiling's allocation
# failed with an _ArrayMemoryError traceback, 2.33 GiB for mt and 1.00 GiB
# for gp, under the child's 1.5 GiB cap.
@pytest.mark.parametrize("cmd,spec", [
    ("build-mt", mt_spec(seed={"rect": [0, 0, 0, 0], "rows": ["0"], "holes": []},
                         schedule=[{"op": "cover", "g": [49999, 49999]}],
                         limits={"max_side": 50000, "max_steps": 64})),
    ("build-gp", gp_spec(schedule=[{"op": "cover", "g": [65535, 65535]}],
                         limits={"max_side": 65536, "max_steps": 64})),
], ids=["mt", "gp"])
def test_build_out_of_memory_exit_3(tmp_path, cmd, spec):
    spec = write_spec(tmp_path / "spec.json", spec)
    code, err = run_cli_bounded([cmd, "--spec", spec, "--out", str(tmp_path / "o")])
    assert code == 3, err
    assert err.startswith("error: ") and "Traceback" not in err


# Artifacts are written over in place, as open(path, "w") writes them: a
# path that is a directory, or a read-only file the user may not write,
# exits 2, and a symlink is written through.
@pytest.mark.parametrize("case", ["directory", "read-only", "symlink"])
def test_build_over_an_odd_artifact_path(tmp_path, capsys, case):
    argv = ["build-gp", "--spec", write_spec(tmp_path / "spec.json", gp_spec()), "--out"]
    assert run_cli([*argv, str(tmp_path / "fresh")], capsys)[0] == 0
    fresh = (tmp_path / "fresh" / "certificate.json").read_bytes()
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    target = real = out_dir / "certificate.json"
    if case == "directory":
        target.mkdir()
    elif case == "read-only":
        target.write_bytes(b"x" * 2 * len(fresh))
        target.chmod(0o444)
    else:
        real = tmp_path / "real.json"
        real.write_bytes(b"x" * 2 * len(fresh))
        target.symlink_to(real)
    # A privileged user may write a read-only file, as open(path, "w") does.
    refused = case == "directory" or not os.access(target, os.W_OK)
    before = real.stat()
    code, out, err = run_cli([*argv, str(out_dir)], capsys)
    if refused:
        assert (code, out) == (2, "")
        assert err.startswith("error: [Errno ") and err.count("\n") == 1
        assert "Traceback" not in err
    else:
        assert code == 0 and err == ""
        assert real.read_bytes() == fresh
        assert target.is_symlink() == (case == "symlink")
        after = real.stat()
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)


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
    assert read_pgm(out_dir / "window.pgm").startswith(b"P2\n")
    assert read_pgm(out_dir / "hole_lattice.pgm").startswith(b"P2\n")


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


# Limits far above what numpy can hold let a grow ask numpy for its shape:
# an OverflowError traceback from np.tile, or exit 2 for a valid spec. A far
# gp cover was tiled step by step until an allocation failed.
TWO_BY_TWO = {"rect": [0, 1, 0, 1], "rows": ["01", "10"], "holes": []}


@pytest.mark.parametrize("cmd,step,side", [
    ("build-gp", {"op": "shift", "s": [10**30, 0]}, 2**100),
    ("build-gp", {"op": "shift", "s": [2**62, 0]}, 2**63),
    ("build-gp", {"op": "cover", "g": [10**30, 0]}, 10**30 + 1),
    ("build-mt", {"op": "shift", "t": [10**30, 0]}, 10**30 + 1),
    ("build-mt", {"op": "cover", "g": [10**30, 0]}, 10**30 + 1),
    ("build-mt", {"op": "shift", "t": [2**40, 2**40]}, 2**40 + 1),
], ids=["gp-1e30", "gp-2^62", "gp-cover-1e30", "mt-shift-1e30", "mt-cover-1e30", "mt-shift-2^40"])
def test_window_side_above_2_31_exit_3_whatever_max_side(tmp_path, cmd, step, side):
    limits = {"max_side": 10**31, "max_steps": 64}
    spec = gp_spec(schedule=[step], limits=limits) if cmd == "build-gp" else mt_spec(
        seed=TWO_BY_TWO, schedule=[step], limits=limits)
    code, err = run_cli_bounded([cmd, "--spec", write_spec(tmp_path / "spec.json", spec),
                                 "--out", str(tmp_path / "o")])
    assert code == 3, err
    assert err == f"error: window side {side} exceeds 2^31\n"


# A shift far along a row, then a clear of the hole's row. _grow walked all
# 2^29 block offsets of the shift's tiling, since no hole could leave that
# row, before it fell back and asked for 2 GiB; and detect_line_period cost
# O(n * p) on the grown row, over 40 s for a window 2^20 wide. Each spec ran
# past the 20 s limit.
def far_row_shift(e, max_side):
    return gp_spec(schedule=[{"op": "shift", "s": [2**e, 0]},
                             {"op": "line_clear", "axis": "row", "index": 1}],
                   limits={"max_side": max_side, "max_steps": 64})


def test_build_gp_far_shift_on_a_cleared_row_exit_3_without_a_walk(tmp_path):
    spec = write_spec(tmp_path / "spec.json", far_row_shift(29, 10**31))
    code, err = run_cli_bounded(["build-gp", "--spec", spec, "--out", str(tmp_path / "o")])
    assert code == 3, err
    assert err.startswith("error: ") and "Traceback" not in err


def test_build_gp_long_cleared_row_builds_and_verifies(tmp_path):
    spec = write_spec(tmp_path / "spec.json", far_row_shift(18, 10**9))
    out_dir = tmp_path / "o"
    code, err = run_cli_bounded(["build-gp", "--spec", spec, "--out", str(out_dir)])
    assert code == 0, err
    code, err = run_cli_bounded(["verify", "--spec", str(out_dir / "certificate.json")])
    assert code == 0, err


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


PINNED_IDS = ["mt", "odd", "neg", "neg-odd", "gp", "gp-neg", "gp-n3"]
STALE = ["longer", "1-byte"]


def file_bytes(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def run_over(out_dir, capsys, argv, over):
    """run_cli(argv + ["--out", out_dir]): (exit code, stdout). Unless
    ``over`` is None, out_dir first holds every artifact of a fresh run as a
    stale file of "x", twice as long ("longer") or one byte ("1-byte"), and
    each must come out in place (same inode) with the fresh run's bytes."""
    if over is not None:
        fresh = out_dir.with_name(out_dir.name + "-fresh")
        assert run_cli([*argv, "--out", str(fresh)], capsys)[0] == 0
        out_dir.mkdir()
        for p in fresh.iterdir():
            (out_dir / p.name).write_bytes(b"x" * (2 * p.stat().st_size if over == "longer" else 1))
        inodes = {p.name: p.stat().st_ino for p in out_dir.iterdir()}
    code, out, _ = run_cli([*argv, "--out", str(out_dir)], capsys)
    if over is not None:
        assert file_bytes(out_dir) == file_bytes(fresh)
        assert {p.name: p.stat().st_ino for p in out_dir.iterdir()} == inodes
    return code, out


# A build into a fresh --out, and builds over the stale, longer or shorter,
# files of every artifact of --format pgm and ascii.
@pytest.mark.parametrize("cmd,spec,cert_sha,report_sha,over",
                         [(*pin, over) for pin in PINNED for over in (None, *STALE)],
                         ids=[name + (f"-over-{over}" if over else "")
                              for name in PINNED_IDS for over in (None, *STALE)])
def test_build_artifacts_byte_identical(tmp_path, capsys, cmd, spec, cert_sha, report_sha, over):
    path = write_spec(tmp_path / "spec.json", spec)
    for fmt in ["json"] if over is None else ["pgm", "ascii"]:
        out_dir = tmp_path / fmt
        code, out = run_over(out_dir, capsys, [cmd, "--spec", path, "--format", fmt], over)
        assert code == 0
        cert = (out_dir / "certificate.json").read_bytes()
        assert hashlib.sha256(cert).hexdigest() == cert_sha
        assert hashlib.sha256(out.encode()).hexdigest() == report_sha


@pytest.mark.parametrize("cmd,spec", [(cmd, spec) for (cmd, spec, _c, _r) in PINNED],
                         ids=PINNED_IDS)
def test_build_writes_the_window_text_once(tmp_path, capsys, cmd, spec):
    # The final window is dumped once: window.json holds that text, and the
    # certificate holds the same bytes as its final window.
    out_dir = tmp_path / "out"
    code, _, _ = run_cli([cmd, "--spec", write_spec(tmp_path / "spec.json", spec),
                          "--out", str(out_dir)], capsys)
    assert code == 0
    window = (out_dir / "window.json").read_text()
    cert = (out_dir / "certificate.json").read_text()
    assert window.endswith("}\n") and window[:-1] in cert
    assert json.loads(cert)["final"]["p"] == json.loads(window)


@pytest.mark.parametrize("cmd,spec", [(cmd, spec) for (cmd, spec, _c, _r) in PINNED],
                         ids=PINNED_IDS)
def test_build_pgms_are_the_library_bytes(tmp_path, capsys, cmd, spec):
    # window.pgm is Config.to_pgm() of window.json, and hole_lattice.pgm is
    # pgm_dumps of the mask of the final hole's class modulo the seed block.
    out_dir = tmp_path / "out"
    code, _, _ = run_cli([cmd, "--spec", write_spec(tmp_path / "spec.json", spec),
                          "--out", str(out_dir), "--format", "pgm"], capsys)
    assert code == 0
    window = Config.from_json(json.loads((out_dir / "window.json").read_text()))
    assert read_pgm(out_dir / "window.pgm") == window.to_pgm()
    if cmd == "build-gp":
        a, b, c, d = spec["seed"]["p"]["rect"]
        (ux, uy), (x0, y0), (x1, y1) = *window.holes, window.rect.lo, window.rect.hi
        mask = [[(x - ux) % (b - a + 1) == 0 and (y - uy) % (d - c + 1) == 0
                 for x in range(x0, x1 + 1)] for y in range(y1, y0 - 1, -1)]
        assert read_pgm(out_dir / "hole_lattice.pgm") == pgm_dumps(mask, 1)


@pytest.mark.parametrize("spec,cert_sha,report_sha",
                         [(spec, c, r) for (cmd, spec, c, r) in PINNED if cmd == "build-mt"],
                         ids=["mt", "odd", "neg", "neg-odd"])
def test_mt_build_never_lists_a_witness_box(tmp_path, capsys, monkeypatch, spec, cert_sha,
                                            report_sha):
    # Builds, verifies and writes every Box witness set from its bounds alone.
    def listing(self):
        raise AssertionError("a Box was listed cell by cell")

    monkeypatch.setattr(Box, "__iter__", listing)
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(["build-mt", "--spec", write_spec(tmp_path / "spec.json", spec),
                            "--out", str(out_dir)], capsys)
    assert code == 0
    assert hashlib.sha256((out_dir / "certificate.json").read_bytes()).hexdigest() == cert_sha
    assert hashlib.sha256(out.encode()).hexdigest() == report_sha


def test_a_witness_set_read_as_a_frozenset_is_listed_sorted(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, report, _ = run_cli(["build-mt", "--spec", write_spec(tmp_path / "spec.json", mt_spec()),
                               "--out", str(out_dir)], capsys)
    assert code == 0
    text = (out_dir / "certificate.json").read_text()
    data = json.loads(text)
    T = data["final"]["shifts"][0]["T"]
    assert len(T) > 1
    # Hand-edited: the cells out of lex order, so T is read as a frozenset;
    # then the same without its first cell.
    for cells, want in ((T[::-1], T), (T[:0:-1], T[1:])):
        data["final"]["shifts"][0]["T"] = cells
        cert = mincolor.Certificate.from_json(data)
        assert type(cert.final.shifts[0][1]) is frozenset
        assert cert.doc()["final"]["shifts"][0]["T"] == cert.to_json()["final"]["shifts"][0]["T"]
        assert cert.to_json()["final"]["shifts"][0]["T"] == want
        edited = write_spec(tmp_path / "edited.json", data)
        code, edited_report, _ = run_cli(["verify", "--spec", edited], capsys)
        assert edited_report == canon_dumps(mincolor.verify_certificate(cert)) + "\n"
        if want is T:
            # The same cells as the Box: the same bytes and the same report.
            assert (code, edited_report) == (0, report)
            assert canon_dumps(cert.doc()) + "\n" == text


def test_canon_dumps_writes_raw_text_as_it_is():
    text = Raw('{ "b" : 1, "a": [2] }')
    assert canon_dumps(text) == text
    assert canon_dumps({"z": text, "a": [text, 3]}) == f'{{"a":[{text},3],"z":{text}}}'
    assert canon_dumps([text, {}]) == f"[{text},{{}}]"


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
    assert "error: toast.window: expected four integers" in err


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
    assert hashlib.sha256(read_pgm(out_dir / "toast.pgm")).hexdigest() == pgm_sha


@pytest.mark.parametrize("over", STALE)
@pytest.mark.parametrize("cmd,data", [("toast", toast_spec()),
                                      ("markers", {"demo": "shifted_stack", "a": 1})],
                         ids=["toast", "stack"])
def test_checker_pgms_written_over_stale_files(tmp_path, capsys, cmd, data, over):
    argv = [cmd, "--spec", write_spec(tmp_path / "spec.json", data), "--format", "pgm"]
    assert run_over(tmp_path / "o", capsys, argv, over)[0] == 0


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
    if code == 0:
        read_pgm(tmp_path / "o" / "toast.pgm")
    # A refused image leaves no output directory behind.
    assert (tmp_path / "o").exists() == (code == 0)


# A P2 maxval is at most 65535, so a depth map of more levels is no PGM: such
# a toast is refused before its map is allocated, and no file is written.
@pytest.mark.parametrize("count,code", [(65535, 0), (65536, 2)])
def test_toast_pgm_level_limit(tmp_path, capsys, count, code):
    data = {"toast": {"layered": True, "window": [0, 1, 0, 1], "levels": [[]] * count}}
    spec = write_spec(tmp_path / "toast.json", data)
    got, _, err = run_cli(["toast", "--spec", spec, "--out", str(tmp_path / "o"),
                           "--format", "pgm"], capsys)
    assert got == code
    if code == 0:
        assert parse_pgm((tmp_path / "o" / "toast.pgm").read_bytes()) == [[0, 0], [0, 0]]
    else:
        assert err == "error: toast.levels: a PGM holds at most 65535 levels, got 65536\n"
        assert not (tmp_path / "o" / "toast.pgm").exists()


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
        pgms.append(read_pgm(tmp_path / name / "toast.pgm"))
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
     "toast.levels[0][0]: expected a list of points"),
    ("toast", with_field(toast_spec(), ("toast", "levels", 1, 0), 5),
     "toast.levels[1][0]: expected a list of points"),
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
     "toast.layered: expected a boolean"),
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


# Each of these raised an error that named no JSON path: a bare key such as
# 'toast' or 'window', or a TypeError about ints and list indices.
SPEC_PATH_ERRORS = [
    ("toast", {}, "toast: expected an object"),
    ("toast", {"toast": []}, "toast: expected an object"),
    ("toast", with_field(toast_spec(), ("toast", "levels"), 5), "toast.levels: expected a list"),
    ("toast", with_field(toast_spec(), ("toast", "levels", 0), 5),
     "toast.levels[0]: expected a list"),
    ("toast", with_field(toast_spec(), ("toast", "levels", 0), [[[0, 0]], 5]),
     "toast.levels[0][1]: expected a list of points"),
    ("toast", {"toast": {"levels": [], "layered": True}}, "toast.window: expected four integers"),
    ("toast", {"toast": {"levels": [], "window": [0, 1, 0, 1]}},
     "toast.layered: expected a boolean"),
    ("markers", {"demo": "partitions", "levels": []}, "window: expected four integers"),
    ("markers", {"demo": "shifted_stack"}, "a: expected an integer"),
    ("markers", with_field(partitions_spec(), ("levels",), 5), "levels: expected a list"),
    ("markers", with_field(partitions_spec(), ("levels", 0), 5), "levels[0]: expected an object"),
    ("markers", {"demo": "partitions", "window": [0, 7, 0, 7], "levels": [{"rects": []}]},
     "levels[0].level: expected an integer"),
    ("markers", with_field(partitions_spec(), ("levels", 0, "rects"), None),
     "levels[0].rects: expected a list"),
    ("markers", with_field(partitions_spec(), ("levels", 0, "rects", 0), [0, 7, 0]),
     "levels[0].rects[0]: expected four integers"),
]


@pytest.mark.parametrize("cmd,data,message", SPEC_PATH_ERRORS,
                         ids=["toast-missing", "toast-list", "levels-int", "level-int",
                              "class-int", "window-missing", "layered-missing",
                              "partition-window-missing", "stack-a-missing", "levels-int-markers",
                              "partition-level-int", "partition-level-missing",
                              "rects-missing", "rect-short"])
def test_checker_spec_errors_name_the_path(tmp_path, capsys, cmd, data, message):
    spec = write_spec(tmp_path / "spec.json", data)
    code, out, err = run_cli([cmd, "--spec", spec], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("cmd,data,message", [
    ("verify", {"seed": {}}, "kind: unknown certificate kind None"),
    ("markers", {"demo": "stack"}, "demo: unknown markers demo 'stack'"),
    ("markers", with_field(partitions_spec(), ("probes", 0), [8, 3]),
     "probes[0]: probe (8, 3) outside the partition window"),
    # These named no path.
    ("markers", with_field(partitions_spec(), ("levels", 0, "rects"), [[0, 7, 0, 3]]),
     "levels[0]: rects must cover the window exactly once"),
    ("markers", with_field(partitions_spec(), ("levels", 0, "rects"), [[0, 8, 0, 7]]),
     "levels[0]: rect Rect(lo=(0, 0), hi=(8, 7)) leaves the window Rect(lo=(0, 0), hi=(7, 7))"),
    ("markers", {"demo": "shifted_stack", "a": -1}, "a: a must be >= 0, got -1"),
    ("markers", {"demo": "shifted_stack", "a": 1, "side": 18},
     "side: window holds no admissible segment of this length"),
    ("markers", {"demo": "shifted_stack", "a": 1, "side": -5},
     "side: inverted rectangle bounds (0,-6,0,-6)"),
], ids=["verify-no-kind", "markers-unknown-demo", "partition-probe-outside",
        "partition-cover", "partition-rect-outside", "stack-a-negative", "stack-side-short",
        "stack-side-negative"])
def test_rejected_specs_exit_2(tmp_path, capsys, cmd, data, message):
    spec = write_spec(tmp_path / "spec.json", data)
    code, out, err = run_cli([cmd, "--spec", spec], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_toast_pgm_artifact(tmp_path, capsys):
    spec = write_spec(tmp_path / "toast.json", toast_spec())
    out_dir = tmp_path / "o"
    code, _, _ = run_cli(["toast", "--spec", spec, "--out", str(out_dir),
                          "--format", "pgm"], capsys)
    assert code == 0
    assert read_pgm(out_dir / "toast.pgm").startswith(b"P2\n")


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


def staggered(overlap=False):
    """Rects of [0, 25000] x [0, 24999], one row each side of a cut after
    column y on row y: 50,000 rects with 25,002 distinct x edges.
    ``overlap`` starts one row's right rect a cell early."""
    return [r for y in range(25000)
            for r in ([0, y, y, y], [y + 1 - (overlap and y == 4321), 25000, y, y])]


# The partition check painted a cell array over the whole window: 3.64 TiB
# for the far window. Then it painted one over the grid cut by the rects'
# edges: 2.33 GiB for the staggered rows. Either verdict is now reached
# within the child's memory cap.
@pytest.mark.parametrize("window,rects,code,msg", [
    ([0, 1000000, 0, 1000000], [[0, 1000000, 0, 1000000]], 0, ""),
    ([0, 1000000, 0, 1000000], [[0, 999999, 0, 1000000], [999999, 1000000, 0, 1000000]], 2,
     "exactly once"),
    ([0, 25000, 0, 24999], staggered(), 0, ""),
    ([0, 25000, 0, 24999], staggered(overlap=True), 2, "exactly once"),
], ids=["cover", "overlap", "staggered", "staggered-overlap"])
def test_markers_partitions_far_window_bounded(tmp_path, window, rects, code, msg):
    spec = write_spec(tmp_path / "m.json", {
        "demo": "partitions", "window": window,
        "levels": [{"level": 0, "rects": rects}], "probes": [[3, 3]]})
    got, err = run_cli_bounded(["markers", "--spec", spec])
    assert got == code, err
    assert msg in err
    assert "Traceback" not in err


@pytest.mark.parametrize("side,code", [(512, 0), (513, 3)])
def test_markers_stack_pgm_side_limit(tmp_path, capsys, side, code):
    spec = write_spec(tmp_path / "m.json", {"demo": "shifted_stack", "a": 1, "side": side})
    got, _, err = run_cli(["markers", "--spec", spec, "--out", str(tmp_path / "o"),
                           "--format", "pgm"], capsys)
    assert got == code
    assert code == 0 or "exceeds max_side=512" in err
    assert (tmp_path / "o").exists() == (code == 0)
    if code == 0:
        read_pgm(tmp_path / "o" / "stack.pgm")


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
    assert read_pgm(out_dir / "stack.pgm").startswith(b"P2\n")


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


# JSON nested deeper than the interpreter's recursion limit: json.load raised
# RecursionError, a traceback and exit 1, also under an object member.
DEEP = "[" * 200000 + "]" * 200000


@pytest.mark.parametrize("cmd", ["build-mt", "build-gp", "verify", "toast", "markers"])
@pytest.mark.parametrize("text", [DEEP, '{"seed": ' + DEEP + "}"], ids=["bare", "member"])
def test_deeply_nested_json_exit_2(tmp_path, capsys, cmd, text):
    path = tmp_path / "spec.json"
    path.write_text(text + "\n")
    args = [cmd, "--spec", str(path)]
    if cmd.startswith("build"):
        args += ["--out", str(tmp_path / "out")]
    assert run_cli(args, capsys) == (2, "", "error: JSON nests too deeply\n")


# A MemoryError raised by Python itself has no text: exit 3 printed a bare
# "error: ".
def test_memory_error_without_text_names_the_cause(tmp_path, capsys, monkeypatch):
    def exhausted(path):
        raise MemoryError()

    monkeypatch.setattr(cli, "_load_json", exhausted)
    args = ["verify", "--spec", str(tmp_path / "certificate.json")]
    assert run_cli(args, capsys) == (3, "", "error: out of memory\n")


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
    return {p.name: read_pgm(p) if p.suffix == ".pgm" else p.read_bytes()
            for p in sorted(out_dir.iterdir())}


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


# ------------------------------------------------------- the paused collector

def run_collected(argv, capsys):
    """main(argv) after a full collection: its exit code and stderr, how
    many objects the next collection finds in cycles, and whether the
    collector is on. The parser is built first: argparse leaves formatter
    cycles when it builds one, once per process and before main pauses the
    collector."""
    cli.build_parser()
    gc.collect()
    code = main(argv)
    garbage, enabled = gc.collect(), gc.isenabled()
    return code, capsys.readouterr().err, garbage, enabled


# main runs each command with the collector paused, which is safe only while
# no command leaves a reference cycle behind.
@pytest.mark.parametrize("cmd,spec", [(cmd, spec) for (cmd, spec, _c, _r) in PINNED],
                         ids=PINNED_IDS)
def test_build_and_verify_leave_no_cycles(tmp_path, capsys, cmd, spec):
    out_dir = tmp_path / "out"
    for argv in ([cmd, "--spec", write_spec(tmp_path / "spec.json", spec), "--out", str(out_dir),
                  "--format", "pgm"],
                 ["verify", "--spec", str(out_dir / "certificate.json")]):
        code, _, garbage, enabled = run_collected(argv, capsys)
        assert (code, garbage, enabled) == (0, 0, True)


def edited_certificate(tmp_path, capsys, T):
    """Path of an mt certificate whose first witness set is replaced by T."""
    out_dir = tmp_path / "out"
    assert run_cli(["build-mt", "--spec", write_spec(tmp_path / "spec.json", mt_spec()),
                    "--out", str(out_dir)], capsys)[0] == 0
    data = json.loads((out_dir / "certificate.json").read_text())
    data["final"]["shifts"][0]["T"] = T
    return write_spec(tmp_path / "edited.json", data)


# (command, spec, flags, exit code, text in stderr); for verify the spec is
# the T written into the first shift of a built mt certificate.
COLLECTED_CASES = {
    "toast-pass": ("toast", PINNED_TOAST[0][0], ["--format", "pgm"], 0, ""),
    "toast-broken": ("toast", PINNED_TOAST[1][0], ["--format", "pgm"], 0, ""),
    "markers-stack": ("markers", {"demo": "shifted_stack", "a": 1}, ["--format", "pgm"], 0, ""),
    "markers-partitions": ("markers", partitions_spec(), [], 0, ""),
    "exit-2": ("verify", [[0.5, 0]], [], 2, "error: final.shifts[0].T: expected a list of points"),
    "exit-3": ("build-mt", mt_spec(schedule=[{"op": "cover", "g": [50, 50]}]),
               ["--max-side", "32"], 3, "error: window side 51 exceeds max_side=32"),
    "exit-4": ("verify", [[99, 99]], [], 4, ""),
}


@pytest.mark.parametrize("name", COLLECTED_CASES)
def test_checkers_and_failures_leave_no_cycles(tmp_path, capsys, name):
    cmd, data, flags, want, message = COLLECTED_CASES[name]
    if cmd == "verify":
        spec = edited_certificate(tmp_path, capsys, data)
    else:
        spec = write_spec(tmp_path / "spec.json", data)
        flags = [*flags, "--out", str(tmp_path / "o")]
    code, err, garbage, enabled = run_collected([cmd, "--spec", spec, *flags], capsys)
    assert (code, garbage, enabled) == (want, 0, True)
    assert message in err


def test_a_paused_collector_stays_paused(tmp_path, capsys):
    spec = write_spec(tmp_path / "m.json", {"demo": "shifted_stack", "a": 1})
    gc.disable()
    try:
        assert run_cli(["markers", "--spec", spec], capsys)[0] == 0
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_the_collector_is_back_after_an_uncaught_error(tmp_path, capsys, monkeypatch):
    seen = []

    def broken(args):
        seen.append(gc.isenabled())
        raise RuntimeError("not caught by main")

    monkeypatch.setattr(cli, "cmd_verify", broken)
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="not caught by main"):
        main(["verify", "--spec", str(tmp_path / "certificate.json")])
    assert seen == [False] and gc.isenabled()
