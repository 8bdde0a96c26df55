"""Soundness and totality over whole small universes, and the trusted
verifier pinned. verify agrees with the naive verifiers on odd-mode mt
certificates and on base-3 gp certificates; every JSON path of the honest
specs and certificates, set to a fixed table of values, ends in exit 0, 2, 3
or 4 with no traceback; and verify runs no function the builders own."""

import copy
import io
import json
import re
import signal
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import gridwindows
from gridwindows import gridperiod, mincolor
from gridwindows.cli import main
from gridwindows.schedule import parse_schedule
from gridwindows.serialize import canon_dumps

from oracles import naive_verify_gp, naive_verify_mt
from test_cli import PINNED, gp_spec, mt_spec, run_bounded
from test_verifier import json_paths, mutate, mutations, run_quiet


# ------------------------------------------------------------ small universes

def flips(cert):
    """Each single-cell flip of the certificate's final window, off the hole."""
    final = cert["final"]
    rows = final["p"]["rows"]
    for j, row in enumerate(rows):
        for i, v in enumerate(row):
            if v != ".":
                flip = row[:i] + "10"[int(v)] + row[i + 1:]
                window = dict(final["p"], rows=[*rows[:j], flip, *rows[j + 1:]])
                yield dict(cert, final=dict(final, p=window))


def list_edits(cert, keys):
    """Each deletion and duplication of one entry of the named lists, each
    a key of the certificate (steps, stages) or of its final (shifts,
    patterns). Each case copies what it changes."""
    final = cert["final"]
    for key in keys:
        doc = cert if key in cert else final
        entries = doc[key]
        for k, e in enumerate(entries):
            for mid in ([], [e, e]):
                new = dict(doc, **{key: [*entries[:k], *mid, *entries[k + 1:]]})
                yield new if doc is cert else dict(cert, final=new)


def windows(w, h):
    """Every 0/1 window of w x h cells, as rows."""
    for bits in range(1 << (w * h)):
        cells = f"{bits:0{w * h}b}"
        yield [cells[j * w : (j + 1) * w] for j in range(h)]


def one_or_two(steps):
    """Every schedule of one or two of the steps."""
    return [[a] for a in steps] + [[a, b] for a in steps for b in steps]


def agreement(certs, naive, cert_class, verify):
    """(cases, accepted, disagreements) of verify against the naive verifier."""
    count, accepted, disagree = 0, 0, []
    for cert in certs:
        want = naive(cert)
        count += 1
        accepted += want
        if verify(cert_class.from_json(cert))["ok"] != want:
            disagree.append((cert["final"], cert["steps"]))
    return count, accepted, disagree


# Steps of the odd-mode universe: a tripling, a self pattern and one shift.
ODD_STEPS = [{"op": "duplicate_odd"}, {"op": "self_pattern"}, {"op": "shift", "t": [0, 1]}]


def odd_mode_universe():
    """The odd-mode seeds 1x1 and 3x1 (10) and the 3x3 checkerboard, built
    by every schedule of one or two ODD_STEPS (12): the honest certificate,
    each single-cell flip of its final window, and each deletion or
    duplication of one steps, final shifts or final patterns entry (3,568
    cases). The other 1x3 and 3x3 seeds are left out for time: with them
    the slice takes several times as long."""
    seeds = [*windows(1, 1), *windows(3, 1), ["010", "101", "010"]]
    for rows in seeds:
        p = {"rect": [0, len(rows[0]) - 1, 0, len(rows) - 1], "rows": rows, "holes": []}
        seed = mincolor.MtCondition.from_json({"p": p, "odd": True, "shifts": [], "patterns": []})
        for schedule in one_or_two(ODD_STEPS):
            cert = mincolor.build_generic(seed, parse_schedule(schedule, mincolor.STEPS),
                                          {"max_side": 81, "max_steps": 4}).to_json()
            yield cert
            yield from flips(cert)
            yield from list_edits(cert, ("steps", "shifts", "patterns"))


def test_verify_agrees_with_the_naive_verifier_on_an_odd_mode_universe():
    count, accepted, disagree = agreement(odd_mode_universe(), naive_verify_mt,
                                          mincolor.Certificate, mincolor.verify_certificate)
    assert disagree == []
    assert count == 3568
    # Both answers occur, so the universe tells a sound verifier from a constant one.
    assert 0 < accepted < count


# Steps of the base-3 universe: one shift and one row clear.
GP3_STEPS = [{"op": "shift", "s": [2, 1]}, {"op": "line_clear", "axis": "row", "index": 1}]


def base_3_universe(word):
    """n = 3 seeds on [0, 2]² with one hole, built by every schedule of
    one or two GP3_STEPS (6): the honest certificate, each single-cell flip
    of its final window off the hole, each deletion or duplication of one
    steps or stages entry, and each tripling or thirding of one side of
    one stages entry. The hole takes each of the 9 positions, and the other
    8 cells take the bits of the 8-bit word, by rows from the low corner.
    The other 255 words are left out for time."""
    for hole in range(9):
        bits = iter(f"{word:08b}")
        cells = ["." if i == hole else next(bits) for i in range(9)]
        p = {"rect": [0, 2, 0, 2], "rows": ["".join(cells[j : j + 3]) for j in (0, 3, 6)],
             "holes": [[hole % 3, hole // 3]]}
        seed = gridperiod.GpCondition.from_json({"n": 3, "p": p})
        for schedule in one_or_two(GP3_STEPS):
            cert = gridperiod.build_generic_gp(seed, parse_schedule(schedule, gridperiod.STEPS),
                                               {"max_side": 81, "max_steps": 4}).to_json()
            yield cert
            yield from flips(cert)
            yield from list_edits(cert, ("steps", "stages"))
            stages = cert["stages"]
            for k, st in enumerate(stages):
                for key in ("w", "h"):
                    for side in (3 * st[key], st[key] // 3):
                        yield dict(cert, stages=[*stages[:k], dict(st, **{key: side}),
                                                 *stages[k + 1:]])


def test_verify_agrees_with_the_naive_verifier_on_a_base_3_universe():
    count, accepted, disagree = agreement(base_3_universe(0b10110010), naive_verify_gp,
                                          gridperiod.GpCertificate,
                                          gridperiod.verify_gp_certificate)
    assert disagree == []
    assert count == 4986
    assert 0 < accepted < count


# ------------------------------------------------------------ trusted path

# Names the builders own. verify re-derives every claim from the
# certificate alone, so none of these may run under it.
BUILDER = re.compile(r"extend_|build_generic|discriminate_shift_gp$|run_schedule$|_grow|_cover"
                     r"|duplicate_odd$")


def test_builder_names_every_growth_helper():
    """The pin below holds only for the names BUILDER matches, so every
    function that grows a window for a build step must be one of them."""
    helpers = [mincolor.extend_cover, mincolor.extend_shift, mincolor.extend_pattern,
               mincolor.duplicate_odd, mincolor._cover_tiling, mincolor._cover_axis,
               gridperiod.extend_tile_gp, gridperiod.discriminate_shift_gp, gridperiod._grow]
    assert [f.__name__ for f in helpers if not BUILDER.match(f.__name__)] == []


def traced_verify(path):
    """verify's exit code and report on the certificate file, and the code
    objects of the package functions it called."""
    pkg = str(Path(gridwindows.__file__).parent)
    called = set()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.startswith(pkg):
            called.add(frame.f_code)

    out = io.StringIO()
    sys.setprofile(profile)
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(["verify", "--spec", str(path)])
    finally:
        sys.setprofile(None)
    checks = json.loads(out.getvalue())["checks"] if code in (0, 4) else []
    return code, [c["ok"] for c in checks], called


def hole_in_seed(cert):
    """The seed's low corner made a hole, which leaves the seed invalid."""
    p = cert["seed"]["p"]
    a, _b, c, _d = p["rect"]
    p["rows"][0] = "." + p["rows"][0][1:]
    p["holes"] = [*p["holes"], [a, c]]
    return cert


def tampers(cert):
    """The seed hole, then the single edits of ``mutations``: leaf changes,
    then deletions, duplications and emptyings of lists. A witness set is
    only emptied, not edited point by point."""
    yield hole_in_seed(copy.deepcopy(cert))
    for kind in ("change", "delete", "duplicate", "empty"):
        for path, how, arg in mutations(cert, kind):
            if not {"T", "F"} & set(path) or (how, arg) == ("set", []):
                yield mutate(copy.deepcopy(cert), path, how, arg)


@pytest.mark.parametrize("cmd,spec", [(cmd, spec) for (cmd, spec, _c, _r) in PINNED],
                         ids=["mt", "odd", "neg", "neg-odd", "gp", "gp-neg", "gp-n3"])
def test_verify_runs_no_builder_function(tmp_path, cmd, spec):
    """Over the pinned certificate and, for each check of its report, a
    tampered one that fails that check, verify calls no builder function."""
    (tmp_path / "spec.json").write_text(canon_dumps(spec))
    assert run_quiet([cmd, "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path)]) == 0
    honest = tmp_path / "certificate.json"
    code, oks, called = traced_verify(honest)
    assert code == 0 and all(oks)
    assert not [f for f in called if BUILDER.match(f.co_name)]
    # A check counts as failed where the report keeps its length.
    unfailed = set(range(len(oks)))
    cert = json.loads(honest.read_text())
    for doc in tampers(cert):
        path = tmp_path / "tampered.json"
        path.write_text(canon_dumps(doc))
        code, tampered, called = traced_verify(path)
        assert code in (0, 2, 4)
        assert not [f for f in called if BUILDER.match(f.co_name)]
        if len(tampered) == len(oks):
            unfailed -= {i for i, ok in enumerate(tampered) if not ok}
        if not unfailed:
            break
    assert unfailed == set()


# The trusted path by name: a change that brings a function under verify
# adds it here, in the diff. Lines within each function are counted by
# tests/trusted_lines.py.
TRUSTED = [
    "cli._family", "cli._load_json", "cli._verdict", "cli.cmd_verify", "cli.main",
    "errors.check_reach",
    "geometry.Box.__contains__", "geometry.Box.__eq__", "geometry.Box.__len__",
    "geometry.Box.__post_init__", "geometry.Box.area", "geometry.Box.bounds",
    "geometry.Box.from_lex", "geometry.Rect.contains", "geometry.Rect.contains_rect",
    "geometry.Rect.from_bounds", "geometry.Rect.from_json", "geometry.Rect.height",
    "geometry.Rect.intersect", "geometry.Rect.translate", "geometry.Rect.width", "geometry._ints",
    "grid.Config.__eq__", "grid.Config._trusted", "grid.Config.array", "grid.Config.from_json",
    "grid.Config.from_rows", "grid.Config.hole_free", "grid.Config.holes", "grid.Config.restrict",
    "grid.Config.value", "grid._match_offsets", "grid._slices",
    "gridperiod.GpCondition.from_json", "gridperiod.GpCondition.u",
    "gridperiod.LineClear.__post_init__", "gridperiod._check_line", "gridperiod._check_shift",
    "gridperiod._is_power", "gridperiod._stage", "gridperiod.detect_line_period",
    "gridperiod.is_extension_gp", "gridperiod.validate_gp", "gridperiod.verify_gp_certificate",
    "gridperiod.verify_gp_certificate.<locals>.periodic", "gridperiod.verify_grid_periodicity",
    "mincolor.MtCondition.from_json", "mincolor._check_odd", "mincolor._check_pattern",
    "mincolor._check_shift", "mincolor._clauses", "mincolor._clauses.<locals>.boxes",
    "mincolor._structure", "mincolor.is_extension",
    "mincolor.validate", "mincolor.verify_certificate",
    "schedule._as_is", "schedule._request", "schedule.certificate_class.<locals>.from_json",
    "schedule.check_steps", "schedule.covered", "schedule.read_limits", "schedule.report",
    "schedule.within_limits",
    "serialize._expect", "serialize.at", "serialize.construct", "serialize.is_int",
    "serialize.is_point", "serialize.read_bool", "serialize.read_int", "serialize.read_list",
    "serialize.read_object", "serialize.read_point", "serialize.read_points",
    "serialize.read_records",
    "witness._boxes", "witness._differs", "witness._pattern_ok_grid", "witness._reach",
    "witness._shift_ok_grid",
]


def test_verify_enters_only_the_pinned_functions(tmp_path):
    """``module.qualname`` of every package function that honest verifies
    of the PINNED certificates enter, sorted, is TRUSTED."""
    names = set()
    for cmd, spec, *_hashes in PINNED:
        (tmp_path / "spec.json").write_text(canon_dumps(spec))
        assert run_quiet([cmd, "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path)]) == 0
        code, oks, called = traced_verify(tmp_path / "certificate.json")
        assert code == 0 and all(oks)
        names |= {f"{Path(f.co_filename).stem}.{f.co_qualname}" for f in called
                  if not f.co_name.startswith("<")}  # comprehensions are not functions
    assert sorted(names) == TRUSTED


# ------------------------------------------------------------ punched holes

def replaced(doc, path, value):
    """doc with the value at path replaced, copying only the containers on it."""
    if not path:
        return value
    key, *rest = path
    new = copy.copy(doc)
    new[key] = replaced(doc[key], rest, value)
    return new


def punched(cert):
    """Each defined cell of each window p and pattern f of the seed and the
    final made a hole, its rows and holes kept consistent."""
    for key in ("seed", "final"):
        cond = cert[key]
        paths = [(key, "p")] + [(key, "patterns", j, "f")
                                for j in range(len(cond.get("patterns", [])))]
        for path in paths:
            window = cert
            for k in path:
                window = window[k]
            a, _b, c, _d = window["rect"]
            rows = window["rows"]
            for j, row in enumerate(rows):
                for i, v in enumerate(row):
                    if v != ".":
                        holed = [*rows[:j], row[:i] + "." + row[i + 1:], *rows[j + 1:]]
                        yield replaced(cert, path, dict(window, rows=holed,
                                                        holes=[*window["holes"], [a + i, c + j]]))


# A hole punched into a pattern made verify exit 2 ("pattern must be
# hole-free") where validate reports a structural fault. A hole anywhere in
# an mt certificate is a failing check (exit 4); in gp, whose conditions
# declare their one hole, it is an error naming that declaration (exit 2).
@pytest.mark.parametrize("cmd,spec", [(cmd, spec) for (cmd, spec, _c, _r) in PINNED],
                         ids=["mt", "odd", "neg", "neg-odd", "gp", "gp-neg", "gp-n3"])
def test_punched_hole_fails_a_check_or_names_its_path(tmp_path, cmd, spec):
    (tmp_path / "spec.json").write_text(canon_dumps(spec))
    assert run_quiet([cmd, "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path)]) == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    naive = naive_verify_mt if cmd == "build-mt" else naive_verify_gp
    path = tmp_path / "punched.json"
    codes = set()
    for doc in punched(cert):
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["verify", "--spec", str(path)])
        codes.add(code)
        if code == 4:
            assert err.getvalue() == "" and not json.loads(out.getvalue())["ok"]
        else:
            assert re.match(r"error: (seed|final)\.u: ", err.getvalue()), err.getvalue()
        assert not naive(doc)
    assert codes == ({4} if cmd == "build-mt" else {2})


# ------------------------------------------------------------ path mutation

BIG = {"max_side": 10**31, "max_steps": 64}

# Small honest specs of every command, the builds' with limits far above
# any window numpy can hold, so that a far target edited into them meets no
# max_side first.
MUTATED_SPECS = [
    ("build-mt", mt_spec(seed={"rect": [0, 0, 0, 0], "rows": ["0"], "holes": []},
                         schedule=[{"op": "shift", "t": [0, 1]}, {"op": "cover", "g": [1, 0]},
                                   {"op": "self_pattern"}], limits=BIG)),
    ("build-mt", mt_spec(odd=True, seed={"rect": [0, 0, 0, 0], "rows": ["0"], "holes": []},
                         schedule=[{"op": "duplicate_odd"}, {"op": "self_pattern"},
                                   {"op": "shift", "t": [1, 0]}, {"op": "cover", "g": [0, 2]}],
                         limits=BIG)),
    ("build-gp", gp_spec(schedule=[{"op": "shift", "s": [1, 0]},
                                   {"op": "line_clear", "axis": "row", "index": 0},
                                   {"op": "cover", "g": [4, 4]}], limits=BIG)),
    ("toast", {"toast": {"layered": True, "window": [-2, 2, -2, 2],
                         "levels": [[[[0, 0]]],
                                    [[[x, y] for x in (-1, 0, 1) for y in (-1, 0, 1)]]]},
               "probes": [[0, 0]]}),
    ("markers", {"demo": "shifted_stack", "a": 1}),
    ("markers", {"demo": "partitions", "window": [0, 7, 0, 7],
                 "levels": [{"level": 0, "rects": [[0, 7, 0, 3], [0, 7, 4, 7]]}],
                 "probes": [[3, 3]]}),
]

# What each JSON path is set to: wrong types, and far integers, limits and
# targets, whose windows no array can hold.
PATH_VALUES = [None, -1, 2.5, "x", 10**31, [10**30, 0], [-(2**62), 2**62]]


def path_mutation_cases(tmp_path):
    """(argv, document) of every PATH_VALUES edit of every JSON path of
    each MUTATED_SPECS spec and of each build's certificate. The document
    goes to the file the argv names."""
    spec_file, out = tmp_path / "case.json", tmp_path / "out"
    for cmd, spec in MUTATED_SPECS:
        docs = [([cmd, "--spec", str(spec_file), "--out", str(out), "--format", "pgm"], spec)]
        if cmd.startswith("build"):
            (tmp_path / "spec.json").write_text(canon_dumps(spec))
            assert run_quiet([cmd, "--spec", str(tmp_path / "spec.json"), "--out", str(out)]) == 0
            cert = json.loads((out / "certificate.json").read_text())
            docs.append((["verify", "--spec", str(spec_file)], cert))
        for argv, doc in docs:
            for path in json_paths(doc):
                for value in PATH_VALUES:
                    yield argv, mutate(copy.deepcopy(doc), path, "set", value) if path else value


# An exit-2 message names the JSON path of the field at fault, unless it is
# about the whole document.
PATH_ERROR = re.compile(r"error: [A-Za-z_]\w*(\.\w+|\[\d+\])*: ")
WHOLE_DOCUMENT = ("error: expected a JSON object\n", "error: JSON nests too deeply\n")


def run_cases(cases_file):
    """Run each (argv, document) case of the JSON file through the CLI, in
    this process, with an alarm of 10 s each. Prints a JSON object: the
    count of each exit code, and the cases that raised, timed out, exited
    otherwise, printed a traceback or exited 2 naming no path, each with
    its stderr."""
    def alarm(_sig, _frame):
        raise TimeoutError("case ran past its alarm")

    signal.signal(signal.SIGALRM, alarm)
    codes, bad = Counter(), []
    for argv, doc in json.loads(Path(cases_file).read_text()):
        Path(argv[2]).write_text(canon_dumps(doc))
        err = io.StringIO()
        signal.alarm(10)
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(argv)
        except Exception as exc:
            code = repr(exc)
        finally:
            signal.alarm(0)
        codes[code] += 1
        text = err.getvalue()
        pathless = code == 2 and not PATH_ERROR.match(text) and text not in WHOLE_DOCUMENT
        if code not in (0, 2, 3, 4) or "Traceback" in text or pathless:
            bad.append([argv[0], doc, code, text])
    print(json.dumps({"codes": codes, "bad": bad}))


def test_cli_total_under_path_mutation(tmp_path):
    """Every edited spec and certificate ends in exit 0, 2, 3 or 4 with no
    traceback, each within its alarm, in one child process under a 1.5 GiB
    address-space cap; every exit 2 but the whole-document errors names the
    JSON path of the field at fault."""
    cases = list(path_mutation_cases(tmp_path))
    (tmp_path / "cases.json").write_text(canon_dumps(cases))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import test_soundness; "
            "test_soundness.run_cases(sys.argv[2])")
    proc = run_bounded(["-c", code, str(Path(__file__).parent), str(tmp_path / "cases.json")],
                       timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["bad"] == []
    assert sum(result["codes"].values()) == len(cases) == 3535
