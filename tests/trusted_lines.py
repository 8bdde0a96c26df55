"""Count the package lines an honest verify runs: the trusted path. Too
slow and too noisy for the test suite (pytest does not collect this file);
run it by hand:

    python tests/trusted_lines.py

It builds the certificates of the PINNED specs (tests/test_cli.py) with
``gridwin build-mt`` and ``gridwin build-gp``, then runs ``gridwin verify``
on each under ``sys.settrace`` and collects the (file, line) of every line
event in the package. It prints ``trusted N of M``: N the distinct lines
those verifies ran, M the executable lines of the package below module
level, from the line tables of every function, method and class body, so
imports and module-level assignments count in neither."""

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import gridwindows  # noqa: E402
from gridwindows.serialize import canon_dumps  # noqa: E402
from test_cli import PINNED  # noqa: E402
from test_verifier import run_quiet  # noqa: E402

PKG = Path(gridwindows.__file__).parent


def executable_lines():
    """(file, line) of every line in the line table of each code object
    below module level, in every module of the package."""
    lines = set()
    for path in sorted(PKG.glob("*.py")):
        stack = [c for c in compile(path.read_text(), str(path), "exec").co_consts
                 if hasattr(c, "co_lines")]
        while stack:
            code = stack.pop()
            lines.update((str(path), line) for _s, _e, line in code.co_lines() if line is not None)
            stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def trusted_lines(tmp):
    """(file, line) of every package line run by an honest verify of each
    PINNED certificate; each build and verify must exit 0."""
    ran = set()
    pkg = str(PKG)

    def tracer(frame, event, _arg):
        if not frame.f_code.co_filename.startswith(pkg):
            return None
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return tracer

    for k, (cmd, spec, *_hashes) in enumerate(PINNED):
        out = tmp / str(k)
        (tmp / "spec.json").write_text(canon_dumps(spec))
        assert run_quiet([cmd, "--spec", str(tmp / "spec.json"), "--out", str(out)]) == 0
        sys.settrace(tracer)
        try:
            code = run_quiet(["verify", "--spec", str(out / "certificate.json")])
        finally:
            sys.settrace(None)
        assert code == 0, (cmd, spec)
    return ran


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        ran = trusted_lines(Path(tmp))
    total = executable_lines()
    print(f"trusted {len(ran & total)} of {len(total)}")
