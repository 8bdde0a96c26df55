"""Command line front end.

Subcommands run a build schedule from a JSON spec (build-mt, build-gp),
re-check a saved certificate (verify), or evaluate the standalone checkers
(toast, markers). Build artifacts are written with canonical JSON so reruns
are byte-identical.

Exit codes: 0 the command ran (for toast/markers the verdict is in the
report), 2 bad spec or invalid request, 3 a resource limit was hit,
4 verification failed.

Each command runs with the cyclic garbage collector paused, then restored
as the caller had it. No command makes a reference cycle (tests check that
``gc.collect()`` finds none after each), so reference counting frees all
it drops, and the collector would only re-walk the lists just decoded.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import gridperiod, mincolor
from .errors import ResourceLimitError, check_side
from .geometry import Rect
from .grid import Config
from .markers import (
    RectPartition,
    Toast,
    build_shifted_stack,
    check_partition_props,
    check_segment_center_cover,
    toast_report,
)
from .schedule import parse_schedule, read_bool, read_int, read_limits, read_point
from .serialize import Raw, canon_dumps, construct, fail, pgm_dumps, read_records

DEFAULT_LIMITS = {"max_side": 512, "max_steps": 256}


def _load_json(path):
    """The JSON object in the file; any other top-level value exits 2."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("JSON nests too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    return data


def _verdict(report):
    """Print a verifier's report; exit 0 when it passes, else 4. A report
    holds no Box and no Raw, so this is the text ``canon_dumps`` writes."""
    print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    return 0 if report["ok"] else 4


def _limits(spec, args):
    limits = read_limits(spec.get("limits", {}), DEFAULT_LIMITS)
    for key in DEFAULT_LIMITS:
        if getattr(args, key) is not None:
            limits[key] = getattr(args, key)
    return limits


def _family(kind):
    """(op table, builder, certificate class, verifier) of a family, looked
    up at call time so wrappers installed on the family modules apply."""
    if kind == "mt":
        return (mincolor.STEPS, mincolor.build_generic, mincolor.Certificate,
                mincolor.verify_certificate)
    if kind == "gp":
        return (gridperiod.STEPS, gridperiod.build_generic_gp, gridperiod.GpCertificate,
                gridperiod.verify_gp_certificate)
    raise fail("kind", f"unknown certificate kind {kind!r}")


def _hole_lattice_pgm(final, seed):
    """Mask of the residue class carrying the hole, in the seed block size."""
    rect = final.p.rect
    ux, uy = final.u
    w, h = seed.p.rect.width, seed.p.rect.height
    xs = (np.arange(rect.lo[0], rect.hi[0] + 1) - ux) % w == 0
    ys = (np.arange(rect.hi[1], rect.lo[1] - 1, -1) - uy) % h == 0
    return pgm_dumps(np.outer(ys, xs), 1)


def _write_file(path, *chunks):
    """Write the chunks (texts or bytes) over the file's old bytes, then cut it to their
    length: truncating to zero first makes ext4 flush the file on close (``auto_da_alloc``)."""
    with open(path, "wb", opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)) as fh:
        for chunk in chunks:
            fh.write(chunk.encode() if isinstance(chunk, str) else chunk)
        fh.truncate()


def _build(args, kind):
    spec = _load_json(args.spec)
    if kind == "mt":
        seed = mincolor.MtCondition(
            p=Config.from_json(spec.get("seed"), "seed"),
            shifts=(),
            patterns=(),
            odd_mode=read_bool(spec.get("odd", False), "odd"),
        )
    else:
        seed = gridperiod.GpCondition.from_json(spec.get("seed"), "seed")
    steps, build, _cert_cls, verify = _family(kind)
    cert = build(seed, parse_schedule(spec.get("schedule", []), steps), _limits(spec, args))
    report = verify(cert)
    window = cert.final.p
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # Each Box witness set is written from its bounds. The final window is
    # dumped once for both files, and freed before rendering.
    data = cert.doc()
    text = data["final"]["p"] = Raw(canon_dumps(data["final"]["p"]))
    _write_file(out / "window.json", text, "\n")
    _write_file(out / "certificate.json", canon_dumps(data), "\n")
    del data, text
    if args.format == "pgm":
        _write_file(out / "window.pgm", window.to_pgm())
        if kind == "gp":
            _write_file(out / "hole_lattice.pgm", _hole_lattice_pgm(cert.final, seed))
    elif args.format == "ascii":
        _write_file(out / "window.txt", window.to_ascii())
    return _verdict(report)


def cmd_build_mt(args):
    return _build(args, "mt")


def cmd_build_gp(args):
    return _build(args, "gp")


def cmd_verify(args):
    data = _load_json(args.spec)
    *_, cert_cls, verify = _family(data.get("kind"))
    return _verdict(verify(cert_cls.from_json(data)))


def _probes(spec):
    """The spec's probes as (x, y) tuples, in order."""
    probes = spec.get("probes", [])
    if not isinstance(probes, list):
        raise ValueError("probes: expected a list of points")
    return [read_point(g, f"probes[{i}]") for i, g in enumerate(probes)]


def _toast_pgm(t):
    """Depth map of the toast: each window cell's highest level + 1, else 0."""
    win = t.window
    lo_x, hi_y = win.lo[0], win.hi[1]
    depth = np.zeros((win.height, win.width), dtype=np.int64)
    # Levels ascend, so a cell's last write is its highest level. Offsets are
    # taken in Python, so far-out coordinates never reach numpy.
    for n, level in enumerate(t.levels):
        cells = [(hi_y - y, x - lo_x) for cl in level for (x, y) in cl if win.contains((x, y))]
        if cells:
            depth[tuple(zip(*cells))] = n + 1
    return pgm_dumps(depth, max(1, len(t.levels)))


def cmd_toast(args):
    spec = _load_json(args.spec)
    t = Toast.from_json(spec.get("toast"), "toast")
    report = toast_report(t, _probes(spec))
    if args.out is not None and args.format == "pgm":
        check_side(max(t.window.width, t.window.height), DEFAULT_LIMITS["max_side"])
        if len(t.levels) > 65535:  # a P2 maxval is at most 65535
            raise ValueError(f"toast.levels: a PGM holds at most 65535 levels, got {len(t.levels)}")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_file(out / "toast.pgm", _toast_pgm(t))
    print(canon_dumps(report))
    return 0


def _markers_stack(args, spec):
    a = read_int(spec.get("a"), "a")
    if a < 0:
        raise fail("a", f"a must be >= 0, got {a}")
    m = 2 * a + 1
    side = read_int(spec.get("side", 5 * m * m), "side")
    # a is checked above, so a window too small for the long segment is the side's fault.
    win = construct("side", Rect.from_bounds, 0, side - 1, 0, side - 1)
    long_ok, _ = construct("side", check_segment_center_cover, a, win, 2 * m * m + 1)
    short_ok, _ = check_segment_center_cover(a, win, m)
    report = {
        "a": a,
        "window": win.to_json(),
        "threshold": 2 * m * m,
        "segment_pass": {"len": 2 * m * m + 1, "ok": long_ok},
        "segment_short": {"len": m, "ok": short_ok},
    }
    if args.out is not None and args.format == "pgm":
        # The segment checks above need side > 2m^2, so the marker is smaller.
        check_side(side, DEFAULT_LIMITS["max_side"])
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        bits = np.zeros((m, m), dtype=np.uint8)
        bits[a, a] = 1
        marker = Config._trusted(Rect.from_bounds(-a, a, -a, a), bits)
        _write_file(out / "stack.pgm", build_shifted_stack(marker, side - 1).to_pgm())
    print(canon_dumps(report))
    return 0


def _markers_partitions(args, spec):
    # The shared window is read first, so its errors name its own path.
    window = spec.get("window")
    Rect.from_json(window, "window")
    parts = [RectPartition.from_json(dict(entry, window=window), path)
             for path, entry in read_records(spec.get("levels"), "levels")]
    print(canon_dumps(check_partition_props(parts, _probes(spec))))
    return 0


def cmd_markers(args):
    spec = _load_json(args.spec)
    demo = spec.get("demo")
    if demo == "shifted_stack":
        return _markers_stack(args, spec)
    if demo == "partitions":
        return _markers_partitions(args, spec)
    raise fail("demo", f"unknown markers demo {demo!r}")


@functools.cache
def build_parser():
    """The parser of the process: built on the first call, then reused."""
    parser = argparse.ArgumentParser(
        prog="gridwin",
        description="Build, check and render certified window extensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required):
        p.add_argument("--spec", required=True, help="path to a JSON spec")
        p.add_argument("--out", required=out_required, default=None,
                       help="directory for artifacts")
        p.add_argument("--format", choices=("json", "pgm", "ascii"),
                       default="json", help="extra window rendering")

    for name, helptext in (
        ("build-mt", "run a two-coloring build schedule"),
        ("build-gp", "run a grid-periodicity build schedule"),
    ):
        p = sub.add_parser(name, help=helptext)
        common(p, True)
        p.add_argument("--max-side", type=int, default=None,
                       help="override the spec's window side limit")
        p.add_argument("--max-steps", type=int, default=None,
                       help="override the spec's schedule length limit")

    p = sub.add_parser("verify", help="re-check a saved certificate")
    p.add_argument("--spec", required=True, help="path to certificate.json")

    p = sub.add_parser("toast", help="check a toast spec")
    common(p, False)

    p = sub.add_parser("markers", help="run a marker demo")
    common(p, False)
    return parser


def main(argv=None):
    """Run one ``gridwin`` command and return its exit code. Can be called
    any number of times in one process."""
    args = build_parser().parse_args(argv)
    # Subcommand x-y runs cmd_x_y, looked up at call time like ``_family``,
    # so wrappers installed on this module after the first call apply.
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    collecting = gc.isenabled()
    gc.disable()
    try:
        return handler(args)
    except (ResourceLimitError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
