"""Span tracing from outside the program, for the benchmark's traced run.

``Tracer.install`` wraps the public functions of each layer and puts the
wrapper in every ``gridwindows`` module namespace that binds the original,
so calls between layers (``mincolor`` calling its imported
``check_shift_witness``, ``cli`` calling its imported ``canon_dumps``) are
seen too. A span records its name, start, end, parent span and operation
id. Spans stay in memory; ``write`` puts them in a JSON-lines file when the
run ends. A layer's self time is a span's duration minus the time its
direct child spans cover; the metrics are those self times summed per name.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

PACKAGE = "gridwindows"


def _count_validate(tr, args, result):
    c = args[0]
    tr.counts["mincolor.validate_calls"] += 1
    tr.counts["witness.clause_evals"] += len(c.shifts) + 2 * len(c.patterns)
    pid = id(c.p)
    for (t, _T) in c.shifts:
        tr.clauses.add((pid, "a", tuple(t)))
    for (f, _F) in c.patterns:
        tr.clauses.add((pid, "b", id(f), False))
        tr.clauses.add((pid, "b", id(f), True))


def _count_shift_check(tr, args, result):
    p, t, T = args[:3]
    tr.counts["witness.clause_evals"] += 1
    tr.counts["witness.offsets"] += len(T)
    tr.clauses.add((id(p), "a", tuple(t)))


def _count_pattern_check(tr, args, result):
    p, f, F, flipped = args[:4]
    tr.counts["witness.clause_evals"] += 1
    if not flipped:
        tr.counts["witness.offsets"] += len(F)
    tr.clauses.add((id(p), "b", id(f), bool(flipped)))


def _count_cert_dump(tr, args, result):
    data = args[0]
    if isinstance(data, dict) and data.get("kind") in ("mt", "gp"):
        tr.counts["serialize.cert_bytes"] += len(result) + 1  # written with "\n"


def _count_cells_self(tr, args, result):
    tr.counts["grid.cells"] += args[0].rect.area


def _count_cells_result(tr, args, result):
    tr.counts["grid.cells"] += result.rect.area


def _count_points(tr, args, result):
    tr.counts["geometry.rect_points_cells"] += len(result)


def _count_mt_verify(tr, args, result):
    tr.counts["witness.verified_cells"] += args[0].final.p.rect.area


def _count_stage(tr, args, result):
    tr.counts["gridperiod.stage_classes"] += int(args[1]) * int(args[2])


def _count_gp_verify(tr, args, result):
    tr.counts["gridperiod.verified_cells"] += args[0].final.p.rect.area


def _count_toast(tr, args, result):
    tr.counts["markers.classes"] += sum(len(level) for level in args[0].levels)


# (module, attribute or Class.method, span name, counter). A span name ending
# in ".self" marks a function that mostly calls other traced layers.
TARGETS = (
    ("cli", "cmd_build_mt", "cli.build.self", None),
    ("cli", "cmd_build_gp", "cli.build.self", None),
    ("cli", "cmd_verify", "cli.verify.self", None),
    ("cli", "cmd_toast", "cli.check.self", None),
    ("cli", "cmd_markers", "cli.check.self", None),
    ("serialize", "canon_dumps", "serialize.canon_dumps", _count_cert_dump),
    ("serialize", "pgm_dumps", "serialize.pgm_dumps", None),
    ("grid", "Config.from_rows", "grid.from_rows", _count_cells_result),
    ("grid", "Config.rows", "grid.rows", _count_cells_self),
    ("grid", "Config.to_pgm", "grid.to_pgm", _count_cells_self),
    ("grid", "tile", "grid.tile", _count_cells_result),
    ("grid", "find_occurrences", "grid.find_occurrences", None),
    # The witness layer calls the occurrence search under its private name.
    ("grid", "_match_offsets", "grid.find_occurrences", None),
    ("geometry", "Rect.points", "geometry.rect_points", _count_points),
    ("mincolor", "build_generic", "mincolor.build_generic.self", None),
    ("mincolor", "extend_shift", "mincolor.extend_shift", None),
    ("mincolor", "extend_cover", "mincolor.extend_cover", None),
    ("mincolor", "extend_pattern", "mincolor.extend_pattern", None),
    ("mincolor", "validate", "mincolor.validate", _count_validate),
    ("mincolor", "is_extension", "mincolor.is_extension", None),
    ("mincolor", "verify_certificate", "mincolor.verify_certificate.self", _count_mt_verify),
    ("mincolor", "Certificate.to_json", "mincolor.cert_to_json", None),
    ("mincolor", "Certificate.from_json", "mincolor.cert_from_json", None),
    ("witness", "check_shift_witness", "witness.check_shift_witness", _count_shift_check),
    ("witness", "window_two_coloring_check", "witness.window_two_coloring_check", None),
    ("witness", "check_pattern_witness", "witness.check_pattern_witness", _count_pattern_check),
    ("gridperiod", "build_generic_gp", "gridperiod.build_generic_gp.self", None),
    ("gridperiod", "extend_tile_gp", "gridperiod.extend_tile_gp", None),
    ("gridperiod", "verify_grid_periodicity", "gridperiod.verify_grid_periodicity", _count_stage),
    ("gridperiod", "is_extension_gp", "gridperiod.is_extension_gp", None),
    ("gridperiod", "detect_line_period", "gridperiod.detect_line_period", None),
    ("gridperiod", "verify_gp_certificate", "gridperiod.verify_gp_certificate.self", _count_gp_verify),
    ("gridperiod", "GpCertificate.to_json", "gridperiod.cert_to_json", None),
    ("gridperiod", "GpCertificate.from_json", "gridperiod.cert_from_json", None),
    ("markers", "check_toast", "markers.check_toast", _count_toast),
    ("markers", "fx_profile", "markers.fx_profile", None),
    ("markers", "check_fx_strict_growth", "markers.check_fx_strict_growth.self", None),
    ("markers", "check_segment_center_cover", "markers.check_segment_center_cover", None),
    ("markers", "check_partition_props", "markers.check_partition_props", None),
    ("markers", "build_shifted_stack", "markers.build_shifted_stack", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for (_m, _a, name, _c) in TARGETS))

COUNT_NAMES = (
    "serialize.cert_bytes",
    "grid.cells",
    "geometry.rect_points_cells",
    "mincolor.validate_calls",
    "witness.offsets",
    "markers.classes",
    "gridperiod.stage_classes",
)


class Tracer:
    """Records spans only while an operation is open (``begin_op``), so the
    benchmark's own checks between operations stay out of the trace."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.stack = []
        self.op = None
        self.counts = defaultdict(float)
        self.clauses = set()
        self._undo = []

    # ---------------------------------------------------------------- spans

    def begin_op(self, op_id):
        self.op = op_id
        self.clauses = set()
        self.stack = [len(self.spans)]
        self.spans.append(["op", time.perf_counter(), None, -1, op_id])

    def end_op(self):
        self.spans[self.stack[0]][2] = time.perf_counter()
        self.counts["witness.distinct_clauses"] += len(self.clauses)
        self.stack = []
        self.op = None

    def _wrap(self, fn, name, count):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            span = [name, 0.0, None, tracer.stack[-1], tracer.op]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if count is not None:
                count(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # --------------------------------------------------------- installation

    def install(self):
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for mod_name, attr, name, count in TARGETS:
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name, count))
                else:
                    new = self._wrap(raw, name, count)
                setattr(cls, meth, new)
                self._undo.append((cls, meth, raw))
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(orig, name, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo = []

    # --------------------------------------------------------------- output

    def _self_times(self):
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_n, start, end, _p, _o) in enumerate(self.spans)]

    def self_ms(self):
        """Summed self time per span name, in milliseconds."""
        total = defaultdict(float)
        for span, own in zip(self.spans, self._self_times()):
            total[span[0]] += own * 1e3
        return total

    def op_self_ms(self, op_ids):
        """Self time of every span inside the given operations except the
        operations' own roots, in milliseconds."""
        wanted = set(op_ids)
        return sum(
            own * 1e3
            for span, own in zip(self.spans, self._self_times())
            if span[4] in wanted and span[0] != "op"
        )

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")
