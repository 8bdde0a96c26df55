"""The benchmark's traced run wraps functions by name (bench/spans.py); a
refactor that renames or moves one of them must fail here, not silently in
``python3 bench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    spans = load_spans()
    missing = []
    for mod_name, attr, _name, _count in spans.TARGETS:
        module = importlib.import_module(f"{spans.PACKAGE}.{mod_name}")
        owner, _, name = attr.rpartition(".")
        if owner:
            # The tracer replaces the entry in the class's own __dict__.
            found = hasattr(module, owner) and name in vars(getattr(module, owner))
        else:
            found = callable(getattr(module, name, None))
        if not found:
            missing.append(f"{mod_name}.{attr}")
    assert missing == []


def test_span_target_classes_are_distinct():
    # Two names bound to one class would get the same method wrapped twice,
    # mixing the span names of both families.
    spans = load_spans()
    owners = {}
    for mod_name, attr, _name, _count in spans.TARGETS:
        owner, _, _meth = attr.rpartition(".")
        if owner:
            module = importlib.import_module(f"{spans.PACKAGE}.{mod_name}")
            owners[f"{mod_name}.{owner}"] = getattr(module, owner)
    assert len({id(cls) for cls in owners.values()}) == len(owners)


def test_tracer_sees_one_dump_span_per_written_file(tmp_path, capsys):
    # canon_dumps recurses through a private helper, so the traced run
    # counts each dump once: window.json and certificate.json. The report
    # is printed by json.dumps.
    from gridwindows import cli
    from test_cli import PINNED, write_spec

    spans = load_spans()
    spec = next(spec for (cmd, spec, _c, _r) in PINNED if cmd == "build-mt")
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        code = cli.main(["build-mt", "--spec", write_spec(tmp_path / "spec.json", spec),
                         "--out", str(tmp_path / "out")])
        tracer.end_op()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert [span[0] for span in tracer.spans].count("serialize.canon_dumps") == 2
    cert_bytes = (tmp_path / "out" / "certificate.json").stat().st_size
    assert tracer.counts["serialize.cert_bytes"] == cert_bytes
