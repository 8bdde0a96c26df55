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
