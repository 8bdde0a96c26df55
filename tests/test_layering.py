"""Module layering: which package modules each module may import.

JSON values are read and written in ``serialize``, which needs only
``geometry``. The window modules and the standalone checkers never import
the build driver or the condition families. Every name a module imports
is used in it.
"""

import ast
from pathlib import Path

import pytest

import gridwindows
from gridwindows import schedule, serialize

PACKAGE = Path(gridwindows.__file__).parent


def package_imports(module):
    """The package modules named by ``from .x import`` in the module's source."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return {node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1}


@pytest.mark.parametrize("module,allowed", [
    ("geometry", set()),
    ("errors", set()),
    ("serialize", {"geometry"}),
])
def test_base_modules_import_no_other_package_module(module, allowed):
    assert package_imports(module) <= allowed


@pytest.mark.parametrize("module", ["grid", "witness", "markers"])
def test_window_modules_import_no_driver(module):
    assert not package_imports(module) & {"schedule", "mincolor", "gridperiod", "cli"}


@pytest.mark.parametrize("name", ["is_int", "is_point", "read_int", "read_point", "read_bool",
                                  "read_list", "read_points", "read_limits"])
def test_readers_still_import_from_schedule(name):
    reader = getattr(schedule, name)
    assert callable(reader)
    # A moved reader is serialize's own, not a copy.
    assert name == "read_limits" or reader is getattr(serialize, name)


def imported_names(tree, lines):
    """The names a module's imports bind, but ``__future__`` features and
    imports marked ``noqa: F401`` (kept on purpose, for re-export)."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            yield (alias.asname or alias.name).split(".")[0]


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_every_imported_name_is_used(module):
    source = (PACKAGE / f"{module}.py").read_text()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # A name listed in ``__all__`` is used by being exported.
    used |= {elt.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and any(getattr(t, "id", None) == "__all__" for t in node.targets)
             for elt in node.value.elts}
    assert not set(imported_names(tree, source.splitlines())) - used
