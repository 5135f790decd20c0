"""The package's public names, and the ones the benchmark in ``perfbench/`` uses.

The benchmark wraps a fixed list of entry points per module and drives the
pipeline through ``origeo``'s top-level names.  These tests read those
files as text, without importing them, so that removing or renaming a name
the benchmark relies on fails here.  ``origeo.__all__`` is kept to the
error classes, the core types and the operations the command line runs.
"""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

import origeo

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(origeo.__file__).resolve().parent


def _entry_points():
    tree = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        target = getattr(node, "target", None)
        if isinstance(target, ast.Name) and target.id == "ENTRY_POINTS":
            table = ast.literal_eval(node.value)
            return [(layer, name) for layer, names in table.items() for name in names]
    raise AssertionError("perfbench/tracing.py defines no ENTRY_POINTS")


def _top_level_names():
    names = set()
    for script in ("workloads.py", "harness.py"):
        text = (PERFBENCH / script).read_text(encoding="utf-8")
        names |= set(re.findall(r"\bog\.(\w+)", text))
    return sorted(names)


@pytest.mark.parametrize("layer, name", _entry_points())
def test_traced_entry_point_resolves(layer, name):
    target = importlib.import_module(f"origeo.{layer}")
    for part in name.split("."):
        target = getattr(target, part)
    assert callable(target)


@pytest.mark.parametrize("name", _top_level_names())
def test_benchmark_top_level_name_exists(name):
    assert hasattr(origeo, name)
    assert name in origeo.__all__


def test_public_names_resolve_once():
    assert len(set(origeo.__all__)) == len(origeo.__all__)
    for name in origeo.__all__:
        assert hasattr(origeo, name), name


def test_public_surface_stays_small():
    assert len(origeo.__all__) <= 40


def test_benchmark_hooks_were_found():
    assert len(_entry_points()) >= 30
    names = set(_top_level_names())
    assert {"optimal_geodesic", "distance_interval", "point_at"} <= names


@pytest.mark.parametrize(
    "module, name, removed",
    [
        ("perron", "perron_solve", {"seed"}),
        ("geodesic", "optimal_geodesic", {"seed", "origami"}),
        ("horo", "psi_interior", {"family"}),
        ("horo", "miyachi_intersection", {"family"}),
        ("sampling", "random_surface", {"max_num", "max_den"}),
        ("sampling", "random_fraction", {"max_num", "max_den"}),
        ("geodesic", "ray_limit", {"curves"}),
        ("horo", "lower_bound_audit", {"curves"}),
        ("horo", "delta_probe", {"curves"}),
        ("horo", "minsky_audit", {"pairs"}),
        ("horo", "busemann_interval", {"x0"}),
        ("surface", "foliation_ext", {"side"}),
    ],
)
def test_unread_parameters_stay_removed(module, name, removed):
    function = getattr(importlib.import_module(f"origeo.{module}"), name)
    assert not removed & set(inspect.signature(function).parameters)


def test_geodesic_line_has_no_seed():
    from origeo.geodesic import GeodesicLine

    assert "seed" not in {f.name for f in dataclasses.fields(GeodesicLine)}


def _imported_names(tree):
    """Each name an import binds in the module, except ``__future__`` ones."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name.split(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((a.asname or a.name) for a in node.names)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    """No linter runs here; deleting an option must not leave its imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(origeo.__all__) if path.name == "__init__.py" else set()
    assert sorted(set(_imported_names(tree)) - used - exported) == []
