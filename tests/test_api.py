"""The package's public names, and the ones the benchmark in ``perfbench/`` uses.

The benchmark wraps a fixed list of entry points per module and drives the
pipeline through ``origeo``'s top-level names.  These tests read those
files as text, without importing them, so that removing or renaming a name
the benchmark relies on fails here.  ``origeo.__all__`` is kept to the
error classes, the core types and the operations the command line runs.

Most layers load on first use, so the tracer's contract is pinned too: each
layer it wraps is in ``sys.modules`` once ``origeo`` is imported, and a
function rebound on the module that defines it is the one that runs.
"""

import argparse
import ast
import dataclasses
import importlib
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import origeo
from origeo import checks, cli, geodesic, horo
from origeo.errors import SUITE_NAMES

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(origeo.__file__).resolve().parent
DATA = Path(__file__).resolve().parents[1] / "data"
GOLDEN = [str(DATA / name) for name in ("l-2-2.json", "xi-unit.json", "eta-unit.json")]


def _tracing_constant(name):
    tree = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        targets = getattr(node, "targets", [getattr(node, "target", None)])
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/tracing.py defines no {name}")


def _entry_points():
    table = _tracing_constant("ENTRY_POINTS")
    return [(layer, name) for layer, names in table.items() for name in names]


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


def _records():
    """Two equal constructions of each record type on the cold path, its
    fields, and whether it hashes."""
    from fractions import Fraction

    from origeo.origami import HORIZONTAL, VERTICAL, Cylinder

    def matrix():
        return origeo.IntersectionMatrix((((0, 1), (1, 1)), ((0, 1),)), ("A1", "A2"),
                                         ("B1", "B2"))

    def curve():
        return origeo.WeightedMulticurve(origeo.builtin("l-2-2"), VERTICAL,
                                         {"B1": Fraction(1), "B2": 0.5})

    def spec():
        return origeo.BusemannSpec(origeo.builtin("l-2-2"), HORIZONTAL,
                                   {"A2": Fraction(2)}, approx=True)

    return [
        (lambda: Cylinder(HORIZONTAL, "A1", (1, 2)), ("side", "label", "cells"), True),
        (lambda: origeo.builtin("l-2-2").summary(),
         ("n", "horizontal", "vertical", "cone_orders", "genus", "matrix"), True),
        (matrix, ("sparse_rows", "row_labels", "col_labels"), True),
        (curve, ("host", "side", "weights"), False),
        (spec, ("host", "side", "coeffs", "approx"), False),
    ]


@pytest.mark.parametrize(
    "make, fields, hashes", _records(),
    ids=["Cylinder", "ValidationSummary", "IntersectionMatrix", "WeightedMulticurve",
         "BusemannSpec"],
)
def test_records_are_read_only_and_compare_by_field(make, fields, hashes):
    record = make()
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    assert record == make()
    assert all(f"{name}=" in repr(record) for name in fields)
    if hashes:
        assert hash(record) == hash(make())


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


# each module of the package imports only from the modules before it here
LAYER_ORDER = ("errors", "origami", "multicurve", "intervals", "perron", "surface",
               "sampling", "geodesic", "horo", "checks", "cli")


def _origeo_imports(tree):
    """The origeo modules that a module's import statements name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            yield from [node.module] if node.module else (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("origeo."):
            yield node.module.split(".")[1]
        elif isinstance(node, ast.Import):
            yield from (a.name.split(".")[1] for a in node.names
                        if a.name.startswith("origeo."))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_each_module_imports_only_the_layers_below_it(path):
    """The package itself runs ``errors`` and ``origami`` only; every other
    layer reaches the rest through lazy modules."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    if path.stem == "__init__":
        below = {"errors", "origami"}
    else:
        below = set(LAYER_ORDER[:LAYER_ORDER.index(path.stem)])
    assert sorted(set(_origeo_imports(tree)) - below) == []


def test_every_private_function_is_referenced():
    """Deleting a path must not leave its ``_`` helpers behind: each
    ``_``-prefixed function or method is named somewhere in the package."""
    defined, named = set(), set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    private = {name for name in defined
               if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))}
    assert sorted(private - named) == []


def test_cli_only_parses_dispatches_and_prints():
    """Array work lives beside the row kernels, not in the command line:
    ``cli`` reaches the flat layer only through ``geodesic`` and ``horo``,
    and prints each payload as its layer built it, so it reads no surface
    to rebuild a header and assigns into no report."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    assert set(_imported_names(tree)).isdisjoint(
        {"surface", "intervals", "sampling", "random"})
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert used.isdisjoint({"Checks", "at"})
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "base_surface" not in read
    stores = [node for node in ast.walk(tree)
              if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)]
    assert stores == []


def _fresh(script):
    """The last stdout line of ``script`` in a new interpreter, read as JSON."""
    res = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", script],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def test_traced_layers_are_registered_at_import():
    """``import origeo`` puts every layer but ``cli`` in ``sys.modules``;
    the benchmark imports ``cli`` itself.  Each then resolves its entry
    points through ``vars()``, as the tracer does when it installs."""
    layers = _tracing_constant("LAYERS")
    assert "checks" in layers and "cli" in layers
    missing = _fresh(
        "import json, sys\n"
        "import origeo\n"
        f"missing = [l for l in {layers!r} if 'origeo.' + l not in sys.modules]\n"
        "from origeo import cli\n"
        f"for layer, name in {_entry_points()!r}:\n"
        "    owner, _, attr = name.rpartition('.')\n"
        "    module = sys.modules['origeo.' + layer]\n"
        "    if attr not in vars(getattr(module, owner) if owner else module):\n"
        "        missing.append(layer + '.' + name)\n"
        "print(json.dumps(missing))\n"
    )
    assert missing == ["cli"]


@pytest.fixture
def report(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert cli.main(["geodesic", *GOLDEN, "--out", str(path)]) == 0
    capsys.readouterr()
    return str(path)


@pytest.mark.parametrize(
    "module, name, command",
    [
        (geodesic, "optimal_geodesic", ["geodesic", *GOLDEN]),
        (geodesic, "line_from_report", ["flow", "REPORT", "--t-max", "0"]),
        (horo, "delta_probe", ["converge", "REPORT", "--n-max", "2"]),
        (checks, "run_suites", ["check", "--suite", "gauss"]),
    ],
    ids=["geodesic", "flow", "converge", "check"],
)
def test_function_rebound_on_its_module_is_the_one_cli_runs(
    monkeypatch, capsys, report, module, name, command
):
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(
        module, name, lambda *a, **k: calls.append(name) or original(*a, **k)
    )
    argv = [report if arg == "REPORT" else arg for arg in command]
    assert cli.main(argv) == 0
    assert calls == [name]


def test_package_names_are_read_from_their_layer(monkeypatch):
    assert origeo.point_at is geodesic.point_at
    stand_in = object()
    monkeypatch.setattr(geodesic, "point_at", stand_in)
    assert origeo.point_at is stand_in


def test_dir_and_star_import_list_every_public_name():
    assert set(origeo.__all__) <= set(dir(origeo))
    namespace = {}
    exec("from origeo import *", namespace)
    assert set(origeo.__all__) <= set(namespace)
    assert not hasattr(origeo, "no_such_name")


def test_a_submodule_imported_by_name_is_a_package_attribute():
    assert _fresh(
        "import json\n"
        "import origeo.checks\n"
        "print(json.dumps(origeo.checks.SUITE_NAMES))\n"
    ) == list(SUITE_NAMES)


def test_suite_help_lists_the_check_suites():
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in subparsers.choices["check"]._actions if a.dest == "suite")
    assert suite.help == ("run only matching suites (may repeat); known: "
                          + ", ".join(SUITE_NAMES))
