"""NumPy and origeo's heavy layers load at first use, not at import.

``origeo.errors.np`` is the one handle every module takes NumPy from.  A
cold ``validate`` or ``--help`` runs no array, so it must finish without
loading NumPy's submodules (``numpy`` itself is there, as the lazy module),
and the handle must be NumPy whichever of the two is imported first.  The
layers past ``origami`` are lazy modules of the same kind, and neither
command may run one of them.  ``fractions`` (which imports ``decimal``) is
one too: neither command builds an exact weight.  Nor does either import
``dataclasses`` or ``inspect``.
"""

import ast
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import origeo
from origeo import cli

SRC = Path(origeo.__file__).resolve().parent
DATA = Path(__file__).resolve().parents[1] / "data"
GOLDEN = [str(DATA / name) for name in ("l-2-2.json", "xi-unit.json", "eta-unit.json")]
# md5 of ``geodesic`` on the golden line's stdout
GOLDEN_GEODESIC_MD5 = "d74a457804b38c52049b74ec61c51608"
NUMPY_SUBMODULES = ("numpy._core", "numpy.linalg")
LAZY_LAYERS = ("geodesic", "surface", "horo", "perron", "checks", "sampling", "intervals",
               "multicurve")
EXACT_ARITHMETIC = ("fractions", "decimal")
# dataclasses imports inspect, ast, dis and tokenize; the records on the cold
# path are plain classes and NamedTuples, so neither command needs them
RECORD_MACHINERY = ("dataclasses", "inspect")


def _numpy_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names if a.name.split(".")[0] == "numpy")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "numpy":
                yield node.module


def _takes_np_from_errors(tree):
    return any(
        isinstance(node, ast.ImportFrom) and node.level == 1
        and node.module == "errors" and "np" in {a.name for a in node.names}
        for node in tree.body
    )


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "errors.py"),
    ids=lambda p: p.name,
)
def test_modules_take_numpy_from_errors(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert list(_numpy_imports(tree)) == []
    uses_np = any(isinstance(n, ast.Name) and n.id == "np" for n in ast.walk(tree))
    assert not uses_np or _takes_np_from_errors(tree)


def _cold(*args):
    """``python -m origeo.cli *args`` in a new interpreter, and the modules it
    imported (read from ``-X importtime``, which logs each one to stderr)."""
    res = subprocess.run(
        [sys.executable, "-X", "importtime", "-W", "error::RuntimeWarning",
         "-m", "origeo.cli", *args],
        capture_output=True,
        text=True,
    )
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in res.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "origeo.origami" in imported  # the log was read
    return res, imported


def test_cold_validate_loads_no_numpy_submodule(capsys):
    res, imported = _cold("validate", "--builtin", "l-2-2")
    assert res.returncode == 0
    assert imported.isdisjoint(NUMPY_SUBMODULES + EXACT_ARITHMETIC + RECORD_MACHINERY)
    assert cli.main(["validate", "--builtin", "l-2-2"]) == 0
    assert res.stdout == capsys.readouterr().out


def test_cold_validate_of_a_malformed_file_loads_no_numpy_submodule(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"squares": 3, "h": [2, 1], "v": [3, 2, 1]}')
    res, imported = _cold("validate", str(bad))
    assert res.returncode == 2
    assert "h must list images of all 3 cells" in res.stderr
    assert imported.isdisjoint(NUMPY_SUBMODULES)


def test_cold_help_loads_no_numpy_submodule():
    res, imported = _cold("--help")
    assert res.returncode == 0
    assert "validate" in res.stdout
    assert imported.isdisjoint(NUMPY_SUBMODULES + EXACT_ARITHMETIC + RECORD_MACHINERY)


def _run(script):
    res = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", script],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_numpy_imported_first_is_the_handle():
    _run(
        "import numpy\n"
        "import origeo.errors\n"
        "assert origeo.errors.np is numpy\n"
    )


def test_origeo_imported_first_shares_one_working_numpy():
    out = _run(
        "import sys\n"
        "from origeo import cli\n"
        "from origeo.errors import np\n"
        "assert 'numpy._core' not in sys.modules\n"
        "import numpy\n"
        "assert np is numpy is sys.modules['numpy']\n"
        "assert numpy.linalg.norm(np.array([3.0, 4.0])) == 5.0\n"
        f"sys.exit(cli.main(['geodesic', *{GOLDEN!r}]))\n"
    )
    assert hashlib.md5(out.encode()).hexdigest() == GOLDEN_GEODESIC_MD5


def _layers_run_by(*args):
    """Run ``cli.main(args)`` in a new interpreter; return its exit code, the
    lazy layers that ran and which of ``EXACT_ARITHMETIC`` ran.  A lazy
    module's type is not ``ModuleType`` until it loads, and reading the type
    does not load it."""
    out = _run(
        "import json, sys, types\n"
        "from origeo import cli\n"
        "try:\n"
        f"    code = cli.main({list(args)!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        f"ran = [n for n in {LAZY_LAYERS!r}\n"
        "       if type(sys.modules['origeo.' + n]) is types.ModuleType]\n"
        f"exact = [n for n in {EXACT_ARITHMETIC!r}\n"
        "         if type(sys.modules.get(n)) is types.ModuleType]\n"
        "print(json.dumps([code, ran, exact]))\n"
    )
    code, ran, exact = json.loads(out.splitlines()[-1])
    return code, set(ran), set(exact)


@pytest.mark.parametrize("args", [("validate", "--builtin", "l-2-2"), ("--help",)])
def test_cold_command_runs_no_lazy_layer(args):
    assert _layers_run_by(*args) == (0, set(), set())


def test_cold_geodesic_runs_the_layers_it_calls():
    code, ran, exact = _layers_run_by("geodesic", *GOLDEN)
    assert code == 0
    assert {"geodesic", "perron", "surface"} <= ran
    assert "checks" not in ran
    assert exact == set(EXACT_ARITHMETIC)  # the specs' coefficients are exact
