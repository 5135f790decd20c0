"""Tests of the benchmark itself: inputs, relabelling, exit classes, output.

Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q -p no:benchmark
"""

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import ledger  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from origeo import cli, errors  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(name):
    first = workloads.generate(name, 3).fingerprint()
    assert workloads.generate(name, 3).fingerprint() == first
    assert workloads.generate(name, 4).fingerprint() != first


def test_seed_zero_is_the_baseline_family():
    import random

    from origeo import sampling

    o, _, _ = sampling.random_full_instance(random.Random("40:3"), (40, 40))
    doc = dict(workloads.random_full_inputs(0))["n40-s3"]
    assert doc["origami"] == {"squares": 40, "h": list(o.h), "v": list(o.v)}


def _isomorphism(a: dict, b: dict):
    """A cell bijection phi with phi h = h' phi and phi v = v' phi, or None."""
    n = a["squares"]
    for target in range(1, n + 1):
        phi = {1: target}
        frontier = [1]
        ok = True
        while frontier and ok:
            cell = frontier.pop()
            for perm, image in ((a["h"], b["h"]), (a["v"], b["v"])):
                src, dst = perm[cell - 1], image[phi[cell] - 1]
                if src not in phi:
                    phi[src] = dst
                    frontier.append(src)
                elif phi[src] != dst:
                    ok = False
        if ok and len(set(phi.values())) == n:
            return phi
    return None


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("n", workloads.STAIRCASE_SIZES)
def test_relabelled_staircase_is_isomorphic(seed, n):
    original = workloads.staircase(n)
    relabelled = workloads.staircase_inputs(seed, n)["origami"]
    assert _isomorphism(original, relabelled) is not None
    assert (seed == 0) == (relabelled == original)
    hor, ver = oracles.cycles(original["h"]), oracles.cycles(original["v"])
    assert (len(hor), len(ver)) == (n // 2, n // 2 + 1)


def test_isomorphism_search_rejects_a_different_origami():
    a = workloads.staircase(20)
    b = dict(a, v=list(range(1, 21)))
    b["v"][0], b["v"][19] = 20, 1
    assert _isomorphism(a, b) is None


def _error_classes():
    return [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
            if issubclass(cls, Exception) and cls.__module__ == errors.__name__]


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda c: c.__name__)
def test_classifier_agrees_with_the_cli_exit_code(cls, monkeypatch):
    def raising(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "cmd_validate", raising)
    code = cli.main(["validate", "--builtin", "l-2-2"])
    assert ledger.classify(cls("boom")) == ledger.classify_exit_code(code)
    assert code in (2, 3, 4, 5)


def test_documented_codes():
    assert ledger.classify(errors.ComplexityError("x")) == "2"
    assert ledger.classify(errors.NotPrimitiveError("x")) == "3"
    assert ledger.classify(errors.NoConvergenceError("x")) == "4"
    assert ledger.classify(errors.CertificationError("x")) == "5"
    assert ledger.classify(None) == "0"


@pytest.mark.parametrize("exc", [OverflowError("x"), KeyError("x"), ValueError("x")])
def test_other_exceptions_are_crashes(exc, monkeypatch):
    def raising(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_validate", raising)
    with pytest.raises(type(exc)):
        cli.main(["validate", "--builtin", "l-2-2"])
    assert ledger.classify(exc) == "crash"


@pytest.mark.parametrize("name", ["random-full", "staircase"])
def test_seed_zero_reproduces_the_baseline_outcomes(name, tmp_path):
    runner = harness.Runner(workloads.generate(name, 0), str(tmp_path))
    assert runner.run(0.0).ledger.matches_baseline(name)
    assert runner.checker.mismatches == []


def test_failed_counts_each_operation_once_however_many_passes():
    book = ledger.Ledger()
    for _ in range(3):
        book.start_pass()
        book.record(ledger.Outcome("a", "0", None, 5, True))
        book.record(ledger.Outcome("b", "4", "NoConvergenceError", 2000, False))
        book.record(ledger.Outcome("c", "crash", "OverflowError", None, False))
        assert book.failed() == 2


def _golden_op():
    doc = dict(workloads.flow_cli_lines(0))["golden"]
    return workloads.Op("golden", "pipeline", json.dumps(dict(doc, s=-1.0, t=2.0)))


def test_oracles_reject_a_wrong_certified_answer(tmp_path):
    op = _golden_op()
    checker = harness.Checker(str(tmp_path))
    values = workloads.run_pipeline(op.inputs)
    assert checker.pipeline(op, values) == []
    assert checker.pipeline(op, dict(values, **{"lambda": values["lambda"] * (1 + 1e-8)}))
    forward = dict(values["forward"], B1=1.0)
    assert checker.pipeline(op, dict(values, forward=forward))
    assert checker.pipeline(op, dict(values, distance=values["distance"] + 1e-9))


def test_tracer_records_spans_and_restores_entry_points():
    modules = {k: dict(vars(m)) for k, m in sys.modules.items()
               if k == "origeo" or k.startswith("origeo.")}
    init = vars(workloads.og.Origami)["__init__"]
    with tracing.Tracer() as tracer:
        tracer.active = True
        workloads.run_pipeline(_golden_op().inputs)
        tracer.active = False
    assert tracer.missing == []
    assert tracer.calls["optimal_geodesic"] == 1 and tracer.calls["perron_solve"] == 1
    assert tracer.perron_iterations == [15] and tracer.perron_k == [2]
    assert 0 < tracer.layer_self["geodesic"] < tracer.layer_busy["geodesic"]
    assert tracer.layer_busy["perron"] <= tracer.busy["optimal_geodesic"]
    assert vars(workloads.og.Origami)["__init__"] is init
    for key, namespace in modules.items():
        assert all(vars(sys.modules[key])[name] is value
                   for name, value in namespace.items()), key


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_prints_every_metric_with_its_unit(trace, key):
    proc = _run(["--workload", "flow-cli", "--seed", "1", "--seconds", "0.01",
                 "--trace", trace])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "selfcheck", "--seed", "0", "--seconds", "1"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
