"""Closed-loop runner, output checks and metrics for one benchmark run.

A single client runs the workload's operations one after another, in whole
passes over the workload, until the requested time has been spent.  Only the
operation itself is timed; checking its output against the oracles and
recording its outcome happen between operations.  A fixed reference work is
timed after every operation, so that latencies can also be given in units of
the reference time around them, which cancels most of a shared host's
changes in speed.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

import oracles
import tracing
import workloads
from ledger import Ledger, Outcome, classify, classify_exit_code

SETUP_REPEATS = 5
COLD_RUNS = 21
COLD_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "ops_per_kref": "1/kref",
    "op_p50_ref": "ref",
    "op_p90_ref": "ref",
    "certified_share": "share",
    "clean_exit_share": "share",
    "peak_rss_mb": "MB",
    "cli_cold_ref": "ref",
    "setup_s": "s",
}


class Checker:
    """Compares each operation's output with the independent oracles."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self._expected: Dict[str, dict] = {}
        self.mismatches: List[str] = []

    def _oracle(self, op: workloads.Op) -> dict:
        if op.name not in self._expected:
            inputs = json.loads(op.inputs)
            want = {}
            if "origami" in inputs:
                want["lambda"] = oracles.leading_eigenvalue(inputs)
                want["limits"] = oracles.limit_profiles(inputs)
            if op.name.startswith("staircase-") and op.kind == "pipeline":
                n = inputs["origami"]["squares"]
                canonical = dict(inputs, origami=workloads.staircase(n))
                # the relabelling must leave lambda unchanged
                self.mismatches += oracles.check_lambda(
                    want["lambda"], oracles.leading_eigenvalue(canonical),
                    f"{op.name} relabelled")
            if op.kind == "cli" and op.argv[0] == "geodesic":
                with open(os.path.join(self.workdir, workloads.report_file(op)),
                          encoding="utf-8") as fh:
                    want["report"] = fh.read()
            self._expected[op.name] = want
        return self._expected[op.name]

    def pipeline(self, op: workloads.Op, values: dict) -> List[str]:
        want = self._oracle(op)
        errors = oracles.check_lambda(values["lambda"], want["lambda"], op.name)
        errors += oracles.check_limits(values, want["limits"])
        if "distance" in values:
            inputs = json.loads(op.inputs)
            s, t, line = inputs["s"], inputs["t"], values["line"]
            bracket = workloads.og.distance_interval(
                workloads.og.point_at(line, s), workloads.og.point_at(line, t))
            errors += oracles.check_flow_distance(values["distance"], s, t, bracket)
        return errors

    def cli(self, op: workloads.Op, text: str) -> Tuple[List[str], bool, dict]:
        """Mismatches, whether the answer is certified, and counts for metrics."""
        command = op.argv[0]
        inputs = json.loads(op.inputs)
        if command == "geodesic":
            want = self._oracle(op)
            report = json.loads(text)
            errors = oracles.check_lambda(float(report["lambda"]), want["lambda"], op.name)
            if inputs["line"] == "golden":
                errors += oracles.check_golden_report(report)
            if text != want["report"]:
                errors.append(f"{op.name}: report differs from the set-up run")
            return errors, True, {}
        if command == "flow":
            rows = text.count("\n") - 1
            return oracles.check_flow_csv(text), True, {"rows": rows}
        if command == "converge":
            return oracles.check_converge(text), True, {}
        if command == "validate":
            return oracles.check_validate(text, inputs["origami"]), True, {}
        report = json.loads(text)  # check
        suites = report["suites"]
        errors = []
        if report["seed"] != inputs["seed"] or [s["name"] for s in suites] != [op.name]:
            errors.append(f"{op.name}: check ran {[s['name'] for s in suites]} "
                          f"with seed {report['seed']}")
        cases = sum(s["cases"] for s in suites)
        return errors, report["status"] == "pass", {"cases": cases}


class Runner:
    def __init__(self, workload: workloads.Workload, workdir: str) -> None:
        self.workload = workload
        self.workdir = workdir
        self.checker = Checker(workdir)

    def execute(self, op: workloads.Op, tracer: Optional[tracing.Tracer] = None):
        """Run one operation; return (seconds, outcome, counts)."""
        values, code, text, error = None, None, "", None
        if tracer is not None:
            tracer.active = True
        start = perf_counter()
        try:
            if op.kind == "pipeline":
                values = workloads.run_pipeline(op.inputs)
            else:
                code, text = workloads.run_cli(op.argv, self.workdir)
        except Exception as exc:  # every way an operation can end is an outcome
            error = exc
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.active = False

        if op.kind == "pipeline" or error is not None:
            exit_class = classify(error)
        else:
            exit_class = classify_exit_code(code)
        counts: dict = {}
        certified = exit_class == "0"
        iterations = None
        if op.kind == "pipeline":
            if values is not None:
                iterations = values["iterations"]
                self.checker.mismatches += self.checker.pipeline(op, values)
            else:
                iterations = getattr(error, "iterations", None)
        elif exit_class == "0":
            errors, certified, counts = self.checker.cli(op, text)
            self.checker.mismatches += errors
            if op.argv[0] == "geodesic":
                iterations = json.loads(text)["iterations"]
        outcome = Outcome(op.name, exit_class,
                          type(error).__name__ if error is not None else None,
                          iterations, certified)
        return elapsed, outcome, counts

    def run(self, seconds: float, tracer: Optional[tracing.Tracer] = None) -> Measured:
        """Whole passes until ``seconds`` have elapsed; at least one pass.

        The reference work runs after every operation, so each operation is
        bracketed by two reference timings.
        """
        m = Measured()
        ref_before = reference_seconds()
        start = perf_counter()
        while True:
            m.ledger.start_pass()
            for op in self.workload.ops:
                before = tracer.busy["run_suites"] if tracer else 0.0
                elapsed, outcome, op_counts = self.execute(op, tracer)
                ref_after = reference_seconds()
                if tracer and op.argv[:1] == ("check",):
                    m.suite_ms[op.name].append(1e3 * (tracer.busy["run_suites"] - before))
                m.durations.append(elapsed)
                m.refs.append((ref_before + ref_after) / 2)
                ref_before = ref_after
                m.ledger.record(outcome)
                for key, value in op_counts.items():
                    m.counts[key] += value
            if perf_counter() - start >= seconds:
                return m


@dataclass
class Measured:
    """Operation times, the reference time around each, and the outcomes."""

    durations: List[float] = field(default_factory=list)
    refs: List[float] = field(default_factory=list)
    ledger: Ledger = field(default_factory=Ledger)
    counts: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    suite_ms: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))

    @property
    def ratios(self) -> List[float]:
        """Each operation's time in units of the reference work around it."""
        return [d / r for d, r in zip(self.durations, self.refs)]


_REFERENCE_MATRIX = np.arange(100, dtype=float).reshape(10, 10) / 100


def reference_seconds() -> float:
    """Time a fixed piece of work with the program's mix of operations.

    Dict updates, float arithmetic, Fraction sums and small NumPy
    matrix-vector products, about 0.3 ms on an idle 2.1 GHz core.  On a
    shared host the speed of a core changes by tens of percent within
    seconds; an operation's time divided by the reference time measured
    next to it cancels most of that, as long as this work never changes.
    """
    start = perf_counter()
    counts: Dict[int, int] = {}
    total, frac, x = 0.0, Fraction(0), np.ones(10)
    for i in range(120):
        counts[i % 17] = counts.get(i % 17, 0) + i
        total += (i * 0.5) ** 0.5
        if i % 6 == 0:
            frac += Fraction(i, 7)
        if i % 4 == 0:
            x = _REFERENCE_MATRIX @ x
            x = x / x.sum()
    return perf_counter() - start


def set_up(name: str, seed: int, workdir: str):
    """Generate inputs, write CLI files and warm up; return (workload, seconds)."""
    start = perf_counter()
    workload = workloads.generate(name, seed)
    workloads.write_files(workload, workdir)
    Runner(workload, workdir).execute(workload.ops[0])
    return workload, perf_counter() - start


def cold_cli(root: str, src: str) -> Tuple[List[float], List[float], List[str]]:
    """Wall times of ``python -m origeo.cli validate`` as a subprocess.

    Returns the times, the reference time around each, and any errors.  The
    benchmark and the child share one CPU while this runs, so that the
    reference work is timed on the core the child ran on.
    """
    env = dict(os.environ, PYTHONPATH=src)
    want = workloads.run_cli(("validate", "--builtin", "l-2-2"), root)[1]
    times, refs, errors = [], [], []
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        ref_before = reference_seconds()
        for _ in range(COLD_RUNS):
            start = perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "origeo.cli", "validate", "--builtin", "l-2-2"],
                cwd=root, env=env, capture_output=True, text=True,
                timeout=COLD_TIMEOUT_S)
            times.append(perf_counter() - start)
            ref_after = reference_seconds()
            refs.append((ref_before + ref_after) / 2)
            ref_before = ref_after
            if proc.returncode != 0 or proc.stdout != want:
                errors.append(f"cold validate exited {proc.returncode}: "
                              f"{proc.stderr[-200:]}")
    finally:
        os.sched_setaffinity(0, allowed)
    return times, refs, errors


def _p90(values: List[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(m: Measured, setup_s: float, cold_ratios: List[float]) -> dict:
    outcomes = m.ledger.outcomes
    ratios = m.ratios
    values = {
        "ops_per_kref": 1e3 * len(ratios) / sum(ratios),
        "op_p50_ref": statistics.median(ratios),
        "op_p90_ref": _p90(ratios),
        "certified_share": sum(o.certified for o in outcomes) / len(outcomes),
        "clean_exit_share": sum(o.exit != "crash" for o in outcomes) / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cli_cold_ref": statistics.median(cold_ratios),
        "setup_s": setup_s,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def wall_clock(m: Measured) -> dict:
    """The same latencies in plain wall-clock units, for the context line."""
    return {
        "ops_per_s": len(m.durations) / sum(m.durations),
        "op_p50_ms": 1e3 * statistics.median(m.durations),
        "op_p90_ms": 1e3 * _p90(m.durations),
        "reference_ms": 1e3 * statistics.median(m.refs),
    }


def per_layer(tracer: tracing.Tracer, m: Measured, overhead: float) -> dict:
    total = sum(m.durations)
    ops = len(m.durations)
    passes = len(m.ledger.passes)
    counts, suite_ms = m.counts, m.suite_ms
    t = tracer
    solves = t.count("perron_solve")
    solve_errors = sum(c for (name, _), c in t.raised.items() if name == "perron_solve")
    surface_calls = t.count(*tracing.ENTRY_POINTS["surface"])
    metrics = {
        "perron.solve_ms": (t.mean_ms("perron_solve"), "ms"),
        "perron.iterations": (tracing.mean(t.perron_iterations), "count"),
        "perron.k_max": (max(t.perron_k, default=0), "count"),
        "perron.noconv_count": (
            t.raised[("perron_solve", "NoConvergenceError")] / passes, "count"),
        "perron.certified_ratio": (
            (solves - solve_errors) / solves if solves else 0.0, "share"),
        "geodesic.construct_ms": (t.mean_ms("optimal_geodesic"), "ms"),
        "geodesic.self_ms": (t.mean_self_ms("optimal_geodesic"), "ms"),
        "geodesic.limits_ms": (t.mean_ms("forward_limit", "backward_limit"), "ms"),
        "geodesic.cert_fail_count": (t.geodesic_cert_fails / passes, "count"),
        "origami.build_ms": (1e3 * t.layer_busy["origami"] / ops, "ms"),
        "origami.cells": (tracing.mean(t.origami_cells), "count"),
        "multicurve.filling_ms": (t.mean_ms("filling_status"), "ms"),
        "surface.distance_ms": (t.mean_ms("distance_interval"), "ms"),
        "surface.calls": (surface_calls / ops, "count"),
        "horo.busemann_ms": (t.mean_ms("busemann_interval"), "ms"),
        "horo.psi_ms": (t.mean_ms("psi_foliation", "psi_interior"), "ms"),
        "horo.miyachi_ms": (t.mean_ms("miyachi_intersection"), "ms"),
    }
    for suite in workloads.SUITES:
        metrics[f"checks.{suite}_ms"] = (tracing.mean(suite_ms.get(suite, [])), "ms")
    metrics["checks.cases"] = (counts.get("cases", 0) / passes, "count")
    for command in ("validate", "geodesic", "flow", "converge", "check"):
        metrics[f"cli.{command}_ms"] = (t.mean_ms(f"cmd_{command}"), "ms")
    metrics["cli.rows"] = (counts.get("rows", 0) / passes, "count")
    for layer in tracing.LAYERS:
        metrics[f"{layer}.busy_share"] = (t.layer_busy[layer] / total, "share")
        metrics[f"{layer}.self_share"] = (t.layer_self[layer] / total, "share")
    metrics["trace.overhead_share"] = (overhead, "share")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run(name: str, seed: int, seconds: float, trace: bool, root: str, src: str,
        import_s: float) -> Tuple[bool, List[str]]:
    """One benchmark run; returns (correct, lines to print)."""
    load_before = os.getloadavg()
    base = os.path.join(root, ".perfbench-work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=base)
    try:
        setups, fingerprints = [], []
        for _ in range(SETUP_REPEATS):
            workload, elapsed = set_up(name, seed, workdir)
            setups.append(elapsed)
            fingerprints.append(workload.fingerprint())
        runner = Runner(workload, workdir)
        mismatches = runner.checker.mismatches
        if len(set(fingerprints)) != 1:
            mismatches.append("repeated set-ups generated different inputs")

        if trace:
            half = seconds / 2
            plain = runner.run(half)
            tracer = tracing.Tracer()
            with tracer:
                m = runner.run(half, tracer)
            overhead = statistics.fmean(m.ratios) / statistics.fmean(plain.ratios) - 1
            metrics = per_layer(tracer, m, overhead)
            missing, wall = tracer.missing, wall_clock(m)
        else:
            m = runner.run(seconds)
            cold, cold_refs, cold_errors = cold_cli(root, src)
            mismatches += cold_errors
            metrics = end_to_end(m, import_s + statistics.median(setups),
                                 [t / r for t, r in zip(cold, cold_refs)])
            missing = []
            wall = dict(wall_clock(m), cli_cold_ms=1e3 * statistics.median(cold))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass

    ledger = m.ledger
    outcomes = ledger.outcomes
    failed_runs = sum(not o.certified for o in outcomes)
    context = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_before": list(load_before), "loadavg_after": list(os.getloadavg()),
        "samples": len(m.durations),
        "setup": {"import_s": import_s, "set_ups_s": setups},
        "fail_share": failed_runs / len(outcomes),
        "crash_share": sum(o.exit == "crash" for o in outcomes) / len(outcomes),
        "wall_clock": wall,
        "untraced_entry_points": missing,
        "mismatches": mismatches[:20],
        "ledger": ledger.summary(name, seed),
    }
    correct = not mismatches
    # attempted and failed count the workload's operations, each once; the
    # repetitions that timed them are in the context line as samples.
    result = {"correct": correct, "attempted": len(workload.ops),
              "failed": ledger.failed(), "metrics": metrics}
    return correct, [json.dumps(context), json.dumps(result)]
