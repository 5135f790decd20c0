"""Inputs and operations of the four benchmark workloads.

Every workload is a list of operations built from the workload seed alone;
each operation carries its inputs as JSON text, so the program receives
only generated data.  ``generate`` is deterministic: the same seed gives
byte-identical ``Workload.fingerprint()`` output.

Why these workloads (sizes measured on a 2-core shared host):

* ``random-full`` -- the family in which 29 of 150 instances give up today.
  Matrices are small (k <= 11), so the cost is Python object overhead in the
  limit certificates and the multi-start power iteration.  Exercises
  origami, multicurve, perron, geodesic, and one distance bracket and one
  Busemann enclosure per certified line (surface, horo).
* ``staircase`` -- n = 10..160, matrices up to 80 x 81 with a spectral gap
  closing as n grows; dominated by perron.  A relabelling by a random conjugating
  permutation changes the input but not lambda.  Barely runs the limit
  kernel, so a change there should not move it.
* ``flow-cli`` -- the CLI in-process on three lines; mostly surface and horo
  on float weights, plus one long-horizon flow that crashes today and is
  kept so that the crash is counted.
* ``selfcheck`` -- the randomized suites one by one through ``origeo
  check``; the only workload that runs checks and that runs surface on
  exact Fraction weights, plus the proper-subset geodesic path.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import origeo as og
import oracles
from origeo import cli, sampling
from origeo.multicurve import busemann_spec_to_json
from origeo.origami import origami_to_json

WORKLOADS = ("random-full", "staircase", "flow-cli", "selfcheck")

RANDOM_FULL_SIZES = tuple(range(10, 301, 10))
RANDOM_FULL_REPEATS = 5
# n = 10 joins the four Baseline sizes so that the median operation falls
# inside one size class (n = 40) rather than between two.
STAIRCASE_SIZES = (10, 20, 40, 80, 160)
SUITES = ("gauss-bonnet", "perron-oracle", "primitivity-oracle", "minsky",
          "sandwich", "walsh-consistency", "interval-soundness")
GOLDEN_ORIGAMI = {"squares": 3, "h": [2, 1, 3], "v": [3, 2, 1]}


@dataclass(frozen=True)
class Op:
    """One operation: a pipeline run through the API or one CLI command.

    ``kind`` is ``"pipeline"`` (``inputs`` is the JSON text of an origami,
    two specs and two flow times) or ``"cli"`` (``argv`` for
    ``origeo.cli.main``; ``inputs`` holds what the oracles need).
    """

    name: str
    kind: str
    inputs: str
    argv: Tuple[str, ...] = ()


@dataclass
class Workload:
    ops: List[Op]
    files: Dict[str, str] = field(default_factory=dict)  # relative path -> text

    def fingerprint(self) -> bytes:
        return json.dumps(
            {"ops": [[o.name, o.kind, o.inputs, list(o.argv)] for o in self.ops],
             "files": self.files},
            sort_keys=True,
        ).encode()


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _unit_spec(side: str, count: int) -> dict:
    prefix = "B" if side == "vertical" else "A"
    return {"side": side, "coeffs": [[f"{prefix}{i + 1}", "1"] for i in range(count)]}


def _instance_json(o, xi, eta, rng: random.Random) -> dict:
    return {
        "origami": origami_to_json(o),
        "xi": busemann_spec_to_json(xi),
        "eta": busemann_spec_to_json(eta),
        "s": round(rng.uniform(-3.0, 0.0), 3),
        "t": round(rng.uniform(0.0, 3.0), 3),
    }


def random_full_inputs(seed: int) -> List[Tuple[str, dict]]:
    """The Baseline family: full-support genus >= 2 instances, n = 10..300.

    Seed 0 is ``random_full_instance(Random(f"{n}:{s}"), (n, n))`` exactly;
    other seeds relabel each of those instances by a seeded conjugating
    permutation.  Redrawing the instances instead moves the share of exit-4
    instances between about 14% and 20% from seed to seed, and op_p90_ms,
    which lands on them, by about 40%.
    """
    out = []
    for n in RANDOM_FULL_SIZES:
        for s in range(RANDOM_FULL_REPEATS):
            key = f"{n}:{s}"
            o, xi, eta = sampling.random_full_instance(random.Random(key), (n, n))
            doc = _instance_json(o, xi, eta, random.Random(f"{seed}:{key}:flow"))
            out.append((f"n{n}-s{s}", relabel_instance(doc, _sigma(n, f"{seed}:{key}", seed))))
    return out


def staircase(n: int) -> dict:
    """h swaps (1 2)(3 4)..., v swaps (2 3)(4 5)...; n/2 + (n/2 + 1) cylinders."""
    h = [i + 2 if i % 2 == 0 else i for i in range(n)]
    v = [1] + [i + 2 if i % 2 == 1 else i for i in range(1, n - 1)] + [n]
    return {"squares": n, "h": h, "v": v}


def relabelled(origami: dict, sigma: List[int]) -> dict:
    """The conjugate sigma h sigma^-1, sigma v sigma^-1 (sigma is 1-based)."""
    n = origami["squares"]
    h, v = [0] * n, [0] * n
    for i in range(1, n + 1):
        h[sigma[i - 1] - 1] = sigma[origami["h"][i - 1] - 1]
        v[sigma[i - 1] - 1] = sigma[origami["v"][i - 1] - 1]
    return {"squares": n, "h": h, "v": v}


def _sigma(n: int, key: str, seed: int) -> List[int]:
    """A seeded permutation of 1..n; the identity at seed 0."""
    sigma = list(range(1, n + 1))
    if seed != 0:
        random.Random(f"{key}:relabel").shuffle(sigma)
    return sigma


def relabel_instance(doc: dict, sigma: List[int]) -> dict:
    """Relabel the cells and carry each coefficient to its cylinder's image.

    Cylinders are labelled by their smallest cell, so relabelling permutes
    the labels, the rows and columns of the intersection matrix and the
    order of the spec coefficients, but not lambda.
    """
    origami = relabelled(doc["origami"], sigma)
    out = dict(doc, origami=origami)
    for key, perm, prefix in (("xi", "v", "B"), ("eta", "h", "A")):
        new_index = {frozenset(c): i for i, c in enumerate(oracles.cycles(origami[perm]))}
        label = {
            f"{prefix}{i + 1}":
                f"{prefix}{new_index[frozenset(sigma[c - 1] for c in cyl)] + 1}"
            for i, cyl in enumerate(oracles.cycles(doc["origami"][perm]))
        }
        coeffs = sorted(([label[lab], value] for lab, value in doc[key]["coeffs"]),
                        key=lambda pair: int(pair[0][1:]))
        out[key] = dict(doc[key], coeffs=coeffs)
    return out


def staircase_inputs(seed: int, n: int) -> dict:
    """Unit weights on a staircase relabelled by a seeded permutation.

    Seed 0 keeps the identity labelling, which is the Baseline instance.
    """
    rng = random.Random(f"{seed}:staircase:{n}:flow")
    doc = {
        "origami": staircase(n),
        "xi": _unit_spec("vertical", n // 2 + 1),
        "eta": _unit_spec("horizontal", n // 2),
        "s": round(rng.uniform(-3.0, 0.0), 3),
        "t": round(rng.uniform(0.0, 3.0), 3),
    }
    return relabel_instance(doc, _sigma(n, f"{seed}:staircase:{n}", seed))


def flow_cli_lines(seed: int) -> List[Tuple[str, dict]]:
    """The golden l-2-2 line, the relabelled staircase-20 line, one random line."""
    golden = {"origami": GOLDEN_ORIGAMI, "xi": _unit_spec("vertical", 2),
              "eta": _unit_spec("horizontal", 2)}
    stair = staircase_inputs(seed, 20)
    o, xi, eta = sampling.random_full_instance(random.Random("flow-cli"), (12, 12))
    rand = relabel_instance(
        {"origami": origami_to_json(o), "xi": busemann_spec_to_json(xi),
         "eta": busemann_spec_to_json(eta)},
        _sigma(12, f"{seed}:flow-cli", seed))
    return [("golden", golden),
            ("staircase-20", {k: stair[k] for k in ("origami", "xi", "eta")}),
            ("random", rand)]


def generate(name: str, seed: int) -> Workload:
    if name == "random-full":
        ops = [Op(key, "pipeline", _dumps(doc)) for key, doc in random_full_inputs(seed)]
        return Workload(ops)
    if name == "staircase":
        ops = [Op(f"staircase-{n}", "pipeline", _dumps(staircase_inputs(seed, n)))
               for n in STAIRCASE_SIZES]
        return Workload(ops)
    if name == "flow-cli":
        ops, files = [], {}
        for key, doc in flow_cli_lines(seed):
            paths = {part: f"{key}-{part}.json" for part in ("origami", "xi", "eta")}
            for part, path in paths.items():
                files[path] = _dumps(doc[part])
            report = f"{key}-report.json"
            inputs = _dumps(dict(doc, line=key))
            ops += [
                Op(f"{key}/geodesic", "cli", inputs,
                   ("geodesic", paths["origami"], paths["xi"], paths["eta"])),
                Op(f"{key}/flow", "cli", inputs, ("flow", report, "--step", "0.05")),
                Op(f"{key}/converge", "cli", inputs, ("converge", report, "--n-max", "20")),
                Op(f"{key}/validate", "cli", inputs, ("validate", paths["origami"])),
            ]
        ops.append(Op("golden/long-horizon", "cli", ops[0].inputs,
                      ("flow", "golden-report.json", "--t-min", "0",
                       "--t-max", "800", "--step", "100")))
        return Workload(ops, files)
    if name == "selfcheck":
        ops = [Op(suite, "cli", _dumps({"suite": suite, "seed": seed}),
                  ("check", "--suite", suite, "--seed", str(seed)))
               for suite in SUITES]
        return Workload(ops)
    raise ValueError(f"unknown workload {name!r}; have {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# running one operation


def run_pipeline(inputs: str) -> dict:
    """parse -> validate -> filling_status -> optimal_geodesic -> limits.

    Certified lines with a flat surface also get one flow_distance and one
    Busemann enclosure.  Returns what the oracles check.
    """
    data = json.loads(inputs)
    origami = og.parse_origami(data["origami"])
    origami.validate()
    xi = og.parse_busemann_spec(data["xi"], origami)
    eta = og.parse_busemann_spec(data["eta"], origami)
    og.filling_status(xi.as_multicurve(), eta.as_multicurve())
    line = og.optimal_geodesic(xi, eta)
    values = {
        "line": line,
        "lambda": line.eigen.eigenvalue,
        "iterations": line.eigen.iterations,
        "forward": og.forward_limit(line),
        "backward": og.backward_limit(line),
    }
    if line.base_surface is not None:
        s, t = data["s"], data["t"]
        values["distance"] = og.flow_distance(line, s, t)
        values["busemann"] = og.busemann_interval(
            line, og.point_at(line, t), horizon=abs(t) + 5.0)
    return values


def run_cli(argv: Tuple[str, ...], workdir: str) -> Tuple[int, str]:
    """``origeo.cli.main`` in-process with file arguments under ``workdir``."""
    args = [os.path.join(workdir, a) if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue()


def report_file(op: Op) -> str:
    """The geodesic report that ``flow`` and ``converge`` of op's line read."""
    return op.name.split("/")[0] + "-report.json"


def write_files(workload: Workload, workdir: str) -> None:
    """Write the CLI input files and build each line's geodesic report."""
    for path, text in workload.files.items():
        with open(os.path.join(workdir, path), "w", encoding="utf-8") as fh:
            fh.write(text)
    for op in workload.ops:
        if op.kind == "cli" and op.argv[0] == "geodesic":
            code, text = run_cli(op.argv, workdir)
            if code != 0:
                raise RuntimeError(f"{op.name} exited {code}; its report is needed")
            with open(os.path.join(workdir, report_file(op)), "w", encoding="utf-8") as fh:
                fh.write(text)
