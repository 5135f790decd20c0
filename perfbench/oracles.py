"""Independent output checks for the benchmark.

Nothing here calls into ``origeo``: the cylinder decomposition, the
intersection matrix and the leading eigenvalue are recomputed from the raw
permutations and coefficients with the standard library and NumPy, so a
wrong certified answer from the program cannot agree with its own oracle
by sharing a bug.  Every ``check_*`` function returns a list of mismatch
messages; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

LAMBDA_RTOL = 1e-9
GOLDEN_LAMBDA = (3 + math.sqrt(5)) / 2  # phi^2
GOLDEN_AREA = math.sqrt(5) / GOLDEN_LAMBDA  # sqrt(5) * phi^-2


def cycles(perm: Sequence[int]) -> List[Tuple[int, ...]]:
    """Cycles of a permutation of 1..n in one-line notation, by smallest cell."""
    seen = set()
    out = []
    for start in range(1, len(perm) + 1):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        cur = perm[start - 1]
        while cur != start:
            cycle.append(cur)
            seen.add(cur)
            cur = perm[cur - 1]
        out.append(tuple(cycle))
    return out


def intersection_matrix(origami: dict) -> np.ndarray:
    """Cells shared by horizontal cylinder i (rows) and vertical cylinder j."""
    hor, ver = cycles(origami["h"]), cycles(origami["v"])
    col_of = {cell: j for j, cyl in enumerate(ver) for cell in cyl}
    n = np.zeros((len(hor), len(ver)), dtype=np.int64)
    for i, cyl in enumerate(hor):
        for cell in cyl:
            n[i, col_of[cell]] += 1
    return n


def _coeffs(spec: dict) -> Dict[int, Fraction]:
    """Spec coefficients keyed by 0-based cylinder index (labels A1.., B1..)."""
    return {int(lab[1:]) - 1: Fraction(value) for lab, value in spec["coeffs"]}


def leading_eigenvalue(inputs: dict) -> float:
    """Top eigenvalue of the exact Gram matrix M M^T, M_ij = c_i d_j n_ij."""
    n = intersection_matrix(inputs["origami"])
    c, d = _coeffs(inputs["xi"]), _coeffs(inputs["eta"])
    rows = [
        [ci * dj * int(n[j, i]) for j, dj in sorted(d.items())]
        for i, ci in sorted(c.items())
    ]
    gram = [[sum(a * b for a, b in zip(r, s)) for s in rows] for r in rows]
    return float(np.linalg.eigvalsh(np.array(gram, dtype=float))[-1])


def limit_profiles(inputs: dict) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Expected l2-normalized forward and backward limits on every core.

    The forward limit pairs the vertical spec with each core,
    sqrt(sum_j c_j^2 n(core, beta_j)^2); same-side cores get 0.  The
    backward limit does the same with the horizontal spec.
    """
    n = intersection_matrix(inputs["origami"]).astype(float)
    rows, cols = n.shape
    c = np.zeros(cols)
    for j, v in _coeffs(inputs["xi"]).items():
        c[j] = float(v)
    d = np.zeros(rows)
    for i, v in _coeffs(inputs["eta"]).items():
        d[i] = float(v)
    forward = np.concatenate([np.sqrt((n ** 2) @ (c ** 2)), np.zeros(cols)])
    backward = np.concatenate([np.zeros(rows), np.sqrt((d ** 2) @ (n ** 2))])
    labels = [f"A{i + 1}" for i in range(rows)] + [f"B{j + 1}" for j in range(cols)]

    def normalized(v):
        return dict(zip(labels, (v / np.linalg.norm(v)).tolist()))

    return normalized(forward), normalized(backward)


def _relative_error(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def check_lambda(got: float, want: float, what: str) -> List[str]:
    if not _relative_error(got, want) <= LAMBDA_RTOL:
        return [f"{what}: lambda {got!r} differs from eigvalsh {want!r}"]
    return []


def check_limits(values: dict, expected: Tuple[dict, dict]) -> List[str]:
    """Limits point along the spec pairing, to the program's own cosine floor.

    The construction certifies cosine >= 1 - 1e-11 against its own pairing;
    the oracle allows 1e-10 so that only a wrong direction fails.
    """
    errors = []
    for name, got, want in zip(("forward", "backward"),
                               (values["forward"], values["backward"]), expected):
        if set(got) != set(want):
            errors.append(f"{name} limit covers cores {sorted(got)}, want {sorted(want)}")
            continue
        a = np.array([got[k] for k in want])
        b = np.array([want[k] for k in want])
        cosine = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        if not cosine >= 1 - 1e-10:
            errors.append(f"{name} limit is off the spec pairing: cosine {cosine!r}")
    return errors


def check_flow_distance(distance: float, s: float, t: float, bracket) -> List[str]:
    errors = []
    if distance != abs(t - s):
        errors.append(f"flow_distance({s}, {t}) = {distance!r}, want {abs(t - s)!r}")
    if not bracket.lo - 1e-12 <= distance <= bracket.hi + 1e-12:
        errors.append(
            f"flow_distance({s}, {t}) = {distance!r} outside [{bracket.lo}, {bracket.hi}]"
        )
    return errors


def check_golden_report(report: dict) -> List[str]:
    errors = []
    if not _relative_error(float(report["lambda"]), GOLDEN_LAMBDA) <= 1e-12:
        errors.append(f"golden lambda {report['lambda']} is not phi^2")
    if not _relative_error(float(report["area"]), GOLDEN_AREA) <= 1e-12:
        errors.append(f"golden area {report['area']} is not sqrt(5)*phi^-2")
    return errors


def check_flow_csv(text: str) -> List[str]:
    """psi_fv = -t, psi_fh = +t and d_to_base = |t| on every CSV row."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        return ["flow printed no rows"]
    errors = []
    for row in rows:
        t = float(row["t"])
        tol = 1e-12 * max(1.0, abs(t))
        if abs(float(row["psi_fv"]) + t) > tol or abs(float(row["psi_fh"]) - t) > tol:
            errors.append(f"psi columns at t={t} are not -t/+t")
        if abs(float(row["d_to_base"]) - abs(t)) > tol:
            errors.append(f"d_to_base at t={t} is not |t|")
    return errors


def check_converge(text: str) -> List[str]:
    payload = json.loads(text)
    return [
        f"converge gap at n={row['n']} is {row['gap']!r}"
        for row in payload["exact"]
        if abs(row["gap"] - row["n"]) > 1e-9 * row["n"]
    ]


def check_validate(text: str, origami: dict) -> List[str]:
    summary = json.loads(text)
    errors = []
    if summary["squares"] != origami["squares"]:
        errors.append("validate reports the wrong cell count")
    if summary["intersectionMatrix"] != intersection_matrix(origami).tolist():
        errors.append("validate reports a wrong intersection matrix")
    return errors
