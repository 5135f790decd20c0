"""Acceptance gate: ten criteria, one test (and one pass/fail line) each.

Run with ``pytest tests/test_acceptance.py -v`` to see the per-criterion
verdicts.  Tolerances here are contractual — do not loosen them.
"""

import json
import math
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np

from origeo.errors import NotFillingError
from origeo.geodesic import flow_distance, optimal_geodesic, point_at
from origeo.horo import busemann_interval, minsky_audit, psi_foliation
from origeo.multicurve import BusemannSpec
from origeo.origami import HORIZONTAL, VERTICAL, Origami, builtin, catalog
from origeo.perron import gram, is_primitive, perron_solve
from origeo.sampling import (
    jittered_surface,
    random_full_instance,
    random_matrix,
    random_primitive_instance,
    random_surface,
    random_transitive_pair,
)
from origeo.surface import distance_interval, kerckhoff_lower, qc_upper

PHI = (1 + math.sqrt(5)) / 2


def _golden_line(tol=1e-12):
    o = builtin("l-2-2")
    xi = BusemannSpec(o, VERTICAL, {"B1": Fraction(1), "B2": Fraction(1)})
    eta = BusemannSpec(o, HORIZONTAL, {"A1": Fraction(1), "A2": Fraction(1)})
    return optimal_geodesic(xi, eta, tol=tol)


def _cli(*args):
    # a NumPy RuntimeWarning fails the command, as it fails in-process tests
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "origeo.cli", *args],
        capture_output=True,
        text=True,
    )


def test_criterion_01_golden_eigenpair():
    line = _golden_line()
    assert abs(line.eigen.eigenvalue - (3 + math.sqrt(5)) / 2) <= 1e-10
    ray = (PHI / (1 + PHI), 1 / (1 + PHI))  # (phi^-1, phi^-2) normalized
    assert max(abs(a - b) for a, b in zip(line.x, ray)) <= 1e-8
    assert line.eigen.residual <= 1e-12
    print("criterion 1: PASS — golden eigenpair (lambda, ray, residual)")


def test_criterion_02_walsh_consistency_on_random_instances():
    line = _golden_line()
    assert min(line.walsh_forward_cosine, line.walsh_backward_cosine) > 1 - 1e-9
    rng = random.Random("acceptance:walsh")
    for i in range(50):
        while True:  # draws past the pairs that do not fill, each refused
            _, xi, eta = random_primitive_instance(
                rng, max_components=4, max_entry=3
            )
            try:
                g = optimal_geodesic(xi, eta)
                break
            except NotFillingError:
                pass
        assert g.walsh_forward_cosine > 1 - 1e-9, f"instance {i} forward"
        assert g.walsh_backward_cosine > 1 - 1e-9, f"instance {i} backward"
    print("criterion 2: PASS — Walsh cosines > 1 - 1e-9 on golden + 50 instances")


def test_criterion_03_linear_horofunctions_along_the_line():
    line = _golden_line()
    base = line.base_surface
    for k in range(-6, 7):
        t = 0.5 * k
        pt = point_at(line, t)
        down = psi_foliation(line.vertical_foliation, pt, base)
        up = psi_foliation(line.horizontal_foliation, pt, base)
        assert abs(down.lo + t) <= 1e-12 and down.width <= 1e-12
        assert abs(up.lo - t) <= 1e-12 and up.width <= 1e-12
    print("criterion 3: PASS — psi_fv = -t and psi_fh = +t on the grid")


def test_criterion_04_flow_distance_brackets():
    line = _golden_line()
    family = [line.vertical_foliation, line.horizontal_foliation]
    for s, t in ((0.0, 1.0), (-2.0, 1.5), (0.25, 0.25), (-3.0, 3.0), (2.0, -1.75)):
        assert flow_distance(line, s, t) == abs(t - s)
        iv = distance_interval(
            point_at(line, s), point_at(line, t), family=family
        )
        assert iv.hi - iv.lo <= 1e-12
        assert iv.lo - 1e-12 <= abs(t - s) <= iv.hi + 1e-12
    print("criterion 4: PASS — flow distance |t - s| with interval width <= 1e-12")


def test_criterion_05_distance_bounds_order():
    from origeo.surface import WeightedSurface

    o = builtin("l-2-2")
    x = WeightedSurface(
        o,
        {"A1": Fraction(1), "A2": Fraction(1)},
        {"B1": Fraction(1), "B2": Fraction(1)},
    )
    doubled = x.scaled(width_factor=Fraction(2), height_factor=Fraction(1))
    iv = distance_interval(x, doubled)
    half_log2 = 0.5 * math.log(2)
    assert abs(iv.lo - half_log2) <= 1e-12 and abs(iv.hi - half_log2) <= 1e-12

    rng = random.Random("acceptance:bounds")
    for i in range(200):
        n = rng.randint(3, 8)
        o = Origami(n, *random_transitive_pair(rng, n))
        a = random_surface(rng, o)
        b = random_surface(rng, o)
        family = [a.defining_foliation(VERTICAL), a.defining_foliation(HORIZONTAL)]
        assert kerckhoff_lower(a, b, family) <= qc_upper(a, b) + 1e-12, f"pair {i}"
    print("criterion 5: PASS — doubling collapse + lower <= upper on 200 pairs")


def test_criterion_06_minsky_and_sandwich():
    rng = random.Random("acceptance:minsky")
    for i in range(100):
        n = rng.randint(3, 8)
        o = Origami(n, *random_transitive_pair(rng, n))
        rep = minsky_audit(random_surface(rng, o))
        assert rep["status"] == "pass", f"surface {i}"
        assert rep["definingEquality"]["status"] == "exact", f"surface {i}"

    lines = [_golden_line()]
    rng2 = random.Random("acceptance:sandwich")
    for _ in range(2):
        _, xi, eta = random_full_instance(rng2)
        lines.append(optimal_geodesic(xi, eta))
    done = 0
    while done < 100:
        line = lines[done % len(lines)]
        t = rng2.uniform(-2.0, 2.0)
        z, _, _ = jittered_surface(rng2, point_at(line, t), 0.25)
        psi = psi_foliation(line.vertical_foliation, z, line.base_surface)
        bus = busemann_interval(line, z, horizon=7.0)
        assert psi.lo <= bus.hi + 1e-9, f"sandwich point {done}"
        done += 1
    print("criterion 6: PASS — Minsky audits on 100 surfaces + 100 sandwich points")


def test_criterion_07_primitivity_and_eigen_oracles():
    from test_perron import brute_force_primitive, exact_top_eigenvalue

    rng = random.Random("acceptance:primitivity")
    for i in range(500):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert is_primitive(m) == brute_force_primitive(m), f"matrix {i}"

    checked = 0
    while checked < 25:
        m = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        t = gram(m)
        if not is_primitive(m) or any(t[i][i] == 0 for i in range(len(t))):
            continue
        a = perron_solve(t)
        ray = np.abs(np.linalg.eigh(np.array(t, dtype=float))[1][:, -1])
        ray /= ray.sum()
        assert max(abs(x - y) for x, y in zip(a.vector, ray)) <= 1e-8
        lam = float(exact_top_eigenvalue(t))
        assert abs(a.eigenvalue - lam) <= 1e-10 * max(1.0, lam)
        checked += 1
    print("criterion 7: PASS — 500 primitivity cases + rays/eigenvalues vs oracles")


def test_criterion_08_convergence_scheme(tmp_path):
    # build the report through the library (inputs embedded), then run the
    # converge subcommand end to end
    from origeo.geodesic import line_report

    rep = tmp_path / "report.json"
    rep.write_text(json.dumps(line_report(_golden_line()), indent=2))
    res = _cli("converge", str(rep), "--n-max", "20")
    assert res.returncode == 0, res.stderr
    data = json.loads(res.stdout)
    gaps = [row["gap"] for row in data["exact"]]
    assert gaps == [float(n) for n in range(1, 21)]
    for row in data["exact"]:
        assert row["miyachiLo"] - 1e-12 <= 1.0 <= row["miyachiHi"] + 1e-12
    print("criterion 8: PASS — exact gaps 1..20 and Miyachi intervals around 1")


def test_criterion_09_structure_identities():
    names = list(catalog())
    assert len(names) >= 5
    genera = set()

    def audit(o, tag):
        orders = o.cone_orders()
        assert sum(m - 1 for m in orders) == 2 * o.genus() - 2, tag
        assert sum(orders) == o.n, tag
        m = o.intersection_matrix()
        for cyl, row in zip(o.cylinders(HORIZONTAL), m.entries):
            assert sum(row) == cyl.length, tag
        for j, cyl in enumerate(o.cylinders(VERTICAL)):
            assert sum(r[j] for r in m.entries) == cyl.length, tag
        assert m.total() == o.n, tag

    for name in names:
        o = builtin(name)
        genera.add(o.genus())
        audit(o, name)
    assert {2, 3} <= genera

    rng = random.Random("acceptance:structure")
    for i in range(100):
        n = rng.randint(2, 10)
        audit(Origami(n, *random_transitive_pair(rng, n)), f"random {i}")
    print("criterion 9: PASS — structure identities on catalog + 100 random pairs")


def test_criterion_10_reports_are_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        res = _cli("check", "--seed", "7", "--out", str(out))
        assert res.returncode == 0, res.stderr
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["status"] == "pass"
    print("criterion 10: PASS — cmd_check output byte-identical for a fixed seed")
