"""Self-check suites: re-derive invariants on randomized inputs.

Each suite replays deterministically from a seed (sub-seeded per suite, so
adding a suite never shifts another's random stream) and returns a small
report dict; ``run_suites`` assembles them in a fixed order.  Most are
consistency audits between independently computed structures — the
certified eigen-bracket against a dense solve of the transpose-side Gram
matrix, reachability against matrix powers — not re-runs of the same code
path.  Some checks are identities of the construction and are kept as
regression guards: cone orders are the cycle lengths of the commutator, so
they partition the cells by construction.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import List, Optional, Sequence

from . import sampling
from .errors import (SUITE_NAMES, CertificationError, Checks, HypothesisError, InputError,
                     NoConvergenceError, NotFillingError, checked, np)
from .geodesic import (
    backward_limit,
    flow_rows,
    forward_limit,
    optimal_geodesic,
    reversed_line,
)
from .horo import busemann_rows, minsky_audit, miyachi_rows, psi_rows
from .intervals import outside
from .multicurve import BusemannSpec
from .origami import HORIZONTAL, VERTICAL, builtin, catalog
from .perron import gram, is_primitive, perron_solve, wielandt_block
from .surface import (
    SurfaceRows,
    check_weights,
    core_ext_bounds,
    distance_interval,
    distance_rows,
    ext_interval,
    ext_rows,
    foliation_ext,
    qc_rows,
    qc_upper,
)

_MAX_FAILURES = 10


def _suite_rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def _report(name: str, cases: int, failures: List[str]) -> dict:
    return {
        "name": name,
        "cases": cases,
        "failures": failures[:_MAX_FAILURES],
        "status": "pass" if not failures else "fail",
    }


def _row_failures(messages: List[str], flags, **columns) -> List[str]:
    """Row by row, the message of each flag raised at the row, formatted with
    its index ``i`` and its entry of each column: a loop's failures, in order."""
    failures = []
    for i, row in enumerate(zip(*flags)):
        entries = {name: column[i] for name, column in columns.items()}
        failures += [m.format(i=i, **entries) for m, flag in zip(messages, row) if flag]
    return failures


def check_gauss_bonnet(seed: int) -> dict:
    """Cone angles vs genus, and matrix partitions vs cylinder lengths.

    Cone orders are the commutator's cycle lengths, so that they partition
    the cells is an identity, kept as a guard on the construction.
    """
    rng = _suite_rng(seed, "gauss-bonnet")
    failures: List[str] = []
    cases = 0

    def audit(o, tag):
        nonlocal cases
        cases += 1
        orders = o.cone_orders()
        if sum(m - 1 for m in orders) != 2 * o.genus() - 2:
            failures.append(f"{tag}: cone angles break the genus count")
        if sum(orders) != o.n:
            failures.append(f"{tag}: cone orders do not partition the cells")
        m = o.intersection_matrix()
        for cyl, row in zip(o.cylinders(HORIZONTAL), m.entries):
            if sum(row) != cyl.length:
                failures.append(f"{tag}: row sum mismatch on {cyl.label}")
        for j, cyl in enumerate(o.cylinders(VERTICAL)):
            if sum(row[j] for row in m.entries) != cyl.length:
                failures.append(f"{tag}: column sum mismatch on {cyl.label}")
        if m.total() != o.n:
            failures.append(f"{tag}: matrix total is not the cell count")

    for name, o in catalog().items():
        audit(o, name)
    for i in range(100):
        n = rng.randint(2, 10)
        audit(sampling.random_connected_origami(rng, n), f"random[{i}]")
    return _report("gauss-bonnet", cases, failures)


def check_perron_oracle(seed: int) -> dict:
    """Certified bracket and ray against a dense solve of M^T M.

    M^T M has the nonzero spectrum of M M^T but is a different matrix; its
    top eigenvector y gives the ray of x as M y.
    """
    rng = _suite_rng(seed, "perron-oracle")
    failures: List[str] = []
    cases = 0

    golden = ((2, 1), (1, 1))
    res = perron_solve(golden)
    cases += 1
    if abs(res.eigenvalue - (3 + math.sqrt(5)) / 2) > 1e-10:
        failures.append("golden 2x2 eigenvalue off")

    produced = 0
    while produced < 30:
        m = sampling.random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        t = gram(m)
        if not is_primitive(m) or any(t[i][i] == 0 for i in range(len(t))):
            continue
        produced += 1
        cases += 1
        res = perron_solve(t)
        marr = np.array(m, dtype=float)
        w, vecs = np.linalg.eigh(marr.T @ marr)
        top, slack = float(w[-1]), 1e-10 * max(1.0, float(w[-1]))
        if not res.lower - slack <= top <= res.upper + slack:
            failures.append(
                f"bracket [{res.lower!r}, {res.upper!r}] misses transpose-side "
                f"{top!r} on case {produced}"
            )
        lead = marr @ np.abs(vecs[:, -1])
        lead = lead / np.sum(lead)
        if max(abs(a - b) for a, b in zip(res.vector, lead)) > 1e-8:
            failures.append(f"eigenvector ray off on case {produced}")
    return _report("perron-oracle", cases, failures)


def check_primitivity_oracle(seed: int) -> dict:
    """Support-graph primitivity test against two-sided boolean powers, the
    matrices drawn first and run through the oracle as one block."""
    rng = _suite_rng(seed, "primitivity-oracle")
    matrices = [sampling.random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
                for _ in range(500)]
    powers = wielandt_block(matrices)
    failures = [f"case {i}: is_primitive={fast} but powers say {slow}"
                for i, (fast, slow) in enumerate(zip(map(is_primitive, matrices), powers))
                if fast != slow]
    return _report("primitivity-oracle", len(matrices), failures)


def check_minsky(seed: int) -> dict:
    """Core-pair product inequality plus the exact defining-pair identity."""
    rng = _suite_rng(seed, "minsky")
    failures: List[str] = []
    cases = 0
    for i in range(100):
        o = sampling.random_origami(rng, (3, 8))
        x = sampling.random_surface(rng, o)
        cases += 1
        rep = minsky_audit(x)
        if rep["status"] != "pass":
            failures.append(f"surface {i}: {rep['definingEquality']['status']}")
    return _report("minsky", cases, failures)


def _golden_line():
    o = builtin("l-2-2")
    xi = BusemannSpec(o, VERTICAL, {"B1": Fraction(1), "B2": Fraction(1)})
    eta = BusemannSpec(o, HORIZONTAL, {"A1": Fraction(1), "A2": Fraction(1)})
    return optimal_geodesic(xi, eta)


def check_sandwich(seed: int) -> dict:
    """Horofunction enclosures bracket correctly off the line.

    At jittered points Z near a line G: the foliation value's lower end
    must not exceed the Busemann enclosure's upper end, enclosures at
    nearby points must satisfy the 1-Lipschitz bound interval-consistently,
    and the interior horofunction normalized at Z itself must contain 0.
    Each line's points are drawn first, in the order a loop over them would
    draw, and evaluated as one block of rows.
    """
    rng = _suite_rng(seed, "sandwich")
    failures: List[str] = []
    cases = 0
    lines = [_golden_line()]
    for _ in range(2):
        o, xi, eta = sampling.random_full_instance(rng)
        lines.append(optimal_geodesic(xi, eta))
    for line, count in zip(lines, [34, 33, 33]):
        b, f_v = line.base_surface.rows, line.vertical_foliation
        labels = [*line.base_surface.heights, *line.base_surface.widths]
        # per point its time, then its height and width factors
        draws = np.array([[rng.uniform(-2.0, 2.0),
                           *sampling.jitter_factors(rng, labels, 0.25).values()]
                          for _ in range(count)])
        h = 1 + b.heights.shape[1]
        with Checks() as checks:
            pt = flow_rows(line, draws[:, 0], checks)
            z = check_weights(SurfaceRows(b.origami, pt.heights * draws[:, 1:h],
                                          pt.widths * draws[:, h:]), checks)
            psi = psi_rows(ext_rows(z, f_v.side, b.side(f_v.side), checks),
                           (b.area, b.area), checks)
            bus = busemann_rows(line, z, np.array([7.0]), checks)
            d_lo, d_hi = distance_rows(b, z, checks)
            # each point's distance to the one before it, from above
            d_step = checked(qc_rows, z[:-1], z[1:])
        cases += count
        failures += _row_failures(
            ["sandwich inverted at jitter {i}",
             "interior value at basepoint misses 0 at {i}"]
            + ["1-Lipschitz bound broken at {i}"] * 2,
            [psi[0] > bus[1] + 1e-9, ~((d_lo - d_hi <= 0.0) & (0.0 <= d_hi - d_lo))]
            + [np.r_[False, (lo[:-1] - hi[1:] > d_step + 1e-9)
                     | (lo[1:] - hi[:-1] > d_step + 1e-9)] for lo, hi in (psi, bus)])
    return _report("sandwich", cases, failures)


def check_walsh(seed: int) -> dict:
    """Limit consistency: constructed rays reproduce their target specs, or a
    random pair does not fill and is refused."""
    rng = _suite_rng(seed, "walsh-consistency")
    failures: List[str] = []
    cases = 0

    line = _golden_line()
    cases += 1
    if min(line.walsh_forward_cosine, line.walsh_backward_cosine) <= 1 - 1e-9:
        failures.append("golden instance cosine below threshold")
    rev = reversed_line(line)
    cases += 1
    if forward_limit(rev) != backward_limit(line):
        failures.append("time reversal is not bit-exact on the golden line")

    for i in range(50):
        o, xi, eta = sampling.random_primitive_instance(rng)
        cases += 1
        try:
            g = optimal_geodesic(xi, eta)
        except (HypothesisError, NoConvergenceError, CertificationError,
                InputError) as exc:  # a pair on every core always fills
            full = all(s.as_multicurve().is_full_support() for s in (xi, eta))
            if full or not isinstance(exc, NotFillingError):
                failures.append(f"instance {i} (n={o.n}): {type(exc).__name__}: {exc}")
            continue
        if min(g.walsh_forward_cosine, g.walsh_backward_cosine) <= 1 - 1e-9:
            failures.append(
                f"instance {i} (n={o.n}): cosines "
                f"{g.walsh_forward_cosine!r}/{g.walsh_backward_cosine!r}"
            )
    return _report("walsh-consistency", cases, failures)


def check_interval_soundness(seed: int) -> dict:
    """Exact quantities always land inside the intervals produced for them."""
    rng = _suite_rng(seed, "interval-soundness")
    failures: List[str] = []
    cases = 0

    for i in range(40):
        o = sampling.random_origami(rng, (3, 8))
        x = sampling.random_surface(rng, o)
        r = sampling.random_fraction(rng)
        cases += 1
        exact = foliation_ext(x, r)
        scaled = x.defining_foliation(VERTICAL).scaled(r)
        iv = ext_interval(x, scaled)
        if not (iv.lo <= exact <= iv.hi):
            failures.append(f"scaled defining foliation escapes its interval [{i}]")
        for side in (HORIZONTAL, VERTICAL):
            failures += [f"core bounds inverted on {cyl.label} [{i}]" for cyl, lo, hi
                         in zip(o.cylinders(side), *core_ext_bounds(x, side)) if lo > hi]
        y = sampling.random_surface(rng, o)
        if qc_upper(x, y) != qc_upper(y, x):
            failures.append(f"upper distance bound not symmetric [{i}]")
        d = distance_interval(x, y)
        if d.lo < 0 or d.lo > d.hi:
            failures.append(f"distance interval malformed [{i}]")
        if distance_interval(x, x).hi != 0.0:
            failures.append(f"self distance not zero [{i}]")

    line = _golden_line()
    area = line.pairing
    s, t = np.array([[rng.uniform(-3, 3), rng.uniform(-3, 3)] for _ in range(20)]).T
    with Checks() as checks:
        ps, pt = flow_rows(line, s, checks), flow_rows(line, t, checks)
        escapes = outside(*distance_rows(ps, pt, checks), np.abs(t - s), 1e-12)
        x, y = flow_rows(line, -np.abs(s), checks), flow_rows(line, np.abs(t), checks)
        d_x, d_y = (distance_rows(line.base_surface.rows, z, checks) for z in (x, y))
        mi = miyachi_rows(d_x, d_y, distance_rows(x, y, checks), checks)
    cases += len(s)
    failures += _row_failures(
        ["flow distance escapes interval at ({s:.3f},{t:.3f})",
         "flow does not preserve area at t={t:.3f}",
         "intersection proxy misses 1 at ({s:.3f},{t:.3f})"],
        [escapes, np.abs(pt.area - area) > 1e-9 * area, outside(*mi, 1.0, 1e-9)],
        s=s.tolist(), t=t.tolist())
    return _report("interval-soundness", cases, failures)


_SUITES: Sequence[tuple] = tuple(zip(SUITE_NAMES, (
    check_gauss_bonnet,
    check_perron_oracle,
    check_primitivity_oracle,
    check_minsky,
    check_sandwich,
    check_walsh,
    check_interval_soundness,
), strict=True))


def run_suites(seed: int = 0, names: Optional[Sequence[str]] = None) -> dict:
    """Run the selected suites (substring match, e.g. "perron") in order, as
    the whole check report: its ``config`` block echoes the seed."""
    for token in names or ():
        if not any(token in n for n in SUITE_NAMES):
            raise InputError(
                f"no check suite matches {token!r}; known: " + ", ".join(SUITE_NAMES))
    suites = [func(seed) for n, func in _SUITES
              if not names or any(token in n for token in names)]
    return {
        "seed": seed,
        "suites": suites,
        "status": "pass" if all(s["status"] == "pass" for s in suites) else "fail",
        "config": {"seed": seed},
    }
