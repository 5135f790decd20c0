r"""Horofunctions, boundary pairings, and inequality audits.

Three ways to evaluate "how far toward infinity" a surface sits, all
normalized to vanish at a chosen basepoint and returned as a certified
:class:`~origeo.intervals.ValueInterval`:

* ``psi_foliation`` — along a foliation ray ``F``, the renormalized
  log-extremal-length ``(1/2) log Ext_X(F) - (1/2) log Ext_X0(F)``.  A
  degenerate interval whenever both extremal lengths fall on the exact
  proportionality path.
* ``psi_interior`` — against an interior point ``Z``, the distance
  difference ``d(X, Z) - d(X0, Z)`` as a certified interval.
* ``busemann_interval`` — against a geodesic line's forward endpoint,
  normalized at the line's base G(0), the Busemann function enclosed
  between the foliation bound from below and a far flow point from above:
  ``d(X, G(T)) - T`` decreases to the Busemann value as the horizon ``T``
  grows, so any finite horizon gives a sound upper bound.

On float surfaces each runs the one-row case of ``*_rows`` kernels, which
the self-checks, ``flow_table`` (``origeo flow``) and ``converge_ladder``
(``origeo converge``) run on whole blocks of surfaces.

The audits at the bottom turn standard comparison inequalities into
machine-checked certificates on concrete surfaces rather than trusting
them abstractly; violations indicate a broken interval, not a broken
theorem, and are reported as such.
"""

from __future__ import annotations

import math

from .errors import CertificationError, Checks, HostMismatch, InputError, at, np
from .geodesic import (
    GeodesicLine,
    check_flow_distance,
    check_reach,
    flow_rows,
    spec_pairing,
)
from .intervals import ValueInterval, one_row, outside
from .multicurve import BusemannSpec, WeightedMulticurve, core_pairings, intersection
from .origami import HORIZONTAL, VERTICAL
from .surface import (
    SurfaceRows,
    WeightedSurface,
    _exact_ext_bounds,
    core_ext_bounds,
    curve_ext_rows,
    distance_interval,
    distance_rows,
    elementwise,
    ext_interval,
    ext_rows,
    qc_rows,
)


def walsh_eval(spec: BusemannSpec, mu: WeightedMulticurve) -> float:
    """sqrt(sum_i c_i^2 i(gamma_i, mu)^2): the boundary spec paired with mu."""
    return float(spec_pairing(spec, [mu])[0])


def psi_foliation(
    f: WeightedMulticurve, x: WeightedSurface, x0: WeightedSurface
) -> ValueInterval:
    """Horofunction of the foliation ray F, normalized at X0."""
    ext_x, ext_0 = ext_interval(x, f), ext_interval(x0, f)
    return one_row(psi_rows, (ext_x.lo, ext_x.hi), (ext_0.lo, ext_0.hi))


def psi_rows(ext_x, ext_0, checks: Checks):
    """psi_foliation at every row, from the (lo, hi) extremal lengths of F
    at X and at X0."""
    (x_lo, x_hi), (o_lo, o_hi) = (np.asarray(e, float) for e in (ext_x, ext_0))
    return (0.5 * elementwise(math.log, x_lo / o_hi, checks),
            0.5 * elementwise(math.log, x_hi / o_lo, checks))


def psi_interior(
    z: WeightedSurface, x: WeightedSurface, x0: WeightedSurface
) -> ValueInterval:
    """d(X, Z) - d(X0, Z) as a certified interval."""
    return distance_interval(x, z).minus(distance_interval(x0, z))


def busemann_interval(
    line: GeodesicLine, x: WeightedSurface, horizon: float = 8.0
) -> ValueInterval:
    """Enclose the Busemann function of the line's forward endpoint at X,
    normalized to vanish at the line's base G(0): the one-row
    :func:`busemann_rows`.  The lower end is the foliation bound; the upper
    end is the quasiconformal bound of d(X, G(horizon)), minus the horizon.

    For another basepoint X0, subtract the enclosure at X0:
    ``busemann_interval(line, x).minus(busemann_interval(line, x0))``.
    Larger horizons tighten the upper bound (at ``T >= t + 5`` the
    enclosure at a flow point G(t) is already sharp to ~1e-9).
    """
    if not 0 < horizon < math.inf:
        raise InputError(f"horizon must be positive and finite, got {horizon}")
    if x.origami is not line.origami:
        raise HostMismatch("surface does not live on the line's origami")
    return one_row(busemann_rows, line, x.rows, np.array([float(horizon)]))


def busemann_rows(line: GeodesicLine, y: SurfaceRows, horizons, checks: Checks):
    """busemann_interval(line, Y, horizon=h) at every row, h the row's own
    (one horizon stands for all): the foliation bound below, and above the
    quasiconformal bound of d(Y, G(h)) (:func:`qc_rows`) minus h.  Only
    that upper end of the distance enters, so G(h) needs no extremal length."""
    f_v = line.vertical_foliation  # the base's own
    ext_lo, _ = ext_rows(y, f_v.side, line.base_surface.rows.side(f_v.side), checks)
    lo = 0.5 * elementwise(math.log, ext_lo, checks) - 0.5 * math.log(line.pairing)
    hi = qc_rows(y, flow_rows(line, horizons, checks), checks) - horizons
    checks.add(lo > hi + 1e-9, lambda i: CertificationError(
        f"Busemann enclosure inverted: lo={at(lo, i)!r} > hi={at(hi, i)!r}"))
    swap = lo > hi
    return np.where(swap, hi, lo), np.where(swap, lo, hi)


def miyachi_intersection(
    x: WeightedSurface, y: WeightedSurface, x0: WeightedSurface
) -> ValueInterval:
    """exp(-2 <X|Y>_{X0}) with the Gromov product taken interval-soundly.

    Multiplicative counterpart of the distance bracket: equals 1 exactly
    when X0 lies on a geodesic between X and Y.
    """
    ds = distance_interval(x0, x), distance_interval(x0, y), distance_interval(x, y)
    return one_row(miyachi_rows, *((d.lo, d.hi) for d in ds))


def miyachi_rows(dx, dy, dxy, checks: Checks):
    """miyachi_intersection at every row, from the (lo, hi) distances of X0
    to X, of X0 to Y and of X to Y."""
    product_lo = 0.5 * (dx[0] + dy[0] - dxy[1])
    product_hi = 0.5 * (dx[1] + dy[1] - dxy[0])
    return (elementwise(math.exp, -2.0 * product_hi, checks),
            elementwise(math.exp, -2.0 * product_lo, checks))


# ---------------------------------------------------------------------------
# tables

# A flow table is evaluated this many rows at a time, so that memory stays
# flat however long the grid: a block's largest array is this many times the
# largest per-row array, the (cylinders x cylinders) circumference table of
# an extremal length off the defining foliations.
_BLOCK_ROWS = 128


def flow_table(line: GeodesicLine, ts: np.ndarray, horizon: float):
    """The CSV header and one row per time t of ``ts``: t, the widths and
    heights of G(t), Ext and psi of F_v and F_h there, the Busemann enclosure
    against the far point G(max(horizon, t + 5)) and d(G(0), G(t)), with the
    checks of every row.  Each column is one array pass over a block of rows."""
    header = ["t", *(f"width_{lab}" for lab in line.base_surface.widths),
              *(f"height_{lab}" for lab in line.base_surface.heights),
              "ext_fv", "ext_fh", "psi_fv", "psi_fh", "busemann_lo", "busemann_hi",
              "d_to_base"]
    base = line.base_surface.rows
    far = np.maximum(horizon, ts + 5.0)
    check_reach(float((np.abs(ts) + np.abs(far)).max()), "flow time plus horizon")
    blocks = []
    for start in range(0, len(ts), _BLOCK_ROWS):
        t = ts[start:start + _BLOCK_ROWS]
        with Checks() as checks:
            pt = flow_rows(line, t, checks)
            exts, psis = [], []
            for f in (line.vertical_foliation, line.horizontal_foliation):
                # the line's foliations are the base's own: F_v weighs the
                # widths, and its extremal length at the base is the base's area
                exts.append(ext_rows(pt, f.side, base.side(f.side), checks))
                psis.append(psi_rows(exts[-1], (base.area, base.area), checks))
            for (lo, hi), want, name in zip(psis, (-t, t), ("psi_fv", "psi_fh")):
                def strays(i, lo=lo, hi=hi, want=want, name=name):
                    return CertificationError(f"{name} at t={at(t, i)} strays from "
                                              f"{at(want, i)}: [{at(lo, i)}, {at(hi, i)}]")
                checks.add(outside(lo, hi, want, 1e-12), strays)
            bus_lo, bus_hi = busemann_rows(line, pt, far[start:start + len(t)], checks)
            checks.add(outside(bus_lo, bus_hi, -t, 1e-9),
                       lambda i: CertificationError(
                           f"Busemann enclosure at t={at(t, i)} misses {at(-t, i)}: "
                           f"[{at(bus_lo, i)}, {at(bus_hi, i)}]"))
            d_to_base = np.abs(t)
            check_flow_distance(d_to_base, *distance_rows(base, pt, checks), checks)
        blocks.append(np.column_stack([t, pt.widths, pt.heights, exts[0][0], exts[1][0],
                                       *((lo + hi) / 2.0 for lo, hi in psis),
                                       bus_lo, bus_hi, d_to_base]))
    return header, np.vstack(blocks)


def converge_ladder(line: GeodesicLine, n_max: int) -> dict:
    """The boundary convergence scheme at the rungs n = 1..n_max, as JSON:
    the pairs G(-n), G(n) with their gap and Miyachi bracket, and the line's
    :func:`delta_probe`."""
    base = line.base_surface
    # the cap keeps n-max below 89, so the whole ladder is one block of rows
    check_reach(2.0 * n_max, "the span of G(-n-max) and G(n-max)")
    b = base.rows
    ns = np.arange(1.0, n_max + 1)
    with Checks() as checks:
        x, y = (flow_rows(line, t, checks) for t in (-ns, ns))
        d_xy = distance_rows(x, y, checks)
        check_flow_distance(2.0 * ns, *d_xy, checks)
        d_0x = distance_rows(b, x, checks)
        check_flow_distance(ns, *d_0x, checks)
        miyachi = miyachi_rows(d_0x, distance_rows(b, y, checks), d_xy, checks)

    # one object per rung: n, its gap and its Miyachi bracket
    rows = zip(*(np.asarray(c).tolist() for c in (2.0 * ns - ns, *miyachi)))
    return {
        "nMax": n_max,
        "exact": [dict(zip(("n", "gap", "miyachiLo", "miyachiHi"), (n, *row)))
                  for n, row in enumerate(rows, 1)],
        "deltaProbe": delta_probe(line.forward_spec, line.backward_spec, base),
    }


# ---------------------------------------------------------------------------
# audits


def minsky_audit(x: WeightedSurface) -> dict:
    """Check n(a, b)^2 <= ExtHi(a) * ExtHi(b) over every core pair on X.

    The pairs run over the horizontal cores a and, for each, the vertical
    cores b.  The true extremal lengths satisfy the product inequality, so
    a violation against the *upper* bounds can only come from a broken
    interval.  Also asserts the defining-pair identity
    i(F_v, F_h)^2 = area^2, which holds bit-for-bit because both sides run
    the same accumulation.  The cores' upper bounds take one pass per side
    (an exact surface builds no lower end); on an exact surface each pair's
    comparison runs on integers.
    """
    matrix, exact = x.origami.intersection_matrix(), x._integers
    # core labels are distinct across the sides (A1.. and B1..)
    ext_hi = dict(zip(matrix.core_labels, [
        hi for side in (HORIZONTAL, VERTICAL) for hi in (
            core_ext_bounds(x, side) if exact is None
            else _exact_ext_bounds(exact[side], lower=False))[1]]))
    # exact bounds as (numerator, denominator): each product is then compared
    # over its one denominator, and its float is the correctly rounded quotient
    if exact:
        ext_hi = {lab: hi.as_integer_ratio() for lab, hi in ext_hi.items()}
    entries = []
    all_ok = True
    for alab, row in zip(matrix.row_labels, matrix.entries):
        for blab, n_ab in zip(matrix.col_labels, row):
            if exact:
                (na, da), (nb, db) = ext_hi[alab], ext_hi[blab]
                ok, bound = n_ab * n_ab * da * db <= na * nb, na * nb / (da * db)
            else:
                bound = ext_hi[alab] * ext_hi[blab]
                ok, bound = n_ab * n_ab <= bound, float(bound)
            all_ok = all_ok and ok
            entries.append(
                {
                    "pair": [alab, blab],
                    "intersection": n_ab,
                    "extUpperProduct": bound,
                    "status": "certified" if ok else "violated",
                }
            )
    fh = x.defining_foliation(HORIZONTAL)
    fv = x.defining_foliation(VERTICAL)
    pairing, area = intersection(fv, fh), x.area()
    if exact:
        (pn, pd), (an, ad) = pairing.as_integer_ratio(), area.as_integer_ratio()
        # lowest terms square to lowest terms: the squares are equal iff these are
        exact_eq = (pn, pd) == (an, ad)
        pairing_sq, area_sq = pn * pn / (pd * pd), an * an / (ad * ad)
    else:
        pairing_sq, area_sq = pairing * pairing, area * area
        exact_eq = pairing_sq == area_sq
    all_ok = all_ok and exact_eq
    return {
        "pairs": entries,
        "definingEquality": {
            "pairingSquared": float(pairing_sq),
            "areaSquared": float(area_sq),
            "status": "exact" if exact_eq else "violated",
        },
        "status": "pass" if all_ok else "fail",
    }


def lower_bound_audit(line: GeodesicLine) -> dict:
    """Check i(F_v, gamma)/sqrt(area) <= forward limit value on every core
    gamma of the line's origami (of a proper pair's O′: the used cores), in
    the order of N's ``core_labels``.

    Cauchy–Schwarz across the ergodic components; equality exactly when
    the component values i(gamma_i, gamma)/i(gamma_i, F_h) are all equal.
    The area here is the pairing i(F_v, F_h) that the line keeps.
    """
    f_v, host = line.vertical_foliation, line.origami
    sqrt_area = math.sqrt(line.pairing)
    # i(F_v, gamma) = sum_k w_k i(core_k, gamma) over F_v's cores
    pairings = f_v.row @ core_pairings(host, f_v.side) / sqrt_area
    limits = line.forward_values  # ray_limit(F_v, F_h), kept by the line
    entries = []
    min_margin = math.inf
    all_ok = True
    labels = host.intersection_matrix().core_labels
    for tag, lhs, rhs in zip(labels, pairings.tolist(), limits.tolist()):
        margin = rhs - lhs
        ok = margin >= -1e-12
        all_ok = all_ok and ok
        min_margin = min(min_margin, margin)
        entries.append(
            {
                "curve": tag,
                "pairingOverSqrtArea": lhs,
                "limitValue": rhs,
                "margin": margin,
                "status": "certified" if ok else "violated",
            }
        )
    return {
        "entries": entries,
        "minMargin": min_margin,
        "status": "pass" if all_ok else "fail",
    }


def delta_probe(xi: BusemannSpec, eta: BusemannSpec, base: WeightedSurface) -> dict:
    """Smallest combined pairing of the two specs over unit-length cores.

    Each core is rescaled so its extremal-length upper bound at ``base`` is
    1, and the least ``spec_pairing(xi, None, scales) + spec_pairing(eta,
    None, scales)`` is reported with its core's label as the witness.  The
    bounds are :func:`~origeo.surface.curve_ext_bounds`' bit for bit on a
    float base: the cores' weights are the identity block, each side's
    columns going through :func:`~origeo.surface.curve_ext_rows` against
    the base's one row.  A core bounded by 0 or inf has no unit rescaling
    in floats and is skipped; a base on which no core has one is refused.
    A *probe*: the minimum over some cores, an upper bound for the infimum
    over all curves — labeled accordingly, never a certificate.
    """
    if xi.host is not base.origami or eta.host is not base.origami:
        raise HostMismatch("specs and base surface live on different origamis")
    host = base.origami
    labels = host.intersection_matrix().core_labels
    u = np.eye(len(labels))
    h = len(host.cylinders(HORIZONTAL))
    with Checks() as checks:
        # a core's columns on the other side are 0, and so is their bound
        hi = sum(curve_ext_rows(base.rows, side, w, checks)[1]
                 for side, w in ((HORIZONTAL, u[:, :h]), (VERTICAL, u[:, h:])))
        scales = 1.0 / np.sqrt(hi)
        kept = (scales > 0) & (scales < math.inf)
        checks.add(~kept & ~kept.any(),
                   lambda i: InputError(
                       f"probe curve {labels[i]} has no unit rescaling in "
                       f"floats: its extremal length bound is {at(hi, i)!r}"))
        # a skipped core's pairing may be 0 * inf, its value is never read
        values = spec_pairing(xi, None, scales) + spec_pairing(eta, None, scales)
    best = int(np.flatnonzero(kept)[np.argmin(values[kept])])
    return {"value": float(values[best]), "witness": labels[best], "status": "probe"}
