r"""From two transverse boundary specifications to the optimal geodesic.

Given a vertical-side family ``xi`` (components ``c_i * gamma_i``) and a
horizontal-side family ``eta`` (components ``d_j * delta_j``) that jointly
fill, the unique Teichmueller geodesic with forward limit ``xi`` and
backward limit ``eta`` is found by a Perron–Frobenius reduction:

1. couple the components through ``M_ij = c_i * d_j * n(gamma_i, delta_j)``,
   one array expression over the intersection matrix N;
2. form ``T = M M^T`` by one array product, mirrored to be exactly
   symmetric; take its leading eigenpair ``(lambda, x)`` — one dense
   solve, with lambda enclosed by an exact Collatz–Wielandt bracket on that
   same float T (see :mod:`origeo.perron`) — and set
   ``y = M^T x / sqrt(lambda)``; then
   ``x*sqrt(lambda) = M y`` and ``y*sqrt(lambda) = M^T x``, the closed
   two-sided system, up to the bracket's relative width;
3. the geodesic's vertical foliation puts weight ``x_i * c_i`` on
   ``gamma_i``, the horizontal one ``y_j * d_j`` on ``delta_j``; when both
   families use all cores, these weights *are* the widths and heights of the
   time-0 flat surface.

Flowing for time ``t`` multiplies widths by ``e^t`` and heights by
``e^{-t}``; the fixed vertical multicurve then has extremal length
``e^{-2t} * area``, which is why the vertical datum is the forward
(``t -> +infinity``) limit.  Construction ends with a consistency
certificate: the ray's own limit, read off through the ergodic
decomposition of the vertical foliation, must be proportional to the
requested ``i(xi, .)`` on every core (and symmetrically backward).  Both
sides are the same kernel over the intersection matrix,
:func:`origeo.multicurve.limit_values`, with different core weights.  A
failure of that certificate means the orientation convention is broken and
raises instead of silently flipping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    CertificationError,
    HostMismatch,
    InputError,
    NotFillingError,
    SideMismatch,
)
from .multicurve import (
    HORIZONTAL,
    VERTICAL,
    BusemannSpec,
    FillingStatus,
    WeightedMulticurve,
    busemann_spec_to_json,
    core_labels,
    core_pairings,
    filling_status,
    intersection,
    limit_values,
)
from .origami import Origami, origami_to_json
from .perron import DEFAULT_TOL, PerronResult, gram_array, is_primitive, perron_solve
from .surface import WeightedSurface, distance_interval


@dataclass(frozen=True)
class GeodesicLine:
    """An optimal geodesic in flat coordinates.

    ``vertical_foliation`` carries the forward datum (its side expands under
    the flow), ``horizontal_foliation`` the backward one.  ``x`` is the
    l1-normalized leading eigenvector over the forward components, ``y`` its
    transpose-side partner, ``scale`` the growth factor sqrt(lambda).
    ``pairing`` is i(F_h, F_v), the area of every flow point, computed once.
    ``base_surface`` is the time-0 flat surface; it exists exactly when both
    families use all cores of their sides (otherwise the metric would need a
    cylinder of width zero, which is no metric on this origami — the
    eigen-data and limit functions remain available).
    ``_points`` holds the last few flow points :func:`point_at` built; each
    line, a reversed one included, starts with an empty memo of its own.
    """

    origami: Origami
    forward_spec: BusemannSpec
    backward_spec: BusemannSpec
    eigen: PerronResult
    x: Tuple[float, ...]
    y: Tuple[float, ...]
    scale: float
    vertical_foliation: WeightedMulticurve
    horizontal_foliation: WeightedMulticurve
    pairing: float
    base_surface: Optional[WeightedSurface]
    filling: FillingStatus
    walsh_forward_cosine: float
    walsh_backward_cosine: float
    tol: float
    seed: int
    _points: Dict[float, WeightedSurface] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    # thin conveniences over the module functions
    def point_at(self, t: float) -> WeightedSurface:
        return point_at(self, t)

    def flow_distance(self, s: float, t: float) -> float:
        return flow_distance(self, s, t)

    def forward_limit(self) -> Dict[str, float]:
        return forward_limit(self)

    def backward_limit(self) -> Dict[str, float]:
        return backward_limit(self)

    def reversed(self) -> "GeodesicLine":
        return reversed_line(self)

    def require_surface(self) -> WeightedSurface:
        if self.base_surface is None:
            raise NotFillingError(
                "this line was built from proper core subsets "
                "(MatrixPrimitiveOnly); it has no flat realization on the "
                "host origami, so flow operations are unavailable"
            )
        return self.base_surface


def optimal_geodesic(
    xi: BusemannSpec,
    eta: BusemannSpec,
    origami: Optional[Origami] = None,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> GeodesicLine:
    """Construct the optimal geodesic joining two boundary specifications.

    The vertical-side family is always the forward datum; the two specs may
    be passed in either order but must sit on opposite sides.  Raises
    NotFillingError / NotPrimitiveError when the pair cannot span a
    geodesic, InputError when the float coupling M or M M^T leaves the
    float64 range (an entry overflows to inf, or one the exact coupling
    makes positive underflows to 0), and CertificationError when an
    internal consistency certificate (system closure, limit
    proportionality) fails.
    """
    if xi.host is not eta.host:
        raise HostMismatch("the two specs live on different origamis")
    if origami is not None and origami is not xi.host:
        raise HostMismatch("passed origami is not the specs' host")
    if xi.side == eta.side:
        raise SideMismatch(
            f"need one family per side, got both on {xi.side}"
        )
    if xi.side != VERTICAL:
        xi, eta = eta, xi  # forward datum is carried by the vertical side
    host: Origami = xi.host
    host.validate()

    status = filling_status(xi.as_multicurve(), eta.as_multicurve())
    if status is FillingStatus.NOT_FILLING:
        raise NotFillingError(
            "the families do not fill: restricted intersection matrix has a "
            "zero line or a disconnected support graph"
        )

    # rows = xi components, columns = eta components
    n = host.intersection_matrix()
    xi_support, eta_support = xi.support, eta.support
    range_error = InputError(
        "the coefficients span more than float64 carries: the coupling "
        "M or M M^T overflows to inf or underflows to 0"
    )
    try:  # an exact coefficient beyond float64 raises here
        c = [float(xi.coeffs[lab]) for lab in xi_support]
        d = [float(eta.coeffs[lab]) for lab in eta_support]
    except OverflowError:
        raise range_error from None
    n_sub = n.array[
        np.ix_(
            [n.row_labels.index(lab) for lab in eta_support],
            [n.col_labels.index(lab) for lab in xi_support],
        )
    ]
    with np.errstate(all="ignore"):  # range loss is reported just below
        m = np.outer(c, d) * n_sub.T
        mmt = gram_array(m)
    # M and M M^T are positive at most where their exact values are, so a
    # nonzero count below the exact one is an entry that underflowed to 0
    if not (
        np.isfinite(m).all()
        and np.isfinite(mmt).all()
        and np.count_nonzero(m) == np.count_nonzero(n_sub)
        and np.count_nonzero(mmt) == np.count_nonzero(n_sub.T @ n_sub)
    ):
        raise range_error
    if not is_primitive(m.tolist()):
        # unreachable when filling_status passed; kept as a hard guard
        raise NotFillingError("coupling matrix is not primitive")

    eigen = perron_solve(mmt, tol=tol, seed=seed)
    scale = math.sqrt(eigen.eigenvalue)
    xv = np.array(eigen.vector)
    yv = (m.T @ xv) / scale

    # |M y - sqrt(lambda) x|_i <= tol * sqrt(lambda) * x_i by the bracket
    closure = float(np.max(np.abs(m @ yv - scale * xv)))
    if closure > 10 * tol * max(scale, 1.0 / scale):
        raise CertificationError(
            f"two-sided system failed to close: |M y - sqrt(lambda) x| = {closure:.3g}"
        )

    y = tuple(float(v) for v in yv)
    widths = {lab: ci * xi_i for lab, ci, xi_i in zip(xi_support, c, eigen.vector)}
    heights = {lab: dj * yj for lab, dj, yj in zip(eta_support, d, y)}
    base = None
    if status is FillingStatus.FILLING_CERTIFIED:
        # the foliations are the base surface's own, validated once with it
        base = WeightedSurface(host, heights, widths)
        f_vert = base.defining_foliation(VERTICAL)
        f_hor = base.defining_foliation(HORIZONTAL)
    else:
        f_vert = WeightedMulticurve(host, VERTICAL, widths)
        f_hor = WeightedMulticurve(host, HORIZONTAL, heights)

    pairing = intersection(f_hor, f_vert)
    if base is not None and base.area() != pairing:
        raise CertificationError("base surface area disagrees with the pairing")

    cos_fwd = _cosine(ray_limit(f_vert, f_hor), spec_pairing(xi))
    cos_bwd = _cosine(ray_limit(f_hor, f_vert), spec_pairing(eta))
    certificate_floor = 1 - max(10 * tol, 1e-11)
    if cos_fwd < certificate_floor or cos_bwd < certificate_floor:
        raise CertificationError(
            "limit consistency certificate failed: cosines "
            f"{cos_fwd!r}/{cos_bwd!r} — orientation convention violated"
        )

    return GeodesicLine(
        origami=host,
        forward_spec=xi,
        backward_spec=eta,
        eigen=eigen,
        x=tuple(eigen.vector),
        y=y,
        scale=scale,
        vertical_foliation=f_vert,
        horizontal_foliation=f_hor,
        pairing=float(pairing),
        base_surface=base,
        filling=status,
        walsh_forward_cosine=cos_fwd,
        walsh_backward_cosine=cos_bwd,
        tol=tol,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# flow


# Flow points a line keeps.  A flow row asks for its G(t) twice and for the
# far Busemann point G(horizon) once; a converge row for G(-n) and G(n)
# twice each.  Four hold every point in use, and a long flow stays flat in
# memory.
_POINT_MEMO_SIZE = 4


def point_at(line: GeodesicLine, t: float) -> WeightedSurface:
    """The flow point at time t: widths scaled by e^t, heights by e^{-t}.

    (On a time-reversed line the roles are exchanged, so that reversal
    negates the parameter.)  The area is invariant along the line.
    ``t == 0`` is the base surface itself.  The line keeps the last
    ``_POINT_MEMO_SIZE`` points it built, keyed by the float ``t`` and
    dropping the least recently used first, so a time asked for again
    returns the same surface, and with it that surface's cached area and
    extremal lengths.
    """
    base = line.require_surface()
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"flow time must be finite, got {t}")
    if t == 0.0:
        return base
    memo = line._points
    point = memo.pop(t, None)
    if point is None:
        grow, shrink = math.exp(t), math.exp(-t)
        if line.vertical_foliation.side == VERTICAL:
            point = base.scaled(width_factor=grow, height_factor=shrink)
        else:
            point = base.scaled(width_factor=shrink, height_factor=grow)
        if len(memo) >= _POINT_MEMO_SIZE:
            del memo[next(iter(memo))]
    memo[t] = point  # reinserted last: the most recently used
    return point


def flow_distance(line: GeodesicLine, s: float, t: float) -> float:
    """Teichmueller distance |t - s| between two flow points, cross-checked.

    The certified distance interval from the defining-foliation family must
    bracket |t - s| within 1e-12; a miss is a certification bug.
    """
    value = abs(float(t) - float(s))
    ival = distance_interval(point_at(line, s), point_at(line, t))
    if not ival.contains(value, tol=1e-12):
        raise CertificationError(
            f"flow distance {value} escapes certified interval "
            f"[{ival.lo}, {ival.hi}]"
        )
    return value


# ---------------------------------------------------------------------------
# limits


def ray_limit(
    components: WeightedMulticurve,
    transverse: WeightedMulticurve,
    curves: Optional[Sequence[WeightedMulticurve]] = None,
) -> np.ndarray:
    """The ray's limit on ``curves`` (default: every core), unnormalized.

    Read off the ergodic decomposition of ``components``:
    value(gamma)^2 = sum_k (w_k i(core_k, gamma))^2 / (w_k i(core_k, F)),
    which is :func:`limit_values` with q_k = w_k / i(core_k, F) for the
    transverse foliation F.  That pairing is positive for primitive data.
    """
    host, side = components.host, components.side
    pairings = core_pairings(host, side, [transverse])[:, 0]
    q = {}
    for cyl, pairing in zip(host.cylinders(side), pairings):
        if cyl.label not in components.weights:
            continue
        if not pairing > 0:
            raise CertificationError(
                f"component {cyl.label} has zero pairing with the transverse "
                "foliation; data is not primitive"
            )
        q[cyl.label] = float(components.weights[cyl.label]) / pairing
    return limit_values(host, side, q, curves)


def spec_pairing(
    spec: BusemannSpec, curves: Optional[Sequence[WeightedMulticurve]] = None
) -> np.ndarray:
    """i(spec, gamma) = sqrt(sum_i c_i^2 i(gamma_i, gamma)^2) on ``curves``."""
    q = {lab: float(c) ** 2 for lab, c in spec.coeffs.items()}
    return limit_values(spec.host, spec.side, q, curves)


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(a @ b / (na * nb))


def _normalized(host: Origami, values: np.ndarray) -> Dict[str, float]:
    norm = np.linalg.norm(values)
    if norm == 0:
        raise CertificationError("limit function vanished on every core")
    return dict(zip(core_labels(host), (values / norm).tolist()))


def forward_limit(line: GeodesicLine) -> Dict[str, float]:
    """The ray's forward limit evaluated on all cores, l2-normalized.

    Proportional to i(forward_spec, .) — this proportionality is the
    construction's consistency certificate.
    """
    return _normalized(
        line.origami, ray_limit(line.vertical_foliation, line.horizontal_foliation)
    )


def backward_limit(line: GeodesicLine) -> Dict[str, float]:
    """Same for t -> -infinity: roles of the two foliations exchanged."""
    return _normalized(
        line.origami, ray_limit(line.horizontal_foliation, line.vertical_foliation)
    )


def reversed_line(line: GeodesicLine) -> GeodesicLine:
    """Time reversal: swaps the two foliations/specs and negates t.

    Shares the construction's eigen record; the swapped x/y keep their
    original normalization so that forward_limit(reversed) is bit-for-bit
    backward_limit(original).
    """
    return replace(
        line,
        forward_spec=line.backward_spec,
        backward_spec=line.forward_spec,
        x=line.y,
        y=line.x,
        vertical_foliation=line.horizontal_foliation,
        horizontal_foliation=line.vertical_foliation,
        walsh_forward_cosine=line.walsh_backward_cosine,
        walsh_backward_cosine=line.walsh_forward_cosine,
    )


# ---------------------------------------------------------------------------
# reports


def line_report(line: GeodesicLine) -> dict:
    """JSON-ready report; embeds the inputs so the line can be rebuilt."""
    area_val = None
    if line.base_surface is not None:
        area_val = f"{float(line.base_surface.area()):.15g}"
    return {
        "lambda": repr(float(line.eigen.eigenvalue)),
        "lambdaLo": line.eigen.lower,
        "lambdaHi": line.eigen.upper,
        "x": [f"{v:.15g}" for v in line.x],
        "y": [f"{v:.15g}" for v in line.y],
        "residual": line.eigen.residual,
        "iterations": line.eigen.iterations,
        "scaleFactor": f"{line.scale:.15g}",
        "fVert": {k: f"{v:.15g}" for k, v in line.vertical_foliation.weights.items()},
        "fHor": {k: f"{v:.15g}" for k, v in line.horizontal_foliation.weights.items()},
        "area": area_val,
        "filling": line.filling.value,
        "walshForwardCosine": line.walsh_forward_cosine,
        "walshBackwardCosine": line.walsh_backward_cosine,
        "inputs": {
            "origami": origami_to_json(line.origami),
            "xi": busemann_spec_to_json(line.forward_spec),
            "eta": busemann_spec_to_json(line.backward_spec),
        },
        "config": {"tol": line.tol, "seed": line.seed},
    }


def line_from_report(report: dict) -> GeodesicLine:
    """Rebuild a line from a report's embedded inputs (deterministic).

    ``config`` is optional; when present it must be an object whose ``tol``
    is a number and whose ``seed`` is an integer.
    """
    from .multicurve import parse_busemann_spec
    from .origami import parse_origami

    try:
        inputs = report["inputs"]
        config = report.get("config", {})
        host = parse_origami(inputs["origami"])
        xi = parse_busemann_spec(inputs["xi"], host)
        eta = parse_busemann_spec(inputs["eta"], host)
    except (KeyError, TypeError) as exc:
        raise InputError(f"report lacks reconstructible inputs: {exc}") from None
    if not isinstance(config, dict):
        raise InputError(f"report 'config' must be an object, got {config!r}")
    tol = config.get("tol", DEFAULT_TOL)
    seed = config.get("seed", 0)
    if isinstance(tol, bool) or not isinstance(tol, (int, float)):
        raise InputError(f"report config 'tol' must be a number, got {tol!r}")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise InputError(f"report config 'seed' must be an integer, got {seed!r}")
    try:
        tol = float(tol)
    except OverflowError:
        raise InputError("report config 'tol' is beyond the float range") from None
    return optimal_geodesic(xi, eta, tol=tol, seed=seed)
