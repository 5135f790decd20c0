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
   ``gamma_i``, the horizontal one ``y_j * d_j`` on ``delta_j``; these
   weights *are* the widths and heights of the time-0 flat surface.

A proper filling pair runs these steps on its O′
(:func:`origeo.multicurve.filling_origami`), whose N is the host's N
restricted to the two supports, under the host's labels and order.

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
import sys
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple

from .errors import (
    DEFAULT_TOL,
    CertificationError,
    Checks,
    HostMismatch,
    InputError,
    SideMismatch,
    at,
    checked,
    np,
)
from .intervals import outside
from .multicurve import (
    BusemannSpec,
    WeightedMulticurve,
    busemann_spec_to_json,
    filling_origami,
    limit_values,
    parse_busemann_spec,
)
from .origami import HORIZONTAL, VERTICAL, Origami, origami_to_json, parse_origami
from .perron import PerronResult, gram_array, perron_solve
from .surface import SurfaceRows, WeightedSurface, check_weights, distance_rows

# Flow points G(s), G(t) carry weights scaled by e^{+-s}, e^{+-t}, and the
# brackets between them compare extremal lengths, which scale like e^{2|t|}.
# Keeping e^{2 (|s| + |t|)} below the square root of the largest float
# leaves the other half of the exponent range to the weights themselves.
MAX_REACH = math.log(sys.float_info.max) / 4


@dataclass(frozen=True)
class GeodesicLine:
    """An optimal geodesic in flat coordinates.

    ``vertical_foliation`` carries the forward datum (its side expands under
    the flow), ``horizontal_foliation`` the backward one.  ``x`` is the
    l1-normalized leading eigenvector over the forward components, ``y`` its
    transpose-side partner, ``scale`` the growth factor sqrt(lambda).
    ``pairing`` is i(F_h, F_v), the area of every flow point, computed once.
    ``base_surface`` is the time-0 flat surface on ``origami``: the host, or
    for proper supports the pair's O′ (whose ``parent`` is the host), where
    the specs, the foliations and the limits live: on the used cores.
    ``forward_values`` and ``backward_values`` are the read-only
    :func:`ray_limit` vectors the Walsh cosines checked, which the limits
    normalize.
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
    base_surface: WeightedSurface
    walsh_forward_cosine: float
    walsh_backward_cosine: float
    tol: float
    forward_values: np.ndarray = field(compare=False, repr=False)
    backward_values: np.ndarray = field(compare=False, repr=False)


def optimal_geodesic(
    xi: BusemannSpec, eta: BusemannSpec, tol: float = DEFAULT_TOL
) -> GeodesicLine:
    """Construct the optimal geodesic joining two boundary specifications.

    The vertical-side family is always the forward datum; the two specs may
    be passed in either order but must sit on opposite sides of one host;
    they and ``tol`` fix every bit of the line (nothing is drawn at random).
    Raises NotFillingError / NotPrimitiveError when the pair cannot span a
    geodesic, InputError when a coefficient's square leaves the normal
    float64 range or the float coupling M or M M^T leaves the float64 range
    (an entry overflows to inf, or one the exact coupling makes positive
    underflows to 0) or the squared norm of a limit vector or of its target
    ``spec_pairing`` overflows, and CertificationError when an internal
    consistency certificate (system closure, limit proportionality) fails.
    The base surface is the row c*x, d*y, checked once by :func:`check_weights`.
    """
    if xi.host is not eta.host:
        raise HostMismatch("the two specs live on different origamis")
    if xi.side == eta.side:
        raise SideMismatch(
            f"need one family per side, got both on {xi.side}"
        )
    if xi.side != VERTICAL:
        xi, eta = eta, xi  # forward datum is carried by the vertical side
    xi.host.validate()
    # a proper filling pair runs on its O′, whose cores carry their labels
    host: Origami = filling_origami(xi.as_multicurve(), eta.as_multicurve())
    if host is not xi.host:
        xi, eta = (BusemannSpec(host, s.side, s.coeffs, s.approx) for s in (xi, eta))

    # rows = xi components, columns = eta components
    n = host.intersection_matrix()
    range_error = InputError(
        "the coefficients span more than float64 carries: a coefficient's "
        "square leaves the normal range, or the coupling M or M M^T "
        "overflows to inf or underflows to 0"
    )
    try:  # an exact coefficient beyond float64 raises here
        c = xi.as_multicurve().row.tolist()
        d = eta.as_multicurve().row.tolist()
    except OverflowError:
        raise range_error from None
    # spec_pairing, behind the limit certificate, squares every coefficient
    if not all(sys.float_info.min <= v * v < math.inf for v in c + d):
        raise range_error
    with np.errstate(all="ignore"):  # range loss is reported just below
        m = np.outer(c, d) * n.array.T
        mmt = gram_array(m)
    # M and M M^T are positive at most where their exact values are, so a
    # nonzero count below the one N keeps (for N and N^T N) is an entry that
    # underflowed to 0; equal counts give M the connected support of N^T
    if not (
        np.isfinite(m).all()
        and np.isfinite(mmt).all()
        and (np.count_nonzero(m), np.count_nonzero(mmt)) == (len(n.cells[0]),
                                                             n.gram_nonzeros)
    ):
        raise range_error

    eigen = perron_solve(mmt, tol=tol)
    scale = math.sqrt(eigen.eigenvalue)
    xv = np.array(eigen.vector)
    yv = (m.T @ xv) / scale

    # |M y - sqrt(lambda) x|_i <= tol * sqrt(lambda) * x_i by the bracket
    closure = float(np.max(np.abs(m @ yv - scale * xv)))
    if closure > 10 * tol * max(scale, 1.0 / scale):
        raise CertificationError(
            f"two-sided system failed to close: |M y - sqrt(lambda) x| = {closure:.3g}"
        )

    with np.errstate(all="ignore"):  # a weight past the float range is refused below
        widths, heights = np.multiply(c, xv), np.multiply(d, yv)
    # the foliations are the base surface's own, checked once as its row
    base = WeightedSurface._from_checked_row(
        checked(check_weights, SurfaceRows(host, heights[None], widths[None])))
    f_vert, f_hor = (base.defining_foliation(s) for s in (VERTICAL, HORIZONTAL))

    forward, backward = ray_limit(f_vert, f_hor), ray_limit(f_hor, f_vert)
    forward.flags.writeable = backward.flags.writeable = False
    with np.errstate(over="ignore"):  # a sum past the float range is refused below
        targets = spec_pairing(xi), spec_pairing(eta)
        squares = [v @ v for v in (forward, backward, *targets)]
    # each squared norm finite keeps the cosines' products finite too
    if not all(map(math.isfinite, squares)):
        raise range_error
    cos_fwd, cos_bwd = _cosine(forward, targets[0]), _cosine(backward, targets[1])
    certificate_floor = 1 - max(10 * tol, 1e-11)
    # a NaN cosine fails the certificate
    if not (cos_fwd >= certificate_floor and cos_bwd >= certificate_floor):
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
        y=tuple(yv.tolist()),
        scale=scale,
        vertical_foliation=f_vert,
        horizontal_foliation=f_hor,
        pairing=float(base.area()),
        base_surface=base,
        walsh_forward_cosine=cos_fwd,
        walsh_backward_cosine=cos_bwd,
        tol=tol,
        forward_values=forward,
        backward_values=backward,
    )


# ---------------------------------------------------------------------------
# flow


def _flow_time(t: float) -> float:
    t = float(t)
    if not math.isfinite(t):
        raise InputError(f"flow time must be finite, got {t}")
    return t


def check_reach(reach: float, what: str) -> None:
    """Refuse a largest |s| + |t| of compared flow points beyond MAX_REACH."""
    if not reach <= MAX_REACH:
        raise InputError(
            f"{what} is {reach:g}, beyond the {MAX_REACH:.1f} that floats "
            "carry (log of the largest float / 4)"
        )


def _exp(t: float) -> float:
    try:  # inf past the float range: the weights' check refuses the row
        return math.exp(t)
    except OverflowError:
        return math.inf


def point_at(line: GeodesicLine, t: float) -> WeightedSurface:
    """The flow point at time t, the one-row case of :func:`flow_rows`, built
    anew at each call.  ``t == 0`` is the base surface itself.  The flow's
    own callers take :func:`flow_rows` blocks and build no surface."""
    t = _flow_time(t)
    if t == 0.0:
        return line.base_surface
    return WeightedSurface._from_checked_row(checked(flow_rows, line, np.array([t])))


def flow_rows(line: GeodesicLine, ts: np.ndarray, checks: Checks) -> SurfaceRows:
    """The flow points at the times ``ts``, one row each, with their weights
    checked: widths scaled by e^t, heights by e^{-t} (exchanged on a
    time-reversed line, so that reversal negates the parameter)."""
    base = line.base_surface.rows
    grow, shrink = (np.array([_exp(u) for u in s.tolist()])[:, None] for s in (ts, -ts))
    if line.vertical_foliation.side != VERTICAL:
        grow, shrink = shrink, grow
    return check_weights(
        SurfaceRows(line.origami, base.heights * shrink, base.widths * grow), checks)


def flow_distance(line: GeodesicLine, s: float, t: float) -> float:
    """Teichmueller distance |t - s| between two flow points, cross-checked.

    The certified distance interval from the defining-foliation family must
    bracket |t - s| within 1e-12; a miss is a certification bug.  The two
    points are one two-row :func:`flow_rows` block, whose weights are checked
    (s first) before its rows go through :func:`distance_rows`.
    """
    s, t = _flow_time(s), _flow_time(t)
    value = abs(t - s)
    x = checked(flow_rows, line, np.array([s, t]))
    with Checks() as checks:
        check_flow_distance(value, *distance_rows(x[:1], x[1:], checks), checks)
    return value


def check_flow_distance(value, lo, hi, checks: Checks) -> None:
    """flow_distance's certificate at every row: [lo, hi] holds the value."""
    checks.add(outside(lo, hi, value, 1e-12), lambda i: CertificationError(
        f"flow distance {at(value, i)} escapes certified interval "
        f"[{at(lo, i)}, {at(hi, i)}]"))


# ---------------------------------------------------------------------------
# limits


def ray_limit(
    components: WeightedMulticurve, transverse: WeightedMulticurve
) -> np.ndarray:
    """The ray's limit on every core (in the order of N's ``core_labels``),
    unnormalized.

    Read off the ergodic decomposition of ``components``:
    value(gamma)^2 = sum_k (w_k i(core_k, gamma))^2 / (w_k i(core_k, F)),
    which is :func:`limit_values` with q_k = w_k / i(core_k, F) for the
    transverse foliation F, one product of N (or N^T) with F's weights.
    Every w_k and pairing is positive: the line's foliations have full
    support on its filling origami, where each core meets the other family.
    """
    host, side = components.host, components.side
    if transverse.host is not host:
        raise HostMismatch("the two foliations live on different origamis")
    if transverse.side == side:
        raise SideMismatch(f"both foliations are {side}; F must be transverse")
    n = host.intersection_matrix().array
    f = transverse.row
    pairings = n @ f if side == HORIZONTAL else f @ n
    return limit_values(host, side, components.row / pairings)


def spec_pairing(
    spec: BusemannSpec,
    curves: Optional[Sequence[WeightedMulticurve]] = None,
    scales: Optional[np.ndarray] = None,
) -> np.ndarray:
    """i(spec, gamma) = sqrt(sum_i c_i^2 i(gamma_i, gamma)^2) on ``curves``,
    each scaled by its entry of ``scales`` if given."""
    # Python's float power (libm pow), whose bits NumPy's square does not
    # always match
    q = np.array([c ** 2 for c in spec.as_multicurve().row.tolist()])
    return limit_values(spec.host, spec.side, q, curves, scales)


def _norm(a: np.ndarray) -> float:
    """The l2 norm, as ``np.linalg.norm`` takes it: sqrt of a @ a."""
    return math.sqrt(a @ a)


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    return float(a @ b / (_norm(a) * _norm(b)))


def _normalized(host: Origami, values: np.ndarray) -> Dict[str, float]:
    """The values l2-normalized, by core label; a certified line's limit
    vectors have a positive norm, or their cosine would have failed."""
    return dict(zip(host.intersection_matrix().core_labels,
                    (values / _norm(values)).tolist()))


def forward_limit(line: GeodesicLine) -> Dict[str, float]:
    """The ray's forward limit evaluated on all cores, l2-normalized.

    Proportional to i(forward_spec, .) — this proportionality is the
    construction's consistency certificate, which checked these values.
    """
    return _normalized(line.origami, line.forward_values)


def backward_limit(line: GeodesicLine) -> Dict[str, float]:
    """Same for t -> -infinity: the line's ``backward_values``."""
    return _normalized(line.origami, line.backward_values)


def reversed_line(line: GeodesicLine) -> GeodesicLine:
    """Time reversal: swaps the two foliations/specs and negates t.

    Shares the construction's eigen record; the swapped x/y keep their
    original normalization, and the two limit vectors are swapped, so that
    forward_limit(reversed) is bit-for-bit backward_limit(original).
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
        forward_values=line.backward_values,
        backward_values=line.forward_values,
    )


# ---------------------------------------------------------------------------
# reports


def line_report(line: GeodesicLine) -> dict:
    """JSON-ready report; embeds the inputs so the line can be rebuilt: the
    host (an O′'s parent) and the specs, whose labels O′ keeps.
    ``config.seed`` is always 0: the construction draws nothing at random."""
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
        "area": f"{float(line.base_surface.area()):.15g}",
        "filling": "FillingCertified",
        "walshForwardCosine": line.walsh_forward_cosine,
        "walshBackwardCosine": line.walsh_backward_cosine,
        "inputs": {
            "origami": origami_to_json(line.origami.parent),
            "xi": busemann_spec_to_json(line.forward_spec),
            "eta": busemann_spec_to_json(line.backward_spec),
        },
        "config": {"tol": line.tol, "seed": 0},
    }


def line_from_report(report: dict) -> GeodesicLine:
    """Rebuild a line from a report's embedded inputs (deterministic).

    ``config`` is optional; when present it must be an object whose ``tol``
    is a number and whose ``seed`` is an integer.  The seed's value is not
    used: the construction draws nothing at random.
    """
    try:  # the JSON lookups only: the parsers raise InputError themselves
        inputs = report["inputs"]
        config = report.get("config", {})
        docs = inputs["origami"], inputs["xi"], inputs["eta"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"report lacks reconstructible inputs: {exc}") from None
    host = parse_origami(docs[0])
    xi, eta = (parse_busemann_spec(doc, host) for doc in docs[1:])
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
    return optimal_geodesic(xi, eta, tol=tol)
