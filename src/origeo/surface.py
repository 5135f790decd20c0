r"""Flat metrics on an origami and certified extremal-length estimates.

A :class:`WeightedSurface` assigns a positive height to every horizontal
cylinder and a positive width to every vertical cylinder; the cell in
horizontal cylinder ``i`` and vertical cylinder ``j`` becomes a
``width_j x height_i`` rectangle.  The rectangle dimensions are carried as
given (no unit-area normalization); the area

    area = sum_ij n_ij * height_i * width_j

is then both the total flat area and the intersection number of the two
defining foliations

    F_h = sum_i height_i * alpha_i,      F_v = sum_j width_j * beta_j.

Extremal length facts used for the certified bounds:

- the extremal length of a surface's own defining foliation equals its flat
  area (so ``r`` times it has extremal length ``r^2 * area``);
- a core curve sits in an embedded flat annulus of modulus
  (distance across) / circumference, so its extremal length is at most the
  reciprocal modulus; weighted unions of disjoint cores get at most the
  weighted sum ``sum u_j^2 / mod_j``;
- the intersection-number bound ``i(c, F)^2 <= Ext(c) * Ext(F)`` turned
  around gives the lower bound ``i(c, F)^2 / Ext(F)`` from either defining
  foliation.

Distances: an affine stretch cell by cell gives the quasiconformal upper
bound ``1/2 log max K_cell``; extremal-length ratios over any test family
give the lower bound ``1/2 log max ExtLo_X/ExtHi_Y`` (both orientations).
Every computed interval must contain the true Teichmueller distance — an
inverted interval means a bug, not an inaccuracy, and raises.

A surface is built on its two defining foliations, which validate its
weights once.  The weights are read-only, so the derived quantities — the
area, the circumference tables and the float weights behind ``qc_upper`` —
are computed once per surface, on first use.

A surface whose weights are all exact (``int`` or ``Fraction``) works on
the integer forms of its foliations (see :mod:`origeo.multicurve`): per
side, the circumferences as integers over the other side's denominator,
and each annulus term over one lcm.  The area, the proportionality test,
``foliation_ext`` and ``curve_ext_bounds`` then compare and sum integers,
and build a ``Fraction`` only for the value they return;
``kerckhoff_lower`` compares exact ratios cross-multiplied.  A surface or
curve with any float weight runs the same formulas in floating point, in
the order written below.

Many float surfaces on one origami (the flow points of a grid, say) make a
:class:`SurfaceRows` block; the ``*_rows`` kernels compute each quantity in
one array pass over its rows, keeping the scalar code's IEEE operations in
order (sums left to right by ``np.add.accumulate``, exp and log through
``math``), so each row has the bits of the scalar call on its surface
(``qc_upper`` is the one-row case of ``qc_rows``).  ``curve_ext_rows`` is
the one array form of ``curve_ext_bounds``' pairing and annulus bounds;
``ext_rows`` is the proportional shortcut plus that kernel, as
``ext_interval`` is the shortcut plus ``curve_ext_bounds``.  A one-row
block broadcasts against a block of curve weights, one curve per row,
which is how :func:`origeo.horo.delta_probe` bounds its probes.

Extremal lengths are memoized per surface, but bounded: each surface keeps
the ``ext_interval`` of at most ``_EXT_MEMO_SIZE`` curves, keyed by the
curve's identity, and empties the memo when it is full.  Each entry holds
its curve, so a key's ``id`` cannot be recycled while the entry lives.  The
scalar callers reuse surfaces: the pipeline's ``flow_distance`` and
``busemann_interval`` share G(t), and the sandwich suite's 34 Busemann
calls share the far point G(7), which meets two new curves per call, hence
the bound.  Flow points are memoized, also bounded, by their line (see
:func:`origeo.geodesic.point_at`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from .errors import CertificationError, Checks, HostMismatch, InputError, at, checked, np
from .intervals import ValueInterval
from .multicurve import (
    HORIZONTAL,
    VERTICAL,
    Weight,
    WeightedMulticurve,
    intersection,
    is_exact,
    pair_intersection,
)
from .origami import Origami

_PROPORTIONAL_RTOL = 1e-9
_EXT_MEMO_SIZE = 8
# Float round-off by which a distance's lower bound may exceed its upper
# bound before distance_interval calls the bracket inverted.
_DISTANCE_SLACK = 1e-12


class _ExactSide(NamedTuple):
    """One side of an exact surface in integers: its weights are
    ``own_k / den``, its circumferences ``circ_k / circ_den`` (the other
    side's denominator), ``circ_k / own_k`` is ``annuli_k / lcm``, and the
    area is ``area / (den * circ_den)``."""

    den: int
    circ: List[int]
    circ_den: int
    lcm: int
    annuli: List[int]
    area: int


@dataclass(frozen=True)
class WeightedSurface:
    """An origami with positive cylinder heights and widths (a flat metric).

    The surface is its two defining foliations, built and validated once:
    heights weight every horizontal core, widths every vertical core.
    ``heights`` and ``widths`` are their read-only weights, in the host's
    cylinder order, so the quantities derived from them -- the area, the
    circumference tables and, for exact weights, their integer forms -- are
    computed once per surface, on first use.
    """

    origami: Origami
    heights: Mapping[str, Weight]
    widths: Mapping[str, Weight]
    _defining: Dict[str, WeightedMulticurve] = field(
        init=False, repr=False, compare=False
    )
    _ext: Dict[int, Tuple[WeightedMulticurve, ValueInterval]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        defining = {}
        for side, what, weights in (
            (HORIZONTAL, "height", self.heights),
            (VERTICAL, "width", self.widths),
        ):
            for c in self.origami.cylinders(side):
                if c.label not in weights:
                    raise InputError(f"missing {what} for cylinder {c.label}")
            defining[side] = WeightedMulticurve(self.origami, side, weights)
        object.__setattr__(self, "_defining", defining)
        object.__setattr__(self, "heights", defining[HORIZONTAL].weights)
        object.__setattr__(self, "widths", defining[VERTICAL].weights)

    # ------------------------------------------------------------------

    def defining_foliation(self, side: str) -> WeightedMulticurve:
        """The surface's own vertical (widths) or horizontal (heights) datum."""
        if side not in (HORIZONTAL, VERTICAL):
            raise InputError(f"unknown side {side!r}")
        return self._defining[side]

    @cached_property
    def _area(self) -> Weight:
        return pair_intersection(self._defining[HORIZONTAL], self._defining[VERTICAL])

    def area(self) -> Weight:
        """Total flat area; exact for exact weights.

        Evaluated once per surface by the canonical loop over the cells of
        N, so that it is bit-for-bit the pairing of the defining foliations.
        """
        return self._area

    @cached_property
    def _integers(self) -> Optional[Dict[str, _ExactSide]]:
        """Per side, the surface as integers (see :class:`_ExactSide`); None
        if a weight is a float."""
        forms = [self._defining[side].integer_form for side in (HORIZONTAL, VERTICAL)]
        if None in forms:
            return None
        (hn, dh), (wn, dw) = forms
        rows = self.origami.intersection_matrix().sparse_rows
        horizontal = [sum([n * wn[j] for j, n in cells]) for cells in rows]
        vertical = [0] * len(wn)
        for h, cells in zip(hn, rows):
            for j, n in cells:
                vertical[j] += n * h
        area = sum([h * c for h, c in zip(hn, horizontal)])
        sides = {}
        for side, (own, den), circ, circ_den in (
            (HORIZONTAL, forms[0], horizontal, dw), (VERTICAL, forms[1], vertical, dh)
        ):
            lcm = math.lcm(*own)
            annuli = [c * (lcm // o) for c, o in zip(circ, own)]
            sides[side] = _ExactSide(den, circ, circ_den, lcm, annuli, area)
        return sides

    @cached_property
    def _circumferences(self) -> Dict[str, Dict[str, Weight]]:
        matrix = self.origami.intersection_matrix()
        exact = self._integers
        if exact is not None:
            return {
                side: {lab: Fraction(c, exact[side].circ_den)
                       for lab, c in zip(labels, exact[side].circ)}
                for side, labels in ((HORIZONTAL, matrix.row_labels),
                                     (VERTICAL, matrix.col_labels))
            }
        widths = [self.widths[lab] for lab in matrix.col_labels]
        vertical = [0] * len(widths)
        horizontal = {}
        for lab, cells in zip(matrix.row_labels, matrix.sparse_rows):
            horizontal[lab] = sum(n * widths[j] for j, n in cells)
            for j, n in cells:
                vertical[j] += n * self.heights[lab]
        return {HORIZONTAL: horizontal, VERTICAL: dict(zip(matrix.col_labels, vertical))}

    def circumference(self, side: str, label: str) -> Weight:
        """Core length of a cylinder: summed cell widths (resp. heights)."""
        return self._circumferences[side][label]

    @cached_property
    def rows(self) -> "SurfaceRows":
        """The surface as a one-row block, its weights as floats."""
        return SurfaceRows(self.origami, *(
            np.array([[float(w) for w in weights.values()]])
            for weights in (self.heights, self.widths)
        ))

    def proportionality(self, curve: WeightedMulticurve) -> Optional[Weight]:
        """Return r with curve = r * (defining foliation of curve's side), else None.

        Exact weights are compared exactly, by cross-multiplying their
        integer forms; any floating operand switches to a relative tolerance
        of 1e-9 (flow-line surfaces carry float weights).
        """
        if curve.host is not self.origami:
            raise HostMismatch("curve lives on a different origami")
        if not curve.is_full_support():
            return None
        defining = self._defining[curve.side]
        if curve.integer_form is not None and defining.integer_form is not None:
            (nums, den), (own, own_den) = curve.integer_form, defining.integer_form
            u0, o0 = nums[0], own[0]
            if all(u * o0 == u0 * o for u, o in zip(nums, own)):
                return Fraction(u0 * own_den, den * o0)
            return None
        own = defining.weights
        floats = [float(curve.weights[lab] / own[lab]) for lab in curve.weights]
        lo, hi = min(floats), max(floats)
        if hi - lo <= _PROPORTIONAL_RTOL * hi:
            return floats[0]
        return None

    def scaled(self, width_factor: Weight, height_factor: Weight) -> "WeightedSurface":
        if not (width_factor > 0 and height_factor > 0):
            raise InputError("scale factors must be positive")
        return WeightedSurface(
            self.origami,
            {k: w * height_factor for k, w in self.heights.items()},
            {k: w * width_factor for k, w in self.widths.items()},
        )


def foliation_ext(surface: WeightedSurface, r: Weight = 1) -> Weight:
    """Extremal length of r times either of the surface's own defining
    foliations.

    This is an exact evaluation: the extremal length of each defining
    foliation is the flat area, and extremal length is quadratic under
    scaling, so the side does not enter.  The caller asserts that the
    foliation in question really is ``r`` times a defining one — for
    anything else use :func:`curve_ext_bounds`.
    """
    exact = is_exact(r)
    if not (r.numerator > 0 if exact else r > 0):
        raise InputError(f"scale must be positive, got {r!r}")
    a = surface.area()
    if exact and is_exact(a):
        return Fraction(r.numerator ** 2 * a.numerator, r.denominator ** 2 * a.denominator)
    return r * r * a


def curve_ext_bounds(
    surface: WeightedSurface, curve: WeightedMulticurve
) -> ValueInterval:
    """Certified extremal-length enclosure for a weighted multicurve.

    Lower bound: intersection numbers against both defining foliations,
    whose extremal lengths are known exactly.  Upper bound: disjoint flat
    annuli, ``sum u^2 * circumference/across`` over the support.  For the
    defining foliation itself the two collapse to the exact area.  Exact
    weights on both run on integers (see :func:`_exact_ext_bounds`).
    """
    if curve.host is not surface.origami:
        raise HostMismatch("curve lives on a different origami")
    if curve.integer_form is not None and surface._integers is not None:
        return _exact_ext_bounds(*curve.integer_form, surface._integers[curve.side])
    a = surface.area()
    lo = 0
    for side in (HORIZONTAL, VERTICAL):
        pairing = intersection(curve, surface.defining_foliation(side))
        cand = pairing * pairing / a
        if cand > lo:
            lo = cand
    hi, across = 0, surface.defining_foliation(curve.side).weights
    for lab, u in curve.weights.items():  # across a cylinder: height or width
        hi = hi + u * u * (surface.circumference(curve.side, lab) / across[lab])
    if lo > hi:
        lo = _grazing(lo, hi)
    return ValueInterval(lo, hi)


def _exact_ext_bounds(nums, den: int, side: _ExactSide) -> ValueInterval:
    """curve_ext_bounds for the curve with weights ``nums / den`` on ``side``
    of an exact surface, in integers.  Its pairing with the other side's
    foliation is ``pairing / (den * circ_den)``, so the lower bound is
    ``side.den * pairing^2 / (den^2 * circ_den * area)``; its annuli sum to
    ``side.den * spread / (den^2 * circ_den * lcm)``."""
    pairing = sum([u * c for u, c in zip(nums, side.circ) if u])
    spread = sum([u * u * k for u, k in zip(nums, side.annuli) if u])
    scale = den * den * side.circ_den
    lo = Fraction(side.den * pairing * pairing, scale * side.area) if pairing else 0
    hi = Fraction(side.den * spread, scale * side.lcm)
    if pairing * pairing * side.lcm > spread * side.area:  # lo > hi
        lo = _grazing(lo, hi)
    return ValueInterval(lo, hi)


def _grazing(lo: Weight, hi: Weight) -> Weight:
    """The lower bound for an extremal length whose bounds came out with
    lo > hi.  Mathematically lo <= Ext <= hi, so only float round-off may
    graze: it gives hi, anything more raises."""
    if float(lo - hi) > 1e-9 * float(hi):
        raise CertificationError(f"extremal length bounds inverted: lo={lo} hi={hi}")
    return hi


def ext_interval(surface: WeightedSurface, curve: WeightedMulticurve) -> ValueInterval:
    """Enclosure that collapses to the exact value on defining foliations.

    Memoized per surface by the curve's identity (see the module notes): a
    curve asked for again gets the very same interval object.
    """
    if curve.host is not surface.origami:
        raise HostMismatch("curve lives on a different origami")
    memo = surface._ext
    entry = memo.get(id(curve))
    if entry is not None:
        return entry[1]
    r = surface.proportionality(curve)
    if r is not None:
        ival = ValueInterval.exact(foliation_ext(surface, r))
    else:
        ival = curve_ext_bounds(surface, curve)
    if len(memo) >= _EXT_MEMO_SIZE:
        memo.clear()
    memo[id(curve)] = (curve, ival)
    return ival


def _same_origami(x: WeightedSurface, y: WeightedSurface) -> None:
    if x.origami is not y.origami:
        raise HostMismatch("surfaces live on different origamis")


def qc_upper(x: WeightedSurface, y: WeightedSurface) -> float:
    """Quasiconformal upper bound for the Teichmueller distance.

    The cell-by-cell affine map stretches a cell's width by w_Y/w_X and its
    height by h_Y/h_X; its dilatation is the larger of the two ratios of
    stretches.  Computed through the cross products w_Y*h_X vs w_X*h_Y, one
    array over the cells of N, so swapping the arguments gives the
    bit-identical result.
    """
    _same_origami(x, y)
    return at(checked(qc_rows, x.rows, y.rows), 0)


def kerckhoff_lower(
    x: WeightedSurface,
    y: WeightedSurface,
    family: Iterable[WeightedMulticurve],
) -> float:
    """Extremal-length-ratio lower bound for the Teichmueller distance.

    For every test curve and both orientations the certified quotient
    ExtLo_X / ExtHi_Y bounds the distance's dilatation from below; defining
    foliations contribute exact ratios.  The bound is clamped at 0 (the sup
    over *all* curves realizes the distance; a finite family may undershoot).
    Exact bounds are compared by cross-multiplying, and the best ratio is
    divided once, correctly rounded as ``float`` of its ``Fraction`` is.
    """
    _same_origami(x, y)
    quotients = []
    for curve in family:
        ix, iy = ext_interval(x, curve), ext_interval(y, curve)
        quotients += [(ix.lo, iy.hi), (iy.lo, ix.hi)]
    if all(is_exact(lo) and is_exact(hi) for lo, hi in quotients):
        num, den = 1, 1  # ratio 1 <-> lower bound 0
        for lo, hi in quotients:
            n, d = lo.numerator * hi.denominator, lo.denominator * hi.numerator
            if d > 0 and n * den > num * d:
                num, den = n, d
        best = num / den
    else:
        best = 1
        for lo, hi in quotients:
            ratio = lo / hi if hi > 0 else 0
            if ratio > best:
                best = ratio
    return 0.5 * math.log(float(best))


def distance_interval(
    x: WeightedSurface,
    y: WeightedSurface,
    family: Iterable[WeightedMulticurve] = None,
) -> ValueInterval:
    """Certified enclosure of the Teichmueller distance between two metrics.

    Defaults the test family to X's defining foliations (exact on flow
    lines).  An inverted interval beyond ``_DISTANCE_SLACK`` is a
    certification bug and raises; grazing within it is clamped.  Both bounds are at least 0:
    the lower starts from the ratio 1, the upper from the dilatation 1.
    """
    _same_origami(x, y)
    if family is None:
        family = [
            x.defining_foliation(VERTICAL),
            x.defining_foliation(HORIZONTAL),
        ]
    lo = kerckhoff_lower(x, y, family)
    hi = qc_upper(x, y)
    if lo > hi:
        if lo - hi > _DISTANCE_SLACK:
            raise CertificationError(
                f"distance bounds inverted: lower {lo} exceeds upper {hi}"
            )
        lo = hi
    return ValueInterval(lo, hi)


def elementwise(fn, values, checks: Checks) -> np.ndarray:
    """``fn`` per value (``math.exp``/``log`` keep the scalar code's bits).
    A value fn rejects gives nan, and its row raises what fn raised."""
    out, errors = [], {}
    for i, v in enumerate(np.asarray(values, float).ravel().tolist()):
        try:
            out.append(fn(v))
        except (ValueError, OverflowError) as exc:
            out.append(math.nan)
            errors[i] = exc
    if errors:
        checks.add(np.isin(np.arange(len(out)), list(errors)),
                   lambda i: errors[i if len(out) > 1 else 0])
    return np.array(out)


class SurfaceRows:
    """Flat metrics on one origami, one per row of the float arrays
    ``heights`` and ``widths`` (cylinder order)."""

    def __init__(self, origami: Origami, heights: np.ndarray, widths: np.ndarray):
        self.origami, self.heights, self.widths = origami, heights, widths

    def side(self, side: str) -> np.ndarray:
        return self.heights if side == HORIZONTAL else self.widths

    def surface(self, row: int) -> WeightedSurface:
        """Row ``row`` as a surface; building it validates the weights."""
        return WeightedSurface(self.origami, *(dict(zip(
            [c.label for c in self.origami.cylinders(side)], self.side(side)[row].tolist()
        )) for side in (HORIZONTAL, VERTICAL)))

    @cached_property
    def area(self) -> np.ndarray:
        return pairing_rows(self.origami, self.heights, self.widths)


def pairing_rows(origami: Origami, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """pair_intersection of the horizontal weights a and vertical ones b."""
    n = origami.intersection_matrix().array
    i, j = np.nonzero(n)
    return np.add.accumulate((a[:, i] * n[i, j]) * b[:, j], axis=1)[:, -1]


def check_weights(x: SurfaceRows, checks: Checks) -> SurfaceRows:
    """WeightedSurface's weight validation at every row: a failing row
    raises what building its surface raises."""
    good = [((a > 0) & (a < math.inf)).all(axis=1) for a in (x.heights, x.widths)]
    checks.add(~(good[0] & good[1]), x.surface)
    return x


def ext_rows(x: SurfaceRows, side: str, u: np.ndarray, checks: Checks):
    """ext_interval at every row for the full-support curve with weights u on
    ``side``: r^2 * area if it is r times the defining foliation, else the
    curve_ext_rows enclosure."""
    ratios = u / x.side(side)
    lo, hi = ratios.min(axis=1), ratios.max(axis=1)
    prop, r = hi - lo <= _PROPORTIONAL_RTOL * hi, ratios[:, 0]
    checks.add(prop & ~(r > 0), lambda i: InputError(
        f"scale must be positive, got {at(r, i)!r}"))
    exact = r * r * x.area
    if prop.all():
        return exact, exact
    lo, hi = curve_ext_rows(x, side, u, u * u, checks, where=~prop)
    return np.where(prop, exact, lo), np.where(prop, exact, hi)


def curve_ext_rows(x: SurfaceRows, side: str, u: np.ndarray, u2: np.ndarray,
                   checks: Checks, where=True):
    """curve_ext_bounds at every row for the curve with weights u on ``side``
    (0 off its support) and squared weights u2 (float(w * w) for an exact w,
    as curve_ext_bounds squares); only the rows in ``where`` are checked."""
    # the pairing with the other side's foliation, ...
    a, b = (u, x.widths) if side == HORIZONTAL else (x.heights, u)
    pairing = pairing_rows(x.origami, a, b)
    cand = pairing * pairing / x.area
    lo = np.where(cand > 0, cand, 0.0)
    # ... and the annuli, sum u^2 * circumference/across over the support
    n = x.origami.intersection_matrix().array
    cells, along = (n, x.widths) if side == HORIZONTAL else (n.T, x.heights)
    circumference = np.add.accumulate(cells * along[:, None, :], axis=2)[:, :, -1]
    annuli = np.where(u > 0, u2 * (circumference / x.side(side)), 0.0)
    hi = np.add.accumulate(annuli, axis=1)[:, -1]
    # mathematically lo <= Ext <= hi; allow only float round-off grazing
    checks.add(where & (lo - hi > 1e-9 * hi), lambda i: CertificationError(
        f"extremal length bounds inverted: lo={at(lo, i)} hi={at(hi, i)}"))
    return np.where(lo > hi, hi, lo), hi


def qc_rows(x: SurfaceRows, y: SurfaceRows, checks: Checks) -> np.ndarray:
    """qc_upper at every row, over the cells of N only.

    A cell whose products overflow or underflow on both sides (inf/inf or
    0/0) counts as unbounded dilatation: the bound is then +inf, sound if
    vacuous, where skipping the cell would leave out its stretch."""
    i, j = np.nonzero(x.origami.intersection_matrix().array)
    with np.errstate(all="ignore"):
        p, q = x.heights[:, i] * y.widths[:, j], y.heights[:, i] * x.widths[:, j]
        k_cell = np.maximum(p, q) / np.minimum(p, q)
    k_cell = np.where(np.isnan(k_cell), math.inf, k_cell)
    return 0.5 * elementwise(math.log, k_cell.max(axis=1, initial=1.0), checks)


def distance_rows(x: SurfaceRows, y: SurfaceRows, checks: Checks):
    """distance_interval(X, Y) at every row, on X's defining foliations."""
    best = 1.0  # ratio 1 <-> lower bound 0
    for side in (VERTICAL, HORIZONTAL):
        (x_lo, x_hi), (y_lo, y_hi) = (ext_rows(z, side, x.side(side), checks)
                                      for z in (x, y))
        for num, den in ((x_lo, y_hi), (y_lo, x_hi)):
            ratio = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
            best = np.where(ratio > best, ratio, best)
    lo, hi = 0.5 * elementwise(math.log, best, checks), qc_rows(x, y, checks)
    checks.add(lo - hi > _DISTANCE_SLACK, lambda i: CertificationError(
        f"distance bounds inverted: lower {at(lo, i)} exceeds upper {at(hi, i)}"))
    return np.where(lo > hi, hi, lo), hi
