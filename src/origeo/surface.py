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

A surface whose weights are all exact (``int`` or ``Fraction``) works on
the integer forms of its foliations (see :mod:`origeo.multicurve`): per
side, the circumferences as integers over the other side's denominator,
and each annulus term over one lcm.  The area, ``foliation_ext`` and
``curve_ext_bounds`` then compare and sum integers, and build a
``Fraction`` only for the value they return; ``kerckhoff_lower`` compares
exact ratios cross-multiplied.

Any float weight takes the one float form: the ``*_rows`` kernels, each
one array pass over a :class:`SurfaceRows` block of surfaces on one origami
(the flow points of a grid, say) on their families' float rows.  They keep
the canonical loops' IEEE operations in order (sums left to right by
``np.add.accumulate``, exp and log through ``math``), so a row's bits do
not depend on its block, and a scalar float call is the one-row view of its
kernel through :func:`origeo.errors.checked`.  A one-row block broadcasts
against a block of curve weights, one curve per row, as in
:func:`origeo.horo.delta_probe`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from .errors import CertificationError, Checks, HostMismatch, InputError, at, checked, np
from .intervals import ValueInterval, one_row
from .multicurve import (Weight, WeightedMulticurve, is_exact, pair_intersection,
                         pairing_rows)
from .origami import HORIZONTAL, VERTICAL, Origami

_PROPORTIONAL_RTOL = 1e-9
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
    float rows and, for exact weights, their integer forms -- are computed
    once per surface, on first use.
    """

    origami: Origami
    heights: Mapping[str, Weight]
    widths: Mapping[str, Weight]
    _defining: Dict[str, WeightedMulticurve] = field(
        init=False, repr=False, compare=False
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
        self._keep(defining)

    def _keep(self, defining: Dict[str, WeightedMulticurve]) -> None:
        """Keep the foliations: the last step of both constructors (one hook)."""
        self.__dict__.update(_defining=defining, heights=defining[HORIZONTAL].weights,
                             widths=defining[VERTICAL].weights)

    @classmethod
    def _from_checked_row(cls, block: "SurfaceRows") -> "WeightedSurface":
        """The surface of a one-row block that :func:`check_weights` passed,
        read off the row with no second check; it keeps the block as its rows."""
        surface = cls.__new__(cls)
        surface.__dict__.update(origami=block.origami, rows=block)
        surface._keep({side: WeightedMulticurve._from_checked_row(
            block.origami, side, block.side(side)[0]) for side in (HORIZONTAL, VERTICAL)})
        return surface

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

    def circumference(self, side: str, label: str) -> Weight:
        """Core length of a cylinder: summed cell widths (resp. heights)."""
        matrix = self.origami.intersection_matrix()
        k = (matrix.row_index if side == HORIZONTAL else matrix.col_index)[label]
        exact = self._integers
        if exact is None:
            return circumference_rows(self.rows, side)[0, k].item()
        return Fraction(exact[side].circ[k], exact[side].circ_den)

    @cached_property
    def rows(self) -> "SurfaceRows":
        """The surface as a one-row block, its weights as floats."""
        return SurfaceRows(self.origami, *(_row(self._defining[side])
                                           for side in (HORIZONTAL, VERTICAL)))


def _exact(surface: WeightedSurface, curve: WeightedMulticurve) -> bool:
    """Whether the surface and the curve, on one origami, are all exact, so
    that a formula runs on their integer forms; otherwise it runs on floats."""
    if curve.host is not surface.origami:
        raise HostMismatch("curve lives on a different origami")
    return curve.integer_form is not None and surface._integers is not None


def _row(curve: WeightedMulticurve) -> np.ndarray:
    """The curve's float row as a one-row block (a read-only view)."""
    return curve.row[None]


def foliation_ext(surface: WeightedSurface, r: Weight = 1) -> Weight:
    """Extremal length of r times either of the surface's own defining
    foliations.

    This is an exact evaluation: the extremal length of each defining
    foliation is the flat area, and extremal length is quadratic under
    scaling, so the side does not enter.  The caller asserts that the
    foliation in question really is ``r`` times a defining one — for
    anything else use :func:`curve_ext_bounds`.  A float r^2 * area is
    r * (r * area) where r * r leaves the float range.
    """
    exact = is_exact(r)
    if not (r.numerator > 0 if exact else 0 < r < math.inf):
        raise InputError(f"scale must be positive and finite, got {r!r}")
    a = surface.area()
    if exact and is_exact(a):
        return Fraction(r.numerator ** 2 * a.numerator, r.denominator ** 2 * a.denominator)
    value = r * r * a
    return r * (r * a) if value in (0, math.inf) else value


def curve_ext_bounds(
    surface: WeightedSurface, curve: WeightedMulticurve
) -> ValueInterval:
    """Certified extremal-length enclosure for a weighted multicurve.

    Lower bound: intersection numbers against both defining foliations,
    whose extremal lengths are known exactly.  Upper bound: disjoint flat
    annuli, ``sum u^2 * circumference/across`` over the support.  For the
    defining foliation itself the two collapse to the exact area.  Any float
    weight runs the one-row :func:`curve_ext_rows`.  Exact weights run on
    integers: for the curve's ``nums / den`` on ``side`` (an
    :class:`_ExactSide`), its pairing with the other side's foliation is
    ``pairing / (den * circ_den)``, so the lower bound is
    ``side.den * pairing^2 / (den^2 * circ_den * area)``; its annuli sum to
    ``side.den * spread / (den^2 * circ_den * lcm)``.  Exact bounds cannot
    graze: lo > hi raises.
    """
    if not _exact(surface, curve):
        return one_row(curve_ext_rows, surface.rows, curve.side, _row(curve))
    (lo,), (hi,) = _exact_ext_bounds(surface._integers[curve.side], [curve.integer_form])
    return ValueInterval(lo, hi)


def core_ext_bounds(surface: WeightedSurface, side: str) -> Tuple[list, list]:
    """curve_ext_bounds of every core of ``side`` (weight 1), in cylinder
    order, as the lists of their lower and upper ends: one pass over the
    side, with no multicurve per core.  A float surface runs
    :func:`curve_ext_rows` on the identity block against its one row."""
    exact = surface._integers
    if exact is None:
        u = np.eye(len(surface.origami.cylinders(side)))
        lo, hi = checked(curve_ext_rows, surface.rows, side, u)
        return lo.tolist(), hi.tolist()
    return _exact_ext_bounds(exact[side])


def _exact_ext_bounds(side: _ExactSide, curves=None, lower=True) -> Tuple[list, list]:
    """curve_ext_bounds' exact lists (lo, hi) for the integer forms ``(nums,
    den)`` of ``curves`` on ``side``; by default each core of ``side``.  With
    ``lower`` false, lo stays empty: the bounds are still compared, on integers."""
    if curves is None:  # a core's pairing is its circumference, its spread its annulus
        terms = zip(side.circ, side.annuli, [1] * len(side.circ))
    else:
        terms = [(sum([u * c for u, c in zip(nums, side.circ) if u]),
                  sum([u * u * k for u, k in zip(nums, side.annuli) if u]), den)
                 for nums, den in curves]
    lo, hi = [], []
    for pairing, spread, den in terms:
        scale = den * den * side.circ_den
        inverted = pairing * pairing * side.lcm > spread * side.area  # lo > hi
        if lower or inverted:
            lo.append(Fraction(side.den * pairing ** 2, scale * side.area) if pairing else 0)
        hi.append(Fraction(side.den * spread, scale * side.lcm))
        if inverted:
            raise CertificationError(
                f"extremal length bounds inverted: lo={lo[-1]} hi={hi[-1]}")
    return lo, hi


def ext_interval(surface: WeightedSurface, curve: WeightedMulticurve) -> ValueInterval:
    """Enclosure that collapses to the exact value on defining foliations.
    Exact weights take :func:`curve_ext_bounds` alone: on r times a defining
    foliation both its bounds are r^2 * area exactly (:func:`foliation_ext`).
    Any float weight runs the one-row :func:`ext_rows`, whose rounded bounds
    need its proportional branch to meet there."""
    if not _exact(surface, curve):
        return one_row(ext_rows, surface.rows, curve.side, _row(curve))
    return curve_ext_bounds(surface, curve)


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
    lines); with any float weight that is the one-row :func:`distance_rows`.
    Two exact surfaces, or an explicit family, take :func:`kerckhoff_lower`.
    An inverted interval beyond ``_DISTANCE_SLACK`` is a certification bug
    and raises; grazing within it is clamped.  Both bounds are at least 0:
    the lower starts from the ratio 1, the upper from the dilatation 1.
    """
    _same_origami(x, y)
    if family is None:
        if x._integers is None or y._integers is None:
            return one_row(distance_rows, x.rows, y.rows)
        family = [x.defining_foliation(VERTICAL), x.defining_foliation(HORIZONTAL)]
    return one_row(_bracket, kerckhoff_lower(x, y, family), qc_upper(x, y))


def elementwise(fn, values, checks: Checks) -> np.ndarray:
    """``fn`` per value (``math.exp``/``log`` keep the scalar code's bits).
    A value fn rejects gives nan, and its row raises an :class:`InputError`
    naming fn and the value: the row lies past the float range."""
    out, rejected = [], {}
    for i, v in enumerate(np.asarray(values, float).ravel().tolist()):
        try:
            out.append(fn(v))
        except (ValueError, OverflowError):
            out.append(math.nan)
            rejected[i] = v
    if rejected:
        def error(row: int) -> InputError:
            value = rejected[row if len(out) > 1 else 0]
            return InputError(f"{fn.__name__}({value!r}) has no finite float value: "
                              "the point lies past the float range")
        checks.add(np.isin(np.arange(len(out)), list(rejected)), error)
    return np.array(out)


class SurfaceRows:
    """Flat metrics on one origami, one per row of the float arrays
    ``heights`` and ``widths`` (cylinder order); ``block[rows]`` is the block
    of the rows a slice or an index array selects.  :meth:`surface` builds
    a row's surface through the validating constructor; a one-row block that
    :func:`check_weights` passed becomes one with no second check."""

    def __init__(self, origami: Origami, heights: np.ndarray, widths: np.ndarray):
        self.origami, self.heights, self.widths = origami, heights, widths

    def __getitem__(self, rows) -> "SurfaceRows":
        return SurfaceRows(self.origami, self.heights[rows], self.widths[rows])

    def side(self, side: str) -> np.ndarray:
        return self.heights if side == HORIZONTAL else self.widths

    def surface(self, row: int) -> WeightedSurface:
        """Row ``row`` as a surface; building it validates the weights.  The
        surface keeps the row as its one-row block: its weights are the
        row's floats, so its own rows would read the same bits."""
        surface = WeightedSurface(self.origami, *(dict(zip(
            [c.label for c in self.origami.cylinders(side)], self.side(side)[row].tolist()
        )) for side in (HORIZONTAL, VERTICAL)))
        surface.__dict__["rows"] = self[[row]]
        return surface

    @cached_property
    def area(self) -> np.ndarray:
        return pairing_rows(self.origami, self.heights, self.widths)


def circumference_rows(x: SurfaceRows, side: str) -> np.ndarray:
    """Every core length of ``side`` at every row: per cylinder, its cells'
    widths (resp. heights) summed in the order of N."""
    n = x.origami.intersection_matrix().array
    cells, along = (n, x.widths) if side == HORIZONTAL else (n.T, x.heights)
    return np.add.accumulate(cells * along[:, None, :], axis=2)[:, :, -1]


def check_weights(x: SurfaceRows, checks: Checks) -> SurfaceRows:
    """WeightedSurface's weight validation at every row: a failing row
    raises what building its surface raises."""
    weights = np.concatenate((x.heights, x.widths), axis=1)
    checks.add(~((weights > 0) & (weights < math.inf)).all(axis=1), x.surface)
    return x


def _proportional(x: SurfaceRows, side: str, u: np.ndarray):
    """Per row, whether the weights u on ``side`` are r times the defining
    foliation, within ``_PROPORTIONAL_RTOL`` and on its full support, and r."""
    ratios = u / x.side(side)
    lo, hi = ratios.min(axis=1), ratios.max(axis=1)
    full = (u > 0).all(axis=1)
    return full & (hi - lo <= _PROPORTIONAL_RTOL * hi), ratios[:, 0]


def ext_rows(x: SurfaceRows, side: str, u: np.ndarray, checks: Checks):
    """ext_interval at every row for the curve with weights u on ``side``
    (0 off its support): r^2 * area if it is r times the defining
    foliation (as foliation_ext computes it), else the curve_ext_rows
    enclosure."""
    prop, r = _proportional(x, side, u)
    checks.add(prop & ~(r > 0), lambda i: InputError(
        f"scale must be positive, got {at(r, i)!r}"))
    exact = r * r * x.area
    if not math.isfinite(np.log(exact).sum()):  # some r * r left the float range
        exact = np.where((exact == 0) | (exact == math.inf), r * (r * x.area), exact)
    if prop.all():
        return exact, exact
    lo, hi = curve_ext_rows(x, side, u, checks, where=~prop)
    return np.where(prop, exact, lo), np.where(prop, exact, hi)


def curve_ext_rows(x: SurfaceRows, side: str, u: np.ndarray, checks: Checks,
                   where=True):
    """curve_ext_bounds at every row for the curve with weights u on ``side``
    (0 off its support); only the rows in ``where`` are checked.  A row whose
    bounds invert had a square leave the float range (pairing^2 overflows or
    u^2 underflows): it is recomputed as ``pairing * (pairing / area)`` and
    ``u * (u * ratio)``, and every other row keeps the direct form's bits."""
    # the pairing with the other side's foliation, ...
    a, b = (u, x.widths) if side == HORIZONTAL else (x.heights, u)
    pairing = pairing_rows(x.origami, a, b)
    # ... and the annuli, sum u^2 * ratio over the support, ratio = circumference/across
    ratio = circumference_rows(x, side) / x.side(side)
    def bounds(lo, annuli):
        return (np.where(lo > 0, lo, 0.0),
                np.add.accumulate(np.where(u > 0, annuli, 0.0), axis=1)[:, -1])
    lo, hi = bounds(pairing * pairing / x.area, u * u * ratio)
    # mathematically lo <= Ext <= hi; allow only float round-off grazing
    inverted = lo - hi > 1e-9 * hi
    if inverted.any():
        lo_r, hi_r = bounds(pairing * (pairing / x.area), u * (u * ratio))
        lo, hi = np.where(inverted, lo_r, lo), np.where(inverted, hi_r, hi)
        inverted = lo - hi > 1e-9 * hi
    checks.add(where & inverted, lambda i: CertificationError(
        f"extremal length bounds inverted: lo={at(lo, i)} hi={at(hi, i)}"))
    return np.where(lo > hi, hi, lo), hi


def qc_rows(x: SurfaceRows, y: SurfaceRows, checks: Checks) -> np.ndarray:
    """qc_upper at every row, over the cells of N only.

    A cell whose products overflow or underflow on both sides (inf/inf or
    0/0) counts as unbounded dilatation: the bound is then +inf, sound if
    vacuous, where skipping the cell would leave out its stretch."""
    i, j, _ = x.origami.intersection_matrix().cells
    p = x.heights.take(i, 1) * y.widths.take(j, 1)
    q = y.heights.take(i, 1) * x.widths.take(j, 1)
    k_cell = np.maximum(p, q) / np.minimum(p, q)
    k_cell = np.where(np.isnan(k_cell), math.inf, k_cell)
    return 0.5 * elementwise(math.log, k_cell.max(axis=1, initial=1.0), checks)


def distance_rows(x: SurfaceRows, y: SurfaceRows, checks: Checks):
    """distance_interval(X, Y) at every row, on X's defining foliations.

    At X each of them is exactly X's own (ratio 1), so its extremal length
    is X's area; only Y's extremal lengths are bounded."""
    best = 1.0  # ratio 1 <-> lower bound 0
    for side in (VERTICAL, HORIZONTAL):
        y_lo, y_hi = ext_rows(y, side, x.side(side), checks)
        for num, den in ((x.area, y_hi), (y_lo, x.area)):
            # a bound that is not positive gives no ratio; fmax skips nan
            best = np.fmax(best, num / np.where(den > 0, den, math.inf))
    lo = 0.5 * elementwise(math.log, best, checks)
    return _bracket(lo, qc_rows(x, y, checks), checks)


def _bracket(lo, hi, checks: Checks):
    """A distance's lower and upper bound as its interval: lo above hi by
    more than ``_DISTANCE_SLACK`` raises, grazing within it is clamped."""
    checks.add(lo - hi > _DISTANCE_SLACK, lambda i: CertificationError(
        f"distance bounds inverted: lower {at(lo, i)} exceeds upper {at(hi, i)}"))
    return np.where(lo > hi, hi, lo), hi
