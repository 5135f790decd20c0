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
area, the circumference tables and the float weight vectors behind
``qc_upper`` — are computed once per surface, on first use.
``qc_upper`` is one masked array expression over the cells of N.

Extremal lengths are memoized the same way, but bounded: each surface keeps
the ``ext_interval`` of at most ``_EXT_MEMO_SIZE`` curves, keyed by the
curve's identity, and empties the memo when it is full.  Each entry holds
its curve, so a key's ``id`` cannot be recycled while the entry lives.  A
``flow`` row asks for fifteen extremal lengths on three surfaces, six of
them distinct; the far Busemann point, shared by every row, meets two new
curves per row, which is why the memo is bounded.  The flow points
themselves are memoized, also bounded, by their line (see
:func:`origeo.geodesic.point_at`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from .errors import CertificationError, HostMismatch, InputError
from .intervals import ValueInterval
from .multicurve import (
    HORIZONTAL,
    VERTICAL,
    Weight,
    WeightedMulticurve,
    intersection,
    pair_intersection,
)
from .origami import Origami

_PROPORTIONAL_RTOL = 1e-9
_EXT_MEMO_SIZE = 8
# Float round-off by which a distance's lower bound may exceed its upper
# bound before distance_interval calls the bracket inverted.
_DISTANCE_SLACK = 1e-12


@dataclass(frozen=True)
class WeightedSurface:
    """An origami with positive cylinder heights and widths (a flat metric).

    The surface is its two defining foliations, built and validated once:
    heights weight every horizontal core, widths every vertical core.
    ``heights`` and ``widths`` are their read-only weights, in the host's
    cylinder order, so the quantities derived from them -- the area and the
    circumference tables -- are computed once per surface, on first use.
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

    def side_weights(self, side: str) -> Mapping[str, Weight]:
        return self.heights if side == HORIZONTAL else self.widths

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
    def _circumferences(self) -> Dict[str, Dict[str, Weight]]:
        matrix = self.origami.intersection_matrix()
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
    def _float_weights(self) -> Tuple[np.ndarray, np.ndarray]:
        """Heights and widths as floats, in the row and column order of N."""
        matrix = self.origami.intersection_matrix()
        return (
            np.array([float(self.heights[lab]) for lab in matrix.row_labels]),
            np.array([float(self.widths[lab]) for lab in matrix.col_labels]),
        )

    def across(self, side: str, label: str) -> Weight:
        """Distance across a cylinder: its height (horizontal) or width."""
        return self.side_weights(side)[label]

    def reciprocal_modulus(self, side: str, label: str) -> Weight:
        """circumference / across — an upper bound for the core's extremal length."""
        return self.circumference(side, label) / self.across(side, label)

    def proportionality(self, curve: WeightedMulticurve) -> Optional[Weight]:
        """Return r with curve = r * (defining foliation of curve's side), else None.

        Exact weights are compared exactly; any floating operand switches to a
        relative tolerance of 1e-9 (flow-line surfaces carry float weights).
        """
        if curve.host is not self.origami:
            raise HostMismatch("curve lives on a different origami")
        if not curve.is_full_support():
            return None
        own = self.side_weights(curve.side)
        ratios = [curve.weights[lab] / own[lab] for lab in curve.weights]
        exact = all(isinstance(r, Fraction) for r in ratios)
        first = ratios[0]
        if exact:
            return first if all(r == first for r in ratios) else None
        floats = [float(r) for r in ratios]
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


def foliation_ext(surface: WeightedSurface, side: str, r: Weight = 1) -> Weight:
    """Extremal length of r times the surface's own defining foliation.

    This is an exact evaluation: the extremal length of the defining
    foliation is the flat area, and extremal length is quadratic under
    scaling.  The caller asserts that the foliation in question really is
    ``r`` times the defining one — for anything else use
    :func:`curve_ext_bounds`.
    """
    if side not in (HORIZONTAL, VERTICAL):
        raise InputError(f"unknown side {side!r}")
    if not (r > 0):
        raise InputError(f"scale must be positive, got {r!r}")
    return r * r * surface.area()


def curve_ext_bounds(
    surface: WeightedSurface, curve: WeightedMulticurve
) -> ValueInterval:
    """Certified extremal-length enclosure for a weighted multicurve.

    Lower bound: intersection numbers against both defining foliations,
    whose extremal lengths are known exactly.  Upper bound: disjoint flat
    annuli, ``sum u^2 * circumference/across`` over the support.  For the
    defining foliation itself the two collapse to the exact area.
    """
    if curve.host is not surface.origami:
        raise HostMismatch("curve lives on a different origami")
    a = surface.area()
    lo = 0
    for side in (HORIZONTAL, VERTICAL):
        pairing = intersection(curve, surface.defining_foliation(side))
        cand = pairing * pairing / a
        if cand > lo:
            lo = cand
    hi = 0
    for lab, u in curve.weights.items():
        hi = hi + u * u * surface.reciprocal_modulus(curve.side, lab)
    if lo > hi:
        # mathematically lo <= Ext <= hi; allow only float round-off grazing
        if float(lo - hi) > 1e-9 * float(hi):
            raise CertificationError(
                f"extremal length bounds inverted: lo={lo} hi={hi}"
            )
        lo = hi
    return ValueInterval(lo, hi)


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
        ival = ValueInterval.exact(foliation_ext(surface, curve.side, r))
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
    hx, wx = x._float_weights
    hy, wy = y._float_weights
    p = np.outer(hx, wy)
    q = np.outer(hy, wx)
    k_cell = np.maximum(p, q) / np.minimum(p, q)
    cells = x.origami.intersection_matrix().array != 0
    # fmax skips the NaN of an overflowed inf/inf cell, as a scalar > would
    worst = np.fmax.reduce(k_cell[cells], initial=1.0)
    return 0.5 * math.log(worst)


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
    """
    _same_origami(x, y)
    best = 1  # ratio 1 <-> lower bound 0
    for curve in family:
        ix = ext_interval(x, curve)
        iy = ext_interval(y, curve)
        for ratio in (
            (ix.lo / iy.hi) if iy.hi > 0 else 0,
            (iy.lo / ix.hi) if ix.hi > 0 else 0,
        ):
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
