r"""Weighted families of cylinder core curves and their intersection pairing.

On a square-tiled surface every horizontal cylinder has a core curve
``alpha_i`` and every vertical cylinder a core curve ``beta_j``; curves on the
same side are disjoint, and a horizontal core meets a vertical core once in
every unit cell the two cylinders share.  The whole intersection theory of
these families is therefore carried by one nonnegative integer matrix
``n_ij`` (rows = horizontal cylinders, columns = vertical cylinders), and the
geometric intersection number of weighted families is the bilinear form

    i(sum_i a_i alpha_i, sum_j b_j beta_j) = sum_ij a_i n_ij b_j.

That matrix is the host's :class:`~origeo.origami.IntersectionMatrix`,
which the origami builds, by its nonzero cells, and checks; every pairing
here reads those cells or the matrix's float array.  This layer loads on
first use, so a cold ``validate`` or ``--help`` runs none of it.

A weight of type ``int`` or ``Fraction`` is exact.  A family whose weights
are all exact has an integer form: its numerators in the host's cylinder
order over one common denominator (their ``math.lcm``), built on first
exact use.  The exact pairings run on those integers and build one
``Fraction`` for the value they return, so no gcd runs per multiply and
add.  A family with any real weight (e.g. eigenvector output) pairs
through the float kernel, on its float :attr:`WeightedMulticurve.row`: the
weights converted once, on first float use.  ``fractions`` itself loads at
the first exact weight.

A :class:`BusemannSpec` names a weighted family on one side as the
prescribed direction of a geodesic ray; :func:`filling_status` reports
whether a transverse pair of families fills the surface, so that it spans a
geodesic:

``FillingCertified``
    every region of the complement of the union of the cores is a disc:
    the rectangles between the cores for full supports, and for proper
    ones exactly when genus(O′) = genus(O) (see :func:`filling_origami`).
``NotFilling``
    a used core meets no core of the other family, the cores fall into
    more pieces than one, or a region of the complement is not a disc.
"""

from __future__ import annotations

import enum
import math
from functools import cached_property
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from .errors import (HostMismatch, InputError, NotFillingError, SideMismatch, _lazy_import,
                     np)
from .origami import HORIZONTAL, SIDES, _Record

fractions = _lazy_import("fractions")

Weight = Union[int, float, "fractions.Fraction"]


def is_exact(w: Weight) -> bool:
    """An ``int`` or ``Fraction``: a weight that an integer form holds exactly."""
    # a float is rejected before the ABC check that isinstance runs for Fraction
    return type(w) is not float and isinstance(w, (int, fractions.Fraction))


def _check_weights(weights: Mapping[str, Weight]) -> Dict[str, Weight]:
    if not weights:
        raise InputError("weighted multicurve needs at least one component")
    clean: Dict[str, Weight] = {}
    for label, w in weights.items():
        # a Fraction is finite, and positive iff its numerator is; comparing
        # it with 0 and inf costs about 6x as much
        if not (w.numerator > 0 if type(w) is fractions.Fraction else 0 < w < math.inf):
            raise InputError(
                f"weight on {label} must be positive and finite, got {w!r}"
            )
        clean[str(label)] = w
    return clean


class WeightedMulticurve(_Record):
    """Positive weights on pairwise disjoint cores of one side of an origami.

    ``weights`` is a read-only mapping in the host's cylinder order, so its
    keys are the support and a multicurve kept by a surface or a spec cannot
    change under it.
    """

    _fields = ("host", "side", "weights")

    def __init__(self, host, side: str, weights: Mapping[str, Weight]):
        self.__dict__.update(host=host, side=side, weights=weights)
        self.__post_init__()

    def __post_init__(self):
        """Check the weights and keep them in the host's cylinder order; apart
        from ``__init__``, so that one hook sees every checking construction."""
        if self.side not in SIDES:
            raise InputError(f"unknown side {self.side!r}")
        clean = _check_weights(self.weights)
        cylinders = self.host.cylinders(self.side)
        unknown = set(clean).difference(c.label for c in cylinders)
        if unknown:
            raise InputError(
                f"no {self.side} cylinder labelled {sorted(unknown)} on this origami"
            )
        ordered = {c.label: clean[c.label] for c in cylinders if c.label in clean}
        self.__dict__["weights"] = MappingProxyType(ordered)
        if not all(map(is_exact, ordered.values())):
            # a float family has no integer form; fixing it here keeps the
            # float paths off the lazy property's first-access cost
            self.__dict__["integer_form"] = None

    @classmethod
    def _from_checked_row(cls, host, side: str, row: np.ndarray) -> "WeightedMulticurve":
        """The full-support float family on the weights ``row`` (cylinder
        order) that a row check passed, read off the row with no second check."""
        curve = cls.__new__(cls)
        row = row.view()
        row.flags.writeable = False
        labels = [c.label for c in host.cylinders(side)]
        curve.__dict__.update(host=host, side=side, row=row, integer_form=None,
                              weights=MappingProxyType(dict(zip(labels, row.tolist()))))
        return curve

    @property
    def support(self) -> Tuple[str, ...]:
        return tuple(self.weights)

    def is_full_support(self) -> bool:
        return len(self.weights) == len(self.host.cylinders(self.side))

    @cached_property
    def row(self) -> np.ndarray:
        """The weights as one read-only float64 row in the host's cylinder
        order, 0 off the support: each weight is converted once, on first
        use.  An exact weight past the float range raises OverflowError, one
        that underflows reads 0 at its place in the support."""
        out = np.array([float(self.weights.get(c.label, 0))
                        for c in self.host.cylinders(self.side)])
        out.flags.writeable = False
        return out

    def vector(self) -> Tuple[Weight, ...]:
        """Weights aligned with the host's canonical cylinder order (exact 0s),
        built once: the weights are read-only."""
        return self._vector

    @cached_property
    def _vector(self) -> Tuple[Weight, ...]:
        zero = fractions.Fraction(0) if all(map(is_exact, self.weights.values())) else 0.0
        return tuple(
            self.weights.get(c.label, zero) for c in self.host.cylinders(self.side)
        )

    @cached_property
    def integer_form(self) -> Optional[Tuple[Tuple[int, ...], int]]:
        """``(numerators, denominator)``: the weights as integers in the host's
        cylinder order (0 off the support) over their one least common
        denominator; None if a weight is a float (set at construction)."""
        ratios = {lab: w.as_integer_ratio() for lab, w in self.weights.items()}
        den = math.lcm(*(d for _, d in ratios.values()))
        nums = {lab: n * (den // d) for lab, (n, d) in ratios.items()}
        return tuple(nums.get(c.label, 0) for c in self.host.cylinders(self.side)), den

    def scaled(self, factor: Weight) -> "WeightedMulticurve":
        if not (factor > 0):
            raise InputError("scale factor must be positive")
        return WeightedMulticurve(
            self.host, self.side, {k: w * factor for k, w in self.weights.items()}
        )


def core_curve(host, side: str, label: str) -> WeightedMulticurve:
    """The single core curve of one cylinder, as a weight-1 multicurve."""
    return WeightedMulticurve(host, side, {label: 1})


def _same_host(a: WeightedMulticurve, b: WeightedMulticurve) -> None:
    if a.host is not b.host:
        raise HostMismatch("multicurves live on different origamis")


def pair_intersection(a: WeightedMulticurve, b: WeightedMulticurve) -> Weight:
    """Geometric intersection number of two transversal weighted families.

    ``a`` and ``b`` must live on opposite sides of the same origami.  The
    pairing is the bilinear form through the core intersection matrix,
    summed over its nonzero cells in row order.  When both weight systems
    are exact the sum runs on their integer forms and one ``Fraction`` is
    built at the end; otherwise it is the one-row :func:`pairing_rows` of
    their float rows.
    """
    _same_host(a, b)
    if a.side == b.side:
        raise SideMismatch(
            "pair_intersection needs families on opposite sides "
            f"(both are {a.side}); same-side families are disjoint"
        )
    if a.side != HORIZONTAL:
        # canonical accumulation order: the pairing is symmetric, and running
        # one fixed loop makes it bit-for-bit symmetric in float arithmetic
        a, b = b, a
    exact = a.integer_form
    if exact is None or b.integer_form is None:
        with np.errstate(all="ignore"):  # a sum beyond the floats is inf
            return float(pairing_rows(a.host, a.row[None], b.row[None])[0])
    (an, ad), (bn, bd) = exact, b.integer_form
    total = 0
    for ai, cells in zip(an, a.host.intersection_matrix().sparse_rows):
        if ai:
            total += ai * sum([nij * bn[j] for j, nij in cells])
    return fractions.Fraction(total, ad * bd)


def pairing_rows(host, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """pair_intersection at every row of the horizontal float weights a and
    the vertical ones b (0 off a support), summed over the nonzero cells of
    N in row order."""
    i, j, n = host.intersection_matrix().cells
    return np.add.accumulate((a.take(i, 1) * n) * b.take(j, 1), axis=1)[:, -1]


def intersection(a: WeightedMulticurve, b: WeightedMulticurve) -> Weight:
    """Like :func:`pair_intersection` but 0 for same-side (disjoint) families."""
    _same_host(a, b)
    if a.side == b.side:
        return 0
    return pair_intersection(a, b)


def core_pairings(
    host,
    side: str,
    curves: Optional[Sequence[WeightedMulticurve]] = None,
    scales: Optional[np.ndarray] = None,
) -> np.ndarray:
    """i(core_k, gamma) in floats, read off N: one row per core k of
    ``side``, one column per curve (default: every core, in the order of
    the matrix's ``core_labels``).  ``scales``, one per curve, stands for
    ``gamma.scaled(scale)``: each float weight is multiplied by its scale.
    Without curves that is the matrix's cached ``core_pairings`` block."""
    pairs = host.intersection_matrix().core_pairings[side]
    if curves is None:  # the weights are the identity
        return pairs if scales is None else pairs * scales
    if any(gamma.host is not host for gamma in curves):
        raise HostMismatch("curve lives on a different origami")
    h = len(host.cylinders(HORIZONTAL))
    weights = np.zeros((len(pairs[0]), len(curves)))
    for col, gamma in enumerate(curves):  # each curve's float row, on its side
        start = 0 if gamma.side == HORIZONTAL else h
        weights[start:start + len(gamma.row), col] = gamma.row
    if scales is not None:
        weights = weights * scales
    return pairs @ weights


def limit_values(
    host,
    side: str,
    q: np.ndarray,
    curves: Optional[Sequence[WeightedMulticurve]] = None,
    scales: Optional[np.ndarray] = None,
) -> np.ndarray:
    """sqrt(sum_k q_k * i(core_k, gamma)^2) for every gamma in ``curves``,
    each scaled by its entry of ``scales`` if given (see :func:`core_pairings`).

    The one float kernel behind every limit and spec pairing: k runs over
    the cores of ``side``, ``q`` holds their weights in cylinder order, and
    all cores and curves are evaluated in one product with N.  On the
    identity curves that product reads the zero-padded N (or N^T) each
    matrix keeps: the padding keeps the bits, since BLAS sums a column of
    the padded product in another order than the same column of N alone.
    """
    return np.sqrt(q @ core_pairings(host, side, curves, scales) ** 2)


class FillingStatus(enum.Enum):
    FILLING_CERTIFIED = "FillingCertified"
    NOT_FILLING = "NotFilling"


def filling_origami(a: WeightedMulticurve, b: WeightedMulticurve):
    """The origami on which a filling transverse pair spans its line, or
    NotFillingError naming why the pair does not fill.

    Full supports fill on the host, which is connected.  Proper ones fill on
    O′ (Thurston's construction): the ribbon neighbourhood of the union of
    the cores, each boundary circle capped by a disc.  So χ(O′) >= χ(O),
    with equality exactly when every region of the complement is a disc.
    """
    _same_host(a, b)
    if a.side == b.side:
        raise SideMismatch("filling needs families on opposite sides")
    hor, ver = (a, b) if a.side == HORIZONTAL else (b, a)
    if hor.is_full_support() and ver.is_full_support():
        return a.host
    cut = a.host._restricted(hor.support, ver.support)  # connected, no zero line
    g, g_cut = a.host.genus(), cut.genus()
    if g_cut < g:
        raise NotFillingError("the families do not fill: a region of the complement "
                              f"is not a disc: genus(O′) = {g_cut} < {g}")
    return cut


def filling_status(a: WeightedMulticurve, b: WeightedMulticurve) -> FillingStatus:
    """Whether a transverse pair fills (see the module docstring): only the
    supports matter, not the weights.  :func:`filling_origami` as a value."""
    try:
        filling_origami(a, b)
    except NotFillingError:
        return FillingStatus.NOT_FILLING
    return FillingStatus.FILLING_CERTIFIED


# ---------------------------------------------------------------------------
# Prescribed boundary directions and their JSON form


class BusemannSpec(_Record):
    """A prescribed boundary direction: positive coefficients on disjoint cores.

    ``coeffs`` maps cylinder labels (all on ``side``) to positive numbers;
    ``approx`` records that the coefficients came in as decimal/floating
    values rather than exact rationals.  The coefficients are validated once,
    as the multicurve that :meth:`as_multicurve` returns.
    """

    _fields = ("host", "side", "coeffs", "approx")

    def __init__(self, host, side: str, coeffs: Mapping[str, Weight],
                 approx: bool = False):
        curve = WeightedMulticurve(host, side, coeffs)
        self.__dict__.update(
            host=host, side=side, coeffs=curve.weights, approx=approx, _curve=curve
        )

    def as_multicurve(self) -> WeightedMulticurve:
        return self._curve

    @property
    def support(self) -> Tuple[str, ...]:
        return self._curve.support


def parse_coefficient(text: str, approx: bool) -> Weight:
    """Parse ``"p/q"`` exactly, or as a float when flagged approximate."""
    s = str(text).strip()
    try:
        if approx:
            return float(fractions.Fraction(s)) if "/" in s else float(s)
        num, slash, den = s.partition("/")
        digits = num.isascii() and num.isdigit()
        if digits and (not slash or den.isascii() and den.isdigit()):
            # digits "p" or "p/q", read as the Fraction grammar reads them;
            # one argument skips the gcd with 1
            if not slash:
                return fractions.Fraction(int(num))
            return fractions.Fraction(int(num), int(den))
        return fractions.Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad coefficient {text!r}: {exc}") from None


def format_coefficient(value: Weight) -> str:
    if is_exact(value):
        return str(value)
    return f"{float(value):.15g}"


def parse_busemann_spec(data: Mapping, host) -> BusemannSpec:
    """Build a :class:`BusemannSpec` from its JSON object form.

    Expected shape: ``{"side": "vertical", "coeffs": [["B1", "1"], ...]}``
    with optional ``"approx": true`` marking non-exact coefficients.  Each
    entry is checked, but each distinct coefficient text is parsed once.
    """
    if not isinstance(data, Mapping):
        raise InputError("boundary spec must be a JSON object")
    try:
        side = data["side"]
        raw = data["coeffs"]
    except (KeyError, TypeError):
        raise InputError("boundary spec needs 'side' and 'coeffs'") from None
    if side not in SIDES:
        raise InputError(f"side must be one of {SIDES}, got {side!r}")
    approx = data.get("approx", False)
    if not isinstance(approx, bool):
        raise InputError(f"'approx' must be true or false, got {approx!r}")
    if not isinstance(raw, (list, tuple)):
        raise InputError("'coeffs' must be a list of [label, value] pairs")
    coeffs: Dict[str, Weight] = {}
    parsed: Dict[str, Weight] = {}  # text -> value, for this call only
    for k, item in enumerate(raw):
        # a string would unpack into its characters, an object into its keys
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise InputError(
                f"coeffs[{k}] = {item!r}: an entry must be a [label, value] pair")
        label, value = item
        if not isinstance(label, str):
            raise InputError(f"coeffs[{k}] = {item!r}: the label must be a string")
        if label in coeffs:
            raise InputError(f"duplicate component {label!r}")
        if type(value) is not str:  # 1 and True: one dict key, two texts
            coeffs[label] = parse_coefficient(value, approx)
        elif value in parsed:
            coeffs[label] = parsed[value]
        else:
            coeffs[label] = parsed[value] = parse_coefficient(value, approx)
    return BusemannSpec(host, side, coeffs, approx=approx)


def busemann_spec_to_json(spec: BusemannSpec) -> dict:
    out = {
        "side": spec.side,
        "coeffs": [[lab, format_coefficient(spec.coeffs[lab])] for lab in spec.support],
    }
    if spec.approx:
        out["approx"] = True
    return out
