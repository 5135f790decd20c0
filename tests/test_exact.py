"""Exact weights run on integers over one denominator, with plain-Fraction values.

Every function here that takes exact weights (``int`` or ``Fraction``) sums
and compares their integer forms, and builds a ``Fraction`` only for the
value it returns.  The references below are the plain formulas in the
canonical order, with every ``int`` weight promoted to ``Fraction``: on exact
data they give the exact rationals, and on data with any float weight they
give the float bits that the float path must keep.  Data with any float
weight runs on the ``float()`` of every weight, as the float kernels do, so
its references take ``weight=float``.
"""

import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from origeo import sampling
from origeo.horo import minsky_audit
from origeo.multicurve import (
    WeightedMulticurve,
    core_curve,
    intersection,
    pair_intersection,
)
from origeo.origami import HORIZONTAL, VERTICAL, builtin
from origeo.surface import (
    WeightedSurface,
    core_ext_bounds,
    curve_ext_bounds,
    ext_interval,
    foliation_ext,
)

SIDES = (HORIZONTAL, VERTICAL)


def _exact_weight(w):
    return Fraction(w) if isinstance(w, int) else w


def _promoted(curve, weight=_exact_weight):
    return {lab: weight(w) for lab, w in curve.weights.items()}


def ref_pairing(a, b, weight=_exact_weight):
    if a.side != HORIZONTAL:
        a, b = b, a
    n = a.host.intersection_matrix()
    wa, wb = _promoted(a, weight), _promoted(b, weight)
    total = weight(0)
    for lab, cells in zip(n.row_labels, n.sparse_rows):
        ai = wa.get(lab, 0)
        for j, nij in cells:
            bj = wb.get(n.col_labels[j], 0)
            if ai != 0 and bj != 0:
                total += ai * nij * bj
    return total


def ref_area(x, weight=_exact_weight):
    return ref_pairing(x.defining_foliation(HORIZONTAL), x.defining_foliation(VERTICAL),
                       weight)


def ref_circumference(x, side, label, weight=_exact_weight):
    n = x.origami.intersection_matrix()
    heights, widths = (_promoted(x.defining_foliation(s), weight) for s in SIDES)
    if side == HORIZONTAL:
        cells = n.sparse_rows[n.row_index[label]]
        return sum(nij * widths[n.col_labels[j]] for j, nij in cells)
    j = n.col_index[label]
    return sum(row[j] * heights[lab] for lab, row in zip(n.row_labels, n.entries) if row[j])


def ref_proportionality(x, curve, weight=_exact_weight):
    if not curve.is_full_support():
        return None
    own = _promoted(x.defining_foliation(curve.side), weight)
    weights = _promoted(curve, weight)
    ratios = [weights[lab] / own[lab] for lab in weights]
    if all(isinstance(r, Fraction) for r in ratios):
        return ratios[0] if all(r == ratios[0] for r in ratios) else None
    lo, hi = min(map(float, ratios)), max(map(float, ratios))
    return float(ratios[0]) if hi - lo <= 1e-9 * hi else None


def ref_bounds(x, curve, weight=_exact_weight):
    other = HORIZONTAL if curve.side == VERTICAL else VERTICAL
    pairing = ref_pairing(curve, x.defining_foliation(other), weight)
    cand = pairing * pairing / ref_area(x, weight)
    lo = cand if cand > 0 else 0
    hi, across = 0, _promoted(x.defining_foliation(curve.side), weight)
    for lab, u in _promoted(curve, weight).items():
        hi = hi + u * u * (ref_circumference(x, curve.side, lab, weight) / across[lab])
    return (hi if lo > hi else lo), hi  # float round-off may graze


def ref_ext(x, curve, weight=_exact_weight):
    r = ref_proportionality(x, curve, weight)
    if r is None:
        return ref_bounds(x, curve, weight)
    return r * r * ref_area(x, weight), r * r * ref_area(x, weight)


def ref_minsky(x, weight=_exact_weight):
    n = x.origami.intersection_matrix()
    ext_hi = {lab: ref_bounds(x, core_curve(x.origami, side, lab), weight)[1]
              for side, labels in ((HORIZONTAL, n.row_labels), (VERTICAL, n.col_labels))
              for lab in labels}
    entries = []
    for alab, row in zip(n.row_labels, n.entries):
        for blab, n_ab in zip(n.col_labels, row):
            bound = ext_hi[alab] * ext_hi[blab]
            entries.append({"pair": [alab, blab], "intersection": n_ab,
                            "extUpperProduct": float(bound),
                            "status": "certified" if n_ab * n_ab <= bound else "violated"})
    pairing = ref_pairing(*(x.defining_foliation(s) for s in SIDES), weight)
    area = ref_area(x, weight)
    equal = pairing * pairing == area * area
    ok = equal and all(e["status"] == "certified" for e in entries)
    return {
        "pairs": entries,
        "definingEquality": {"pairingSquared": float(pairing * pairing),
                             "areaSquared": float(area * area),
                             "status": "exact" if equal else "violated"},
        "status": "pass" if ok else "fail",
    }


def same(got, want, exact):
    """Equal rationals off any float for exact data; equal bits otherwise."""
    if exact:
        return not isinstance(got, float) and got == want
    return type(got) is type(want) and (
        got.hex() == want.hex() if isinstance(got, float) else got == want)


# denominators up to 10^12, mostly coprime, so that a family's lcm grows
_WEIGHTS = {
    "int": st.integers(1, 10**12),
    "fraction": st.builds(Fraction, st.integers(1, 10**12), st.integers(1, 10**12)),
    "float": st.floats(1e-6, 1e6),
}
_exact = st.one_of(_WEIGHTS["int"], _WEIGHTS["fraction"])


@st.composite
def _instances(draw, kinds):
    """A random origami, a surface and a curve on it, and a curve on each
    side; ``kinds`` gives the weight strategy of heights, widths and curves."""
    o = sampling.random_origami(random.Random(draw(st.integers(0, 10**9))), (3, 8))
    heights, widths, curves = (st.one_of(*map(_WEIGHTS.get, kind)) for kind in kinds)

    def family(side, weights, full):
        labels = [c.label for c in o.cylinders(side)]
        if not full:
            labels = draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))
        return {lab: draw(weights) for lab in labels}

    x = WeightedSurface(o, family(HORIZONTAL, heights, True),
                        family(VERTICAL, widths, True))
    pair = {side: WeightedMulticurve(o, side, family(side, curves, draw(st.booleans())))
            for side in SIDES}
    r = draw(curves)
    # the scaled defining foliation takes the proportional shortcut
    scaled = x.defining_foliation(draw(st.sampled_from(SIDES))).scaled(r)
    return x, pair, r, scaled


def _exact_family(curve):
    return all(isinstance(w, (int, Fraction)) for w in curve.weights.values())


def _same_interval(ival, want, exact):
    return same(ival.lo, want[0], exact) and same(ival.hi, want[1], exact)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_instances((("int", "fraction"),) * 3))
def test_exact_kernels_match_the_fraction_reference(instance):
    x, pair, r, scaled = instance
    a, b = pair[HORIZONTAL], pair[VERTICAL]
    assert _exact_family(a) and _exact_family(x.defining_foliation(HORIZONTAL))
    assert same(pair_intersection(a, b), ref_pairing(a, b), True)
    assert same(pair_intersection(b, a), ref_pairing(a, b), True)
    assert same(x.area(), ref_area(x), True)
    for side in SIDES:
        for cyl in x.origami.cylinders(side):
            want = ref_circumference(x, side, cyl.label)
            assert same(x.circumference(side, cyl.label), want, True)
    assert same(foliation_ext(x, r), Fraction(r) ** 2 * ref_area(x), True)
    for curve in (a, b, scaled):
        assert _same_interval(curve_ext_bounds(x, curve), ref_bounds(x, curve), True)
        assert _same_interval(ext_interval(x, curve), ref_ext(x, curve), True)
    assert minsky_audit(x) == ref_minsky(x)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([
    (("fraction",), ("float",), ("fraction",)),      # a mixed surface
    (("float",), ("fraction",), ("int", "fraction")),
    (("float",), ("float",), ("int", "fraction")),   # exact curves, float surface
    (("fraction",), ("int",), ("float",)),            # float curves, exact surface
]).flatmap(_instances))
def test_mixed_families_keep_the_float_bits(instance):
    x, pair, r, scaled = instance
    exact_surface = all(_exact_family(x.defining_foliation(s)) for s in SIDES)
    a, b = pair[HORIZONTAL], pair[VERTICAL]
    exact_pair = _exact_family(a) and _exact_family(b)
    assert same(pair_intersection(a, b),
                ref_pairing(a, b, _exact_weight if exact_pair else float), exact_pair)
    assert same(x.area(), ref_area(x, _exact_weight if exact_surface else float),
                exact_surface)
    for curve in (a, b, scaled):
        exact = exact_surface and _exact_family(curve)
        weight = _exact_weight if exact else float
        assert _same_interval(curve_ext_bounds(x, curve), ref_bounds(x, curve, weight),
                              exact)
        assert _same_interval(ext_interval(x, curve), ref_ext(x, curve, weight), exact)
    assert minsky_audit(x) == ref_minsky(x, _exact_weight if exact_surface else float)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([
    (("int", "fraction"),) * 3,                       # an exact surface
    (("fraction",), ("float",), ("int",)),            # a mixed one
    (("float",), ("float",), ("int",)),
]).flatmap(_instances))
def test_core_bounds_of_a_side_are_each_core_s_bounds(instance):
    x = instance[0]
    exact = all(_exact_family(x.defining_foliation(s)) for s in SIDES)
    for side in SIDES:
        want = [curve_ext_bounds(x, core_curve(x.origami, side, c.label))
                for c in x.origami.cylinders(side)]
        lo, hi = core_ext_bounds(x, side)
        assert len(lo) == len(hi) == len(want)
        for got_lo, got_hi, bounds in zip(lo, hi, want):
            assert _same_interval(bounds, (got_lo, got_hi), exact)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(_exact, min_size=1, max_size=3))
def test_integer_form_is_the_weights_over_their_lcm(weights):
    o = builtin("l-3-2")  # three vertical cylinders
    labels = [c.label for c in o.cylinders(VERTICAL)][-len(weights):]
    curve = WeightedMulticurve(o, VERTICAL, dict(zip(labels, weights)))
    nums, den = curve.integer_form
    assert den == math.lcm(*(Fraction(w).denominator for w in weights))
    assert [Fraction(n, den) for n in nums] == list(curve.vector())


def test_integer_weights_are_exact_like_fractions():
    # unit int weights used to divide int by int into a float: the curve was
    # called proportional (r = 1e10), and the collapsed interval [3e20, 3e20]
    # left out the certified lower bound 3.0000000002e20
    o = builtin("l-2-2")
    curve = WeightedMulticurve(o, VERTICAL, {"B1": 10**10, "B2": 10**10 + 1})
    want = (Fraction(900000000060000000001, 3), Fraction(300000000020000000001))
    for one in (1, Fraction(1)):
        x = WeightedSurface(o, {"A1": one, "A2": one}, {"B1": one, "B2": one})
        ival = ext_interval(x, curve)
        assert (ival.lo, ival.hi) == want
        assert not isinstance(ival.lo, float) and not isinstance(ival.hi, float)
        bounds = curve_ext_bounds(x, curve)
        assert (bounds.lo, bounds.hi) == want


def test_same_side_intersection_is_the_int_zero():
    o = builtin("l-2-2")
    for weights in ({"B1": 0.5, "B2": 2.0}, {"B1": Fraction(1, 2), "B2": 2}):
        u = WeightedMulticurve(o, VERTICAL, weights)
        assert type(intersection(u, core_curve(o, VERTICAL, "B1"))) is int


def test_minsky_audit_builds_few_fractions(monkeypatch):
    rng = random.Random("1:minsky")  # the minsky suite's stream at seed 1
    o = sampling.random_origami(rng, (3, 8))
    x = sampling.random_surface(rng, o)
    assert (o.n, sum(len(o.cylinders(side)) for side in SIDES)) == (4, 3)
    built = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", staticmethod(
        lambda cls, *args, **kwargs: built.append(args) or new(cls, *args, **kwargs)))
    report = minsky_audit(x)
    monkeypatch.undo()
    assert report["status"] == "pass"
    # one Fraction per value that leaves the integer layer (78 with a
    # Fraction per multiply and add)
    assert len(built) <= 20
