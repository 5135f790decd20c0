import math
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from origeo.errors import CertificationError, HostMismatch, InputError
from origeo.geodesic import flow_distance, optimal_geodesic
from origeo.multicurve import (
    BusemannSpec,
    WeightedMulticurve,
    core_curve,
)
from origeo.origami import HORIZONTAL, VERTICAL, builtin
from origeo.sampling import random_origami
from origeo.surface import (
    WeightedSurface,
    curve_ext_bounds,
    distance_interval,
    ext_interval,
    foliation_ext,
    kerckhoff_lower,
    qc_upper,
)


@pytest.fixture
def unit_l22():
    o = builtin("l-2-2")
    ones_h = {"A1": Fraction(1), "A2": Fraction(1)}
    ones_v = {"B1": Fraction(1), "B2": Fraction(1)}
    return WeightedSurface(o, ones_h, ones_v)


def test_unit_surface_area_is_cell_count(unit_l22):
    assert unit_l22.area() == 3
    assert isinstance(unit_l22.area(), Fraction)


def test_defining_foliation_ext_equals_area_exactly(unit_l22):
    assert foliation_ext(unit_l22) == unit_l22.area()
    # quadratic scaling, exactly
    assert foliation_ext(unit_l22, Fraction(5, 2)) == Fraction(75, 4)


def test_defining_multicurve_interval_collapses(unit_l22):
    fv = unit_l22.defining_foliation(VERTICAL)
    iv = ext_interval(unit_l22, fv)
    assert iv.lo == iv.hi == 3
    scaled = fv.scaled(Fraction(2))
    iv2 = ext_interval(unit_l22, scaled)
    assert iv2.lo == iv2.hi == 12


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: a float curve within _PROPORTIONAL_RTOL of the "
    "defining foliation gets the zero-width interval [3.0, 3.0]",
)
def test_near_proportional_curve_interval_contains_its_lower_bound(unit_l22):
    curve = WeightedMulticurve(
        unit_l22.origami, VERTICAL, {"B1": 1.0, "B2": 1.0 + 9e-10}
    )
    lower = curve_ext_bounds(unit_l22, curve).lo  # 3.0000000018
    assert ext_interval(unit_l22, curve).contains(lower)


@pytest.mark.xfail(
    strict=True,
    raises=CertificationError,
    reason="ROADMAP item 1: past the reach cap the distance bracket of "
    "G(-178) and G(178) overflows to [inf, inf]",
)
def test_flow_distance_beyond_the_reach_cap_is_certified(unit_l22):
    o = unit_l22.origami
    line = optimal_geodesic(BusemannSpec(o, VERTICAL, unit_l22.widths),
                            BusemannSpec(o, HORIZONTAL, unit_l22.heights))
    assert flow_distance(line, -178, 178) == 356.0


def test_core_curve_bounds_exact_fractions(unit_l22):
    # long horizontal core: circumference 2, crossed by height 1 -> hi = 2;
    # best defining pairing gives lo = (i)^2 / area = 4/3
    bounds = curve_ext_bounds(unit_l22, core_curve(unit_l22.origami, HORIZONTAL, "A1"))
    assert bounds.lo == Fraction(4, 3)
    assert bounds.hi == Fraction(2)
    bounds2 = curve_ext_bounds(unit_l22, core_curve(unit_l22.origami, HORIZONTAL, "A2"))
    assert bounds2.lo == Fraction(1, 3)
    assert bounds2.hi == Fraction(1)


def test_bounds_scale_quadratically(unit_l22):
    gamma = core_curve(unit_l22.origami, VERTICAL, "B1")
    one = curve_ext_bounds(unit_l22, gamma)
    three = curve_ext_bounds(unit_l22, gamma.scaled(Fraction(3)))
    assert three.lo == 9 * one.lo and three.hi == 9 * one.hi


def test_width_doubling_distance_is_half_log_two(unit_l22):
    doubled = unit_l22.scaled(width_factor=Fraction(2), height_factor=Fraction(1))
    iv = distance_interval(unit_l22, doubled)
    assert iv.hi - iv.lo <= 1e-12
    assert abs(iv.lo - 0.5 * math.log(2)) <= 1e-12


def test_distance_is_zero_on_equal_surfaces(unit_l22):
    iv = distance_interval(unit_l22, unit_l22)
    assert iv.lo == 0.0 and iv.hi == 0.0


def test_upper_bound_is_bit_symmetric(unit_l22):
    other = WeightedSurface(
        unit_l22.origami,
        {"A1": Fraction(7, 3), "A2": Fraction(1, 2)},
        {"B1": Fraction(2), "B2": Fraction(5, 4)},
    )
    assert qc_upper(unit_l22, other) == qc_upper(other, unit_l22)


def test_overflowing_cells_do_not_drop_out_of_the_upper_bound(unit_l22):
    # the cross products overflow to inf/inf; skipping those cells gave [0, 0]
    o = unit_l22.origami
    x = WeightedSurface(o, {"A1": 1e300, "A2": 1e300}, {"B1": 1e10, "B2": 1e10})
    y = WeightedSurface(o, {"A1": 1e300, "A2": 1e300}, {"B1": 1e20, "B2": 1e20})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        iv = distance_interval(x, y)
        upper = qc_upper(x, y)
        assert upper == qc_upper(y, x)
    assert iv.lo <= 0.5 * math.log(1e10) <= iv.hi
    assert iv.hi <= upper


def test_lower_bound_never_exceeds_upper(unit_l22):
    import random

    rng = random.Random(20240817)
    o = unit_l22.origami
    for _ in range(50):
        a = WeightedSurface(
            o,
            {k: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for k in ("A1", "A2")},
            {k: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for k in ("B1", "B2")},
        )
        b = WeightedSurface(
            o,
            {k: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for k in ("A1", "A2")},
            {k: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for k in ("B1", "B2")},
        )
        family = [a.defining_foliation(VERTICAL), a.defining_foliation(HORIZONTAL)]
        assert kerckhoff_lower(a, b, family) <= qc_upper(a, b) + 1e-12


def test_proportionality_of_float_weights(unit_l22):
    # r times a defining foliation collapses to r^2 * area; anything else,
    # the partial curve {B1} too, keeps the curve bounds
    o = unit_l22.origami
    floats = WeightedSurface(o, {"A1": 1.0, "A2": 2.0}, {"B1": 0.5, "B2": 1.5})
    ival = ext_interval(floats, floats.defining_foliation(VERTICAL).scaled(2.5))
    assert ival.lo == ival.hi == 2.5 ** 2 * floats.area()
    for weights in ({"B1": 1.0, "B2": 1.0}, {"B1": 0.5}):
        ival = ext_interval(floats, WeightedMulticurve(o, VERTICAL, weights))
        assert ival.lo < ival.hi
    # a float curve on an exact surface takes the float path too
    half = unit_l22.defining_foliation(HORIZONTAL).scaled(0.5)
    ival = ext_interval(unit_l22, half)
    assert (ival.lo, ival.hi) == (0.75, 0.75)


def test_foliation_ext_takes_a_float_scale(unit_l22):
    assert foliation_ext(unit_l22, 0.5) == 0.75


@pytest.mark.parametrize(
    "width, weight, want",
    [(1e-100, 1e100, 2.9999999999999996e+300), (1e100, 1e-100, 3e-300)],
)
def test_scaled_foliation_ext_stays_in_the_float_range(width, weight, want):
    # r = 1e200 or 1e-200: r * r leaves the floats, r * (r * area) does not
    o = builtin("l-2-2")
    x = WeightedSurface(o, {"A1": 1, "A2": 1}, {"B1": width, "B2": width})
    iv = ext_interval(x, WeightedMulticurve(o, VERTICAL, {"B1": weight, "B2": weight}))
    assert (iv.lo, iv.hi) == (want, want)
    assert foliation_ext(x, weight / width) == want


@pytest.mark.parametrize(
    "height, width, weights",
    [(1e100, 1.0, (1e60, 2e60)),  # pairing^2 overflowed: lo=inf hi=6e220
     (1e100, 1e-100, (1e-170, 2e-170))],  # u^2 underflowed: lo=5.3e-140 hi=0.0
)
def test_curve_bounds_whose_squares_leave_the_float_range(height, width, weights):
    o = builtin("l-2-2")

    def bounds(number, kernel):
        x = WeightedSurface(o, {"A1": number(height), "A2": number(height)},
                            {"B1": number(width), "B2": number(width)})
        return kernel(x, WeightedMulticurve(o, VERTICAL, dict(zip(
            ("B1", "B2"), map(number, weights)))))

    want = bounds(Fraction, curve_ext_bounds)
    for kernel in (curve_ext_bounds, ext_interval):
        got = bounds(float, kernel)
        for g, w in ((got.lo, want.lo), (got.hi, want.hi)):
            assert abs(Fraction(g) - w) <= w * Fraction(1, 10**15)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1B: a subnormal u^2 in curve_ext_rows' annulus sum "
    "reads hi = 5.9999332030960976e-120 below the exact 5.9999999999999995e-120",
)
def test_a_subnormal_square_keeps_the_upper_bound_above_the_exact_one():
    o = builtin("l-2-2")

    def hi(number):
        x = WeightedSurface(o, {"A1": number(1e100), "A2": number(1e100)},
                            {"B1": number(1e-100), "B2": number(1e-100)})
        curve = WeightedMulticurve(o, VERTICAL, {"B1": number(1e-160),
                                                 "B2": number(2e-160)})
        return curve_ext_bounds(x, curve).hi

    assert hi(float) >= hi(Fraction)


@pytest.mark.xfail(
    strict=True,
    raises=OverflowError,
    reason="ROADMAP item 1B: an exact surface whose ratios leave the float range "
    "raises 'integer division result too large for a float'",
)
def test_an_exact_surface_past_the_float_range_gets_its_distance():
    o = builtin("l-2-2")
    big = WeightedSurface(o, {"A1": Fraction(10**400), "A2": Fraction(10**400)},
                          {"B1": 1, "B2": 1})
    unit = WeightedSurface(o, {"A1": 1, "A2": 1}, {"B1": 1, "B2": 1})
    d = distance_interval(big, unit)  # d_T = log(10^400) / 2
    assert d.lo <= 200 * math.log(10) <= d.hi


def test_an_infinite_scale_is_refused(unit_l22):
    with pytest.raises(InputError, match="^scale must be positive and finite, got inf$"):
        foliation_ext(unit_l22, math.inf)
    with pytest.raises(InputError, match="must be positive and finite, got inf$"):
        unit_l22.defining_foliation(VERTICAL).scaled(math.inf)


@pytest.mark.parametrize("factor", [0, 0.0, -1, -2.5, Fraction(-1, 2), float("nan")])
def test_a_non_positive_scale_is_refused(unit_l22, factor):
    with pytest.raises(InputError, match="^scale must be positive"):
        foliation_ext(unit_l22, factor)
    with pytest.raises(InputError, match="^scale factor must be positive$"):
        unit_l22.defining_foliation(VERTICAL).scaled(factor)
    for widths, heights in ((factor, 1), (1, factor)):
        with pytest.raises(InputError, match="^scale factors must be positive$"):
            unit_l22.scaled(widths, heights)


def test_unknown_side_and_other_origami_are_refused(unit_l22):
    with pytest.raises(InputError, match="unknown side 'diagonal'"):
        unit_l22.defining_foliation("diagonal")
    o = builtin("l-3-2")
    other = WeightedSurface(o, {c.label: 1 for c in o.cylinders(HORIZONTAL)},
                            {c.label: 1 for c in o.cylinders(VERTICAL)})
    with pytest.raises(HostMismatch, match="different origamis"):
        qc_upper(unit_l22, other)


def test_surface_requires_total_positive_weights():
    o = builtin("l-2-2")
    with pytest.raises(InputError):
        WeightedSurface(o, {"A1": 1}, {"B1": 1, "B2": 1})
    with pytest.raises(InputError):
        WeightedSurface(o, {"A1": 1, "A2": 0}, {"B1": 1, "B2": 1})
    with pytest.raises(InputError):
        WeightedSurface(o, {"A1": 1, "A2": 1}, {"B1": 1, "B2": 1, "B3": 1})


# ---------------------------------------------------------------------------
# the array kernels against the per-cell loops they replace


def scalar_qc_upper(x, y):
    """The quasiconformal bound cell by cell, as a scalar loop over N."""
    matrix = x.origami.intersection_matrix()
    worst = 1.0
    for i, hlab in enumerate(matrix.row_labels):
        for j, vlab in enumerate(matrix.col_labels):
            if matrix.entries[i][j] == 0:
                continue
            p = float(y.widths[vlab]) * float(x.heights[hlab])
            q = float(x.widths[vlab]) * float(y.heights[hlab])
            k_cell = max(p, q) / min(p, q)
            if k_cell > worst:
                worst = k_cell
    return 0.5 * math.log(worst)


def dense_area(x):
    """sum_ij h_i n_ij w_j over every cell of N, zeros skipped, in row order."""
    matrix = x.origami.intersection_matrix()
    total = 0
    for i, hlab in enumerate(matrix.row_labels):
        for j, vlab in enumerate(matrix.col_labels):
            if matrix.entries[i][j] != 0:
                total += x.heights[hlab] * matrix.entries[i][j] * x.widths[vlab]
    return total


def dense_circumference(x, side, label):
    matrix = x.origami.intersection_matrix()
    if side == HORIZONTAL:
        row = matrix.entries[matrix.row_labels.index(label)]
        return sum(n * x.widths[lab] for n, lab in zip(row, matrix.col_labels) if n != 0)
    j = matrix.col_labels.index(label)
    return sum(
        row[j] * x.heights[lab]
        for row, lab in zip(matrix.entries, matrix.row_labels)
        if row[j] != 0
    )


_float_weight = st.builds(lambda mant, exp: mant * 10.0**exp,
                          st.floats(1.0, 10.0), st.integers(-8, 8))
_fraction_weight = st.builds(Fraction, st.integers(1, 50), st.integers(1, 50))


@st.composite
def _surface_pairs(draw):
    o = random_origami(random.Random(draw(st.integers(0, 10**6))), (3, 12))
    weight = draw(st.sampled_from([_float_weight, _fraction_weight]))

    def surface():
        return WeightedSurface(
            o,
            {c.label: draw(weight) for c in o.cylinders(HORIZONTAL)},
            {c.label: draw(weight) for c in o.cylinders(VERTICAL)},
        )

    return surface(), surface()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_surface_pairs())
def test_array_kernels_match_the_cell_loops_bit_for_bit(pair):
    x, y = pair
    assert qc_upper(x, y) == scalar_qc_upper(x, y)
    assert qc_upper(x, y) == qc_upper(y, x)
    assert x.area() == dense_area(x)
    for side in (HORIZONTAL, VERTICAL):
        for cyl in x.origami.cylinders(side):
            got = x.circumference(side, cyl.label)
            assert got == dense_circumference(x, side, cyl.label)
            assert type(got) is type(dense_circumference(x, side, cyl.label))


def test_weights_are_read_only(unit_l22):
    with pytest.raises(TypeError):
        unit_l22.heights["A1"] = Fraction(5)
    with pytest.raises(TypeError):
        unit_l22.widths["B1"] = Fraction(5)
    fv = unit_l22.defining_foliation(VERTICAL)
    with pytest.raises(TypeError):
        fv.weights["B1"] = Fraction(5)
    assert unit_l22.area() == 3


def test_surface_copies_the_weights_it_is_given():
    o = builtin("l-2-2")
    heights = {"A1": Fraction(1), "A2": Fraction(1)}
    x = WeightedSurface(o, heights, {"B1": Fraction(1), "B2": Fraction(1)})
    assert x.area() == 3
    heights["A1"] = Fraction(10)
    assert x.heights["A1"] == 1 and x.area() == 3


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_surface_pairs())
def test_distance_interval_lower_bound_is_nonnegative(pair):
    x, y = pair
    assert distance_interval(x, y).lo >= 0
    assert distance_interval(y, x).lo >= 0


def test_surface_weights_follow_the_cylinder_order():
    o = random_origami(random.Random(5), (12, 12))
    hor = [c.label for c in o.cylinders(HORIZONTAL)]
    ver = [c.label for c in o.cylinders(VERTICAL)]
    assert len(hor) > 1 and len(ver) > 1
    x = WeightedSurface(
        o,
        {lab: Fraction(k + 1) for k, lab in reversed(list(enumerate(hor)))},
        {lab: Fraction(k + 1) for k, lab in reversed(list(enumerate(ver)))},
    )
    assert list(x.heights) == hor and list(x.widths) == ver
    assert list(x.heights.values()) == [Fraction(k + 1) for k in range(len(hor))]
    assert x.defining_foliation(HORIZONTAL).weights is x.heights
    assert x.defining_foliation(VERTICAL).weights is x.widths


@pytest.mark.parametrize(
    "heights, widths, named",
    [
        ({"A1": 1}, {"B1": 1, "B2": 1}, "A2"),
        ({"A1": 1, "A2": 1}, {"B2": 1}, "B1"),
        ({"A1": 1, "A2": 1, "A3": 1}, {"B1": 1, "B2": 1}, "A3"),
        ({"A1": 1, "A2": 1}, {"B1": 1, "B2": 1, "B7": 1}, "B7"),
        ({"A1": 1, "A2": 0}, {"B1": 1, "B2": 1}, "A2"),
        ({"A1": 1, "A2": 1}, {"B1": -Fraction(1, 2), "B2": 1}, "B1"),
        ({"A1": math.inf, "A2": 1}, {"B1": 1, "B2": 1}, "A1"),
        ({"A1": 1, "A2": 1}, {"B1": 1, "B2": math.nan}, "B2"),
    ],
)
def test_surface_rejects_missing_unknown_and_bad_weights(heights, widths, named):
    with pytest.raises(InputError, match=named):
        WeightedSurface(builtin("l-2-2"), heights, widths)


def test_ext_memo_tells_equal_curves_apart(unit_l22):
    # ext_interval keeps no memo: equal curves that are distinct objects each
    # get the bounds of curve_ext_bounds
    o = unit_l22.origami
    a = WeightedMulticurve(o, VERTICAL, {"B1": Fraction(1)})
    b = WeightedMulticurve(o, VERTICAL, {"B1": Fraction(1)})
    assert a == b and a is not b
    want = curve_ext_bounds(unit_l22, a)
    assert ext_interval(unit_l22, a) == want and ext_interval(unit_l22, b) == want


def test_ext_memo_never_serves_a_recycled_curve(unit_l22):
    # a curve freed after its lookup may hand its id to the next one, which
    # must still get its own bounds
    o = unit_l22.origami
    for k in range(1, 40):
        curve = WeightedMulticurve(o, HORIZONTAL, {"A1": Fraction(k)})
        assert ext_interval(unit_l22, curve) == curve_ext_bounds(unit_l22, curve)
        del curve
