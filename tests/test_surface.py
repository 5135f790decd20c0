import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from origeo.errors import InputError
from origeo.multicurve import (
    HORIZONTAL,
    VERTICAL,
    WeightedMulticurve,
    core_curve,
)
from origeo.origami import builtin
from origeo.sampling import random_origami
from origeo.surface import (
    WeightedSurface,
    curve_ext_bounds,
    distance_interval,
    ext_interval,
    foliation_ext,
    kerckhoff_lower,
    load_weights,
    parse_weights,
    qc_upper,
    weights_to_json,
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
    assert foliation_ext(unit_l22, VERTICAL) == unit_l22.area()
    assert foliation_ext(unit_l22, HORIZONTAL) == unit_l22.area()
    # quadratic scaling, exactly
    assert foliation_ext(unit_l22, VERTICAL, Fraction(5, 2)) == Fraction(75, 4)


def test_defining_multicurve_interval_collapses(unit_l22):
    fv = unit_l22.defining_foliation(VERTICAL)
    iv = ext_interval(unit_l22, fv)
    assert iv.lo == iv.hi == 3
    scaled = fv.scaled(Fraction(2))
    iv2 = ext_interval(unit_l22, scaled)
    assert iv2.lo == iv2.hi == 12


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


def test_proportionality_detection(unit_l22):
    fv = unit_l22.defining_foliation(VERTICAL)
    assert unit_l22.proportionality(fv.scaled(Fraction(7, 2))) == Fraction(7, 2)
    tilted = WeightedMulticurve(
        unit_l22.origami, VERTICAL, {"B1": Fraction(1), "B2": Fraction(2)}
    )
    assert unit_l22.proportionality(tilted) is None
    partial = WeightedMulticurve(unit_l22.origami, VERTICAL, {"B1": Fraction(1)})
    assert unit_l22.proportionality(partial) is None


def test_surface_requires_total_positive_weights():
    o = builtin("l-2-2")
    with pytest.raises(InputError):
        WeightedSurface(o, {"A1": 1}, {"B1": 1, "B2": 1})
    with pytest.raises(InputError):
        WeightedSurface(o, {"A1": 1, "A2": 0}, {"B1": 1, "B2": 1})
    with pytest.raises(InputError):
        WeightedSurface(o, {"A1": 1, "A2": 1}, {"B1": 1, "B2": 1, "B3": 1})


def test_weights_parse_round_trip(tmp_path):
    o = builtin("l-2-2")
    data = {
        "heights": {"A1": "3/2", "A2": "1"},
        "widths": {"B1": "1", "B2": "2/5"},
    }
    x = parse_weights(data, o)
    assert x.heights["A1"] == Fraction(3, 2)
    assert x.widths["B2"] == Fraction(2, 5)
    again = parse_weights(weights_to_json(x), o)
    assert again.heights == x.heights and again.widths == x.widths

    path = tmp_path / "w.json"
    path.write_text('{"heights": {"A1": "1", "A2": "1"}, "widths": {"B1": "1", "B2": "1"}}')
    assert load_weights(str(path), o).area() == 3


@pytest.mark.parametrize(
    "data",
    [
        {"widths": {"B1": "1", "B2": "1"}},
        {"heights": {"A1": "1"}, "widths": {"B1": "1", "B2": "1"}},
        {"heights": {"A1": "1", "A2": "-2"}, "widths": {"B1": "1", "B2": "1"}},
    ],
)
def test_weights_parse_rejects_malformed(data):
    with pytest.raises(InputError):
        parse_weights(data, builtin("l-2-2"))


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
    assert list(weights_to_json(x)["widths"]) == ver


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
    o = unit_l22.origami
    a = WeightedMulticurve(o, VERTICAL, {"B1": Fraction(1)})
    b = WeightedMulticurve(o, VERTICAL, {"B1": Fraction(1)})
    assert a == b and a is not b
    want = curve_ext_bounds(unit_l22, a)
    first = ext_interval(unit_l22, a)
    assert first == want and ext_interval(unit_l22, b) == want
    assert ext_interval(unit_l22, a) is first  # a hit is the very same object


def test_ext_memo_never_serves_a_recycled_curve(unit_l22):
    # a curve freed after its lookup may hand its id to the next one
    o = unit_l22.origami
    for k in range(1, 40):
        curve = WeightedMulticurve(o, HORIZONTAL, {"A1": Fraction(k)})
        assert ext_interval(unit_l22, curve) == curve_ext_bounds(unit_l22, curve)
        del curve
        assert len(unit_l22._ext) <= 8
