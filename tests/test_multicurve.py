import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from origeo.errors import HostMismatch, InputError, NotFillingError, SideMismatch
from origeo.multicurve import (
    BusemannSpec,
    FillingStatus,
    WeightedMulticurve,
    _check_weights,
    busemann_spec_to_json,
    core_curve,
    filling_origami,
    filling_status,
    intersection,
    pair_intersection,
    parse_busemann_spec,
    parse_coefficient,
)
from origeo.origami import (
    HORIZONTAL,
    VERTICAL,
    IntersectionMatrix,
    builtin,
    support_is_primitive,
)
from origeo.perron import is_primitive, wielandt_oracle
from origeo.sampling import random_matrix, random_origami, submatrix_is_primitive_shape


@pytest.fixture
def l22():
    return builtin("l-2-2")


def test_core_pairings_read_off_matrix(l22):
    a1 = core_curve(l22, HORIZONTAL, "A1")
    a2 = core_curve(l22, HORIZONTAL, "A2")
    b1 = core_curve(l22, VERTICAL, "B1")
    b2 = core_curve(l22, VERTICAL, "B2")
    assert intersection(a1, b1) == 1
    assert intersection(a1, b2) == 1
    assert intersection(a2, b1) == 1
    assert intersection(a2, b2) == 0
    assert intersection(a1, a2) == 0  # same side: disjoint
    assert intersection(b1, b1) == 0


def test_pairing_is_bilinear_and_exact(l22):
    u = WeightedMulticurve(
        l22, VERTICAL, {"B1": Fraction(2, 3), "B2": Fraction(5)}
    )
    w = WeightedMulticurve(
        l22, HORIZONTAL, {"A1": Fraction(1, 7), "A2": Fraction(3)}
    )
    # (2/3 * 1/7 * 1) + (2/3 * 3 * 1) + (5 * 1/7 * 1) + 0
    expected = Fraction(2, 21) + 2 + Fraction(5, 7)
    assert intersection(u, w) == expected
    assert isinstance(intersection(u, w), Fraction)


def test_pairing_is_bit_symmetric(l22):
    u = WeightedMulticurve(l22, VERTICAL, {"B1": 0.37, "B2": 1.91})
    w = WeightedMulticurve(l22, HORIZONTAL, {"A1": 2.13, "A2": 0.07})
    assert intersection(u, w) == intersection(w, u)


def test_same_side_pairing_requires_opposite_sides(l22):
    u = core_curve(l22, VERTICAL, "B1")
    w = core_curve(l22, VERTICAL, "B2")
    with pytest.raises(SideMismatch):
        pair_intersection(u, w)


def test_filling_requires_opposite_sides(l22):
    u = core_curve(l22, VERTICAL, "B1")
    w = core_curve(l22, VERTICAL, "B2")
    with pytest.raises(SideMismatch, match="opposite sides"):
        filling_status(u, w)


def test_pairing_rejects_cross_host():
    a = core_curve(builtin("l-2-2"), VERTICAL, "B1")
    b = core_curve(builtin("l-3-2"), HORIZONTAL, "A1")
    with pytest.raises(HostMismatch):
        pair_intersection(a, b)


def test_multicurve_validation(l22):
    with pytest.raises(InputError):
        WeightedMulticurve(l22, VERTICAL, {"A1": 1})  # wrong side's label
    with pytest.raises(InputError):
        WeightedMulticurve(l22, VERTICAL, {"B1": 0})  # weights must be positive
    with pytest.raises(InputError):
        WeightedMulticurve(l22, "diagonal", {"B1": 1})
    with pytest.raises(InputError):
        WeightedMulticurve(l22, VERTICAL, {})


def test_full_support_flag(l22):
    full = WeightedMulticurve(l22, VERTICAL, {"B1": 1, "B2": 1})
    part = WeightedMulticurve(l22, VERTICAL, {"B1": 1})
    assert full.is_full_support() and not part.is_full_support()


def test_filling_status_two_values(l22):
    full_v = WeightedMulticurve(l22, VERTICAL, {"B1": 1, "B2": 1})
    full_h = WeightedMulticurve(l22, HORIZONTAL, {"A1": 1, "A2": 1})
    assert filling_status(full_v, full_h) is FillingStatus.FILLING_CERTIFIED
    assert [s.value for s in FillingStatus] == ["FillingCertified", "NotFilling"]

    # B1 and A1 cross once: their O′ is the one-square torus, genus 1 < 2
    sub_v = WeightedMulticurve(l22, VERTICAL, {"B1": 1})
    sub_h = WeightedMulticurve(l22, HORIZONTAL, {"A1": 1})
    assert filling_status(sub_v, sub_h) is FillingStatus.NOT_FILLING
    with pytest.raises(NotFillingError, match=r"genus\(O′\) = 1 < 2"):
        filling_origami(sub_v, sub_h)

    # the A2 row meets only B1, so the pair (B2, A2) has a zero line
    dead_v = WeightedMulticurve(l22, VERTICAL, {"B2": 1})
    dead_h = WeightedMulticurve(l22, HORIZONTAL, {"A2": 1})
    assert filling_status(dead_v, dead_h) is FillingStatus.NOT_FILLING
    with pytest.raises(NotFillingError, match="meets no core of the other family"):
        filling_origami(dead_v, dead_h)


def test_spec_parse_round_trip(l22):
    data = {
        "side": "vertical",
        "coeffs": [["B1", "3/2"], ["B2", "1"]],
        "approx": False,
    }
    spec = parse_busemann_spec(data, l22)
    assert spec.coeffs["B1"] == Fraction(3, 2)
    assert not spec.approx
    again = parse_busemann_spec(busemann_spec_to_json(spec), l22)
    assert again.coeffs == spec.coeffs and again.side == spec.side


def test_spec_parse_approx_coefficients(l22):
    data = {
        "side": "horizontal",
        "coeffs": [["A1", "1.25"], ["A2", "0.5"]],
        "approx": True,
    }
    spec = parse_busemann_spec(data, l22)
    assert spec.approx
    assert spec.coeffs["A1"] == pytest.approx(1.25)


@pytest.mark.parametrize(
    "data",
    [
        {"coeffs": [["B1", "1"]], "approx": False},
        {"side": "vertical", "approx": False},
        {"side": "vertical", "coeffs": [], "approx": False},
        {"side": "vertical", "coeffs": [["A1", "1"]], "approx": False},
        {"side": "vertical", "coeffs": [["B1", "0"]], "approx": False},
        {"side": "vertical", "coeffs": [["B1", "-1"]], "approx": False},
        {"side": "vertical", "coeffs": [["B1", "one"]], "approx": False},
        {"side": "up", "coeffs": [["B1", "1"]], "approx": False},
    ],
)
def test_spec_parse_rejects_malformed(l22, data):
    with pytest.raises(InputError):
        parse_busemann_spec(data, l22)


def test_spec_as_multicurve_matches_coeffs(l22):
    spec = BusemannSpec(l22, VERTICAL, {"B1": Fraction(2), "B2": Fraction(1, 3)})
    mc = spec.as_multicurve()
    assert mc.weights == spec.coeffs
    assert mc.side == VERTICAL


def test_spec_keeps_the_multicurve_it_validated(l22):
    spec = BusemannSpec(l22, VERTICAL, {"B2": Fraction(1, 3), "B1": Fraction(2)})
    assert spec.as_multicurve() is spec.as_multicurve()
    assert spec.coeffs is spec.as_multicurve().weights
    assert spec.support == ("B1", "B2")
    assert list(spec.coeffs) == ["B1", "B2"]


def test_multicurve_weights_follow_the_cylinder_order(l22):
    mc = WeightedMulticurve(l22, HORIZONTAL, {"A2": Fraction(3), "A1": Fraction(1)})
    assert list(mc.weights) == ["A1", "A2"] and mc.support == ("A1", "A2")
    assert mc.vector() == (Fraction(1), Fraction(3))


@pytest.mark.parametrize("value", ["1e400", "inf", "-inf", "nan"])
def test_spec_rejects_non_finite_coefficients(l22, value):
    data = {"side": "vertical", "coeffs": [["B1", "1"], ["B2", value]], "approx": True}
    with pytest.raises(InputError, match="B2"):
        parse_busemann_spec(data, l22)


def test_spec_parses_each_coefficient_text_once(l22, monkeypatch):
    from origeo import multicurve

    texts = []
    parse = multicurve.parse_coefficient
    monkeypatch.setattr(multicurve, "parse_coefficient",
                        lambda text, approx: texts.append(text) or parse(text, approx))
    spec = parse_busemann_spec(
        {"side": "vertical", "coeffs": [["B1", "1/2"], ["B2", "1/2"]]}, l22)
    assert texts == ["1/2"]
    assert spec.coeffs == {"B1": Fraction(1, 2), "B2": Fraction(1, 2)}


@pytest.mark.parametrize(
    "coeffs, error",
    [
        # the checks still run per entry, and a bad text raises at its first
        ([["B1", "1"], ["B1", "1"]], "^duplicate component 'B1'$"),
        ([["B1", "x"], ["B1", "x"]], "^bad coefficient 'x'"),
        ([["B1", "1"], [2, "1"]], r"^coeffs\[1\] = \[2, '1'\]: the label must be"),
        # a number is not its text: true after 1 is still refused
        ([["B1", 1], ["B2", True]], "^bad coefficient True"),
        ([["B1", "1"], ["B2", True]], "^bad coefficient True"),
    ],
)
def test_spec_parse_checks_every_entry(l22, coeffs, error):
    with pytest.raises(InputError, match=error):
        parse_busemann_spec({"side": "vertical", "coeffs": coeffs}, l22)


# ---------------------------------------------------------------------------
# the support-graph search on the nonzero cells


def dense_primitive_shape(m):
    """No zero row or column and one connected block, by merging every
    pair of rows that share a column, over all cells of the dense matrix."""
    if not m or not m[0]:
        return False
    k, l = len(m), len(m[0])
    if not all(any(row) for row in m):
        return False
    if not all(any(row[j] for row in m) for j in range(l)):
        return False
    block = list(range(k))

    def root(i):
        while block[i] != i:
            i = block[i]
        return i

    for j in range(l):
        rows = [i for i in range(k) if m[i][j]]
        for i in rows[1:]:
            block[root(i)] = root(rows[0])
    return len({root(i) for i in range(k)}) == 1


def _random_support(rng):
    """A random 0/1 matrix, sometimes with a zero row or a zero column."""
    m = [list(row) for row in random_matrix(
        rng, rng.randint(1, 6), rng.randint(1, 6), max_entry=1,
        zero_chance=rng.choice([0.2, 0.5, 0.8]))]
    if rng.random() < 0.2:
        m[rng.randrange(len(m))] = [0] * len(m[0])
    if rng.random() < 0.2:
        j = rng.randrange(len(m[0]))
        for row in m:
            row[j] = 0
    return m


def test_sparse_search_agrees_with_the_oracles_on_random_supports():
    rng = random.Random("sparse-search")
    seen = set()
    for _ in range(400):
        m = _random_support(rng)
        expect = dense_primitive_shape(m)
        seen.add(expect)
        row_cols = [[j for j, x in enumerate(row) if x] for row in m]
        assert support_is_primitive(row_cols, len(m[0])) == expect
        assert is_primitive(m) == expect
        assert wielandt_oracle(m) == expect
    assert seen == {True, False}


def test_submatrix_shape_reads_label_subsets_off_the_sparse_rows():
    rng = random.Random("submatrix-shape")
    seen = set()
    for _ in range(60):
        n = random_origami(rng, (3, 30)).intersection_matrix()
        for _ in range(5):
            rows = rng.sample(n.row_labels, rng.randint(0, len(n.row_labels)))
            cols = rng.sample(n.col_labels, rng.randint(0, len(n.col_labels)))
            sub = [
                [n.entries[n.row_labels.index(a)][n.col_labels.index(b)] for b in cols]
                for a in rows
            ]
            expect = dense_primitive_shape(sub)
            seen.add(expect)
            for rs, cs in ((rows, cols), (frozenset(rows), frozenset(cols))):
                assert submatrix_is_primitive_shape(n, rs, cs) == expect
            if rows and cols:
                assert wielandt_oracle(sub) == expect
    assert seen == {True, False}


def test_intersection_matrix_label_maps_and_sparse_rows():
    labels = (("A2", "A1"), ("B3", "B1", "B2"))
    rows = (((0, 2), (2, 1)), ((2, 3),))
    n = IntersectionMatrix(rows, *labels)
    assert dict(n.row_index) == {"A2": 0, "A1": 1}
    assert dict(n.col_index) == {"B3": 0, "B1": 1, "B2": 2}
    assert n.sparse_rows is rows
    with pytest.raises(TypeError):
        n.row_index["A3"] = 2  # shared by every caller, so read-only
    same = IntersectionMatrix(rows, *labels)
    assert same == n and hash(same) == hash(n) and repr(same) == repr(n)
    assert "entries" not in vars(n) and "entries" not in vars(same)  # cells only
    assert n.entries == ((2, 0, 1), (0, 0, 3))  # derived on first use
    assert n.array.tolist() == [[2.0, 0.0, 1.0], [0.0, 0.0, 3.0]]
    assert (n.shape, n.total(), n.gram_nonzeros) == ((2, 3), 6, 4)


@pytest.mark.parametrize(
    "rows, labels, message",
    [
        pytest.param((), ((), ("B1",)), "nonempty", id="no-rows"),
        pytest.param(((),), (("A1",), ()), "nonempty", id="no-columns"),
        pytest.param((((0, 1),),), (("A1", "A2"), ("B1",)), "label count",
                     id="label-count"),
        pytest.param((((1, 1),),), (("A1",), ("B1",)), "cell columns", id="column-past-end"),
        pytest.param((((-1, 1),),), (("A1",), ("B1",)), "cell columns", id="negative-column"),
        pytest.param((((1, 1), (0, 1)),), (("A1",), ("B1", "B2")), "cell columns",
                     id="columns-out-of-order"),
        pytest.param((((0, 1), (0, 1)),), (("A1",), ("B1",)), "cell columns",
                     id="repeated-column"),
        pytest.param((((0, 0),),), (("A1",), ("B1",)), "positive count", id="zero-count"),
        pytest.param((((0, -2),),), (("A1",), ("B1",)), "positive count",
                     id="negative-count"),
    ],
)
def test_sparse_rows_are_checked_cell_by_cell(rows, labels, message):
    with pytest.raises(InputError, match=message):
        IntersectionMatrix(rows, *labels)


_WEIGHTS = st.one_of(
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.fractions(),
)


@given(st.lists(_WEIGHTS, min_size=1, max_size=5))
def test_weight_check_accepts_what_the_comparison_accepted(weights):
    """A Fraction is checked by its numerator; every weight must pass or fail
    as ``0 < w < math.inf`` says, and the first failing one is named."""
    labelled = {f"B{i}": w for i, w in enumerate(weights)}
    failing = [label for label, w in labelled.items() if not 0 < w < math.inf]
    if not failing:
        assert _check_weights(labelled) == labelled
        return
    with pytest.raises(InputError) as caught:
        _check_weights(labelled)
    w = labelled[failing[0]]
    assert str(caught.value) == (
        f"weight on {failing[0]} must be positive and finite, got {w!r}"
    )


@pytest.mark.parametrize("text", [
    "1", "4/3", "007", "12/08", "0", "1/0", "3/", "/3", "", "1.5", "-3/4", " 5 ",
    "+2", "1e3", "1_0", "١", "²", "3/²", "9" * 30 + "/3",
])
def test_exact_coefficients_parse_as_the_fraction_grammar(text):
    # digit strings skip the Fraction regex; every text gives what it gave
    try:
        expected = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(InputError) as refused:
            parse_coefficient(text, False)
        assert str(refused.value) == f"bad coefficient {text!r}: {exc}"
        return
    value = parse_coefficient(text, False)
    assert type(value) is Fraction and value == expected


def test_full_supports_fill_without_a_search(l22, monkeypatch):
    # a connected origami's N has a connected support graph
    from origeo.origami import Origami

    monkeypatch.setattr(Origami, "_restricted", None)
    full_v = WeightedMulticurve(l22, VERTICAL, {"B1": 1, "B2": 1})
    full_h = WeightedMulticurve(l22, HORIZONTAL, {"A1": 1, "A2": 1})
    assert filling_status(full_v, full_h) is FillingStatus.FILLING_CERTIFIED
