"""Eigen-solver tests, anchored by an exact rational oracle.

The oracle never touches floating point on the way to its bracket: it
forms the characteristic polynomial with integer arithmetic, drives a
rational power iteration until the Rayleigh quotient passes the
second-largest root, then bisects with Fractions.  Everything the dense
solve and its certified bracket produce is then compared against that.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from origeo.errors import (
    InputError,
    NoConvergenceError,
    NotPrimitiveError,
)
from origeo import perron
from origeo.perron import (
    gram,
    gram_array,
    is_primitive,
    perron_solve,
    wielandt_oracle,
)
from origeo.sampling import random_matrix


def _charpoly(t):
    """Monic characteristic polynomial coefficients, exact, k <= 3."""
    k = len(t)
    t = [[Fraction(x) for x in row] for row in t]
    if k == 1:
        return [-t[0][0], Fraction(1)]
    if k == 2:
        tr = t[0][0] + t[1][1]
        det = t[0][0] * t[1][1] - t[0][1] * t[1][0]
        return [det, -tr, Fraction(1)]
    if k == 3:
        a, b, c = t[0]
        d, e, f = t[1]
        g, h, i = t[2]
        tr = a + e + i
        minors = (e * i - f * h) + (a * i - c * g) + (a * e - b * d)
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        return [-det, minors, -tr, Fraction(1)]
    raise ValueError("oracle only handles k <= 3")


def _poly_at(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def exact_top_eigenvalue(t, bits=60):
    """Largest eigenvalue of a small symmetric integer/rational matrix."""
    k = len(t)
    t = [[Fraction(x) for x in row] for row in t]
    p = _charpoly(t)
    v = [Fraction(1)] * k
    lo = None
    for _ in range(300):
        w = [sum(t[i][j] * v[j] for j in range(k)) for i in range(k)]
        num = sum(w[i] * sum(t[i][j] * w[j] for j in range(k)) for i in range(k))
        den = sum(x * x for x in w)
        if den == 0:
            break
        r = num / den
        if _poly_at(p, r) <= 0:
            lo = r
            break
        big = max(abs(x) for x in w)
        v = [x / big for x in w]
    assert lo is not None, "rational power iteration failed to pass lambda_2"
    hi = Fraction(max(sum(row) for row in t)) + 1
    assert _poly_at(p, hi) > 0
    for _ in range(bits + 20):
        mid = (lo + hi) / 2
        if _poly_at(p, mid) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < Fraction(1, 10**18):
            break
    return (lo + hi) / 2


def brute_force_primitive(m):
    """Two-sided boolean-power primitivity, written from scratch.

    The coupling is primitive when some power of the row-side product
    M M^T and some power of the column-side product M^T M are entrywise
    positive, with Wielandt's exponent bound as the cutoff.
    """

    def bool_product(a, b):
        rows, inner, cols = len(a), len(b), len(b[0])
        return [
            [any(a[i][t] and b[t][j] for t in range(inner)) for j in range(cols)]
            for i in range(rows)
        ]

    def all_positive_power(sq):
        k = len(sq)
        cutoff = (k - 1) ** 2 + 1
        acc = sq
        for _ in range(cutoff):
            if all(all(row) for row in acc):
                return True
            acc = bool_product(acc, sq)
        return all(all(row) for row in acc)

    support = [[bool(x) for x in row] for row in m]
    transpose = [list(col) for col in zip(*support)]
    return all_positive_power(
        bool_product(support, transpose)
    ) and all_positive_power(bool_product(transpose, support))


def python_power_positive(t):
    """Some power of ``t`` up to (k-1)^2 + 1 is entrywise positive, in lists."""
    k = len(t)
    cur = [[bool(x) for x in row] for row in t]
    base = [row[:] for row in cur]
    for _ in range((k - 1) ** 2 + 1):
        if all(all(row) for row in cur):
            return True
        cur = [
            [any(cur[i][m] and base[m][j] for m in range(k)) for j in range(k)]
            for i in range(k)
        ]
    return all(all(row) for row in cur)


# ---------------------------------------------------------------------------


def test_golden_two_by_two_against_closed_form():
    res = perron_solve(((2, 1), (1, 1)))
    assert abs(res.eigenvalue - (3 + math.sqrt(5)) / 2) < 1e-10
    phi = (1 + math.sqrt(5)) / 2
    expect = (phi / (1 + phi), 1 / (1 + phi))
    assert max(abs(a - b) for a, b in zip(res.vector, expect)) < 1e-8
    assert res.residual <= 1e-12
    assert abs(sum(res.vector) - 1.0) < 1e-14


def test_exact_oracle_agrees_with_closed_form():
    lam = exact_top_eigenvalue(((2, 1), (1, 1)))
    assert abs(float(lam) - (3 + math.sqrt(5)) / 2) < 1e-15


@pytest.mark.parametrize("seed", range(20))
def test_power_iteration_vs_exact_charpoly_oracle(seed):
    rng = random.Random(f"charpoly:{seed}")
    while True:
        m = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        t = gram(m)
        if is_primitive(m) and all(t[i][i] > 0 for i in range(len(t))):
            break
    res = perron_solve(t)
    lam = exact_top_eigenvalue(t)
    assert abs(res.eigenvalue - float(lam)) < 1e-10 * max(1.0, float(lam))


@pytest.mark.parametrize("seed", range(8))
def test_power_iteration_vs_dense_eigensolver(seed):
    rng = random.Random(f"dense:{seed}")
    while True:
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        t = gram(m)
        if is_primitive(m) and all(t[i][i] > 0 for i in range(len(t))):
            break
    res = perron_solve(t)
    top = float(np.linalg.eigvalsh(np.array(t, dtype=float))[-1])
    assert abs(res.eigenvalue - top) < 1e-10 * max(1.0, top)


def test_different_seeds_land_on_one_ray():
    t = gram(((1, 2, 0), (0, 1, 1), (3, 0, 1)))
    a = perron_solve(t, seed=1)
    b = perron_solve(t, seed=2)
    assert max(abs(x - y) for x, y in zip(a.vector, b.vector)) < 1e-8


def test_gram_is_exact_on_rationals():
    m = ((Fraction(1, 2), Fraction(3)), (Fraction(2), Fraction(1, 3)))
    t = gram(m)
    assert t[0][0] == Fraction(1, 4) + 9
    assert t[0][1] == t[1][0] == Fraction(1) + Fraction(1)
    assert isinstance(t[0][0], Fraction)


def test_primitivity_against_brute_force():
    rng = random.Random("primitivity")
    for _ in range(300):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert is_primitive(m) == brute_force_primitive(m)


def test_two_sided_oracle_matches_support_test():
    rng = random.Random("wielandt")
    for _ in range(200):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert wielandt_oracle(m) == is_primitive(m)


def test_zero_column_is_not_primitive():
    m = ((1, 0), (1, 0))
    assert not is_primitive(m)
    assert not wielandt_oracle(m)
    assert not brute_force_primitive(m)


def test_periodic_matrix_refused():
    with pytest.raises(NotPrimitiveError):
        perron_solve(((0, 1), (1, 0)))


def test_malformed_matrices_refused():
    with pytest.raises(InputError):
        perron_solve(((1, 2), (3,)))
    with pytest.raises(InputError):
        perron_solve(((1, 2), (3, 4)))  # not symmetric
    with pytest.raises(InputError):
        perron_solve(((-1, 0), (0, 1)))
    with pytest.raises(InputError):
        perron_solve(())


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_entries_refused(bad):
    with pytest.raises(InputError, match="finite"):
        perron_solve(np.array([[2.0, bad], [bad, 1.0]]))


def test_unreachable_tolerance_raises_no_convergence():
    with pytest.raises(NoConvergenceError) as err:
        perron_solve(((2, 1), (1, 1)), tol=1e-30)
    assert err.value.iterations > 0
    assert err.value.residual > 0


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-12])
def test_tolerance_must_be_positive_and_finite(tol):
    with pytest.raises(InputError, match="tolerance"):
        perron_solve(((2, 1), (1, 1)), tol=tol)


def test_result_serialization_shape():
    res = perron_solve(((2, 1), (1, 1)))
    data = res.to_json()
    assert set(data) >= {"lambda", "x", "residual", "iterations"}
    assert isinstance(data["lambda"], str)
    assert all(isinstance(s, str) for s in data["x"])


def test_result_json_carries_the_bracket():
    res = perron_solve(((2, 1), (1, 1)))
    data = res.to_json()
    assert data["lambdaLo"] == res.lower and data["lambdaHi"] == res.upper
    assert res.lower <= res.eigenvalue <= res.upper
    assert res.iterations >= 1


@pytest.mark.parametrize("seed", range(10))
def test_bracket_encloses_the_exact_eigenvalue(seed):
    rng = random.Random(f"bracket:{seed}")
    while True:
        m = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        t = gram(m)
        if is_primitive(m) and all(t[i][i] > 0 for i in range(len(t))):
            break
    res = perron_solve(t)
    lam = exact_top_eigenvalue(t)
    assert Fraction(res.lower) - Fraction(1, 10**17) <= lam
    assert lam <= Fraction(res.upper) + Fraction(1, 10**17)


def test_bracket_width_is_relative_to_lambda():
    # lambda ~ 1e17: an absolute tolerance of 1e-12 is far below one ulp
    big = ((1e8, 2e8), (0.0, 3e8))
    res = perron_solve(gram(big))
    assert res.eigenvalue > 1e16
    assert res.upper - res.lower <= 1e-12 * res.lower + 2 * math.ulp(res.upper)


@st.composite
def _scaled_couplings(draw):
    """Primitive couplings c_i d_j n_ij with coefficients spread up to 1e4."""
    k = draw(st.integers(1, 6))
    l = draw(st.integers(1, 6))
    n = draw(st.lists(st.lists(st.integers(0, 3), min_size=l, max_size=l),
                      min_size=k, max_size=k))
    assume(is_primitive(n))
    coeff = st.builds(lambda mant, exp: mant * 10.0**exp,
                      st.floats(1.0, 10.0), st.integers(0, 4))
    c = draw(st.lists(coeff, min_size=k, max_size=k))
    d = draw(st.lists(coeff, min_size=l, max_size=l))
    return [[ci * dj * nij for dj, nij in zip(d, row)] for ci, row in zip(c, n)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(_scaled_couplings())
def test_certified_bracket_on_scaled_couplings(m):
    tol = 1e-12
    res = perron_solve(gram(m), tol=tol)
    assert res.lower <= res.eigenvalue <= res.upper
    # the exact width is <= tol * lo; outward rounding adds at most 2 ulps
    assert res.upper - res.lower <= tol * res.eigenvalue + 2 * math.ulp(res.upper)
    top = float(np.linalg.eigvalsh(np.array(gram(m)))[-1])
    assert abs(res.eigenvalue - top) <= 1e-10 * top
    assert min(res.vector) > 0 and abs(sum(res.vector) - 1) < 1e-12


@pytest.mark.parametrize("dtype", [np.int64, np.float32, np.float64])
def test_numpy_matrices_are_read_exactly(dtype):
    res = perron_solve(np.array([[2, 1], [1, 1]], dtype=dtype))
    assert res.lower <= (3 + math.sqrt(5)) / 2 <= res.upper


def test_result_json_lambda_reads_back_inside_its_bracket():
    rng = random.Random("lambda-json")
    cases = [((2, 1), (1, 1))]
    while len(cases) < 30:
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        if is_primitive(m):
            cases.append(gram(m))
    for t in cases:
        res = perron_solve(t)
        data = res.to_json()
        assert float(data["lambda"]) == res.eigenvalue
        assert data["lambdaLo"] <= float(data["lambda"]) <= data["lambdaHi"]


@pytest.mark.parametrize("family", ["wielandt", "primitivity", "large"])
def test_numpy_power_oracle_matches_the_list_reference(family):
    rng = random.Random(family)
    size, count = (12, 40) if family == "large" else (5, 200)
    for _ in range(count):
        m = random_matrix(rng, rng.randint(1, size), rng.randint(1, size),
                          zero_chance=0.7 if family == "large" else 0.35)
        cols = tuple(zip(*m))
        for t in (gram(m), gram(cols)):
            assert perron._some_power_positive(t) == python_power_positive(t)
        assert wielandt_oracle(m) == brute_force_primitive(m)


@st.composite
def _integer_couplings(draw):
    k = draw(st.integers(1, 8))
    l = draw(st.integers(1, 8))
    row = st.lists(st.integers(0, 10**4), min_size=l, max_size=l)
    return draw(st.lists(row, min_size=k, max_size=k))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_integer_couplings())
def test_gram_array_equals_exact_gram_on_integer_couplings(m):
    t = gram_array(np.array(m, dtype=float))
    assert t.tolist() == [list(row) for row in gram(m)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(_scaled_couplings())
def test_gram_array_is_exactly_symmetric_and_certifies(m):
    t = gram_array(np.array(m))
    assert np.array_equal(t, t.T)
    res = perron_solve(t)
    top = float(np.linalg.eigvalsh(t)[-1])
    assert res.lower <= res.eigenvalue <= res.upper
    assert abs(res.eigenvalue - top) <= 1e-10 * top


_image_entries = st.one_of(
    st.just(0.0),
    st.floats(0.0, 2.2250738585072014e-308),  # subnormals and the smallest normal
    st.floats(1e-300, 1e300),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4).flatmap(
    lambda k: st.lists(st.lists(_image_entries, min_size=k, max_size=k),
                       min_size=1, max_size=4)))
def test_frexp_image_is_the_exact_rational_matrix(rows):
    arr = np.array(rows, dtype=float)
    a, d = perron._float_image(arr)
    b, e = perron._integer_matrix(rows)
    assert d & (d - 1) == 0  # a power of two
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            assert isinstance(a[i, j], int)
            assert Fraction(a[i, j], d) == Fraction(v) == Fraction(b[i, j], e)


def test_frexp_image_of_extremes():
    arr = np.array([[0.0, 5e-324, 1e-300], [1.0, 1e300, np.finfo(float).max]])
    a, d = perron._float_image(arr)
    for v, num in zip(arr.ravel().tolist(), a.ravel().tolist()):
        assert Fraction(num, d) == Fraction(v)
