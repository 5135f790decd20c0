"""Eigen-solver tests, anchored by an exact rational oracle.

The oracle never touches floating point on the way to its bracket: it
forms the characteristic polynomial with integer arithmetic, drives a
rational power iteration until the Rayleigh quotient passes the
second-largest root, then bisects with Fractions.  Everything the dense
solve and its certified bracket produce is then compared against that.
"""

import itertools
import math
import random
import re
import sys
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
    wielandt_block,
    wielandt_oracle,
)
from origeo import checks
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


def test_repeated_solves_are_bitwise_identical():
    t = gram(((1, 2, 0), (0, 1, 1), (3, 0, 1)))
    assert perron_solve(t) == perron_solve(t)


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


def _matrices_of_shape(rows, cols):
    """Every support of a small shape (nonzero cells 2); 40 random matrices
    of a larger one, then each with its last row and, apart, its last
    column zeroed."""
    if rows * cols <= 8:
        return [tuple(cells[i:i + cols] for i in range(0, rows * cols, cols))
                for cells in itertools.product((0, 2), repeat=rows * cols)]
    rng = random.Random(f"block:{rows}x{cols}")
    drawn = [random_matrix(rng, rows, cols) for _ in range(40)]
    zero_row = [m[:-1] + ((0,) * cols,) for m in drawn]
    zero_col = [tuple(row[:-1] + (0,) for row in m) for m in drawn]
    return drawn + zero_row + zero_col


_SHAPES = [(r, c) for r in range(1, 6) for c in range(1, 6)]


@pytest.mark.parametrize("rows, cols", _SHAPES, ids=[f"{r}x{c}" for r, c in _SHAPES])
def test_block_oracle_agrees_case_by_case(rows, cols):
    ms = _matrices_of_shape(rows, cols)
    block = wielandt_block(ms)
    assert block == [wielandt_oracle(m) for m in ms]
    assert block == [brute_force_primitive(m) for m in ms]
    assert all(type(ok) is bool for ok in block)


def test_block_oracle_answers_a_mixed_block_in_input_order():
    ms = [m for shape in _SHAPES for m in _matrices_of_shape(*shape)[::7]]
    random.Random("mixed block").shuffle(ms)
    want = [brute_force_primitive(m) for m in ms]
    assert len({(len(m), len(m[0])) for m in ms}) == len(_SHAPES)
    assert True in want and False in want
    assert wielandt_block(ms) == want
    assert wielandt_block([]) == []


@pytest.mark.parametrize("flipped", [[3, 417], list(range(20, 170, 10))])
def test_primitivity_suite_reports_each_disagreement_in_case_order(monkeypatch, flipped):
    calls = itertools.count()
    monkeypatch.setattr(checks, "is_primitive",
                        lambda m: is_primitive(m) != (next(calls) in flipped))
    report = checks.check_primitivity_oracle(5)
    assert (report["status"], report["cases"]) == ("fail", 500)
    shown = flipped[:checks._MAX_FAILURES]
    assert [f.split(":")[0] for f in report["failures"]] == [f"case {i}" for i in shown]
    for failure in report["failures"]:
        fast, slow = re.fullmatch(
            r"case \d+: is_primitive=(True|False) but powers say (True|False)",
            failure).groups()
        assert fast != slow


@pytest.mark.parametrize(
    "matrix, error",
    [([], "matrix must be nonempty"), ([[]], "matrix must be nonempty"),
     ([[1, 2], [3]], "ragged matrix")],
)
def test_gram_and_is_primitive_refuse_an_empty_or_ragged_matrix(matrix, error):
    for function in (gram, is_primitive):
        with pytest.raises(InputError, match=error):
            function(matrix)


def test_zero_column_is_not_primitive():
    m = ((1, 0), (1, 0))
    assert not is_primitive(m)
    assert not wielandt_oracle(m)
    assert not brute_force_primitive(m)


def test_periodic_matrix_refused():
    with pytest.raises(NotPrimitiveError):
        perron_solve(((0, 1), (1, 0)))


def test_non_square_float_array_refused():
    with pytest.raises(InputError, match="must be square, got 2x3"):
        perron_solve(np.ones((2, 3)))


def test_malformed_matrices_refused():
    with pytest.raises(InputError):
        perron_solve(((1, 2), (3,)))
    with pytest.raises(InputError):
        perron_solve(((1, 2), (3, 4)))  # not symmetric
    with pytest.raises(InputError):
        perron_solve(((-1, 0), (0, 1)))
    with pytest.raises(InputError):
        perron_solve(())


@pytest.mark.parametrize(
    "t",
    [[[10**400]], [[None]], [["1"]], [[Fraction(1, 3)]], [[1, 2], [3]], [[1j]]],
    ids=["overflow", "none", "string", "third", "ragged", "complex"],
)
def test_entries_float64_does_not_hold_are_refused(t):
    with pytest.raises(InputError, match="matrix"):
        perron_solve(t)


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


def test_result_carries_the_bracket():
    res = perron_solve(((2, 1), (1, 1)))
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


def _small_gram_matrices():
    """The golden 2x2 and 29 integer Gram matrices of primitive couplings."""
    rng = random.Random("lambda-json")
    cases = [((2, 1), (1, 1))]
    while len(cases) < 30:
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        if is_primitive(m):
            cases.append(gram(m))
    return cases


def test_result_lambda_lies_inside_its_bracket():
    for t in _small_gram_matrices():
        res = perron_solve(t)
        assert res.lower <= res.eigenvalue <= res.upper


def test_every_exact_input_form_gives_the_float64_result():
    for t in _small_gram_matrices():
        want = perron_solve(np.array(t, dtype=np.float64))
        for form in (t, [list(row) for row in t], np.array(t, dtype=np.int64),
                     np.array(t, dtype=np.float32)):
            assert perron_solve(form) == want


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
    assert d & (d - 1) == 0  # a power of two
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            assert isinstance(a[i, j], int)
            assert Fraction(a[i, j], d) == Fraction(v)


def test_frexp_image_of_extremes():
    arr = np.array([[0.0, 5e-324, 1e-300], [1.0, 1e300, np.finfo(float).max]])
    a, d = perron._float_image(arr)
    for v, num in zip(arr.ravel().tolist(), a.ravel().tolist()):
        assert Fraction(num, d) == Fraction(v)


# ---------------------------------------------------------------------------
# the Collatz–Wielandt bracket on the nonzero cells of T


def _outward(lo, hi):
    """The exact bracket [lo, hi] rounded outward to floats."""
    lower, upper = float(lo), float(hi)
    if Fraction(lower) > lo:
        lower = math.nextafter(lower, -math.inf)
    if Fraction(upper) < hi:
        upper = math.nextafter(upper, math.inf)
    return lower, upper


def _dense_quotients(t, x):
    """(T x)_i / x_i for every row, over all k^2 cells in Fractions."""
    t = [[Fraction(v) for v in row] for row in t]
    x = [Fraction(v) for v in x]
    return [sum(a * b for a, b in zip(row, x)) / xi for row, xi in zip(t, x)]


@st.composite
def _wide_symmetric_primitive(draw):
    """Symmetric matrices with a connected support and a positive diagonal,
    scaled so that their entries are subnormal, near 1e-300, near 1 or near
    1e300."""
    k = draw(st.integers(1, 6))
    scale = draw(st.sampled_from([2.0**-1060, 1e-300, 1.0, 1e300]))
    entry = st.floats(1.0, 10.0)
    t = [[0.0] * k for _ in range(k)]
    for i in range(k):
        t[i][i] = draw(entry) * scale
        # a random spanning tree keeps the support connected
        if i:
            j = draw(st.integers(0, i - 1))
            t[i][j] = t[j][i] = draw(entry) * scale
        for j in range(i):
            if t[i][j] == 0 and draw(st.booleans()):
                t[i][j] = t[j][i] = draw(entry) * scale
    return np.array(t)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(_wide_symmetric_primitive())
def test_sparse_bracket_equals_the_dense_rational_bracket(t):
    try:
        # subnormal entries carry few bits, so the float ratios the solve
        # tracks are coarse; a loose tol still leaves the exact bracket
        res = perron_solve(t, tol=0.5)
    except NoConvergenceError:
        assume(False)
    q = _dense_quotients(t.tolist(), res.vector)
    assert (res.lower, res.upper) == _outward(min(q), max(q))
    assert res.lower <= res.eigenvalue <= res.upper


def test_exact_entries_that_underflow_in_floats_are_refused():
    tiny = Fraction(1, 10**400)
    assert float(tiny) == 0.0
    # connected without the tiny cell too: the float copy is primitive, and
    # only the lost entry is refused
    t = ((2, tiny, 1), (tiny, 3, 1), (1, 1, 2))
    with pytest.raises(InputError, match="float64 holds exactly"):
        perron_solve(t)


@pytest.mark.parametrize("exact", [False, True])
def test_bracket_reads_only_the_nonzero_cells(monkeypatch, exact):
    # tridiagonal, like the Gram matrix of a staircase coupling
    k = 80
    off = np.diag(np.ones(k - 1), 1)
    t = np.diag(np.full(k, 3.0)) + off + off.T
    cells = []
    bracket = perron._collatz_wielandt

    def spy(a, den, rows, cols, x):
        cells.append((len(a), len(rows), len(cols)))
        return bracket(a, den, rows, cols, x)

    monkeypatch.setattr(perron, "_collatz_wielandt", spy)
    perron_solve(t.astype(int).tolist() if exact else t)
    nnz = np.count_nonzero(t)
    assert nnz == 3 * k - 2 < k * k
    assert cells == [(nnz, nnz, nnz)]


# ---------------------------------------------------------------------------
# the integer rounding of the bracket, against the Fraction rule


def _fraction_rule(num, den):
    """The bracket's two ends as float(Fraction) and one nextafter step
    outward rounded them; the largest float and inf past the float range."""
    q = Fraction(num, den)
    try:
        lower = upper = float(q)
    except OverflowError:
        return sys.float_info.max, math.inf
    if Fraction(lower) > q:
        lower = math.nextafter(lower, -math.inf)
    if Fraction(upper) < q:
        upper = math.nextafter(upper, math.inf)
    return lower, upper


@st.composite
def _quotients(draw):
    """Positive n / d from 2^-1100 to 2^1100: subnormal, normal and past the
    float range, some of them floats exactly."""
    if draw(st.booleans()):
        num, den = draw(st.integers(1, 2**64)), draw(st.integers(1, 2**64))
    else:
        num, den = draw(st.floats(5e-324, 2.0**1000)).as_integer_ratio()
        scale = draw(st.integers(1, 2**20))
        num, den = num * scale, den * scale
    shift = draw(st.integers(-1100, 1100))
    return (num << shift, den) if shift >= 0 else (num, den << -shift)


@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
@given(_quotients())
def test_integer_rounding_is_the_fraction_rule(quotient):
    num, den = quotient
    lower, upper = perron._outward(num, den, -math.inf), perron._outward(num, den, math.inf)
    assert (lower, upper) == _fraction_rule(num, den)
    assert Fraction(lower) <= Fraction(num, den)
    assert upper == math.inf or Fraction(num, den) <= Fraction(upper)


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(_quotients(), _quotients(),
       st.one_of(st.just(1e-12), st.floats(5e-324, 1e3)))
def test_integer_tolerance_test_is_the_fraction_test(lo, hi, tol):
    width = Fraction(*hi) - Fraction(*lo)
    assert perron._wider_than(lo, hi, tol) == (width > Fraction(tol) * Fraction(*lo))


def test_eigenvalue_past_the_float_range_is_an_input_error():
    # each entry fits, lambda = 2e308 does not; RuntimeWarnings are errors here
    with pytest.raises(InputError, match="leaves the float64 range"):
        perron_solve([[1e308, 1e308], [1e308, 1e308]])

