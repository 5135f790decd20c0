r"""Certified leading eigendata for nonnegative coupling matrices.

The geodesic construction couples the two transverse curve families through
a nonnegative matrix ``M`` and needs the leading eigenpair of the symmetric
Gram matrix ``T = M M^T``.  ``T`` is primitive — positive diagonal and
connected support — exactly when ``M`` has no zero row and row-connectivity,
which for our inputs is the filling condition; a primitive symmetric
nonnegative matrix has a simple leading eigenvalue with a strictly positive
eigenvector, which is what makes the construction well-posed.

:func:`perron_solve` takes the top eigenvector of one dense ``eigh`` and
certifies the eigenvalue by the Collatz–Wielandt bracket
``min_i (Tx)_i/x_i <= rho(T) <= max_i (Tx)_i/x_i`` (Collatz 1942, Wielandt
1950), valid for every positive x and evaluated in exact integer
arithmetic on the binary expansions of T and x, as in Rump's verification
methods (Acta Numerica 2010).  T is read as float64: ``np.frexp`` gives
its exact integer image (53-bit mantissas over one power-of-two
denominator), so the bracket is exact on the very matrix ``eigh`` saw.  A
float64 ndarray, as :func:`gram_array` forms it, is used as it is.  Any
other input must hold only numbers that float64 represents exactly, such
as small integers; anything else (``Fraction(1, 3)``, an entry that
underflows or overflows a float, a string, a ragged row) is refused with
InputError rather than rounded.  Both the primitivity search
(:func:`origeo.origami.reached_rows` on T's row lists) and the bracket run
over the nonzero cells of T only, so on a staircase T, which is
tridiagonal, their Python work is O(k) and not O(k^2).  The bracket stays
in Python integers to the end: its two extreme quotients are compared by
cross-multiplying, rounded outward by one correctly rounded ``int / int``
and one comparison with the float's ``as_integer_ratio()``, and the
tolerance is tested cross-multiplied too, so no ``Fraction`` is built.  The
tolerance is relative: the solve refuses unless ``hi - lo <= tol * lo``.
An eigenvalue whose upper end is not a finite float is refused with
InputError.  Where ``eigh`` resolves small entries of x only to absolute
precision (weights spread over many orders of magnitude), a few power
steps ``x <- Tx``, whose brackets are nested, narrow the bracket first.
Simplicity needs no separate certificate; it follows from primitivity by
Perron–Frobenius.

:func:`wielandt_oracle` is the brute-force characterization (some power of
the Gram matrix is entrywise positive, with the classical exponent bound
``(k-1)^2 + 1``, run as boolean squarings of the 0/1 support), used by
the self-check suites against :func:`is_primitive`; :func:`wielandt_block`
runs it on a block of matrices, one stack per shape.  Note the oracle must
look at *both* ``M M^T`` and ``M^T M``: a zero column of ``M`` leaves
``M M^T`` untouched but breaks the transpose-side system, and such inputs
are not primitive for our purposes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import List, Sequence, Tuple, Union

from .errors import DEFAULT_TOL, InputError, NoConvergenceError, NotPrimitiveError, np
from .origami import reached_rows, support_is_primitive

Matrix = Sequence[Sequence[Union[int, float]]]

# Power steps that may follow the dense solve.  Coefficients spread over
# 1e4..1e8 needed at most a few dozen in tests; a gap so small that 1000
# steps do not suffice leaves the eigenvector ill-determined in floats.
MAX_POWER_STEPS = 1000


def _rows(matrix: Matrix) -> Tuple[Tuple, ...]:
    rows = tuple(tuple(row) for row in matrix)
    if not rows or not rows[0]:
        raise InputError("matrix must be nonempty")
    if any(len(r) != len(rows[0]) for r in rows):
        raise InputError("ragged matrix")
    return rows


def gram(matrix: Matrix) -> Tuple[Tuple, ...]:
    """The symmetric product M·M^T, exact for exact entries.

    Entry (i, i') sums the products of rows i and i' and is computed once
    per unordered pair, so the result is symmetric entry-for-entry even in
    floating point.
    """
    rows = _rows(matrix)
    k = len(rows)
    out = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            s = sum(a * b for a, b in zip(rows[i], rows[j]))
            out[i][j] = s
            out[j][i] = s
    return tuple(tuple(row) for row in out)


def gram_array(m: np.ndarray) -> np.ndarray:
    """M·M^T of a float array in one BLAS product, exactly symmetric.

    The upper triangle is mirrored onto the lower one, so the result is
    symmetric entry-for-entry whatever order the product summed in; it is
    what :func:`perron_solve` takes as it is.
    """
    t = m @ m.T
    i, j = _upper_cells(len(t))
    t[j, i] = t[i, j]
    return t


@lru_cache(maxsize=None)
def _upper_cells(k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the cells above the diagonal of a k x k
    matrix, built once per k."""
    return np.triu_indices(k, 1)


def is_primitive(matrix: Matrix) -> bool:
    """No zero row, no zero column, connected bipartite support graph.

    Delegates to :func:`origami.support_is_primitive`, the bipartite
    support-graph test of the package, on the nonzero cells of each row.
    """
    rows = _rows(matrix)
    cols = range(len(rows[0]))
    return support_is_primitive([list(compress(cols, row)) for row in rows], len(cols))


def _some_power_positive(t) -> np.ndarray:
    """Whether a power of t's 0/1 support up to Wielandt's exponent
    (k-1)^2 + 1 is all positive, for t or each matrix of a stack of k x k
    ones: t, t^2, t^4, ... by boolean squaring, since every power past the
    first positive one is positive too."""
    support, power = np.asarray(t) != 0, 1
    while not support.all() and power < (support.shape[-1] - 1) ** 2 + 1:
        support, power = support @ support, 2 * power
    return support.all(axis=(-2, -1))


def wielandt_oracle(matrix: Matrix) -> bool:
    """Brute-force primitivity: both Gram matrices have a positive power."""
    return wielandt_block([matrix])[0]


def wielandt_block(matrices: Sequence[Matrix]) -> List[bool]:
    """:func:`wielandt_oracle` of each matrix, in order: the matrices of one
    shape are stacked, and each stack takes its two Gram products and their
    squarings at once."""
    rows, shapes, out = [_rows(m) for m in matrices], {}, {}
    for i, r in enumerate(rows):
        shapes.setdefault((len(r), len(r[0])), []).append(i)
    for index in shapes.values():
        s = np.array([rows[i] for i in index]) != 0
        st = s.transpose(0, 2, 1)
        both = _some_power_positive(s @ st) & _some_power_positive(st @ s)
        out.update(zip(index, both.tolist()))
    return [out[i] for i in range(len(rows))]


@dataclass(frozen=True)
class PerronResult:
    """Leading eigenpair with an exact Collatz–Wielandt enclosure.

    ``lower <= rho(T) <= upper`` is proved in exact arithmetic on the
    entries of T as given, then rounded outward to floats; ``eigenvalue``
    is a float inside that bracket.  ``vector`` is l1-normalized and
    strictly positive; ``residual`` is the infinity norm of T·x − lambda·x
    at the returned pair; ``iterations`` is the number of power steps + 1.
    """

    eigenvalue: float
    vector: Tuple[float, ...]
    residual: float
    iterations: int
    lower: float
    upper: float


def _check_symmetric_primitive(t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Refuse what is not a primitive symmetric nonnegative square; return
    the row and column indices of its nonzero cells, in row order."""
    if t.ndim != 2 or t.size == 0:
        raise InputError("matrix must be a nonempty square")
    k, l = t.shape
    if k != l:
        raise InputError(f"matrix must be square, got {k}x{l}")
    if not np.isfinite(t).all():
        raise InputError("matrix entries must be finite")
    if t.min() < 0:
        raise InputError("matrix must be entrywise nonnegative")
    if not (t == t.T).all():
        raise InputError("matrix must be symmetric (use gram())")
    rows, cols = np.nonzero(t)
    starts, cols_list = _row_starts(rows, k), cols.tolist()
    row_cols = [cols_list[a:b] for a, b in zip(starts, starts[1:])]
    # T is symmetric, so its row lists are its column index too; with a
    # positive diagonal, the search reaches every row iff T's graph is connected
    if not (t.diagonal().all() and len(reached_rows(row_cols, row_cols)) == k):
        raise NotPrimitiveError(
            "matrix is not primitive: zero line or disconnected support"
        )
    return rows, cols


def _row_starts(rows: np.ndarray, k: int) -> list:
    """Where each of the k rows begins among cells listed in row order, and
    where the last one ends."""
    return np.searchsorted(rows, np.arange(k + 1)).tolist()


def _float_image(arr: np.ndarray) -> Tuple[np.ndarray, int]:
    """Integers A and a power of two d with A / d == arr exactly, for floats.

    ``frexp`` splits every entry into a 53-bit integer mantissa and a binary
    exponent; shifting all mantissas to the smallest exponent gives Python
    integers over one power-of-two denominator (subnormals included; a zero
    has mantissa 0, so its exponent may only make d larger).
    """
    mantissa, exponent = np.frexp(arr)
    mantissa = (mantissa * 2.0**53).astype(np.int64)
    exponent = exponent - 53
    low = min(int(exponent.min()), 0)
    return mantissa.astype(object) << (exponent - low).astype(object), 1 << -low


Quotient = Tuple[int, int]


def _collatz_wielandt(
    a: np.ndarray, den: int, rows: np.ndarray, cols: np.ndarray, x: np.ndarray
) -> Tuple[Quotient, Quotient]:
    """min_i and max_i of (T x)_i / x_i, exact, for x > 0 and T = a / den,
    each as a pair (numerator, denominator) of positive integers.

    T is given by its nonzero cells: integers ``a`` at (``rows``, ``cols``),
    in row order, with at least one cell in every row.
    """
    xi, _ = _float_image(x)
    num = np.add.reduceat(a * xi[cols], _row_starts(rows, len(x))[:-1]).tolist()
    xs = xi.tolist()
    # x > 0, so num_i / x_i < num_j / x_j exactly when num_i x_j < num_j x_i
    lo = hi = 0
    for i in range(1, len(xs)):
        if num[i] * xs[lo] < num[lo] * xs[i]:
            lo = i
        elif num[i] * xs[hi] > num[hi] * xs[i]:
            hi = i
    return (num[lo], xs[lo] * den), (num[hi], xs[hi] * den)


def _outward(num: int, den: int, toward: float) -> float:
    """The float next to num / den (both positive) on the side of ``toward``
    (-inf or +inf): the nearest float, one ulp further out if it lies on the
    wrong side.  ``int / int`` rounds correctly; a quotient past the float
    range gives inf upward and the largest float downward."""
    try:
        near = num / den
    except OverflowError:
        return math.inf if toward > 0 else sys.float_info.max
    p, q = near.as_integer_ratio()
    if (p * den < num * q) if toward > 0 else (p * den > num * q):
        return math.nextafter(near, toward)
    return near


def _wider_than(lo: Quotient, hi: Quotient, tol) -> bool:
    """Whether hi - lo > tol * lo, cross-multiplied over the denominators."""
    (ln, ld), (hn, hd), (tn, td) = lo, hi, tol.as_integer_ratio()
    return (hn * ld - ln * hd) * td > tn * ln * hd


def perron_solve(t: Matrix, tol: float = DEFAULT_TOL) -> PerronResult:
    """Leading eigenpair of a primitive symmetric nonnegative matrix.

    One dense ``eigh``; the top eigenvector's absolute values, l1-normalized,
    are certified by the Collatz–Wielandt bracket
    ``min_i (Tx)_i/x_i <= rho(T) <= max_i (Tx)_i/x_i``, evaluated exactly.
    T is read as float64 and the bracket is exact on that matrix: a float64
    ndarray is taken as it is, and any other input whose entries float64
    does not hold exactly (or that is not a matrix of numbers) is refused
    with InputError.
    Primitivity (checked first, NotPrimitiveError otherwise) makes rho(T)
    simple, so no agreement test between runs is needed.  While the
    bracket, tracked in floats, is wider than ``tol * lo``, the vector
    takes up to MAX_POWER_STEPS power steps ``x <- Tx``: the brackets of
    successive powers are nested, and the steps repair small entries that
    ``eigh`` resolves only to absolute precision.  A bracket whose upper
    end is not a finite float is refused with InputError (the eigenvalue
    leaves the float64 range) as soon as the float ratios overflow;
    NoConvergenceError is raised if the exact bracket is still too wide.
    The solve is deterministic: the same T gives the same bits.
    """
    try:
        arr = np.asarray(t, dtype=float)
        exact = arr is t or np.array_equal(arr, np.asarray(t, dtype=object))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"matrix must be an array of numbers: {exc}") from None
    if not exact:
        raise InputError("matrix entries must be numbers that float64 holds exactly")
    rows, cols = _check_symmetric_primitive(arr)
    if not (0 < tol < math.inf):
        raise InputError(f"tolerance must be positive and finite, got {tol!r}")
    values, vectors = np.linalg.eigh(arr)
    x = np.abs(vectors[:, -1])
    x = x / x.sum()
    with np.errstate(all="ignore"):  # ratios past the float range stop the steps
        for iterations in range(1, MAX_POWER_STEPS + 2):
            y = arr @ x
            if np.all(x > 0):
                # float ratios are good to about k ulps: they sum nonnegative terms
                ratios = y / x
                low, high = ratios.min(), ratios.max()
                if high - low <= tol * low or high == math.inf:
                    break
            x = y / y.sum()
    if not np.all(x > 0):
        raise NoConvergenceError(
            "eigenvector entries underflow to zero",
            iterations=iterations,
            residual=math.inf,
        )
    a, den = _float_image(arr[rows, cols])
    lo, hi = _collatz_wielandt(a, den, rows, cols, x)
    # round the exact bracket outward, and put eigh's value inside it
    upper = _outward(*hi, math.inf)
    if upper == math.inf:
        raise InputError(
            "the leading eigenvalue leaves the float64 range: its "
            "Collatz–Wielandt upper bound exceeds the largest float"
        )
    if _wider_than(lo, hi, tol):
        (ln, ld), (hn, hd) = lo, hi
        gap = hn * ld - ln * hd
        raise NoConvergenceError(
            f"Collatz–Wielandt bracket around {ln / ld!r} has relative width "
            f"{gap / (ln * hd):.3g}, above tol {tol:.3g}",
            iterations=iterations,
            residual=gap / (hd * ld),
        )
    lower = _outward(*lo, -math.inf)
    lam = min(max(float(values[-1]), lower), upper)
    residual = float(np.max(np.abs(arr @ x - lam * x)))
    return PerronResult(
        lam, tuple(x.tolist()), residual, iterations, lower, upper
    )
