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
methods (Acta Numerica 2010).  A float64 ndarray, as :func:`gram_array`
forms it, is used as it is: ``np.frexp`` gives its exact integer image
(53-bit mantissas over one power-of-two denominator), so the bracket is
exact on the very matrix ``eigh`` saw.  Other inputs (sequences of ints,
floats or rationals) are bracketed on their exact rational entries.  The
tolerance is relative: the solve
refuses unless ``hi - lo <= tol * lo``.  Where ``eigh`` resolves small
entries of x only to absolute precision (weights spread over many orders
of magnitude), a few power steps ``x <- Tx``, whose brackets are nested,
narrow the bracket first.  Simplicity needs no separate certificate; it
follows from primitivity by Perron–Frobenius.

:func:`wielandt_oracle` is the brute-force characterization (some power of
the Gram matrix is entrywise positive, with the classical exponent bound
``(k-1)^2 + 1``, run as NumPy products of the 0/1 support), used by the
self-check suites against
:func:`is_primitive`.  Note the oracle must look at *both* ``M M^T`` and
``M^T M``: a zero column of ``M`` leaves ``M M^T`` untouched but breaks the
transpose-side system, and such inputs are not primitive for our purposes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple, Union

import numpy as np

from .errors import InputError, NoConvergenceError, NotPrimitiveError
from .multicurve import IntersectionMatrix, support_is_primitive

Matrix = Union[IntersectionMatrix, Sequence[Sequence[Union[int, float]]]]

DEFAULT_TOL = 1e-12
# Power steps that may follow the dense solve.  Coefficients spread over
# 1e4..1e8 needed at most a few dozen in tests; a gap so small that 1000
# steps do not suffice leaves the eigenvector ill-determined in floats.
MAX_POWER_STEPS = 1000


def _rows(matrix: Matrix) -> Tuple[Tuple, ...]:
    if isinstance(matrix, IntersectionMatrix):
        return matrix.entries
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
    return np.triu(t) + np.triu(t, 1).T


def is_primitive(matrix: Matrix) -> bool:
    """No zero row, no zero column, connected bipartite support graph.

    Delegates to :func:`multicurve.support_is_primitive`, the one
    support-graph search of the package.
    """
    return support_is_primitive(_rows(matrix))


def _some_power_positive(t: Sequence[Sequence[int]]) -> bool:
    support = np.array(t) != 0
    base = support.astype(np.int64)
    # boolean (support) arithmetic is enough for positivity of powers
    for _ in range((len(base) - 1) ** 2 + 1):
        if support.all():
            return True
        support = support.astype(np.int64) @ base > 0
    return bool(support.all())


def wielandt_oracle(matrix: Matrix) -> bool:
    """Brute-force primitivity: both Gram matrices have a positive power."""
    rows = _rows(matrix)
    cols = tuple(zip(*rows))
    return _some_power_positive(gram(rows)) and _some_power_positive(gram(cols))


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

    def to_json(self) -> dict:
        return {
            "lambda": repr(float(self.eigenvalue)),
            "lambdaLo": self.lower,
            "lambdaHi": self.upper,
            "x": [f"{v:.15g}" for v in self.vector],
            "residual": self.residual,
            "iterations": self.iterations,
        }


def _check_symmetric_primitive(t: np.ndarray) -> None:
    if t.ndim != 2 or t.size == 0:
        raise InputError("matrix must be a nonempty square")
    k, l = t.shape
    if k != l:
        raise InputError(f"matrix must be square, got {k}x{l}")
    if not np.isfinite(t).all():
        raise InputError("matrix entries must be finite")
    if np.any(t < 0):
        raise InputError("matrix must be entrywise nonnegative")
    if not np.array_equal(t, t.T):
        raise InputError("matrix must be symmetric (use gram())")
    if np.any(np.diag(t) == 0) or not is_primitive(t.tolist()):
        raise NotPrimitiveError(
            "matrix is not primitive: zero line or disconnected support"
        )


def _as_ratio(v) -> Tuple[int, int]:
    """Exact (numerator, denominator) of a float, an integer or a rational."""
    if isinstance(v, float):
        return v.as_integer_ratio()
    if isinstance(v, numbers.Rational):
        return int(v.numerator), int(v.denominator)
    return float(v).as_integer_ratio()


def _integer_matrix(rows: Sequence[Sequence]) -> Tuple[np.ndarray, int]:
    """Integers A and a denominator d with A / d equal to the entries exactly."""
    ratios = [[_as_ratio(v) for v in row] for row in rows]
    den = math.lcm(*(d for row in ratios for _, d in row))
    a = [[num * (den // d) for num, d in row] for row in ratios]
    return np.array(a, dtype=object), den


def _float_image(arr: np.ndarray) -> Tuple[np.ndarray, int]:
    """Integers A and a power of two d with A / d == arr exactly, for floats.

    ``frexp`` splits every entry into a 53-bit integer mantissa and a binary
    exponent; shifting all mantissas to the smallest exponent gives Python
    integers over one power-of-two denominator (subnormals included).
    """
    mantissa, exponent = np.frexp(arr)
    mantissa = (mantissa * 2.0**53).astype(np.int64)
    exponent = exponent.astype(np.int64) - 53
    nonzero = mantissa != 0
    low = min(int(exponent[nonzero].min()), 0) if nonzero.any() else 0
    shift = np.where(nonzero, exponent - low, 0)
    return mantissa.astype(object) << shift.astype(object), 1 << -low


def _collatz_wielandt(
    a: np.ndarray, den: int, x: np.ndarray
) -> Tuple[Fraction, Fraction]:
    """min_i and max_i of (T x)_i / x_i, exact, for T = a / den and x > 0."""
    xi, _ = _float_image(x)
    quotients = [Fraction(num, v * den) for num, v in zip(a @ xi, xi)]
    return min(quotients), max(quotients)


def perron_solve(t: Matrix, tol: float = DEFAULT_TOL, seed: int = 0) -> PerronResult:
    """Leading eigenpair of a primitive symmetric nonnegative matrix.

    One dense ``eigh``; the top eigenvector's absolute values, l1-normalized,
    are certified by the Collatz–Wielandt bracket
    ``min_i (Tx)_i/x_i <= rho(T) <= max_i (Tx)_i/x_i``, evaluated exactly.
    A float64 ndarray is taken as it is and bracketed on its ``frexp``
    image; any other input is converted to floats for ``eigh`` and
    bracketed on its exact entries.
    Primitivity (checked first, NotPrimitiveError otherwise) makes rho(T)
    simple, so no agreement test between runs is needed.  While the
    bracket, tracked in floats, is wider than ``tol * lo``, the vector
    takes up to MAX_POWER_STEPS power steps ``x <- Tx``: the brackets of
    successive powers are nested, and the steps repair small entries that
    ``eigh`` resolves only to absolute precision.  NoConvergenceError is
    raised if the exact bracket is then still too wide.  ``seed`` is
    accepted for compatibility and unused: the solve is deterministic.
    """
    if isinstance(t, np.ndarray) and t.dtype == np.float64:
        arr, rows = t, None
    else:
        if isinstance(t, IntersectionMatrix):
            t = t.entries
        rows = [tuple(row) for row in t]
        if any(len(row) != len(rows) for row in rows):
            raise InputError("matrix must be square")
        arr = np.array([[float(v) for v in row] for row in rows], dtype=float)
    _check_symmetric_primitive(arr)
    if not (0 < tol < math.inf):
        raise InputError(f"tolerance must be positive and finite, got {tol!r}")
    values, vectors = np.linalg.eigh(arr)
    x = np.abs(vectors[:, -1])
    x = x / x.sum()
    for iterations in range(1, MAX_POWER_STEPS + 2):
        y = arr @ x
        if np.all(x > 0):
            # float ratios are good to about k ulps: they sum nonnegative terms
            ratios = y / x
            if ratios.max() - ratios.min() <= tol * ratios.min():
                break
        x = y / y.sum()
    if not np.all(x > 0):
        raise NoConvergenceError(
            "eigenvector entries underflow to zero",
            iterations=iterations,
            residual=math.inf,
        )
    image = _float_image(arr) if rows is None else _integer_matrix(rows)
    lo, hi = _collatz_wielandt(*image, x)
    if hi - lo > Fraction(tol) * lo:
        raise NoConvergenceError(
            f"Collatz–Wielandt bracket around {float(lo)!r} has relative width "
            f"{float((hi - lo) / lo):.3g}, above tol {tol:.3g}",
            iterations=iterations,
            residual=float(hi - lo),
        )
    # round the exact bracket outward, and put eigh's value inside it
    lower, upper = float(lo), float(hi)
    if Fraction(lower) > lo:
        lower = math.nextafter(lower, -math.inf)
    if Fraction(upper) < hi:
        upper = math.nextafter(upper, math.inf)
    lam = min(max(float(values[-1]), lower), upper)
    residual = float(np.max(np.abs(arr @ x - lam * x)))
    return PerronResult(
        lam, tuple(float(v) for v in x), residual, iterations, lower, upper
    )
