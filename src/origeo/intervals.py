"""Closed intervals used to report certified enclosures.

Endpoints may be exact (``int``/``Fraction``) or floating point; mixed
comparisons are well defined in Python, so exact inputs keep exact endpoints
and everything downstream of an eigenvector is a float.  An interval is the
statement "the true value lies in [lo, hi]" — operations here only ever widen
soundly (interval difference etc.), never tighten.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import at, checked, np

Number = Union[int, float, Fraction]


@dataclass(frozen=True)
class ValueInterval:
    """Certified enclosure [lo, hi] of a real quantity."""

    lo: Number
    hi: Number

    def __post_init__(self):
        if self.hi < self.lo:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> Number:
        return self.hi - self.lo

    def contains(self, value: Number, tol: Number = 0) -> bool:
        return self.lo - tol <= value <= self.hi + tol

    def minus(self, other: "ValueInterval") -> "ValueInterval":
        # enclosure of {a - b : a in self, b in other}
        return ValueInterval(self.lo - other.hi, self.hi - other.lo)

    def midpoint(self) -> float:
        return (float(self.lo) + float(self.hi)) / 2.0

    @staticmethod
    def exact(value: Number) -> "ValueInterval":
        return ValueInterval(value, value)


def outside(lo, hi, value, tol: Number = 0):
    """Row-wise ``not ValueInterval(lo, hi).contains(value, tol)``."""
    return ~((np.asarray(lo) - tol <= value) & (value <= np.asarray(hi) + tol))


def one_row(kernel, *args) -> ValueInterval:
    """The (lo, hi) columns a row kernel gives on one row, as an interval:
    the scalar view of the kernel (see :func:`origeo.errors.checked`)."""
    lo, hi = checked(kernel, *args)
    return ValueInterval(at(lo, 0), at(hi, 0))
