from fractions import Fraction

import pytest

from origeo.intervals import ValueInterval


def test_value_interval_basics():
    iv = ValueInterval(Fraction(1, 3), Fraction(1, 2))
    assert iv.width == Fraction(1, 6)
    assert iv.contains(Fraction(2, 5), tol=0)
    assert not iv.contains(Fraction(2), tol=0)
    assert iv.contains(0.51, tol=0.02)


def test_value_interval_rejects_inversion():
    with pytest.raises(ValueError):
        ValueInterval(2, 1)


def test_exact_constructor_and_width():
    iv = ValueInterval.exact(1.25)
    assert iv.lo == iv.hi == 1.25
    assert iv.width == 0


def test_minus_is_interval_sound():
    a = ValueInterval(1, 3)
    b = ValueInterval(0, 2)
    d = a.minus(b)
    # any x in a minus any y in b lands inside
    assert d.lo == -1 and d.hi == 3
    assert d.contains(1 - 0, tol=0) and d.contains(3 - 2, tol=0)


def test_midpoint_is_a_float_between_the_ends():
    assert ValueInterval(-2, 3).midpoint() == 0.5
    assert ValueInterval(Fraction(1, 3), Fraction(1, 3)).midpoint() == 1 / 3

