"""Tests for the falling-factorial binomial on integers and polynomials."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulrichci.exact_arith import binom_int, binom_poly
from ulrichci.polyring import MultiPoly


def test_standard_binomial():
    assert binom_int(5, 3) == 10


def test_negative_upper_argument_and_sign_identity():
    assert binom_int(-3, 2) == 6
    assert binom_int(-3, 2) == (-1) ** 2 * binom_int(3 + 2 - 1, 2)


def test_falling_factorial_hits_zero():
    assert binom_int(2, 5) == 0


def test_lower_index_zero_is_one():
    for ell in (-7, 0, 3):
        assert binom_int(ell, 0) == 1


def test_negative_lower_index_rejected():
    with pytest.raises(ValueError):
        binom_int(4, -1)


def test_sign_identity_exhaustive():
    # binom(-l, m) = (-1)^m binom(l+m-1, m) for |l| <= 50, m <= 12
    for ell in range(-50, 51):
        for m in range(0, 13):
            assert binom_int(-ell, m) == (-1) ** m * binom_int(ell + m - 1, m)


def test_pascal_recurrence_all_integers():
    for ell in range(-20, 21):
        for m in range(1, 9):
            assert binom_int(ell, m) == binom_int(ell - 1, m) + binom_int(ell - 1, m - 1)


def test_always_integer_valued():
    for ell in range(-30, 31):
        for m in range(0, 10):
            assert binom_int(ell, m).denominator == 1


def test_matches_falling_factorial_product():
    for ell in range(-30, 31):
        for m in range(0, 13):
            falling = 1
            for j in range(m):
                falling *= ell - j
            value = binom_int(ell, m)
            assert type(value) is int
            assert value == Fraction(falling, factorial(m))


def test_binom_poly_single_variable():
    x1 = MultiPoly.variable(1, 0)
    expected = (x1 * x1 - x1).scale(Fraction(1, 2))
    assert binom_poly(x1, 2) == expected


def test_binom_poly_constant_matches_binom_int():
    for ell in (-4, 0, 3, 7):
        for m in (0, 1, 3, 5):
            const = MultiPoly.const(2, ell)
            assert binom_poly(const, m) == MultiPoly.const(2, binom_int(ell, m))


def test_binom_poly_m_one_is_identity():
    lin = MultiPoly.variable(2, 0) + MultiPoly.variable(2, 1) - 1
    assert binom_poly(lin, 1) == lin


def test_binom_poly_degree():
    lin = MultiPoly.variable(3, 0) + 2 * MultiPoly.variable(3, 2)
    assert binom_poly(lin, 5).degree() == 5


def test_binom_poly_rejects_negative_index():
    with pytest.raises(ValueError):
        binom_poly(MultiPoly.variable(1, 0), -2)


@given(
    st.integers(-6, 6),
    st.integers(-6, 6),
    st.integers(-4, 4),
    st.integers(0, 6),
)
@settings(max_examples=60)
def test_binom_poly_evaluates_like_binom_int(a, b, c, m):
    # A linear form with integer coefficients evaluated at an integer point
    # must reproduce the integer binomial.
    lin = a * MultiPoly.variable(2, 0) + b * MultiPoly.variable(2, 1) + c
    for point in ((1, 2), (-3, 0), (5, -1)):
        value = a * point[0] + b * point[1] + c
        assert binom_poly(lin, m).eval(point) == binom_int(value, m)
