"""Shared test helpers."""

import contextlib
import random
import sys
from fractions import Fraction

import pytest

from ulrichci.symfunc import SymExpansion


def _random_expansion(s: int, rng: random.Random) -> SymExpansion:
    """A random expansion with small rational coefficients."""
    coeffs = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(12))
    return SymExpansion(s, coeffs)


@pytest.fixture
def random_expansion():
    """Random points of the basis span, for linearity cross-checks of the exact suites."""
    return _random_expansion


@contextlib.contextmanager
def digit_limit(digits: int):
    """Set the int-to-str digit limit inside the block (0 lifts it, as cli.main does)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)
