"""Shared test helpers."""

import random
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
