"""Exact rational arithmetic and the generalized binomial coefficient.

Scalars are stdlib Fractions (always reduced, positive denominator).
binom_poly works in the ring of its argument, a polynomial or any value
with + and * by integers, so this module imports no other module of the
package.

The binomial coefficient follows the falling-factorial convention

    binom(l, m) = l*(l-1)*...*(l-m+1) / m!

defined for every integer upper argument l (negative included), where
binom_int returns an int, and, via binom_poly, for polynomial upper
arguments.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


def binom_int(ell: int, m: int) -> int:
    """Generalized binomial l over m for any integer l and m >= 0, as an int.

    binom_int(l, 0) == 1; a negative l goes through the reflection
    binom(l, m) = (-1)^m binom(m - l - 1, m).
    """
    if m < 0:
        raise ValueError(f"lower binomial index must be non-negative, got {m}")
    if ell >= 0:
        return comb(ell, m)
    return (-1) ** m * comb(m - ell - 1, m)


def binom_poly(arg, m: int):
    """Generalized binomial of a polynomial upper argument.

    Returns prod_{j=0}^{m-1} (arg - j) / m!, expanded in the ring of arg.  The
    product is built incrementally so intermediate results stay normalized;
    the degree of the result is m * deg(arg).
    """
    if m < 0:
        raise ValueError(f"lower binomial index must be non-negative, got {m}")
    result = arg * 0 + 1
    for j in range(m):
        result = result * (arg - j)
    return result.scale(Fraction(1, factorial(m)))
