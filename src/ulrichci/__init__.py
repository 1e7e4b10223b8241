"""Exact-arithmetic kernel for the symmetric functions of Ulrich bundles on
complete intersections: identity verifiers, invariant calculators, and
machine-checkable non-existence certificates."""

__version__ = "0.1.0"

from .exact_arith import binom_int, binom_poly
from .polyring import DimensionMismatch, MultiPoly, NotDivisible
from .symfunc import (
    Partition,
    SymExpansion,
    expand_direct,
    expand_via_restriction,
    monomial_sym,
)

__all__ = [
    "binom_int",
    "binom_poly",
    "MultiPoly",
    "DimensionMismatch",
    "NotDivisible",
    "Partition",
    "SymExpansion",
    "expand_direct",
    "expand_via_restriction",
    "monomial_sym",
    "__version__",
]
