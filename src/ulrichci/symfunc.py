"""Monomial symmetric polynomials and the degree-<=4 symmetric basis.

The twelve-element basis, in the fixed order used throughout the package, is

    m4, m31, m22, m211, m1111, m3, m21, m111, m2, m11, m1, 1

where m_lambda(s) is the sum of all distinct monomials in x1..xs whose
exponent multiset is the partition lambda (zero when lambda has more parts
than variables).  Every symmetric polynomial of degree at most 4 in s >= 4
variables is a unique rational combination of these.

from_basis(coeffs, s) builds the combination of the basis with the given
coefficients in s variables, for every s >= 1.  Two independent expansion
algorithms go the other way: reading coefficients off leading monomials, and
restriction to four variables followed by inverting the restriction map.
They form an oracle pair; both test span membership by rebuilding the input
from their coefficients through from_basis.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import lcm
from operator import lshift
from typing import Iterable, Sequence

from .exact_arith import binom_int
from .polyring import MAX_EXP, MultiPoly, _check_nvars, _exact, _pack, _shifts
from .report import CheckResult, FrozenRecord, check, compare

#: Basis partitions in expansion order (a1..a12).
BASIS: tuple[tuple[int, ...], ...] = (
    (4,),
    (3, 1),
    (2, 2),
    (2, 1, 1),
    (1, 1, 1, 1),
    (3,),
    (2, 1),
    (1, 1, 1),
    (2,),
    (1, 1),
    (1,),
    (),
)


class NotSymmetric(ValueError):
    """Raised when an expansion is requested for a non-symmetric polynomial."""


class Partition(FrozenRecord):
    """Weakly decreasing tuple of positive integers; () is the empty partition."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(parts)
        if any(p < 1 for p in parts):
            raise ValueError(f"partition parts must be >= 1, got {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"partition must be weakly decreasing, got {parts}")
        object.__setattr__(self, "parts", parts)


def monomial_sym(lam, s: int) -> MultiPoly:
    """The monomial symmetric polynomial m_lambda in s variables.

    Returns the zero polynomial when lambda has more parts than variables;
    the empty partition gives the constant 1.  Each m_lambda is built once
    and shared afterwards, which is safe because MultiPoly is immutable.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    _check_nvars(s)
    parts = tuple(lam.parts) if isinstance(lam, Partition) else tuple(lam)
    Partition(parts)  # validates shape
    if parts and parts[0] > MAX_EXP:
        raise ValueError(f"partition part {parts[0]} is above MAX_EXP={MAX_EXP}")
    return _monomial_sym(parts, s)


@lru_cache(maxsize=None)
def _monomial_sym(parts: tuple[int, ...], s: int) -> MultiPoly:
    # A term is a support of len(parts) variables, in increasing order,
    # filled with one distinct ordering of the parts; each part goes into
    # the key at its variable's shift.
    orderings = dict.fromkeys(permutations(parts))
    keys = (
        sum(map(lshift, order, support))
        for support in combinations(_shifts(s), len(parts))
        for order in orderings
    )
    return MultiPoly._from_trusted(s, dict.fromkeys(keys, 1), 1)


class SymExpansion(FrozenRecord):
    """Coefficients a1..a12 of a symmetric polynomial over the fixed basis.

    Only defined for s >= 4: in fewer variables the basis degenerates
    (for instance m1111(3) = 0) and the coefficients stop being unique.
    """

    __slots__ = ("s", "coeffs")

    def __init__(self, s: int, coeffs: Sequence):
        if s < 4:
            raise ValueError(f"SymExpansion needs s >= 4, got s={s}")
        if len(coeffs) != 12:
            raise ValueError(f"expected 12 coefficients, got {len(coeffs)}")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "coeffs", tuple(_exact(c) for c in coeffs))

    def reconstruct(self) -> MultiPoly:
        return from_basis(self.coeffs, self.s)


def from_basis(coeffs: Sequence, s: int) -> MultiPoly:
    """The combination sum(coeffs[i] * BASIS[i]) as a polynomial in s variables.

    Defined for every 1 <= s <= MAX_VARS: below s = 4 the partitions with
    more than s parts drop out, since m_lambda(s) = 0 for them.  The coefficients
    are ints or Fractions; a float raises TypeError.
    """
    _check_nvars(s)
    if len(coeffs) != 12:
        raise ValueError(f"expected 12 coefficients, got {len(coeffs)}")
    coeffs = [_exact(c) for c in coeffs]
    den = lcm(*(c.denominator for c in coeffs))
    return _from_numerators([c.numerator * (den // c.denominator) for c in coeffs], den, s)


def _from_numerators(nums: Sequence[int], den: int, s: int) -> MultiPoly:
    """from_basis for the coefficients nums[i] / den, with den > 0."""
    # The basis elements have disjoint supports, so each coefficient
    # fills its own orbit of terms over the common denominator.
    num: dict[int, int] = {}
    for n, lam in zip(nums, BASIS):
        if n:
            num.update(dict.fromkeys(_monomial_sym(lam, s)._num, n))
    return MultiPoly._reduced(s, num, den)


def _require_expandable(G: MultiPoly) -> None:
    if G.degree() > 4:
        raise ValueError(f"polynomial has degree {G.degree()} > 4")
    if not G.is_symmetric():
        raise NotSymmetric("polynomial is not symmetric")


def _in_span(G: MultiPoly, coeffs) -> SymExpansion:
    """The expansion with COEFFS, if they rebuild G through from_basis.

    Otherwise G is outside the basis span; degree and symmetry are tested
    first, to name the error.
    """
    expansion = SymExpansion(G.nvars, coeffs)
    if expansion.reconstruct() != G:
        _require_expandable(G)
        raise ValueError("polynomial is outside the basis span")
    return expansion


def expand_direct(G: MultiPoly) -> SymExpansion:
    """Expand a symmetric polynomial of degree <= 4 by reading leading monomials.

    Each basis coefficient is the coefficient of the leading monomial of its
    partition (x1^4 for m4, x1^3*x2 for m31, ...), and _in_span checks that
    they rebuild G.
    """
    s = G.nvars
    if s < 4:
        raise ValueError(f"expansion needs s >= 4 variables, got {s}")
    get, den = G._num.get, G._den
    return _in_span(G, [Fraction(get(key, 0), den) for key in _leading_keys(s)])


@lru_cache(maxsize=None)
def _leading_keys(s: int) -> tuple[int, ...]:
    """The packed keys of the leading monomials x1^4, x1^3*x2, ..., 1 in s >= 4 variables."""
    return tuple(_pack(lam + (0,) * (s - len(lam))) for lam in BASIS)


def restriction_coefficients(
    coeffs: Sequence[Fraction], s: int
) -> tuple[Fraction, ...]:
    """Map basis coefficients in s variables to those after x5=...=xs=1.

    Given G = sum a_i basis_i(s), the restriction G(x1..x4, 1, ..., 1) equals
    sum b_i basis_i(4) with the b_i returned here.  The map is triangular:
    degree-4 coefficients pass through unchanged and each lower layer picks up
    binomial-weighted contributions from higher ones.  The coefficients are
    ints or Fractions; a float raises TypeError.
    """
    if s < 4:
        raise ValueError(f"restriction map needs s >= 4, got {s}")
    return _restriction_map(coeffs, s - 4)


def _restriction_map(coeffs: Sequence[Fraction], t: int) -> tuple[Fraction, ...]:
    """The restriction map R(t) that sets t trailing variables to 1.

    R(t) R(u) = R(t + u) for all integers t and u, so R(-t) inverts R(t).
    """
    a = [_exact(c) for c in coeffs]
    if len(a) != 12:
        raise ValueError(f"expected 12 coefficients, got {len(a)}")
    c2, c3, c4 = (binom_int(t, k) for k in (2, 3, 4))
    # The map has integer entries, so it runs on numerators over one denominator.
    den = lcm(*(c.denominator for c in a))
    a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12 = (
        c.numerator * (den // c.denominator) for c in a
    )
    image = (
        a1,
        a2,
        a3,
        a4,
        a5,
        a6 + t * a2,
        a7 + t * a4,
        a8 + t * a5,
        a9 + t * (a3 + a7) + c2 * a4,
        a10 + t * (a4 + a8) + c2 * a5,
        a11 + t * (a2 + a7 + a10) + c2 * (2 * a4 + a8) + c3 * a5,
        a12
        + t * (a1 + a6 + a9 + a11)
        + c2 * (2 * a2 + a3 + 2 * a7 + a10)
        + c3 * (3 * a4 + a8)
        + c4 * a5,
    )
    return tuple(Fraction(n, den) for n in image)


def expand_via_restriction(G: MultiPoly) -> SymExpansion:
    """Expand by restricting to four variables and inverting the restriction.

    Substitutes x5 = ... = xs = 1, expands the four-variable restriction
    directly, and applies the inverse restriction map R(4 - s).  At s = 4
    the substitution and R(0) are identities, but the path still runs and
    checks the reconstruction.  Independent of expand_direct on the input
    itself, which makes the two algorithms an oracle pair.
    """
    s = G.nvars
    if s < 4:
        raise ValueError(f"expansion needs s >= 4 variables, got {s}")
    try:
        b = expand_direct(G.substitute_ones(4)).coeffs
    except ValueError:
        # The restriction may have a lower degree than G: the error is G's.
        _require_expandable(G)
        raise
    return _in_span(G, _restriction_map(b, 4 - s))


# -- identity tables ---------------------------------------------------------

def verify_tf2_table(s: int) -> list[CheckResult]:
    """Check the thirteen product identities among monomial symmetric polynomials.

    Both sides of each identity are built independently as polynomials in s
    variables and compared exactly.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    m4, m31, m22, m211, m1111, m3, m21, m111, m2, m11, m1, _ = (
        monomial_sym(lam, s) for lam in BASIS
    )
    table = [
        ("1", m1 * m1, m2 + 2 * m11),
        ("2", m1 * m1 * m1, m3 + 3 * m21 + 6 * m111),
        ("3", m1 * m1 * m1 * m1, m4 + 4 * m31 + 6 * m22 + 12 * m211 + 24 * m1111),
        ("4", m1 * m11, m21 + 3 * m111),
        ("5", m1 * m1 * m11, m31 + 2 * m22 + 5 * m211 + 12 * m1111),
        ("6", m11 * m11, m22 + 2 * m211 + 6 * m1111),
        ("7", m1 * m3, m4 + m31),
        ("8", m1 * m21, m31 + 2 * m22 + 2 * m211),
        ("9", m1 * m111, m211 + 4 * m1111),
        ("10", m1 * m2, m3 + m21),
        ("11", m1 * m1 * m2, m4 + 2 * m31 + 2 * m22 + 2 * m211),
        ("12", m2 * m2, m4 + 2 * m22),
        ("13", m2 * m11, m31 + m211),
    ]
    return [compare(f"tf2({label})", {"s": s}, lhs, rhs) for label, lhs, rhs in table]


def substitution_identities(s: int) -> list[CheckResult]:
    """Check the substitution formulas behind the restriction map.

    Each formula states what a basis element in s variables becomes after
    setting x5 = ... = xs = 1, as an exact identity in four variables.
    """
    if s < 5:
        raise ValueError(f"substitution identities need s >= 5, got {s}")
    t = s - 4
    one4 = MultiPoly.const(4, 1)

    def m(*parts):  # m_lambda in four variables
        return monomial_sym(parts, 4)

    rules = [((i,), m(i) + t) for i in range(1, 5)]
    for i in range(1, 5):
        rhs = MultiPoly.zero(4)
        for j in range(i + 1):
            rhs = rhs + m(*(1,) * (i - j)).scale(binom_int(t, j))
        rules.append(((1,) * i, rhs))
    rules += [
        ((3, 1), m(3, 1) + t * m(3) + t * m(1) + t * (t - 1) * one4),
        ((2, 2), m(2, 2) + t * m(2) + binom_int(t, 2) * one4),
        (
            (2, 1, 1),
            m(2, 1, 1)
            + t * m(2, 1)
            + binom_int(t, 2) * m(2)
            + t * m(1, 1)
            + t * (t - 1) * m(1)
            + t * binom_int(t - 1, 2) * one4,
        ),
        ((2, 1), m(2, 1) + t * m(2) + t * m(1) + t * (t - 1) * one4),
    ]
    return [
        compare(
            f"tf2-bis/m{''.join(map(str, lam))}",
            {"s": s},
            monomial_sym(lam, s).substitute_ones(4),
            rhs,
        )
        for lam, rhs in rules
    ]


def verify_tf2bis(s: int) -> list[CheckResult]:
    """Check the restriction machinery for s variables.

    Covers the substitution formulas, the restriction-coefficient map and
    the agreement of the two expansion algorithms.  The last two compare
    linear maps of the twelve basis coefficients, so checking them on every
    basis element m_lambda(s) proves them on the whole span.  Both records
    see every basis element and keep the partition of their first
    counterexample.  The predicted restriction coefficients must rebuild
    the restriction of m_lambda(s) itself, which is unique in four
    variables, so only the agreement record expands the restriction.
    """
    if s < 5:
        raise ValueError(f"tf2bis verification needs s >= 5, got {s}")
    rel_witness = agree_witness = None
    for i, lam in enumerate(BASIS):
        unit = tuple(int(i == j) for j in range(12))
        G = monomial_sym(lam, s)
        witness = {"partition": list(lam)}
        if rel_witness is None and (
            from_basis(restriction_coefficients(unit, s), 4) != G.substitute_ones(4)
        ):
            rel_witness = witness
        if agree_witness is None and not (
            expand_direct(G).coeffs == unit == expand_via_restriction(G).coeffs
        ):
            agree_witness = witness
    params = {"s": s}
    return substitution_identities(s) + [
        check("tf2-bis/rel-reconstruction", params, rel_witness is None, rel_witness),
        check("tf2-bis/expansion-agreement", params, agree_witness is None, agree_witness),
    ]
