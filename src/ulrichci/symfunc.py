"""Monomial symmetric polynomials and the degree-<=4 symmetric basis.

The twelve-element basis, in the fixed order used throughout the package, is

    m4, m31, m22, m211, m1111, m3, m21, m111, m2, m11, m1, 1

where m_lambda(s) is the sum of all distinct monomials in x1..xs whose
exponent multiset is the partition lambda (zero when lambda has more parts
than variables).  Every symmetric polynomial of degree at most 4 in s >= 4
variables is a unique rational combination of these.

Two independent expansion algorithms are provided: reading coefficients off
leading monomials, and restriction to four variables followed by inverting
the restriction map.  They form an oracle pair for each other.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm
from typing import Iterable, Iterator, Sequence

from .exact_arith import binom_int
from .polyring import MultiPoly, _check_nvars
from .report import CheckResult, check, compare

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


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing tuple of positive integers; () is the empty partition."""

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(parts)
        if any(p < 1 for p in parts):
            raise ValueError(f"partition parts must be >= 1, got {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"partition must be weakly decreasing, got {parts}")
        object.__setattr__(self, "parts", parts)


def iter_arrangements(exps: Sequence[int], s: int) -> Iterator[tuple[int, ...]]:
    """Yield every distinct length-s tuple whose nonzero entries realize exps.

    exps is a multiset of exponents (zeros allowed and ignored); positions not
    assigned a nonzero value are zero.  Arrangements of equal values are not
    repeated: positions for each distinct value are chosen by combinations.
    """
    nonzero = sorted((e for e in exps if e), reverse=True)
    if len(nonzero) > s:
        return
    items: list[tuple[int, int]] = []
    for e in nonzero:
        if items and items[-1][0] == e:
            items[-1] = (e, items[-1][1] + 1)
        else:
            items.append((e, 1))
    out = [0] * s

    def rec(positions: tuple[int, ...], idx: int) -> Iterator[tuple[int, ...]]:
        if idx == len(items):
            yield tuple(out)
            return
        value, count = items[idx]
        for chosen in combinations(positions, count):
            chosen_set = set(chosen)
            for p in chosen:
                out[p] = value
            yield from rec(tuple(p for p in positions if p not in chosen_set), idx + 1)
            for p in chosen:
                out[p] = 0

    yield from rec(tuple(range(s)), 0)


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
    return _monomial_sym(parts, s)


@lru_cache(maxsize=None)
def _monomial_sym(parts: tuple[int, ...], s: int) -> MultiPoly:
    return MultiPoly._from_trusted(
        s, {arr: 1 for arr in iter_arrangements(parts, s)}, 1
    )


@dataclass(frozen=True)
class SymExpansion:
    """Coefficients a1..a12 of a symmetric polynomial over the fixed basis.

    Only defined for s >= 4: in fewer variables the basis degenerates
    (for instance m1111(3) = 0) and the coefficients stop being unique.
    """

    s: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.s < 4:
            raise ValueError(f"SymExpansion needs s >= 4, got s={self.s}")
        if len(self.coeffs) != 12:
            raise ValueError(f"expected 12 coefficients, got {len(self.coeffs)}")
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    def reconstruct(self) -> MultiPoly:
        # The basis elements have disjoint supports, so each coefficient
        # fills its own orbit of terms over the common denominator.
        den = lcm(*(c.denominator for c in self.coeffs))
        num: dict[tuple[int, ...], int] = {}
        for coeff, lam in zip(self.coeffs, BASIS):
            if coeff:
                orbit = _monomial_sym(lam, self.s)._num
                lifted = coeff.numerator * (den // coeff.denominator)
                num.update(dict.fromkeys(orbit, lifted))
        return MultiPoly._reduced(self.s, num, den)


def _require_expandable(G: MultiPoly) -> None:
    if G.degree() > 4:
        raise ValueError(f"polynomial has degree {G.degree()} > 4")
    if not G.is_symmetric():
        raise NotSymmetric("polynomial is not symmetric")


def expand_direct(G: MultiPoly) -> SymExpansion:
    """Expand a symmetric polynomial of degree <= 4 by reading leading monomials.

    Each basis coefficient is the coefficient of the leading monomial of its
    partition (x1^4 for m4, x1^3*x2 for m31, ...).  G is in the span of the
    basis exactly when the orbits of the nonzero coefficients hold as many
    terms as G and every term carries the coefficient of its sorted exponent
    vector, which must be one of those leading monomials.  Only when this
    orbit check fails are degree and symmetry tested, to name the error.
    """
    s = G.nvars
    if s < 4:
        raise ValueError(f"expansion needs s >= 4 variables, got {s}")
    num = G._num
    leads = [lam + (0,) * (s - len(lam)) for lam in BASIS]
    spanned = {lead: num[lead] for lead in leads if lead in num}
    orbit_terms = sum(
        _monomial_sym(lam, s).num_terms
        for lam, lead in zip(BASIS, leads)
        if lead in spanned
    )
    if G.num_terms != orbit_terms or any(
        spanned.get(tuple(sorted(e, reverse=True))) != c for e, c in num.items()
    ):
        _require_expandable(G)
        raise ValueError("polynomial is outside the basis span")
    return SymExpansion(s, tuple(G.coefficient(lead) for lead in leads))


def restriction_coefficients(
    coeffs: Sequence[Fraction], s: int
) -> tuple[Fraction, ...]:
    """Map basis coefficients in s variables to those after x5=...=xs=1.

    Given G = sum a_i basis_i(s), the restriction G(x1..x4, 1, ..., 1) equals
    sum b_i basis_i(4) with the b_i returned here.  The map is triangular:
    degree-4 coefficients pass through unchanged and each lower layer picks up
    binomial-weighted contributions from higher ones.
    """
    if s < 4:
        raise ValueError(f"restriction map needs s >= 4, got {s}")
    return _restriction_map(coeffs, s - 4)


def _restriction_map(coeffs: Sequence[Fraction], t: int) -> tuple[Fraction, ...]:
    """The restriction map R(t) that sets t trailing variables to 1.

    R(t) R(u) = R(t + u) for all integers t and u, so R(-t) inverts R(t).
    """
    a = [Fraction(c) for c in coeffs]
    if len(a) != 12:
        raise ValueError(f"expected 12 coefficients, got {len(a)}")
    c2, c3, c4 = (int(binom_int(t, k)) for k in (2, 3, 4))  # integer-valued
    a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12 = a
    return (
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


def expand_via_restriction(G: MultiPoly) -> SymExpansion:
    """Expand by restricting to four variables and inverting the restriction.

    Substitutes x5 = ... = xs = 1, expands the four-variable restriction
    directly, and applies the inverse restriction map R(4 - s).  For
    s = 4 there is nothing to substitute and this is expand_direct.
    Independent of expand_direct on the input itself, which makes the two
    algorithms an oracle pair.
    """
    s = G.nvars
    if s < 4:
        raise ValueError(f"expansion needs s >= 4 variables, got {s}")
    if s == 4:
        return expand_direct(G)
    _require_expandable(G)
    b = expand_direct(G.substitute_ones(4)).coeffs
    expansion = SymExpansion(s, _restriction_map(b, 4 - s))
    if expansion.reconstruct() != G:
        raise ValueError(
            "restriction solve does not reconstruct the input; "
            "polynomial is outside the basis span"
        )
    return expansion


# -- identity tables ---------------------------------------------------------

def _m(lam, s):
    return monomial_sym(lam, s)


def verify_tf2_table(s: int) -> list[CheckResult]:
    """Check the thirteen product identities among monomial symmetric polynomials.

    Both sides of each identity are built independently as polynomials in s
    variables and compared exactly.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    m1 = _m((1,), s)
    m2 = _m((2,), s)
    m3 = _m((3,), s)
    m4 = _m((4,), s)
    m11 = _m((1, 1), s)
    m21 = _m((2, 1), s)
    m111 = _m((1, 1, 1), s)
    m31 = _m((3, 1), s)
    m22 = _m((2, 2), s)
    m211 = _m((2, 1, 1), s)
    m1111 = _m((1, 1, 1, 1), s)
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
    checks: list[tuple[str, MultiPoly, MultiPoly]] = []
    for i in range(1, 5):
        checks.append((f"m{i}", _m((i,), s).substitute_ones(4), _m((i,), 4) + t))
    for i in range(1, 5):
        rhs = MultiPoly.zero(4)
        for j in range(i + 1):
            rhs = rhs + _m((1,) * (i - j), 4).scale(binom_int(t, j))
        checks.append((f"m{'1' * i}", _m((1,) * i, s).substitute_ones(4), rhs))
    checks.append(
        (
            "m31",
            _m((3, 1), s).substitute_ones(4),
            _m((3, 1), 4) + t * _m((3,), 4) + t * _m((1,), 4) + t * (t - 1) * one4,
        )
    )
    checks.append(
        (
            "m22",
            _m((2, 2), s).substitute_ones(4),
            _m((2, 2), 4) + t * _m((2,), 4) + binom_int(t, 2) * one4,
        )
    )
    checks.append(
        (
            "m211",
            _m((2, 1, 1), s).substitute_ones(4),
            _m((2, 1, 1), 4)
            + t * _m((2, 1), 4)
            + binom_int(t, 2) * _m((2,), 4)
            + t * _m((1, 1), 4)
            + t * (t - 1) * _m((1,), 4)
            + t * binom_int(t - 1, 2) * one4,
        )
    )
    checks.append(
        (
            "m21",
            _m((2, 1), s).substitute_ones(4),
            _m((2, 1), 4) + t * _m((2,), 4) + t * _m((1,), 4) + t * (t - 1) * one4,
        )
    )
    return [
        compare(f"tf2-bis/{label}", {"s": s}, lhs, rhs) for label, lhs, rhs in checks
    ]


def random_expansion(s: int, rng: random.Random) -> SymExpansion:
    """A random expansion with small rational coefficients (for cross-checks)."""
    coeffs = tuple(
        Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(12)
    )
    return SymExpansion(s, coeffs)


def verify_tf2bis(s: int, samples: int = 25, seed: int = 0) -> list[CheckResult]:
    """Check the restriction machinery for s variables.

    Covers the substitution formulas, the full restriction-coefficient
    reconstruction on random inputs, and agreement of the two expansion
    algorithms on random symmetric polynomials of degree <= 4.
    """
    if s < 5:
        raise ValueError(f"tf2bis verification needs s >= 5, got {s}")
    results = substitution_identities(s)
    rng = random.Random(seed)
    rel_ok = True
    agree_ok = True
    witness = None
    for _ in range(samples):
        expansion = random_expansion(s, rng)
        G = expansion.reconstruct()
        predicted = restriction_coefficients(expansion.coeffs, s)
        actual = expand_direct(G.substitute_ones(4)).coeffs
        if predicted != actual:
            rel_ok = False
            witness = {"coeffs": [str(c) for c in expansion.coeffs]}
            break
        via_direct = expand_direct(G)
        via_restriction = expand_via_restriction(G)
        if (
            via_direct.coeffs != expansion.coeffs
            or via_restriction.coeffs != expansion.coeffs
        ):
            agree_ok = False
            witness = {"coeffs": [str(c) for c in expansion.coeffs]}
            break
    params = {"s": s, "samples": samples}
    return results + [
        check("tf2-bis/rel-reconstruction", params, rel_ok, witness),
        check("tf2-bis/expansion-agreement", params, agree_ok, witness),
    ]
