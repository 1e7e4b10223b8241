"""Euler-characteristic symmetric functions for rank <= 3 Ulrich bundles.

Builders for the family f_{s,r,m} (the Hilbert-polynomial value of the
Ulrich surface attached to a fourfold complete intersection of s degrees,
rank r, twist m), the auxiliary functions g4, delta, h, k, c, chi' obtained
from it through Noether-formula arithmetic, and the obstruction polynomial
q_{s,b}.  Each closed-form coefficient table published for these functions is
kept verbatim as a test oracle, never as a construction path, so the
compositional builders and the tables verify each other.

Each function is written once, as a polynomial in the power-sum ring
Q[s, p1, p2, p4]: s counts the degrees x1..xs and p_k = x1^k + ... + xs^k
(Hirzebruch-Riemann-Roch needs no p3).  All but q are divisible by
x1*...*xs, which the ring forms leave out.  An identity between ring forms
holds for every s at once; build_*(s, ...) specialise the forms to s variables.

The Noether route of the Ulrich surface (deg_bracket, surface_invariants)
takes ring elements or exact numbers and runs the same arithmetic on either:
the ring forms g4, delta, h, k, c, chi' and ci_invariants' numeric surface
data both come from it.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, prod

from .exact_arith import binom_poly
from .polyring import MultiPoly, NotDivisible
from .report import CheckResult, check, compare
from .symfunc import BASIS, expand_direct, monomial_sym

SUPPORTED_PAIRS = ((2, 0), (3, 0), (3, 1))

#: Rank r -> (b, denominator) of the gl4 identity for r:
#: chi_Noether - f_{s,r,0} = (x1*...*xs) * q_{s,b} / denominator.
GL4_CONSTANTS = {2: (8, 4320), 3: (9, 3840)}

# Generators s, p1, p2, p4 of the power-sum ring.
_S, _P1, _P2, _P4 = MultiPoly.gens(4)


def _hrr_quotient(twist) -> MultiPoly:
    """[h^4] of exp(twist*h) * td(X), divided by x1*...*xs, in Q[s, p1, p2, p4].

    X is a fourfold complete intersection of degrees x1..xs in P^(s+4), so
    td(X) = (h/(1-e^-h))^(s+5) * prod_i (1-e^(-x_i h))/(x_i h) and, by HRR,
    chi(O_X(m)) = (x1*...*xs) * _hrr_quotient(m).  twist is an integer or
    a polynomial in the power-sum ring.
    """
    n = _S + 5
    # log(exp(twist*h) * td(X)) = l1*h + l2*h^2 + l4*h^4 mod h^5: the series
    # log((1-e^-x)/x) = -x/2 + x^2/24 - x^4/2880 + ... has no x^3 term.
    # With l1 = L1/2, l2 = L2/24, l4 = L4/2880, the coefficient
    # [h^4] exp(l1*h + l2*h^2 + l4*h^4) = l4 + l2^2/2 + l1^2*l2/2 + l1^4/24
    # is (2*L4 + 5*L2^2 + 30*L1^2*L2 + 15*L1^4) / 5760.
    L1 = 2 * twist - _P1 + n
    L2 = _P2 - n
    L4 = n - _P4
    sq = L1 * L1
    return (2 * L4 + L2 * (5 * L2 + 30 * sq) + 15 * sq * sq).scale(Fraction(1, 5760))


@lru_cache(maxsize=None)
def _f_form(r: int, m: int) -> MultiPoly:
    """f_{s,r,m} / (x1*...*xs), composed as build_f describes."""
    shift = (_P1 - _S).scale(Fraction(r, 2))
    b_part = binom_poly(shift - m - 1, 4).scale(-r)
    return _hrr_quotient(m) + _hrr_quotient(m - shift).scale(r - 1) + b_part


def deg_bracket(r: int, s, m1, m11):
    """The bracket with deg Z = r * d * bracket / 24 for the rank-r Ulrich surface Z.

    s, m1 = x1 + ... + xs and m11 = sum_{i<j} x_i x_j are ints at a degree
    tuple of product d, or the ring elements s, p1 and (p1^2 - p2)/2.
    """
    return (3 * r - 2) * m1 * m1 - 6 * (r - 1) * s * m1 + 3 * (r - 1) * s * s - s - 2 * m11


def surface_invariants(r: int, s, m1, m11, deg, chi0=None, chi1=None) -> tuple:
    """(K_Z.H_Z, K_Z^2, c2(Z), chi_Noether) of the rank-r Ulrich surface Z, r in {2, 3}.

    s, m1 and m11 are as in deg_bracket and deg is deg Z; rank 3 also needs
    chi0 = chi(O_Z) and chi1 = chi(O_Z(1)).  The result is exact for ints
    and a Fraction deg, and a ring element for ring arguments (there deg,
    chi0 and chi1 are divided by x1*...*xs, and so is the result).
    """
    if r == 2:
        kz = 2 * m1 - 2 * s - 5  # K_Z = kz * H_Z
        kz_h = kz * deg
        kz_sq = kz * kz_h
        c2_bracket = 120 + 115 * s + 27 * s * s - 120 * m1 - 54 * s * m1 + 32 * m1 * m1 - 10 * m11
        c2_z = c2_bracket * deg * Fraction(1, 12)
    elif r == 3:
        # Riemann-Roch on Z gives K_Z.H_Z; [K_Z - (5/2) a H_Z]^2 = 0 gives K_Z^2.
        kz_h = 2 * (chi0 - chi1) + deg
        a = m1 - s - 2
        kz_sq = 5 * a * kz_h - Fraction(25, 4) * a * a * deg
        c2_bracket = 49 * m1 * m1 - 104 * s * m1 - 160 * m1 + 6 * m11 + 52 * s * s + 163 * s + 120
        c2_z = (4 * m1 - 4 * s - 5) * kz_h - c2_bracket * deg * Fraction(1, 8)
    else:
        raise ValueError(f"surface invariants need r in {{2, 3}}, got {r}")
    return kz_h, kz_sq, c2_z, (kz_sq + c2_z) * Fraction(1, 12)


@lru_cache(maxsize=None)
def _noether_forms() -> dict[str, MultiPoly]:
    """g4, delta, h, k, c and chi' over x1*...*xs, from the Noether-formula route."""
    s, m1, m11 = _S, _P1, (_P1 * _P1 - _P2) / 2
    delta2 = deg_bracket(2, s, m1, m11) * Fraction(2, 24)
    g4 = surface_invariants(2, s, m1, m11, delta2)[3]
    delta = deg_bracket(3, s, m1, m11) * Fraction(3, 24)
    h, k, c, chi_prime = surface_invariants(3, s, m1, m11, delta, _f_form(3, 0), _f_form(3, 1))
    return {"g4": g4, "delta": delta, "h": h, "k": k, "c": c, "chi_prime": chi_prime}


@lru_cache(maxsize=None)
def _power_product(i: int, j: int, k: int, s: int) -> MultiPoly:
    """p1^i * p2^j * p4^k in s variables."""
    p1, p2, p4 = (monomial_sym((e,), s) for e in (1, 2, 4))
    return prod([p1] * i + [p2] * j + [p4] * k, start=MultiPoly.const(s, 1))


def _specialise(form: MultiPoly, s: int) -> MultiPoly:
    """form in s variables: s becomes the integer and p_k = x1^k + ... + xs^k."""
    coeffs: dict[tuple[int, ...], Fraction] = {}
    for (a, *powers), c in form.terms():
        coeffs[tuple(powers)] = coeffs.get(tuple(powers), 0) + c * s**a
    result = MultiPoly.zero(s)
    for powers, c in coeffs.items():
        result = result + _power_product(*powers, s).scale(c)
    return result


@lru_cache(maxsize=None)
def build_a(s: int, m: int) -> MultiPoly:
    """chi(O_X(m)) of a fourfold complete intersection, as a polynomial in the degrees.

    Symmetric of degree s+4 in x1..xs; evaluating at a degree tuple gives the
    exact Euler characteristic.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    return _specialise(_hrr_quotient(m), s).times_all_vars()


@lru_cache(maxsize=None)
def build_f(s: int, r: int, m: int) -> MultiPoly:
    """The rank-r twist-m Ulrich surface Euler polynomial f_{s,r,m}.

    Composed per its definition: a(m) + (r-1)*a(m - (r/2)(sum x - s)) + b,
    where b = -r * (prod x) * binom((r/2)(sum x - s) - m - 1, 4).  Half-integer
    shifts (odd r) are carried exactly.
    """
    if s < 1 or r < 2:
        raise ValueError(f"need s >= 1 and r >= 2, got s={s}, r={r}")
    return _specialise(_f_form(r, m), s).times_all_vars()


def build_q(s: int, b: int) -> MultiPoly:
    """Obstruction polynomial b*m4 + 10*m22 - 10*s*m2 + s*(5s - b + 5)."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    return _specialise(_q_from_power_sums(_S, b, _P2, _P4), s)


def build_delta(s: int) -> MultiPoly:
    """Degree polynomial of the rank-3 Ulrich surface (times the CI degree)."""
    return _specialise(_noether_forms()["delta"], s).times_all_vars()


def build_g4(s: int) -> MultiPoly:
    """Noether-formula value of chi(O_Z) for the rank-2 surface, built compositionally."""
    return _specialise(_noether_forms()["g4"], s).times_all_vars()


def build_h(s: int) -> MultiPoly:
    """Hyperplane-class intersection K_Z.H_Z of the rank-3 surface."""
    return _specialise(_noether_forms()["h"], s).times_all_vars()


def build_k(s: int) -> MultiPoly:
    """Self-intersection K_Z^2 of the rank-3 surface."""
    return _specialise(_noether_forms()["k"], s).times_all_vars()


def build_c(s: int) -> MultiPoly:
    """Second Chern number c2(Z) of the rank-3 surface."""
    return _specialise(_noether_forms()["c"], s).times_all_vars()


def build_chi_prime(s: int) -> MultiPoly:
    """Noether-formula value of chi(O_Z) for the rank-3 surface."""
    return _specialise(_noether_forms()["chi_prime"], s).times_all_vars()


# ---------------------------------------------------------------------------
# Closed-form coefficient tables (test oracles only).
# ---------------------------------------------------------------------------


def closed_form_f_coefficients(r: int, m: int, s: int) -> tuple[int, tuple]:
    """Published expansion of f_{s,r,m} / (x1..xs): (denominator, 12 coefficients).

    f_{s,r,m} equals (x1..xs)/denominator times the basis combination with
    these coefficients.  Used exclusively to verify the compositional build.
    """
    half = Fraction(1, 2)
    if (r, m) == (2, 0):
        return 360, (
            66,
            225,
            320,
            600,
            1125,
            -75 * (3 * s + 4),
            -150 * (4 * s + 5),
            -225 * (5 * s + 6),
            10 * (30 * s * s + 73 * s + 35),
            75 * half * (15 * s * s + 35 * s + 14),
            -75 * half * s * (s + 1) * (5 * s + 12),
            Fraction(s, 8) * (375 * s**3 + 1650 * s**2 + 1505 * s - 698),
        )
    if (r, m) == (3, 0):
        return 1920, (
            1683,
            6060,
            8770,
            16860,
            32400,
            -60 * (101 * s + 95),
            -60 * (281 * s + 255),
            -3600 * (9 * s + 8),
            10 * (843 * s * s + 1496 * s + 490),
            60 * (270 * s * s + 469 * s + 140),
            -60 * s * (90 * s * s + 229 * s + 125),
            s * (1350 * s**3 + 4470 * s**2 + 3305 * s - 698),
        )
    if (r, m) == (3, 1):
        return 1920, (
            1683,
            6060,
            8770,
            16860,
            32400,
            -60 * (101 * s + 133),
            -60 * (281 * s + 357),
            -720 * (45 * s + 56),
            10 * (843 * s * s + 2108 * s + 994),
            60 * (270 * s * s + 661 * s + 284),
            -60 * s * (90 * s * s + 325 * s + 263),
            s * (1350 * s**3 + 6390 * s**2 + 7265 * s - 1418),
        )
    raise ValueError(f"no closed form for (r, m) = ({r}, {m})")


def closed_form_derived_coefficients(name: str, s: int) -> tuple[Fraction, tuple]:
    """Published expansions of the derived functions: (prefactor, 12 coefficients).

    The named function equals prefactor * (x1..xs) * (basis combination).
    """
    tables = {
        "g4": (
            Fraction(5, 1728),
            (
                64,
                216,
                308,
                576,
                1080,
                -72 * (3 * s + 4),
                -144 * (4 * s + 5),
                -216 * (5 * s + 6),
                4 * (72 * s * s + 175 * s + 84),
                36 * (15 * s * s + 35 * s + 14),
                -36 * s * (s + 1) * (5 * s + 12),
                s * (3 * s - 1) * (3 * s + 7) * (5 * s + 12),
            ),
        ),
        "delta": (
            Fraction(1, 8),
            (0, 0, 0, 0, 0, 0, 0, 0, 7, 12, -12 * s, 6 * s * s - s),
        ),
        "h": (
            Fraction(1, 8),
            (
                0,
                0,
                0,
                0,
                0,
                19,
                51,
                96,
                -(51 * s + 35),
                -12 * (8 * s + 5),
                3 * s * (16 * s + 19),
                -s * (16 * s * s + 27 * s - 5),
            ),
        ),
        "k": (
            Fraction(5, 32),
            (
                41,
                150,
                218,
                422,
                816,
                -2 * (75 * s + 76),
                -2 * (211 * s + 204),
                -48 * (17 * s + 16),
                211 * s * s + 401 * s + 140,
                2 * (204 * s * s + 377 * s + 120),
                -2 * s * (68 * s * s + 185 * s + 108),
                s * (s + 2) * (34 * s * s + 53 * s - 10),
            ),
        ),
        "c": (
            Fraction(1, 64),
            (
                265,
                924,
                1330,
                2524,
                4800,
                -4 * (231 * s + 190),
                -4 * (631 * s + 510),
                -960 * (5 * s + 4),
                2 * (631 * s * s + 986 * s + 280),
                4 * (600 * s * s + 929 * s + 240),
                -4 * s * (200 * s * s + 449 * s + 210),
                s * (200 * s**3 + 578 * s**2 + 363 * s - 80),
            ),
        ),
        "chi_prime": (
            Fraction(1, 768),
            (
                675,
                2424,
                3510,
                6744,
                12960,
                -24 * (101 * s + 95),
                -24 * (281 * s + 255),
                -1440 * (9 * s + 8),
                2 * (1686 * s * s + 2991 * s + 980),
                24 * (270 * s * s + 469 * s + 140),
                -24 * s * (90 * s * s + 229 * s + 125),
                s * (540 * s**3 + 1788 * s**2 + 1323 * s - 280),
            ),
        ),
    }
    if name not in tables:
        raise ValueError(f"unknown derived function {name!r}")
    return tables[name]


_DERIVED_BUILDERS = {
    "g4": build_g4,
    "delta": build_delta,
    "h": build_h,
    "k": build_k,
    "c": build_c,
    "chi_prime": build_chi_prime,
}


# ---------------------------------------------------------------------------
# Verifiers.
# ---------------------------------------------------------------------------


def verify_tf0(s: int, r: int, m: int) -> list[CheckResult]:
    """Symmetry of f_{s,r,m} and its restriction compatibility.

    Restriction means f in s variables with the trailing s-k variables set to
    1 reproduces f in k variables, for every 1 <= k < s.
    """
    f = build_f(s, r, m)
    results = [check("tf0(1)", {"s": s, "r": r, "m": m}, f.is_symmetric())]
    for k in range(1, s):
        ok = f.substitute_ones(k) == build_f(k, r, m)
        results.append(check("tf0(2)", {"s": s, "k": k, "r": r, "m": m}, ok))
    return results


def verify_tf1(s: int, r: int, m: int) -> list[CheckResult]:
    """Divisibility of f_{s,r,m} by x1*...*xs.

    Structural: build_f ends in times_all_vars, which divide_all_vars undoes.
    """
    try:
        build_f(s, r, m).divide_all_vars()
        witness = None
    except NotDivisible as exc:  # carries the offending term
        witness = {"error": str(exc)}
    return [check("tf1", {"s": s, "r": r, "m": m}, witness is None, witness)]


def _match_table(
    lemma: str, parameters: dict, built: MultiPoly, prefactor: Fraction, coeffs: tuple
) -> CheckResult:
    """Check built == prefactor * (x1..xs) * (the basis combination with coeffs).

    For s >= 4 the coefficients of built / (prefactor * x1..xs) are matched
    one by one in the basis, and a built polynomial that is not divisible by
    x1..xs or has no expansion fails with the error.  For s in {1, 2, 3} the
    basis degenerates, so the combination is rebuilt with the convention
    m_lambda(s) = 0 for long partitions and compared as a raw polynomial.
    """
    s = built.nvars
    if s < 4:
        expected = MultiPoly.zero(s)
        for coeff, lam in zip(coeffs, BASIS):
            if coeff:
                expected = expected + monomial_sym(lam, s).scale(coeff)
        expected = expected.scale(prefactor).times_all_vars()
        return compare(lemma, parameters, built, expected)
    try:
        actual = expand_direct(built.divide_all_vars() / prefactor).coeffs
    except ValueError as exc:  # NotDivisible, NotSymmetric or outside the basis span
        return check(lemma, parameters, False, {"error": str(exc)})
    mismatches = {
        f"a{i}": {"actual": str(a), "expected": str(e)}
        for i, (a, e) in enumerate(zip(actual, map(Fraction, coeffs)), start=1)
        if a != e
    }
    return check(lemma, parameters, not mismatches, mismatches)


def verify_gl1(s: int) -> list[CheckResult]:
    """Compare built f_{s,r,m} quotients against the published coefficient tables."""
    if s < 4:
        raise ValueError(f"gl1 verification needs s >= 4, got {s}")
    results = []
    for idx, (r, m) in enumerate(SUPPORTED_PAIRS, start=1):
        denom, coeffs = closed_form_f_coefficients(r, m, s)
        built = build_f(s, r, m)
        params = {"s": s, "r": r, "m": m}
        results.append(
            _match_table(f"gl1({idx})", params, built, Fraction(1, denom), coeffs)
        )
    return results


def verify_gl2(s: int) -> list[CheckResult]:
    """Compare the six derived functions against their published expansions.

    Below s = 4 the basis degenerates and the comparison is a raw polynomial
    one (see _match_table).
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    results = []
    for idx, (name, build) in enumerate(_DERIVED_BUILDERS.items(), start=1):
        prefactor, coeffs = closed_form_derived_coefficients(name, s)
        params = {"s": s, "function": name}
        results.append(_match_table(f"gl2({idx})", params, build(s), prefactor, coeffs))
    return results


def verify_gl4(s: int) -> list[CheckResult]:
    """The two exact divisibility identities tying the Noether route to f.

    (1) g4 - f_{s,2,0} = (x1..xs) * q_{s,b} / denominator, from GL4_CONSTANTS[2]
    (2) chi' - f_{s,3,0} = (x1..xs) * q_{s,b} / denominator, from GL4_CONSTANTS[3]
    """
    if s < 4:
        raise ValueError(f"gl4 verification needs s >= 4, got {s}")
    checks = [("gl4(1)", build_g4(s), 2), ("gl4(2)", build_chi_prime(s), 3)]
    results = []
    for label, noether, r in checks:
        b, denominator = GL4_CONSTANTS[r]
        lhs = noether - build_f(s, r, 0)
        rhs = (build_q(s, b) / denominator).times_all_vars()
        results.append(compare(label, {"s": s}, lhs, rhs))
    return results


# ---------------------------------------------------------------------------
# Positivity scan of the obstruction polynomial.
# ---------------------------------------------------------------------------


def _q_from_power_sums(s, b: int, m2, m4):
    """q_{s,b} from s and the power sums m2 = sum d_i^2, m4 = sum d_i^4.

    Ints at a degree tuple, or the generators s, p2, p4 of the power-sum ring.
    """
    return b * m4 + 5 * (m2 * m2 - m4) - 10 * s * m2 + s * (5 * s - b + 5)


def q_value(degrees: tuple[int, ...], b: int) -> int:
    """Exact integer value of q_{s,b} at a degree tuple (fast numeric path)."""
    return _q_from_power_sums(
        len(degrees), b, sum(d * d for d in degrees), sum(d**4 for d in degrees)
    )


#: Longest violation or per-tuple list a scan cell keeps.
_LIST_CAP = 1000


@dataclass
class ScanCell:
    """Aggregate of one (b, s) slice of the positivity scan."""

    b: int
    s: int
    tuples_checked: int = 0
    min_q: int | None = None
    min_tuple: tuple[int, ...] | None = None
    violations: list = field(default_factory=list)
    violations_omitted: int = 0
    per_tuple: list | None = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        doc = {
            "b": self.b,
            "s": self.s,
            "tuples_checked": self.tuples_checked,
            "min_q": self.min_q,
            "min_tuple": list(self.min_tuple) if self.min_tuple else None,
            "violations": [
                {"degrees": list(t), "q": q} for t, q in self.violations
            ],
        }
        if self.violations_omitted:
            doc["violations_omitted"] = self.violations_omitted
        if self.per_tuple is not None:
            doc["per_tuple"] = [{"degrees": list(t), "q": q} for t, q in self.per_tuple]
        return doc


@dataclass
class ScanReport:
    """Deterministic fold of all scan cells."""

    s_max: int
    d_max: int
    b_values: tuple[int, ...]
    cells: list[ScanCell]

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    @property
    def total_tuples(self) -> int:
        return sum(cell.tuples_checked for cell in self.cells)

    def to_dict(self) -> dict:
        return {
            "s_max": self.s_max,
            "d_max": self.d_max,
            "b_values": list(self.b_values),
            "total_tuples": self.total_tuples,
            "status": "pass" if self.ok else "fail",
            "cells": [cell.to_dict() for cell in self.cells],
        }


def _iter_degree_tuples(s: int, d_max: int):
    """Weakly decreasing s-tuples in 1..d_max, leading entry first (q is symmetric).

    Lead 1 holds only the all-ones tuple, the single point with product < 2,
    where q vanishes, so it is skipped.
    """
    for lead in range(d_max, 1, -1):
        for rest in combinations_with_replacement(range(lead, 0, -1), s - 1):
            yield (lead, *rest)


def _runs_to_tuple(runs: list, d: int, s: int) -> tuple[int, ...]:
    """The s-tuple whose first s - 1 entries are runs (value, start, ...) and whose last is d."""
    ends = [run[1] for run in runs[1:]] + [s - 1]
    return (*(run[0] for run, end in zip(runs, ends) for _ in range(run[1], end)), d)


def _scan_slice(task) -> tuple[int, int, tuple, list, int, list | None]:
    """Fold q over the weakly decreasing s-tuples (s >= 2) with first entry lead.

    The tuples come in _iter_degree_tuples order.  All entries but the last
    are held as runs (value, start, m2, m4) of equal entries, where m2 and m4
    are the sums of d^2 and d^4 over the entries before start; the last entry
    runs from the value of the last run down to 1.  So each q, and each step
    to the next run layout, costs O(1) whatever s is, and the entries are
    written out only for a tuple that is kept.
    """
    b, s, lead, keep_values = task
    runs = [(lead, 0, 0, 0)]
    squares = [d * d for d in range(lead + 1)]
    fourths = [d * d for d in squares]
    count = 0
    min_q = None
    min_at = None
    violations = []
    omitted = 0
    values = [] if keep_values else None
    while True:
        v, k, m2, m4 = runs[-1]
        m2 += (s - 1 - k) * squares[v]
        m4 += (s - 1 - k) * fourths[v]
        for d in range(v, 0, -1):
            q = _q_from_power_sums(s, b, m2 + squares[d], m4 + fourths[d])
            if min_q is None or q < min_q:
                min_q, min_at = q, (runs[:], d)
            if q <= 0:
                if len(violations) < _LIST_CAP:
                    violations.append((_runs_to_tuple(runs, d, s), q))
                else:
                    omitted += 1
            if keep_values:
                values.append((_runs_to_tuple(runs, d, s), q))
        count += v
        # Advance: the rightmost entry after the lead that is still above 1
        # drops by one, and every entry after it takes its new value.
        if v == 1:
            runs.pop()
            i = k - 1
        else:
            i = s - 2
        if i == 0:
            break
        w, k, m2, m4 = runs[-1]
        if k == i:
            runs.pop()
        else:
            m2 += (i - k) * squares[w]
            m4 += (i - k) * fourths[w]
        runs.append((w - 1, i, m2, m4))
    return count, min_q, _runs_to_tuple(*min_at, s), violations, omitted, values


def verify_cg_scan(
    s_max: int,
    d_max: int,
    b_values: tuple[int, ...] = (8, 9),
    workers: int = 1,
    per_tuple: bool = False,
) -> ScanReport:
    """Exhaustive positivity scan of q_{s,b} over bounded degree tuples.

    Enumerates weakly decreasing tuples with entries in 1..d_max and product
    at least 2, for s = 2..s_max, and requires q > 0 at every point.  One
    task is the slice of a (b, s) cell with one leading entry; it walks its
    tuples in order as runs of equal entries with running power sums, so
    each q costs O(1) whatever s is.
    With several workers all tasks go through one process pool of at most
    os.cpu_count() processes.
    Results are folded in task order, so the report is identical for any
    worker count.  A cell keeps its first 1000 violations in scan order and
    counts the rest in violations_omitted; per-tuple values are kept only for
    cells of at most 1000 tuples, i.e. C(s+d_max-1, s) - 1 <= 1000.
    """
    if s_max < 2 or d_max < 2:
        raise ValueError("scan needs s_max >= 2 and d_max >= 2")
    if not b_values:
        raise ValueError("scan needs at least one b value")
    cells = [
        ScanCell(
            b=b,
            s=s,
            per_tuple=[] if per_tuple and comb(s + d_max - 1, s) - 1 <= _LIST_CAP else None,
        )
        for b in b_values
        for s in range(2, s_max + 1)
    ]
    tasks = [
        (cell.b, cell.s, lead, cell.per_tuple is not None)
        for cell in cells
        for lead in range(d_max, 1, -1)
    ]
    if workers > 1:
        # A fork-started pool forks all its workers at once: never more than the CPUs.
        with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
            partials = list(pool.map(_scan_slice, tasks))
    else:
        partials = list(map(_scan_slice, tasks))
    # Every cell has d_max - 1 consecutive tasks, none of them empty.
    for i, (count, min_q, min_tuple, violations, omitted, values) in enumerate(partials):
        cell = cells[i // (d_max - 1)]
        cell.tuples_checked += count
        if cell.min_q is None or min_q < cell.min_q:
            cell.min_q, cell.min_tuple = min_q, min_tuple
        room = _LIST_CAP - len(cell.violations)
        cell.violations.extend(violations[:room])
        cell.violations_omitted += omitted + max(len(violations) - room, 0)
        if values is not None:
            cell.per_tuple.extend(values)
    return ScanReport(s_max=s_max, d_max=d_max, b_values=tuple(b_values), cells=cells)


def verify_cg_induction(s: int, b: int) -> list[CheckResult]:
    """Structural checks behind the positivity induction for q_{s,b}.

    (a) the recursion q_{s+1,b} = q_{s,b} + r_b(x_{s+1}) as an exact
    identity in s+1 variables, (b) r_b(1) = 0 with the quadratic power sum
    kept formal, (c) positivity of d/dt r_b on sampled integer data, and
    (d) positivity of r_b(d) at the all-ones tuple for d = 2..6.  (c) and (d)
    prove nothing outside their samples.  Each records its first
    counterexample in sampling order.
    """
    if s < 2:
        raise ValueError(f"induction checks need s >= 2, got {s}")

    def r_b(t, m2):
        # q_{s+1,b} - q_{s,b} at x_{s+1} = t, where m2 = x1^2 + ... + xs^2.
        return b * t * t * t * t + 10 * t * t * (m2 - (s + 1)) - 10 * m2 + (10 * s - b + 10)

    m2_low = monomial_sym((2,), s).extend(s + 1)
    r_part = r_b(MultiPoly.variable(s + 1, s), m2_low)
    recursion_ok = build_q(s + 1, b) == build_q(s, b).extend(s + 1) + r_part
    results = [check("gl3", {"s": s, "b": b}, recursion_ok)]

    # r_b(1) = 0 identically in the power-sum value: work in variables (M, t)
    # with M formal, substitute t = 1.
    at_one = r_b(MultiPoly.variable(2, 1), MultiPoly.variable(2, 0)).substitute_ones(1)
    residual = {"residual": at_one.to_string()}
    results.append(check("cg/r_b(1)=0", {"s": s, "b": b}, at_one.is_zero, residual))

    # Derivative d/dt r_b = 4bt^3 + 20t(m2 - s - 1) > 0 for t >= 1 whenever the
    # data satisfies m2 >= s + 1; sample tuples with product >= 2 guarantee it.
    witness = next(
        (
            {"degrees": list(tup), "t": t, "derivative": value}
            for tup in _iter_degree_tuples(s, 3)
            if (m2 := sum(d * d for d in tup)) >= s + 1
            for t in range(1, 5)
            if (value := 4 * b * t**3 + 20 * t * (m2 - s - 1)) <= 0
        ),
        None,
    )
    results.append(check("cg/derivative", {"s": s, "b": b}, witness is None, witness))

    # Base behaviour at the all-ones tuple (m2 = s): r_b(d) = b d^4 - 10 d^2 - b + 10
    # must be positive for every d >= 2.
    witness = next(
        ({"d": d, "r_b": value} for d in range(2, 7) if (value := r_b(d, s)) <= 0), None
    )
    results.append(check("cg/all-ones-step", {"s": s, "b": b}, witness is None, witness))
    return results
