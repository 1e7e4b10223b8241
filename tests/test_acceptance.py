"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is an exact equality (tolerance zero); the few runtime bounds are
asserted with wall-clock measurements.  Each test prints a single PASS line
once its criterion is fully verified (visible with `pytest -s`).
"""

import random
import time
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, factorial, prod

from ulrichci.ci_invariants import (
    EXCLUDED,
    NON_EXISTENCE,
    CIConfig,
    certify,
    deg_Z,
    deg_Z_chern,
    chi_OZ,
    det_twist,
    hyper3_dimension_check,
    hypersurface_hilb,
    hypersurface_hilbert_function,
    hypersurface_resolution,
)
from ulrichci.symfunc import (
    expand_direct,
    expand_via_restriction,
    restriction_coefficients,
    substitution_identities,
    verify_tf2_table,
)
from ulrichci.ulrich_functions import (
    SUPPORTED_PAIRS,
    build_a,
    build_f,
    build_q,
    closed_form_f_coefficients,
    q_value,
    verify_cg_induction,
    verify_cg_scan,
    verify_gl1,
    verify_gl2,
    verify_gl4,
)


def _report(k, text):
    print(f"ACCEPTANCE {k}: PASS - {text}")


def test_criterion_01_product_identity_table():
    start = time.monotonic()
    for s in range(4, 9):
        results = verify_tf2_table(s)
        assert len(results) == 13
        assert all(r.ok for r in results), [r.to_dict() for r in results if not r.ok]
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"identity table took {elapsed:.2f}s"
    _report(1, f"13 monomial identities exact for s=4..8 in {elapsed:.2f}s")


def test_criterion_02_restriction_machinery(random_expansion):
    checked = 0
    for s in range(5, 9):
        results = substitution_identities(s)
        assert all(r.ok for r in results), [r.to_dict() for r in results if not r.ok]
        rng = random.Random(100 + s)
        for _ in range(100):
            expansion = random_expansion(s, rng)
            G = expansion.reconstruct()
            # full restriction-coefficient reconstruction
            predicted = restriction_coefficients(expansion.coeffs, s)
            assert expand_direct(G.substitute_ones(4)).coeffs == predicted
            # the two expansion algorithms agree
            assert expand_direct(G).coeffs == expansion.coeffs
            assert expand_via_restriction(G).coeffs == expansion.coeffs
            checked += 1
    _report(2, f"substitution formulas and {checked} random expansions agree, s=5..8")


def test_criterion_03_symmetry_divisibility_restriction():
    build_a.cache_clear()
    build_f.cache_clear()
    start = time.monotonic()
    for r, m in SUPPORTED_PAIRS:
        for s in range(1, 8):
            f = build_f(s, r, m)
            assert f.is_symmetric(), (s, r, m)
            f.divide_all_vars()  # raises NotDivisible on failure
            for k in range(1, s):
                assert f.substitute_ones(k) == build_f(k, r, m), (s, k, r, m)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"s<=7 sweep took {elapsed:.2f}s"
    _report(3, f"f symmetric, divisible, restriction-compatible for s=1..7 in {elapsed:.1f}s")


def test_criterion_04_closed_form_expansions():
    for s in range(4, 9):
        results = verify_gl1(s)
        assert all(r.ok for r in results), [r.to_dict() for r in results if not r.ok]
    constants = [closed_form_f_coefficients(r, m, 4)[1][11] for r, m in SUPPORTED_PAIRS]
    assert constants == [27861, 681768, 865128]
    _report(4, "published twelve-coefficient expansions match exactly for s=4..8")


def test_criterion_05_derived_function_expansions():
    for s in range(4, 9):
        results = verify_gl2(s)
        assert all(r.ok for r in results), [r.to_dict() for r in results if not r.ok]
    _report(5, "all six derived expansions (g4, delta, h, k, c, chi') exact for s=4..8")


def test_criterion_06_divisibility_identities():
    for s in range(4, 9):
        results = verify_gl4(s)
        assert all(r.ok for r in results), [r.to_dict() for r in results if not r.ok]
    _report(6, "Noether-vs-Hilbert differences equal (x1..xs)q/denominator for s=4..8")


def test_criterion_07_positivity_scan_and_recursion():
    start = time.monotonic()
    report = verify_cg_scan(6, 6, b_values=(8, 9), workers=4)
    elapsed = time.monotonic() - start
    assert report.ok
    assert elapsed < 10.0, f"scan took {elapsed:.2f}s"
    for cell in report.cells:
        assert cell.min_q is not None and cell.min_q > 0
    # q vanishes exactly at all-ones
    for s in range(2, 7):
        for b in (8, 9):
            assert q_value((1,) * s, b) == 0
            assert all(r.ok for r in verify_cg_induction(s, b))
    _report(
        7,
        f"q > 0 on {report.total_tuples} tuples (s<=6, d<=6) in {elapsed:.1f}s "
        "with 4 workers; recursion and r_b(1)=0 verified",
    )


def _chi_oz_reference(degrees, r, m):
    """Independent evaluation of the n = 4 Euler characteristic expansion.

    Falling factorials over exact rationals, so half-integer determinant
    twists are meaningful; matches chi_OZ whenever the twist is integral.
    """

    def binom(ell, k):
        out = Fraction(1)
        for j in range(k):
            out *= ell - j
        return out / factorial(k)

    n = 4
    s = len(degrees)
    N = n + s
    u = Fraction(r * (sum(degrees) - s), 2)
    d = prod(degrees)
    total = binom(Fraction(m + N), N)
    total += (-1) ** (n + 1) * r * d * binom(u - m - 1, n)
    total += (-1) ** (n + s) * (r - 1) * binom(u - m - 1, N)
    for k in range(1, s + 1):
        sign = (-1) ** (k + n + s)
        for J in combinations(degrees, k):
            t = sum(J)
            total += sign * (
                binom(Fraction(t - m - 1), N) + (r - 1) * binom(t + u - m - 1, N)
            )
    return total


def test_criterion_08_cross_route_invariants():
    degree_checks = 0
    chi_checks = 0
    for s in range(1, 6):
        for degrees in combinations_with_replacement((4, 3, 2, 1), s):
            if prod(degrees) < 2:
                continue
            for r in (2, 3):
                cfg = CIConfig(4, degrees, r)
                assert deg_Z(cfg) == deg_Z_chern(cfg), (degrees, r)
                degree_checks += 1
                for m in (0, 1, 2):
                    reference = _chi_oz_reference(degrees, r, m)
                    assert build_f(s, r, m).eval(degrees) == reference, (degrees, r, m)
                    if det_twist(cfg).denominator == 1:
                        assert chi_OZ(cfg, m) == reference
                    chi_checks += 1
    _report(
        8,
        f"deg Z routes agree on {degree_checks} configs; chi(O_Z) expansion matches "
        f"the Euler polynomial on {chi_checks} evaluations (d_i<=4, s<=5, r=2,3)",
    )


def test_criterion_09_certifier():
    assert certify(4, (2,), 2).verdict == EXCLUDED
    for r in (2, 3):
        assert certify(4, (2, 2), r).verdict == EXCLUDED
    certificates = 0
    for n in range(4, 9):
        for length in (2, 3):
            for degrees in combinations_with_replacement((5, 4, 3, 2), length):
                for r in (2, 3):
                    cert = certify(n, degrees, r)
                    canonical = tuple(sorted(degrees, reverse=True))
                    if n == 4 and canonical == (2, 2):
                        assert cert.verdict == EXCLUDED
                        continue
                    assert cert.verdict == NON_EXISTENCE, (n, degrees, r)
                    if cert.reason == "q-positivity":
                        assert cert.witnesses["d_times_q"] > 0
                    else:
                        assert cert.reason == "parity obstruction"
                    certificates += 1
    for n in (5, 6, 7, 8):
        assert certify(n, (2,), 2).witnesses["d_times_q"] == 180
    _report(9, f"certifier: exceptions excluded, {certificates} non-existence verdicts")


def test_criterion_10_hypersurface_dimension_count():
    for d in range(2, 16):
        assert hyper3_dimension_check(3, d).contradiction == (d >= 6)
        assert hyper3_dimension_check(4, d).contradiction == (d >= 3)
    at_quadric = hyper3_dimension_check(4, 2)
    assert at_quadric.lhs == at_quadric.rhs == 23
    for d in range(2, 11):
        for n in (2, 3, 4):
            res = hypersurface_resolution(n, d)
            assert res.h0_ideal_at_generator_degree == 2 * d - 1
            assert res.h0_normal_bundle == (2 * d - 1) * ((n + 2) * (d - 1) - 2 * d + 1)
            assert hypersurface_hilbert_function(n, d, d - 1) == comb(d + n, n + 1) - (
                2 * d - 1
            )
    _report(10, "dimension-count thresholds and resolution section counts reproduced")


def test_criterion_11_hilbert_differencing():
    for d in range(2, 11):
        expected = Fraction(d * (2 * d - 1) * (d - 1), 6)
        assert deg_Z(CIConfig(4, (d,), 2)) == expected
        for m in (2 * d, 4 * d + 1):
            second = (
                hypersurface_hilb(4, d, m + 2)
                - 2 * hypersurface_hilb(4, d, m + 1)
                + hypersurface_hilb(4, d, m)
            )
            assert second == expected
    _report(11, "second difference of the Hilbert polynomial equals deg Z for d=2..10")
