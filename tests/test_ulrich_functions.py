"""Tests for the Euler-polynomial builders and the identity verifiers.

The builders read chi(O_X(m)) off the Hirzebruch-Riemann-Roch series in the
power sums; the reference implementations here compose the defining
inclusion-exclusion binomial sums directly through binom_poly, term by term,
so the two paths are fully independent.
"""

import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, groupby, islice
from math import comb, prod

import pytest

from ulrichci import symfunc, ulrich_functions
from ulrichci.exact_arith import binom_int, binom_poly
from ulrichci.polyring import MultiPoly, NotDivisible
from ulrichci.symfunc import (
    SymExpansion,
    expand_direct,
    expand_via_restriction,
    from_basis,
    monomial_sym,
    restriction_coefficients,
    verify_tf2_table,
    verify_tf2bis,
)
from ulrichci.ulrich_functions import (
    GL4_CONSTANTS,
    SUPPORTED_PAIRS,
    ScanCell,
    ScanReport,
    _iter_degree_tuples,
    _prefix_bound,
    _q_from_power_sums,
    _scan_slice,
    build_a,
    build_c,
    build_chi_prime,
    build_delta,
    build_f,
    build_g4,
    build_h,
    build_k,
    build_q,
    check_scan_grid,
    closed_form_derived_coefficients,
    closed_form_f_coefficients,
    q_value,
    verify_cg_induction,
    verify_cg_scan,
    verify_gl1,
    verify_gl2,
    verify_gl4,
    verify_tf0,
    verify_tf1,
)


# -- reference constructions (independent oracle path) -------------------------


def reference_a(s, m_arg):
    """Inclusion-exclusion Euler sum built directly from binom_poly.

    m_arg may be an integer twist or a polynomial twist in s variables.
    """
    m_poly = MultiPoly.const(s, m_arg) if isinstance(m_arg, int) else m_arg
    total = binom_poly(m_poly + (s + 4), s + 4)
    for k in range(1, s + 1):
        sign = (-1) ** (k + s)
        for J in combinations(range(s), k):
            lin = MultiPoly.zero(s)
            for i in J:
                lin = lin + MultiPoly.variable(s, i)
            total = total + binom_poly(lin - m_poly - 1, s + 4).scale(sign)
    return total


def reference_f(s, r, m):
    xs = MultiPoly.gens(s)
    sigma = sum(xs, MultiPoly.zero(s))
    prod = MultiPoly.const(s, 1)
    for xi in xs:
        prod = prod * xi
    shift = (sigma - s).scale(Fraction(r, 2))
    b_part = prod * binom_poly(shift - m - 1, 4) * (-r)
    return reference_a(s, m) + reference_a(s, MultiPoly.const(s, m) - shift).scale(
        r - 1
    ) + b_part


@pytest.mark.parametrize("s", [1, 2, 3, 4])
@pytest.mark.parametrize("r,m", SUPPORTED_PAIRS + ((2, 3), (4, 1), (3, -2)))
def test_builder_matches_reference(s, r, m):
    assert build_f(s, r, m) == reference_f(s, r, m)


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("m", [0, 1, 4, -2])
def test_a_builder_matches_reference(s, m):
    assert build_a(s, m) == reference_a(s, m)


# -- the chi(O_X) polynomial ------------------------------------------------------


def test_cubic_fourfold_structure_sheaf():
    assert build_a(1, 0).eval((3,)) == 1


def test_hypersurface_euler_characteristic_two_routes():
    # chi(O_X(m)) of a degree-d hypersurface equals binom(m+5,5) - binom(m-d+5,5).
    m, d = 7, 4
    direct = binom_int(m + 5, 5) - binom_int(m - d + 5, 5)
    assert build_a(1, m).eval((d,)) == direct


def test_a_is_symmetric():
    assert build_a(3, 1).is_symmetric()


# -- the f family --------------------------------------------------------------------


def test_f_divisible_by_all_variables():
    build_f(5, 2, 0).divide_all_vars()  # must not raise


def test_f_restriction_to_fewer_degrees():
    assert build_f(6, 3, 1).substitute_ones(4) == build_f(4, 3, 1)


def test_f_quadric_euler_characteristic():
    from ulrichci.ci_invariants import CIConfig, chi_OZ

    value = build_f(4, 2, 0).eval((2, 1, 1, 1))
    assert value == chi_OZ(CIConfig(4, (2,), 2), 0) == 1


@pytest.mark.parametrize("s", range(1, 8))
@pytest.mark.parametrize("r,m", SUPPORTED_PAIRS)
def test_f_symmetry_divisibility_restriction(s, r, m):
    assert all(res.ok for res in verify_tf0(s, r, m))
    assert all(res.ok for res in verify_tf1(s, r, m))


def test_tf1_fails_only_on_non_divisibility(monkeypatch):
    import ulrichci.ulrich_functions as uf

    monkeypatch.setattr(uf, "build_f", lambda s, r, m: MultiPoly.const(s, 1))
    [result] = verify_tf1(2, 2, 0)
    assert not result.ok
    assert "not divisible" in result.witness["error"]

    def broken(s, r, m):
        raise RuntimeError("builder bug")

    monkeypatch.setattr(uf, "build_f", broken)
    with pytest.raises(RuntimeError, match="builder bug"):
        verify_tf1(2, 2, 0)


# -- derived builders -------------------------------------------------------------------


def test_delta_expansion_coefficients():
    s = 5
    quotient = build_delta(s).divide_all_vars() * 8
    expansion = expand_direct(quotient)
    expected = [Fraction(0)] * 12
    expected[8] = Fraction(7)
    expected[9] = Fraction(12)
    expected[10] = Fraction(-12 * s)
    expected[11] = Fraction(6 * s * s - s)
    assert list(expansion.coeffs) == expected


def test_delta_matches_degree_formula():
    from ulrichci.ci_invariants import CIConfig, deg_Z

    cfg = CIConfig(4, (2, 2, 3), 3)
    assert build_delta(3).eval((2, 2, 3)) == deg_Z(cfg)
    assert build_delta(4).eval((2, 2, 3, 1)) == deg_Z(cfg)


def test_g4_equals_f_at_all_ones():
    # q_{s,8} vanishes at the all-ones tuple, so the divisibility identity
    # forces equality there.
    ones = (1, 1, 1, 1)
    assert build_g4(4).eval(ones) == build_f(4, 2, 0).eval(ones)


def test_h_is_difference_of_twists_plus_degree():
    s = 4
    assert build_h(s) == -2 * build_f(s, 3, 1) + 2 * build_f(s, 3, 0) + build_delta(s)


# -- obstruction polynomial -----------------------------------------------------------------


def test_q_vanishes_at_all_ones():
    for s in range(3, 9):
        for b in (8, 9):
            assert build_q(s, b).eval((1,) * s) == 0


def test_q_hand_values():
    assert build_q(4, 8).eval((2, 1, 1, 1)) == 90
    assert build_q(2, 9).eval((2, 2)) == 300


@pytest.mark.parametrize("b", [-1000, -3, 0, 5, 8, 9])
def test_q_row_form(b):
    # The scan's row form: a last entry with t = d^2 added to a row whose
    # power sums are p2, p4.
    s, p2, p4, t = MultiPoly.gens(4)
    lhs = _q_from_power_sums(s, b, p2 + t, p4 + t * t)
    rhs = _q_from_power_sums(s, 0, p2, p4) + b * (p4 - s) + t * (b * t + 10 * (p2 - s))
    assert lhs == rhs


def test_q_value_matches_polynomial():
    for s in (2, 3, 4, 5):
        for b in (8, 9):
            poly = build_q(s, b)
            for tup in [(2,) * s, (3, 1) + (1,) * (s - 2), (4, 3) + (2,) * (s - 2)]:
                assert q_value(tup, b) == poly.eval(tup)
                m2 = sum(d * d for d in tup)
                m4 = sum(d**4 for d in tup)
                assert _q_from_power_sums(s, b, m2, m4) == poly.eval(tup)


# -- closed-form verification ------------------------------------------------------------------


@pytest.mark.parametrize("s", [4, 5, 6, 7, 8])
def test_gl1_closed_forms(s):
    results = verify_gl1(s)
    assert all(r.ok for r in results), [r.to_dict() for r in results if not r.ok]


def test_gl1_published_constants():
    # The s = 4 specializations of the coefficient tables.
    _, c20 = closed_form_f_coefficients(2, 0, 4)
    _, c30 = closed_form_f_coefficients(3, 0, 4)
    _, c31 = closed_form_f_coefficients(3, 1, 4)
    assert c20[11] == 27861
    assert c30[11] == 681768
    assert c31[11] == 865128
    # Spot values at other s.
    assert closed_form_f_coefficients(3, 0, 5)[1][5] == -36000
    assert closed_form_f_coefficients(3, 1, 6)[1][8] == 10 * (
        843 * 36 + 2108 * 6 + 994
    )


@pytest.mark.parametrize("s", list(range(1, 9)))
def test_gl2_expansions(s):
    results = verify_gl2(s)
    assert all(r.ok for r in results), [r.to_dict() for r in results if not r.ok]


def test_gl2_h_cubic_coefficient_is_constant():
    for s in (4, 6, 8):
        _, coeffs = closed_form_derived_coefficients("h", s)
        assert coeffs[5] == 19


@pytest.mark.parametrize("s", [4, 5, 6, 7, 8])
def test_gl4_identities(s):
    results = verify_gl4(s)
    assert all(r.ok for r in results), [r.to_dict() for r in results if not r.ok]


def test_gl4_evaluated_at_padded_quadric():
    diff = build_g4(4) - build_f(4, 2, 0)
    assert diff.eval((2, 1, 1, 1)) == Fraction(2 * 90, 4320) == Fraction(1, 24)


@pytest.mark.parametrize("r,noether", [(2, "g4"), (3, "chi_prime")])
def test_gl4_holds_for_every_s(r, noether):
    # One identity in Q[s, p1, p2, p4] covers every number of degrees s.
    uf = ulrich_functions
    b, denominator = GL4_CONSTANTS[r]
    lhs = uf._noether_forms()[noether] - uf._f_form(r, 0)
    assert lhs == uf._q_from_power_sums(uf._S, b, uf._P2, uf._P4) / denominator
    assert GL4_CONSTANTS == {2: (8, 4320), 3: (9, 3840)}


def test_q_is_a_sum_of_two_terms_in_power_sums():
    # q = (b - 5)(p4 - s) + 5 (p2 - s)^2, which _prefix_bound rests on.
    uf = ulrich_functions
    for b in (-1000, 0, 3, 5, 8, 9):
        expected = (b - 5) * (uf._P4 - uf._S) + 5 * (uf._P2 - uf._S) * (uf._P2 - uf._S)
        assert uf._q_from_power_sums(uf._S, b, uf._P2, uf._P4) == expected, b


def _power_product(i, j, k, s):
    """Reference: p1^i * p2^j * p4^k multiplied out in s variables."""
    p1, p2, p4 = (monomial_sym((e,), s) for e in (1, 2, 4))
    return prod([p1] * i + [p2] * j + [p4] * k, start=MultiPoly.const(s, 1))


#: The ten power products p1^i p2^j p4^k of weight i + 2j + 4k <= 4.
POWER_PRODUCTS = [
    (i, j, k) for k in range(2) for j in range(3) for i in range(5) if i + 2 * j + 4 * k <= 4
]


def test_power_products_in_basis_hold_for_every_s():
    # The m-basis coefficients, taken once at s = 4, rebuild each product in 1..12 variables.
    assert len(POWER_PRODUCTS) == 10
    for powers in POWER_PRODUCTS:
        coeffs = ulrich_functions._in_basis(*powers)
        assert len(coeffs) == 12 and all(type(c) is int for c in coeffs)
        for s in range(1, 13):
            assert from_basis(coeffs, s) == _power_product(*powers, s), (powers, s)


def test_in_basis_refuses_a_non_integer_coefficient(monkeypatch):
    half = SymExpansion(4, (Fraction(1, 2),) + (0,) * 11)
    monkeypatch.setattr(ulrich_functions, "expand_direct", lambda poly: half)
    with pytest.raises(ArithmeticError, match="non-integer m-basis coefficient"):
        ulrich_functions._in_basis.__wrapped__(1, 0, 0)


def test_specialise_matches_multiplied_out_power_products():
    # Every ring form, specialised at s = 1..12, against the sum of its terms
    # c * s^a * p1^i p2^j p4^k with the power products multiplied out.
    uf = ulrich_functions
    forms = [uf._f_form(r, m) for r, m in SUPPORTED_PAIRS]
    forms += list(uf._noether_forms().values())
    forms += [uf._q_from_power_sums(uf._S, b, uf._P2, uf._P4) for b in (8, 9)]
    for s in range(1, 13):
        for form in forms:
            expected = MultiPoly.zero(s)
            for (a, i, j, k), c in form.terms():
                expected = expected + _power_product(i, j, k, s).scale(c * s**a)
            assert uf._specialise(form, s) == expected, s


def test_import_builds_no_power_sum_form():
    # The ring forms are built on first use, so importing the CLI pays nothing.
    code = (
        "import ulrichci.cli\n"
        "from ulrichci import ulrich_functions as uf\n"
        "print([n for n, f in vars(uf).items()"
        " if hasattr(f, 'cache_info') and f.cache_info().currsize])"
    )
    package_root = os.path.dirname(os.path.dirname(ulrich_functions.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# -- failing records ------------------------------------------------------------------


def _failing_records(monkeypatch):
    """Verifier records with builders perturbed inside the basis span, in a fixed order."""
    uf = ulrich_functions
    records = []

    def f_plus_all_vars(s, r, m):
        f = build_f(s, r, m)
        return f + MultiPoly.const(s, 1).times_all_vars() if (r, m) == (2, 0) and s >= 3 else f

    with monkeypatch.context() as mp:
        mp.setattr(uf, "build_f", f_plus_all_vars)
        records += verify_tf0(4, 2, 0) + verify_gl1(4) + verify_gl1(5) + verify_gl4(4)
    with monkeypatch.context() as mp:
        mp.setattr(uf, "build_f", lambda s, r, m: build_f(s, r, m) + 1)
        records += verify_tf1(3, 2, 0)
    with monkeypatch.context() as mp:
        g4 = lambda s: build_g4(s) + MultiPoly.const(s, 3).times_all_vars()  # noqa: E731
        mp.setitem(uf._DERIVED_BUILDERS, "g4", g4)
        mp.setattr(uf, "build_g4", g4)
        records += [c for s in range(1, 6) for c in verify_gl2(s)] + verify_gl4(5)
    with monkeypatch.context() as mp:
        mp.setattr(uf, "build_q", lambda s, b: build_q(s, b) + (1 if s == 4 else 0))
        records += verify_cg_induction(3, 8) + verify_cg_induction(4, 9)
    with monkeypatch.context() as mp:
        mp.setattr(
            symfunc,
            "monomial_sym",
            lambda lam, s: monomial_sym(lam, s) + (1 if tuple(lam) == (2, 2) else 0),
        )
        records += verify_tf2_table(4)
    with monkeypatch.context() as mp:
        mp.setattr(
            symfunc,
            "restriction_coefficients",
            lambda coeffs, s: tuple(c + 1 for c in restriction_coefficients(coeffs, s)),
        )
        records += verify_tf2bis(5)
    with monkeypatch.context() as mp:
        mp.setattr(
            symfunc,
            "expand_via_restriction",
            lambda G: SymExpansion(G.nvars, [c + 1 for c in expand_via_restriction(G).coeffs]),
        )
        records += verify_tf2bis(5)
    for b in (-100, 0, 1, 2):
        records += verify_cg_induction(3, b)
    return records


def test_failing_records_digest(monkeypatch):
    # Pins every failure path's witness byte for byte, as the passing
    # reports are pinned in test_cli.
    records = _failing_records(monkeypatch)
    failed = sorted({r.lemma for r in records if not r.ok})
    assert failed == [
        "cg/sos",
        "cg/step",
        "gl1(1)",
        "gl2(1)",
        "gl3",
        "gl4(1)",
        "tf0(2)",
        "tf1",
        "tf2(11)",
        "tf2(12)",
        "tf2(3)",
        "tf2(5)",
        "tf2(6)",
        "tf2(8)",
        "tf2-bis/expansion-agreement",
        "tf2-bis/rel-reconstruction",
    ]
    doc = json.dumps([r.to_dict() for r in records])
    assert hashlib.sha256(doc.encode()).hexdigest() == "1fb709e8167ce9a120a14876c0d39d04c719c5043e3d18d650bd82496af83025"


# -- positivity scan and induction ----------------------------------------------------------------


def test_scan_small_grid():
    report = verify_cg_scan(4, 4, workers=1)
    assert report.ok
    for cell in report.cells:
        assert cell.min_q is not None and cell.min_q > 0
    # all-ones excluded from every cell
    sizes = {(cell.b, cell.s): cell.tuples_checked for cell in report.cells}
    for (b, s), count in sizes.items():
        assert count == comb(4 + s - 1, s) - 1


def test_scan_records_keep_their_contracts():
    a, b = ScanCell(8, 2), ScanCell(b=8, s=2)
    assert a == b and a.ok and a.violations is not b.violations
    a.violations.append(((2, 1), -1))
    assert b.violations == [] and a != b and not a.ok
    assert b.to_dict() == {
        "b": 8, "s": 2, "tuples_checked": 0, "min_q": None, "min_tuple": None, "violations": []
    }
    report = ScanReport(2, 3, (8,), [b])
    assert report == ScanReport(s_max=2, d_max=3, b_values=(8,), cells=[ScanCell(8, 2)])
    assert report.ok and report.total_tuples == 0
    assert ScanCell.__hash__ is None and ScanReport.__hash__ is None


def test_scan_workers_do_not_change_report():
    grids = [
        {"s_max": 5, "d_max": 5},
        {"s_max": 5, "d_max": 6, "b_values": (0, 8)},
        {"s_max": 4, "d_max": 5, "b_values": (0, 9), "per_tuple": True},
    ]
    serial = [verify_cg_scan(**grid, workers=1) for grid in grids]
    for grid, seq in zip(grids, serial):
        for workers in (2, 3):
            par = verify_cg_scan(**grid, workers=workers)
            assert seq.to_dict() == par.to_dict(), (grid, workers)
    assert not serial[1].ok
    assert all(cell.per_tuple for cell in serial[2].cells)


def test_scan_uses_one_pool(monkeypatch):
    # The module imports the pool class on first read and keeps it.
    monkeypatch.delitem(vars(ulrich_functions), "ProcessPoolExecutor", raising=False)
    assert ulrich_functions.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor
    assert "ProcessPoolExecutor" in vars(ulrich_functions)
    entered = []

    class CountingPool(ulrich_functions.ProcessPoolExecutor):
        def __enter__(self):
            entered.append(self)
            return super().__enter__()

    monkeypatch.setattr(ulrich_functions, "ProcessPoolExecutor", CountingPool)
    # This grid is far within the serial budget; at 0 every task goes to the pool.
    monkeypatch.setattr(ulrich_functions, "_SERIAL_STEPS", 0)
    report = verify_cg_scan(4, 5, workers=2)
    assert len(report.cells) == 6
    assert len(entered) == 1
    verify_cg_scan(4, 5, workers=1)
    assert len(entered) == 1


def _serial_pool(monkeypatch) -> list:
    """Install a stub pool that maps serially, so no process starts; returns its sizes."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(ulrich_functions, "ProcessPoolExecutor", SerialPool)
    return sizes


@pytest.mark.parametrize("cpus, size", [(3, 3), (None, 1)])
def test_scan_pool_capped_at_cpu_count(monkeypatch, cpus, size):
    # cpus is the size of the process's CPU mask, which os.cpu_count() may
    # overstate; None stands for a platform without os.sched_getaffinity
    # whose os.cpu_count() is unknown.
    sizes = _serial_pool(monkeypatch)
    if cpus is None:
        monkeypatch.delattr(ulrich_functions.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(ulrich_functions.os, "cpu_count", lambda: None)
    else:
        mask = set(range(cpus))
        monkeypatch.setattr(
            ulrich_functions.os, "sched_getaffinity", lambda pid: mask, raising=False
        )
        monkeypatch.setattr(ulrich_functions.os, "cpu_count", lambda: 64)
    # This grid is far within the serial budget; at 0 every task goes to the pool.
    monkeypatch.setattr(ulrich_functions, "_SERIAL_STEPS", 0)
    report = verify_cg_scan(4, 5, workers=100_000)
    assert sizes == [size]
    assert report.to_dict() == verify_cg_scan(4, 5, workers=1).to_dict()
    verify_cg_scan(4, 5, workers=2)
    assert sizes == [size, min(2, size)]


def test_scan_budget_changes_no_report(monkeypatch):
    # The tasks before the budget runs out run in this process and the rest
    # in the pool: at 0 every task is pooled, at 1 all but the first, and at
    # 100 the grids below (3,749, 10,989 and 126 bound values) are split.
    # The grids are the scan digest "ties" grid of the CLI tests, one whose
    # cells omit violations, and one that lists every tuple.
    grids = [
        {"s_max": 11, "d_max": 4, "b_values": (-23, -10, -4, 3, 8)},
        {"s_max": 6, "d_max": 10, "b_values": (-1000,)},
        {"s_max": 4, "d_max": 5, "b_values": (0, 9), "per_tuple": True},
    ]
    serial = [verify_cg_scan(**grid, workers=1).to_dict() for grid in grids]
    default = ulrich_functions._SERIAL_STEPS
    monkeypatch.setattr(ulrich_functions, "_SERIAL_STEPS", 100)
    assert verify_cg_scan(**grids[1], workers=2).to_dict() == serial[1]  # a real pool
    sizes = _serial_pool(monkeypatch)
    for budget in (0, 1, 100, default):
        monkeypatch.setattr(ulrich_functions, "_SERIAL_STEPS", budget)
        sizes.clear()
        for grid, expected in zip(grids, serial):
            for workers in (2, 3):
                report = verify_cg_scan(**grid, workers=workers)
                assert report.to_dict() == expected, (budget, grid, workers)
        # Each of the six scans starts one pool, unless it fits the budget.
        assert len(sizes) == (0 if budget == default else 6), budget


def test_iter_degree_tuples_order():
    for s in (1, 2, 3, 5):
        for d_max in (1, 2, 4):
            expected = [
                tup
                for tup in combinations_with_replacement(range(d_max, 0, -1), s)
                if tup != (1,) * s
            ]
            assert list(_iter_degree_tuples(s, d_max)) == expected, (s, d_max)


def _q_value_fold(b, s, lead):
    """_scan_slice's result, folded from q_value over _iter_degree_tuples."""
    tuples = [tup for tup in _iter_degree_tuples(s, lead) if tup[0] == lead]
    values = [(tup, q_value(tup, b)) for tup in tuples]
    min_tuple, min_q = min(values, key=lambda pair: pair[1])  # first minimum
    violations = [(tup, q) for tup, q in values if q <= 0]
    return (
        len(values),
        min_q,
        min_tuple,
        violations[:1000],
        max(len(violations) - 1000, 0),
    )


def test_scan_slice_matches_q_value_fold(monkeypatch):
    # At b < 5 the bound takes the open entries at v, not at 1.  b = -4, -10
    # and -23 reach their minimum q at more than one tuple (b = -4 at
    # (2, 2, 1) and (2, 1, 1)), where the first one is the minimum tuple.
    b_values = (-1000, -23, -10, -4, -3, 0, 3, 4, 5, 8, 9)
    cases = [(b, s, lead) for s in range(2, 8) for lead in range(2, 7) for b in b_values]
    # Slices with more violations than a cell lists (5005 at s = 7, lead
    # 10), slices whose tuples hold long runs of equal entries, and s far
    # beyond the recursion limit: at b = 8 the walk clears (2, 2) at depth
    # 1, and at b = -1000 it walks every prefix down to depth 1100.
    cases += [(-1000, 6, 10), (-1000, 7, 10), (-3, 40, 4), (9, 40, 4)]
    cases += [(8, 1100, 2), (-1000, 1100, 2)]
    # Wide trees: s = 2 and 3 under a lead of 70 or 100, whose root has as many children.
    cases += [(9, 2, 100), (-1000, 3, 70), (8, 3, 100)]
    # The sixth field counts the walk's bound values, all but the ceiling.
    calls = _record_prefix_bounds(monkeypatch)
    for case in cases:
        calls.clear()
        *fields, steps = _scan_slice(case)
        assert tuple(fields) == _q_value_fold(*case), case
        assert steps == len(calls) - 1, case
    assert _scan_slice((-1000, 7, 10))[4] == 5005 - 1000


def test_prefix_bound_is_below_every_completion():
    # Every prefix of every task's tuples, with r open entries each at most
    # its last entry v: the bound is at most every completion's q, equal to
    # it where the prefix is one tuple, and the completions number
    # C(v + r - 1, r), which a cleared subtree adds to the count.
    for s in range(2, 9):
        for lead in range(2, 7):
            tuples = [tup for tup in _iter_degree_tuples(s, lead) if tup[0] == lead]
            for b in (-1000, -23, -4, 0, 3, 4, 5, 8, 9):
                qs = {tup: q_value(tup, b) for tup in tuples}
                for k in range(1, s + 1):
                    for prefix, group in groupby(tuples, key=lambda t: t[:k]):
                        group = [qs[tup] for tup in group]
                        r, v = s - k, prefix[-1]
                        m2, m4 = sum(d * d for d in prefix), sum(d**4 for d in prefix)
                        bound = _prefix_bound(s, b, m2, m4, r, v)
                        assert len(group) == comb(v + r - 1, r), (s, prefix)
                        assert bound <= min(group), (b, s, prefix)
                        assert len(group) > 1 or bound == group[0], (b, s, prefix)


def _record_prefix_bounds(monkeypatch) -> list:
    """Install a recording _prefix_bound; each call appends (r, v), in walk order."""
    calls = []
    prefix_bound = ulrich_functions._prefix_bound

    def recording(s, b, m2, m4, r, v):
        calls.append((r, v))
        return prefix_bound(s, b, m2, m4, r, v)

    monkeypatch.setattr(ulrich_functions, "_prefix_bound", recording)
    return calls


def test_prefix_bound_clears_the_largest_benchmark_task(monkeypatch):
    # The s = 12, lead = 10 task of the benchmark grid holds 167,960 tuples.
    # At b = 8 and 9 the bound is the q of the all-ones completion, so the
    # walk takes the ceiling, the root and the ten prefixes (10, v): every
    # one but (10, 1) is cleared, and (10, 1, ..., 1) is the minimum.
    calls = _record_prefix_bounds(monkeypatch)
    for b in (8, 9):
        calls.clear()
        count, min_q, min_tuple, violations, _, steps = _scan_slice((b, 12, 10))
        assert len(calls) <= 10 + 2, (b, calls)
        assert steps == len(calls) - 1, b
        assert count == comb(10 + 10, 11) and violations == []
        assert min_tuple == (10,) + (1,) * 11 and min_q == q_value(min_tuple, b)


def test_listed_cells_walk_like_any_other(monkeypatch):
    # Listing takes each tuple's q from q_value after the walk, so the walk
    # takes the same bound values with and without it: the 24 ceilings of
    # the 24 tasks and 126 steps.
    calls = _record_prefix_bounds(monkeypatch)
    verify_cg_scan(4, 5, (0, 9))
    unlisted = calls[:]
    calls.clear()
    report = verify_cg_scan(4, 5, (0, 9), per_tuple=True)
    assert calls == unlisted and len(calls) == 24 + 126
    assert all(cell.per_tuple for cell in report.cells)


def test_scan_task_memory_is_linear_in_lead():
    # A task holds a stack of at most s prefix entries and no table.  A table
    # of every row tail would hold lead^2 / 2 pairs: 2,000,000 at s = 2 here,
    # and 20,000 at s = 3.  The s = 12, lead = 10 tasks are the largest of
    # the benchmark grid.
    tracemalloc.start()
    try:
        _scan_slice((8, 2, 2000))
        _scan_slice((8, 3, 200))
        _scan_slice((8, 12, 10))
        _scan_slice((9, 12, 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_small_s_large_d_scan_is_quick():
    # Each s = 2 task walks its lead tuples and builds no more than that.
    start = time.perf_counter()
    report = verify_cg_scan(2, 1000, b_values=(8,))
    elapsed = time.perf_counter() - start
    assert report.ok
    assert report.total_tuples == check_scan_grid(2, 1000, (8,)) == 500_499
    assert elapsed < 5


def test_scan_grid_count_and_bound(monkeypatch):
    # Per b: C(s_max + d_max, s_max) - d_max - s_max tuples.
    for s_max, d_max in ((2, 2), (4, 5), (7, 3), (3, 9)):
        expected = sum(comb(s + d_max - 1, s) - 1 for s in range(2, s_max + 1))
        assert check_scan_grid(s_max, d_max, (8,)) == expected, (s_max, d_max)
    assert check_scan_grid(12, 10, (8, 9)) == 646_624
    # The bound counts every b and is inclusive.
    b_values = (0, 8, 9)
    total = verify_cg_scan(4, 5, b_values=b_values).total_tuples
    assert total == 3 * check_scan_grid(4, 5, b_values) == 3 * 117
    monkeypatch.setattr(ulrich_functions, "MAX_SCAN_TUPLES", total)
    assert verify_cg_scan(4, 5, b_values=b_values).total_tuples == total
    monkeypatch.setattr(ulrich_functions, "MAX_SCAN_TUPLES", total - 1)
    with pytest.raises(ValueError, match=r"more than 350 tuples \(MAX_SCAN_TUPLES\)"):
        verify_cg_scan(4, 5, b_values=b_values)
    monkeypatch.undo()
    # A huge grid is refused after a few steps of the running product.
    for s_max, d_max in ((2, 10**8), (10**8, 2), (10**100, 10**100)):
        with pytest.raises(ValueError, match="MAX_SCAN_TUPLES"):
            check_scan_grid(s_max, d_max, (8,))


def test_scan_caps_violations():
    reports = [verify_cg_scan(6, 10, b_values=(-1000,), workers=w) for w in (1, 2)]
    assert reports[0].to_dict() == reports[1].to_dict()
    cells = {cell.s: cell for cell in reports[0].cells}
    cell = cells[6]
    assert cell.tuples_checked == comb(15, 6) - 1 == 5004
    assert cell.violations_omitted == 4004
    assert [t for t, _ in cell.violations] == list(islice(_iter_degree_tuples(6, 10), 1000))
    assert cell.to_dict()["violations_omitted"] == 4004
    # Cells under the cap keep every violation and carry no omitted count.
    assert len(cells[4].violations) == 714
    assert "violations_omitted" not in cells[4].to_dict()


def test_scan_per_tuple_listing():
    report = verify_cg_scan(2, 3, b_values=(8,), per_tuple=True)
    cell = report.cells[0]
    assert cell.per_tuple is not None
    assert len(cell.per_tuple) == cell.tuples_checked
    assert all(q > 0 for _, q in cell.per_tuple)


def test_scan_s2_positive_up_to_six():
    report = verify_cg_scan(2, 6)
    assert report.ok


def test_scan_rejects_bad_ranges():
    with pytest.raises(ValueError):
        verify_cg_scan(1, 6)
    with pytest.raises(ValueError):
        verify_cg_scan(3, 2, b_values=())
    # A repeated b would scan and report each of its cells twice.
    with pytest.raises(ValueError, match="b value 8 is repeated"):
        verify_cg_scan(3, 3, (8, 8))
    with pytest.raises(ValueError, match="b value 9 is repeated"):
        check_scan_grid(3, 3, (9, 8, 0, 9))


@pytest.mark.parametrize("s", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("b", [8, 9])
def test_cg_induction(s, b):
    results = verify_cg_induction(s, b)
    assert all(r.ok for r in results), [r.to_dict() for r in results if not r.ok]


def test_cg_threshold_is_sharp():
    # q_{s,b} > 0 at every tuple with product >= 2 exactly when b >= 3.
    report = verify_cg_scan(2, 2, b_values=(2,))
    assert not report.ok
    assert report.cells[0].violations == [((2, 1), 0)]
    report = verify_cg_scan(8, 8, b_values=(3,))
    assert report.ok
    assert min(cell.min_q for cell in report.cells) == q_value((2, 1), 3) == 15


@pytest.mark.parametrize("s", range(2, 12))
def test_cg_induction_proves_positivity_from_b_3(s):
    results = verify_cg_induction(s, 3)
    assert [r.lemma for r in results] == ["gl3", "cg/r_b(1)=0", "cg/step", "cg/sos"]
    assert all(r.ok for r in results), [r.to_dict() for r in results if not r.ok]
    below = verify_cg_induction(s, 2)
    assert [r.ok for r in below] == [True, True, False, False]
    assert [r.witness for r in below[2:]] == [{"least_b": 3}] * 2


def test_all_ones_step_value():
    # r_b(2) with all-ones data: b*16 - 40 - b + 10 = 90 at b = 8.
    assert q_value((2, 1), 8) - q_value((1,), 8) == 90


def test_rank3_positive_witness():
    assert q_value((2, 1, 1, 1, 1), 9) > 0
