"""Tests for the Euler-polynomial builders and the identity verifiers.

The builders read chi(O_X(m)) off the Hirzebruch-Riemann-Roch series in the
power sums; the reference implementations here compose the defining
inclusion-exclusion binomial sums directly through binom_poly, term by term,
so the two paths are fully independent.
"""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, islice
from math import comb

import pytest

from ulrichci import symfunc, ulrich_functions
from ulrichci.exact_arith import binom_int, binom_poly
from ulrichci.polyring import MultiPoly, NotDivisible
from ulrichci.symfunc import (
    SymExpansion,
    expand_direct,
    expand_via_restriction,
    monomial_sym,
    restriction_coefficients,
    verify_tf2_table,
    verify_tf2bis,
)
from ulrichci.ulrich_functions import (
    GL4_CONSTANTS,
    SUPPORTED_PAIRS,
    _iter_degree_tuples,
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
        records += verify_tf2bis(5, samples=3)
    with monkeypatch.context() as mp:
        mp.setattr(
            symfunc,
            "expand_via_restriction",
            lambda G: SymExpansion(G.nvars, [c + 1 for c in expand_via_restriction(G).coeffs]),
        )
        records += verify_tf2bis(5, samples=3)
    for b in (-100, 0, 1, 2):
        records += verify_cg_induction(3, b)
    return records


def test_failing_records_digest(monkeypatch):
    # Pins every failure path's witness byte for byte, as the passing
    # reports are pinned in test_cli.
    records = _failing_records(monkeypatch)
    failed = sorted({r.lemma for r in records if not r.ok})
    assert failed == [
        "cg/all-ones-step",
        "cg/derivative",
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
    assert hashlib.sha256(doc.encode()).hexdigest() == "831f73852f2f140aa74dd089f92735287ef6dab83f7a0f7207b40de09512ca70"


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
    entered = []

    class CountingPool(ulrich_functions.ProcessPoolExecutor):
        def __enter__(self):
            entered.append(self)
            return super().__enter__()

    monkeypatch.setattr(ulrich_functions, "ProcessPoolExecutor", CountingPool)
    report = verify_cg_scan(4, 5, workers=2)
    assert len(report.cells) == 6
    assert len(entered) == 1
    verify_cg_scan(4, 5, workers=1)
    assert len(entered) == 1


@pytest.mark.parametrize("cpus, size", [(3, 3), (None, 1)])
def test_scan_pool_capped_at_cpu_count(monkeypatch, cpus, size):
    # A stub pool that maps serially: the test starts no process.
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
    monkeypatch.setattr(ulrich_functions.os, "cpu_count", lambda: cpus)
    report = verify_cg_scan(4, 5, workers=100_000)
    assert sizes == [size]
    assert report.to_dict() == verify_cg_scan(4, 5, workers=1).to_dict()
    verify_cg_scan(4, 5, workers=2)
    assert sizes == [size, min(2, size)]


def test_iter_degree_tuples_order():
    for s in (1, 2, 3, 5):
        for d_max in (1, 2, 4):
            expected = [
                tup
                for tup in combinations_with_replacement(range(d_max, 0, -1), s)
                if tup != (1,) * s
            ]
            assert list(_iter_degree_tuples(s, d_max)) == expected, (s, d_max)


def _q_value_fold(b, s, lead, keep_values):
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
        values if keep_values else None,
    )


def test_scan_slice_matches_q_value_fold():
    tasks = [
        (b, s, lead, keep_values)
        for s in range(2, 8)
        for lead in range(2, 7)
        for b in (-1000, -3, 0, 5, 8, 9)
        for keep_values in (False, True)
    ]
    # A slice with more violations than a cell lists, slices whose tuples
    # hold long runs of equal entries, and s far beyond the recursion limit
    # (the walk must be iterative).
    tasks += [(-1000, 6, 10, False), (-3, 40, 4, True), (9, 40, 4, True)]
    tasks += [(8, 1100, 2, False)]
    for task in tasks:
        assert _scan_slice(task) == _q_value_fold(*task), task


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


@pytest.mark.parametrize("s", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("b", [8, 9])
def test_cg_induction(s, b):
    results = verify_cg_induction(s, b)
    assert all(r.ok for r in results), [r.to_dict() for r in results if not r.ok]


def test_all_ones_step_value():
    # r_b(2) with all-ones data: b*16 - 40 - b + 10 = 90 at b = 8.
    assert 8 * 2**4 - 10 * 2**2 - 8 + 10 == 90


def test_rank3_positive_witness():
    assert q_value((2, 1, 1, 1, 1), 9) > 0
