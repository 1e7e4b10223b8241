"""Tests for complete-intersection invariants and the certifier."""

import os
import pickle
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb
from pathlib import Path

import pytest

from ulrichci import __version__
from ulrichci.ci_invariants import (
    EXCLUDED,
    NON_EXISTENCE,
    CIConfig,
    Certificate,
    ParityError,
    c2X_coeff,
    c2_E_coeff,
    canonical_coeff,
    certify,
    chi_E,
    chi_OX,
    chi_OZ,
    deg_Z,
    deg_Z_chern,
    det_twist,
    euler_table,
    hyper3_dimension_check,
    hypersurface_hilb,
    hypersurface_hilbert_function,
    hypersurface_resolution,
    parity_obstruction,
    proj_h0,
    surface_data,
)
from ulrichci.exact_arith import binom_int
from ulrichci.ulrich_functions import (
    GL4_CONSTANTS,
    build_chi_prime,
    build_f,
    build_g4,
    build_h,
    q_value,
)

QUADRIC = CIConfig(4, (2,), 2)


# -- configuration -----------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        CIConfig(1, (2,), 2)
    with pytest.raises(ValueError):
        CIConfig(4, (), 2)
    with pytest.raises(ValueError):
        CIConfig(4, (1,), 2)  # degree of X must be >= 2
    with pytest.raises(ValueError):
        CIConfig(4, (2,), 1)


def test_config_refuses_non_integers():
    for args in ((4.0, (3,), 2), (4, (3.0,), 2), (4, (3,), 2.0), (4, ("3",), 2)):
        with pytest.raises(TypeError):
            CIConfig(*args)


def test_records_are_frozen_values():
    cfg = CIConfig(4, [3, 2], 2)
    assert cfg.degrees == (3, 2) and cfg != CIConfig(4, (3, 2), 3)
    equal_pairs = [
        (cfg, CIConfig(n=4, degrees=(3, 2), r=2)),
        (surface_data(QUADRIC), surface_data(CIConfig(4, (2,), 2))),
        (hypersurface_resolution(3, 6), hypersurface_resolution(3, 6)),
        (hyper3_dimension_check(4, 3), hyper3_dimension_check(4, 3)),
    ]
    for a, b in equal_pairs:
        assert a is not b and a == b and hash(a) == hash(b)
        assert pickle.loads(pickle.dumps(a)) == a
    assert hypersurface_resolution(3, 6) != hypersurface_resolution(3, 7)
    cert = certify(5, (3, 2), 3)
    assert cert == certify(5, (2, 3), 3) != certify(5, (3, 2), 2)
    bare = Certificate({"n": 4}, "v", "why", {}, [])
    assert bare.tool_version == __version__
    assert bare == Certificate(input={"n": 4}, verdict="v", reason="why", witnesses={}, hypotheses=[])
    frozen = [
        (cfg, "r"),
        (equal_pairs[1][0], "chi_hilbert"),
        (equal_pairs[2][0], "socle_degree"),
        (equal_pairs[3][0], "lhs"),
        (cert, "verdict"),
    ]
    for record, name in frozen:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)


def test_derived_quantities():
    cfg = CIConfig(4, (3, 2, 2), 2)
    assert cfg.s == 3 and cfg.S == 7 and cfg.S2 == 16 and cfg.d == 12
    assert cfg.i_X == 4 + 3 + 1 - 7


def test_padding_preserves_key_differences():
    cfg = CIConfig(4, (3, 2), 2)
    padded = cfg.padded(5)
    assert padded.degrees == (3, 2, 1, 1, 1)
    assert padded.d == cfg.d
    assert padded.S - padded.s == cfg.S - cfg.s


# -- canonical class and second Chern class -------------------------------------------


def test_canonical_coeff_examples():
    assert canonical_coeff(QUADRIC) == -4
    assert canonical_coeff(CIConfig(4, (2, 2), 2)) == -3
    cfg = CIConfig(4, (3, 2), 2)
    assert canonical_coeff(cfg.padded(6)) == canonical_coeff(cfg)


def test_c2X_examples():
    assert c2X_coeff(QUADRIC) == 7
    assert c2X_coeff(CIConfig(4, (2, 2), 2)) == 5


# -- determinant twist and parity --------------------------------------------------------


def test_parity_examples():
    # rank 3 on a quartic hypersurface: u = 9/2
    quartic = CIConfig(4, (4,), 3)
    assert det_twist(quartic) == Fraction(9, 2)
    assert parity_obstruction(quartic)
    # rank 2 never obstructed
    for degs in [(2,), (3,), (2, 2), (5, 4, 3)]:
        assert not parity_obstruction(CIConfig(4, degs, 2))
    # rank 3 on type (2,2): u = 3
    c22 = CIConfig(4, (2, 2), 3)
    assert det_twist(c22) == 3 and not parity_obstruction(c22)


# -- degree of the Ulrich subvariety ---------------------------------------------------------


def test_deg_Z_hypersurface_closed_form():
    for d in range(2, 11):
        cfg = CIConfig(4, (d,), 2)
        assert deg_Z(cfg) == Fraction(d * (2 * d - 1) * (d - 1), 6)
    assert deg_Z(QUADRIC) == 1
    assert deg_Z(CIConfig(4, (3,), 2)) == 5


def test_deg_Z_two_routes_agree():
    for n in (4, 5, 6, 7):
        for degs in [(2,), (4,), (2, 2), (3, 2), (2, 2, 2), (4, 3, 2), (3, 3, 3, 2)]:
            for r in (2, 3):
                cfg = CIConfig(n, degs, r)
                assert deg_Z(cfg) == deg_Z_chern(cfg), (n, degs, r)


# -- Euler characteristics ---------------------------------------------------------------------


def test_chi_OX_structure_sheaf():
    assert chi_OX(QUADRIC, 0) == 1
    for degs in [(3,), (2, 2), (3, 2, 2)]:
        assert chi_OX(CIConfig(5, degs, 2), 0) == 1


@pytest.mark.parametrize(
    "compute",
    [
        lambda: chi_OX(QUADRIC, 0),
        lambda: chi_OZ(QUADRIC, 0),
        lambda: hypersurface_hilb(4, 2, 0),
        lambda: euler_table(QUADRIC, 0, 0),
    ],
    ids=["chi_OX", "chi_OZ", "hypersurface_hilb", "euler_table-ratio-step"],
)
def test_integrality_check_raises(monkeypatch, compute):
    # An explicit raise, so the check survives python -O.
    import ulrichci.ci_invariants as ci

    monkeypatch.setattr(ci, "binom_int", lambda ell, m: Fraction(ell, 7))
    with pytest.raises(ArithmeticError):
        compute()


def test_integrality_check_raises_under_python_O():
    # python -O strips assert statements; the checks above must not be asserts.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable,
            "-O",
            "-m",
            "pytest",
            "-q",
            "-p",
            "no:cacheprovider",
            "-p",
            "no:hypothesispytest",
            f"{__file__}::test_integrality_check_raises",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "4 passed" in proc.stdout


def test_chi_E_examples():
    for p in range(1, 5):
        assert chi_E(QUADRIC, -p) == 0
    assert chi_E(QUADRIC, 0) == 4


def test_chi_OZ_matches_euler_polynomial():
    cfg = CIConfig(4, (2, 2, 2), 2)
    for m in range(-2, 4):
        assert chi_OZ(cfg, m) == build_f(3, 2, m).eval((2, 2, 2))


def test_chi_OZ_parity_error():
    with pytest.raises(ParityError):
        chi_OZ(CIConfig(4, (4,), 3), 0)


def _chi_OX_by_subsets(cfg, m):
    """chi(O_X(m)) summed over all 2^s subsets J of the degrees."""
    N = cfg.n + cfg.s
    return sum(
        (-1) ** k * binom_int(m - sum(J) + N, N)
        for k in range(cfg.s + 1)
        for J in combinations(cfg.degrees, k)
    )


def _chi_OZ_by_subsets(cfg, m):
    """chi(O_Z(m)) with its sum over the 2^s - 1 non-empty subsets written out."""
    n, s, r, u = cfg.n, cfg.s, cfg.r, int(det_twist(cfg))
    N = n + s
    total = binom_int(m + N, N)
    total += (-1) ** (n + 1) * r * cfg.d * binom_int(u - m - 1, n)
    total += (-1) ** (n + s) * (r - 1) * binom_int(u - m - 1, N)
    for k in range(1, s + 1):
        for J in combinations(cfg.degrees, k):
            t = sum(J)
            total += (-1) ** (k + n + s) * (
                binom_int(t - m - 1, N) + (r - 1) * binom_int(t + u - m - 1, N)
            )
    return total


def test_euler_characteristics_match_subset_enumeration():
    for n in (2, 5):
        for s in range(1, 6):
            for degs in combinations_with_replacement(range(4, 0, -1), s):
                if degs[0] < 2:
                    continue
                for r in (2, 3):
                    cfg = CIConfig(n, degs, r)
                    for m in range(-5, 6):
                        assert chi_OX(cfg, m) == _chi_OX_by_subsets(cfg, m), (cfg, m)
                        if not parity_obstruction(cfg):
                            assert chi_OZ(cfg, m) == _chi_OZ_by_subsets(cfg, m), (cfg, m)


def _reference_rows(cfg, m_low, m_high):
    obstructed = parity_obstruction(cfg)
    return [
        {
            "m": m,
            "chi_OX": chi_OX(cfg, m),
            "chi_OZ": None if obstructed else chi_OZ(cfg, m),
            "chi_E": chi_E(cfg, m),
        }
        for m in range(m_low, m_high + 1)
    ]


def _differences(values, order):
    for _ in range(order):
        values = [b - a for a, b in zip(values, values[1:])]
    return values


def test_euler_table_matches_per_twist_values():
    # Degree-1 entries and parity-obstructed ranks included.  Every column is
    # a polynomial in m of degree at most n, and so is its reference, so
    # agreement at the n + 1 twists 0..n and vanishing (n+1)-th differences
    # over -30..30 give agreement at every twist of the range.
    for n in range(2, 9):
        for s in range(1, 6):
            for degs in combinations_with_replacement(range(6, 0, -1), s):
                if degs[0] < 2:
                    continue
                for r in (2, 3, 4):
                    cfg = CIConfig(n, degs, r)
                    table = euler_table(cfg, -30, 30)
                    assert [row["m"] for row in table] == list(range(-30, 31))
                    assert table[30 : 31 + n] == _reference_rows(cfg, 0, n), cfg
                    for key in ("chi_OX", "chi_OZ", "chi_E"):
                        column = [row[key] for row in table]
                        if column[0] is not None:
                            assert not any(_differences(column, n + 1)), (cfg, key)


def test_euler_table_matches_per_twist_values_at_every_twist():
    for n in (2, 5, 8):
        for degs in [(2,), (6,), (3, 1), (2, 2, 1), (5, 4, 3), (6, 6, 1, 1), (4, 3, 3, 2, 2)]:
            for r in (2, 3, 4):
                cfg = CIConfig(n, degs, r)
                table = euler_table(cfg, -30, 30)
                assert table == _reference_rows(cfg, -30, 30), cfg
                for m in (-30, -n - 1, -1, 0, 1, n, 30):
                    assert euler_table(cfg, m, m) == table[m + 30 : m + 31], (cfg, m)


def test_euler_table_matches_subset_enumeration():
    for n in (2, 3, 6):
        for degs in [(2,), (3, 1), (2, 2, 1), (4, 3, 2), (6, 5, 1, 1), (3, 3, 2, 2, 1)]:
            for r in (2, 3, 4):
                cfg = CIConfig(n, degs, r)
                for row in euler_table(cfg, -12, 12):
                    m = row["m"]
                    assert row["chi_OX"] == _chi_OX_by_subsets(cfg, m), (cfg, m)
                    if row["chi_OZ"] is not None:
                        assert row["chi_OZ"] == _chi_OZ_by_subsets(cfg, m), (cfg, m)


def test_euler_table_at_large_dimension():
    cfg = CIConfig(1000, (3, 4), 2)
    table = euler_table(cfg, 0, 1000)
    for m in (0, 1, 500, 1000):
        assert table[m] == _reference_rows(cfg, m, m)[0], m


def test_euler_table_huge_degree_builds_no_long_column(monkeypatch):
    # A degree wider than the table is summed as a shifted list, not d entries.
    import ulrichci.ci_invariants as ci

    binomials = ci._binomials
    lengths = []

    def short_binomials(k, low, high):
        lengths.append(high - low + 1)
        assert high - low < 100, "a column as long as a degree"
        return binomials(k, low, high)

    monkeypatch.setattr(ci, "_binomials", short_binomials)
    cfg = CIConfig(4, (10**12, 10**12 + 1, 3), 2)
    assert euler_table(cfg, -2, 6) == _reference_rows(cfg, -2, 6)
    assert lengths


def test_euler_table_refuses_an_empty_range():
    with pytest.raises(ValueError, match="empty twist range"):
        euler_table(QUADRIC, 1, 0)


def test_euler_characteristics_polynomial_in_s(monkeypatch):
    # 20 degrees equal to 2 have 21 subset sums, against 2^20 subsets.
    import ulrichci.ci_invariants as ci

    calls = []

    def counting_binom(ell, m):
        calls.append((ell, m))
        return binom_int(ell, m)

    monkeypatch.setattr(ci, "binom_int", counting_binom)
    cfg = CIConfig(4, (2,) * 20, 2)
    chi_OX(cfg, 1)
    assert len(calls) == 21
    calls.clear()
    chi_OZ(cfg, 1)
    assert len(calls) == 3 + 2 * 20


def test_theorem_consistency_identity():
    # (-1)^(n-1) chi(J_{Z/X}(u - p)) = (r - 1) chi(K_X + p), p = 1..n
    configs = [
        QUADRIC,
        CIConfig(4, (2, 2), 2),
        CIConfig(4, (2, 2), 3),
        CIConfig(5, (3, 2), 2),
        CIConfig(6, (3, 3), 3),
        CIConfig(4, (3, 2, 2), 2),
    ]
    for cfg in configs:
        u = det_twist(cfg)
        assert u.denominator == 1
        u = int(u)
        k = canonical_coeff(cfg)
        for p in range(1, cfg.n + 1):
            lhs = (-1) ** (cfg.n - 1) * (chi_OX(cfg, u - p) - chi_OZ(cfg, u - p))
            rhs = (cfg.r - 1) * chi_OX(cfg, k + p)
            assert lhs == rhs, (cfg, p)


def test_chi_E_sequence_rearrangement():
    cfg = CIConfig(4, (3, 2), 2)
    u = int(det_twist(cfg))
    for m in range(-2, 4):
        assert chi_E(cfg, m - u) == (cfg.r - 1) * chi_OX(cfg, m - u) + (
            chi_OX(cfg, m) - chi_OZ(cfg, m)
        )


# -- second Chern coefficient of the bundle ----------------------------------------------------------


def test_e_examples():
    e, integral = c2_E_coeff(QUADRIC)
    assert e == Fraction(1, 2) and not integral
    e, integral = c2_E_coeff(CIConfig(4, (3,), 2))
    assert e == Fraction(5, 3) and not integral
    e, integral = c2_E_coeff(CIConfig(4, (2, 2), 3))
    assert e == Fraction(15, 4) and not integral
    e, integral = c2_E_coeff(CIConfig(4, (2, 2, 2), 2))
    assert integral and e == deg_Z(CIConfig(4, (2, 2, 2), 2)) / 8


# -- surface data ------------------------------------------------------------------------------------


def test_rank2_surface_data_quadric():
    data = surface_data(QUADRIC)
    assert data.chi_hilbert == 1
    assert data.chi_noether == build_g4(4).eval((2, 1, 1, 1))
    assert data.mismatch == Fraction(1, 24)


def test_rank2_surface_data_type22():
    data = surface_data(CIConfig(4, (2, 2), 2))
    q = q_value((2, 2, 1, 1), 8)
    assert q > 0
    assert data.mismatch == Fraction(4 * q, 4320)


def test_rank2_mismatch_positive_on_grid():
    """Both ranks: the Noether and Hilbert routes differ by d*q/denominator (gl4).

    Degrees 2..6, at most 4 of them, padded to 4: the 190 configurations
    without a parity obstruction.  chi_noether also matches the ring form
    built for gl4 (build_g4 or build_chi_prime) at the padded tuple.
    """
    noether_forms = {2: build_g4(4), 3: build_chi_prime(4)}
    checked = 0
    for length in range(1, 5):
        for degs in combinations_with_replacement(range(6, 1, -1), length):
            for r in (2, 3):
                cfg = CIConfig(4, degs, r)
                if parity_obstruction(cfg):
                    continue
                data = surface_data(cfg)
                padded = cfg.padded(4)
                b, denom = GL4_CONSTANTS[r]
                assert data.mismatch == Fraction(padded.d * q_value(padded.degrees, b), denom)
                assert data.mismatch > 0
                assert data.chi_noether == noether_forms[r].eval(padded.degrees)
                checked += 1
    assert checked == 190


def test_surface_data_requires_n4_and_rank_2_or_3():
    for cfg in (CIConfig(5, (2,), 2), CIConfig(5, (3,), 3), CIConfig(4, (3,), 4)):
        with pytest.raises(ValueError, match="n = 4 and r in"):
            surface_data(cfg)


def test_rank3_surface_data():
    cfg = CIConfig(4, (2, 2), 3)
    data = surface_data(cfg)
    assert data.kz_h == build_h(4).eval((2, 2, 1, 1))
    assert data.mismatch == Fraction(4 * q_value((2, 2, 1, 1), 9), 3840)
    assert data.mismatch > 0


def test_rank3_surface_data_padded_cubic():
    data = surface_data(CIConfig(4, (3,), 3))
    assert data.mismatch == Fraction(3 * q_value((3, 1, 1, 1), 9), 3840)
    assert data.mismatch > 0


def test_rank3_surface_data_parity():
    with pytest.raises(ParityError):
        surface_data(CIConfig(4, (2, 2, 2), 3))


# -- certifier ----------------------------------------------------------------------------------------


def test_certify_quadric_exception():
    cert = certify(4, (2,), 2)
    assert cert.verdict == EXCLUDED and cert.reason == "quadric exception"


def test_certify_type22_exception():
    for r in (2, 3):
        cert = certify(4, (2, 2), r)
        assert cert.verdict == EXCLUDED and cert.reason == "type-(2,2) exception"


def test_certify_quadric_rank3_parity():
    cert = certify(4, (2,), 3)
    assert cert.verdict == NON_EXISTENCE and cert.reason == "parity obstruction"


def test_certify_rank1():
    cert = certify(4, (3,), 1)
    assert cert.verdict == NON_EXISTENCE and cert.reason == "line bundle"


def test_certify_high_dimension_quadric_witness():
    for n in (5, 6, 7, 8):
        cert = certify(n, (2,), 2)
        assert cert.verdict == NON_EXISTENCE
        assert cert.witnesses["d_times_q"] == 180
        assert cert.hypotheses == []  # unconditional above dimension 4


def test_certify_raises_where_d_times_q_is_not_positive(monkeypatch):
    # cg/sos proves d*q > 0 on admissible input, so d*q <= 0 is a defect, not a verdict.
    import ulrichci.ci_invariants as ci

    monkeypatch.setattr(ci, "q_value", lambda degrees, b: 0)
    with pytest.raises(ArithmeticError, match=r"expected d\*q > 0 \(cg/sos\), got 0"):
        certify(4, (3, 2), 2)


def test_certify_n4_carries_genericity_hypothesis():
    cert = certify(4, (3, 2), 2)
    assert cert.verdict == NON_EXISTENCE
    assert cert.hypotheses == ["X is very general"]


def test_certify_padding_invariance():
    cert = certify(5, (2,), 2)
    assert cert.verdict == NON_EXISTENCE
    cfg = CIConfig(4, (2,), 2)
    a, b = cfg.padded(4), cfg.padded(6)
    assert a.degrees != b.degrees
    # the obstruction value itself is padding-invariant: padding by a degree-1
    # entry adds r_b(1) = 0 to q
    assert a.d * q_value(a.degrees, 8) == b.d * q_value(b.degrees, 8)
    assert cert.witnesses["d_times_q"] == a.d * q_value(a.degrees, 8)


def test_certify_rejects_bad_input():
    with pytest.raises(ValueError):
        certify(3, (2,), 2)
    with pytest.raises(ValueError):
        certify(4, (2, 1), 2)
    with pytest.raises(ValueError):
        certify(4, (2,), 4)
    with pytest.raises(ValueError):
        certify(4, (), 2)


def test_certify_refuses_a_float_degree():
    # int() would truncate 3.7 and certify the degrees (3, 2).
    with pytest.raises(TypeError):
        certify(4, (3.7, 2), 2)


def test_certify_refuses_a_float_dimension():
    # A float n would otherwise reach the certificate's input as 4.5.
    with pytest.raises(TypeError):
        certify(4.5, (3,), 2)


def test_certify_grid_non_existence():
    for n in (4, 5, 6):
        for length in (1, 2, 3):
            for degs in combinations_with_replacement((4, 3, 2), length):
                for r in (2, 3):
                    canonical = tuple(sorted(degs, reverse=True))
                    cert = certify(n, degs, r)
                    if n == 4 and canonical == (2,) and r == 2:
                        assert cert.verdict == EXCLUDED
                    elif n == 4 and canonical == (2, 2):
                        assert cert.verdict == EXCLUDED
                    else:
                        assert cert.verdict == NON_EXISTENCE, (n, degs, r)
                        if cert.reason == "q-positivity":
                            assert cert.witnesses["d_times_q"] > 0


def test_certificate_serialization_shape():
    doc = certify(5, (3, 2), 3).to_dict()
    assert list(doc.keys()) == [
        "input",
        "verdict",
        "reason",
        "witnesses",
        "hypotheses",
        "tool_version",
    ]


# -- hypersurface arithmetic -----------------------------------------------------------------------------


def test_proj_h0_truncation():
    assert proj_h0(3, 2) == comb(5, 3)
    assert proj_h0(3, -1) == 0
    # chi can be positive at very negative twists on even-dimensional spaces;
    # the section count is still zero there
    assert proj_h0(2, -5) == 0


def test_hilbert_polynomial_second_difference():
    for d in range(2, 11):
        expected = Fraction(d * (2 * d - 1) * (d - 1), 6)
        for m in (3 * d, 5 * d):
            second = (
                hypersurface_hilb(4, d, m + 2)
                - 2 * hypersurface_hilb(4, d, m + 1)
                + hypersurface_hilb(4, d, m)
            )
            assert second == expected == deg_Z(CIConfig(4, (d,), 2))


def test_hilbert_function_at_generator_degree():
    for n in (2, 3, 4):
        for d in range(2, 11):
            assert hypersurface_hilbert_function(n, d, d - 1) == comb(d + n, n + 1) - (
                2 * d - 1
            )


def test_resolution_record():
    res = hypersurface_resolution(3, 6)
    assert res.generator_degree == 5 and res.generator_count == 11
    assert res.syzygy_degree == 6 and res.syzygy_count == 11
    assert res.socle_degree == 11
    assert res.h0_ideal_at_generator_degree == 11
    assert res.h0_normal_bundle == 154


def test_resolution_normal_bundle_closed_form():
    for n in (2, 3, 4):
        for d in range(2, 11):
            res = hypersurface_resolution(n, d)
            assert res.h0_ideal_at_generator_degree == 2 * d - 1
            assert res.h0_normal_bundle == (2 * d - 1) * (
                (n + 2) * (d - 1) - 2 * d + 1
            )


def test_dimension_check_examples():
    check = hyper3_dimension_check(4, 3)
    assert (check.lhs, check.rhs, check.contradiction) == (60, 59, True)
    check = hyper3_dimension_check(4, 2)
    assert (check.lhs, check.rhs, check.contradiction) == (23, 23, False)
    check = hyper3_dimension_check(3, 6)
    assert (check.lhs, check.rhs, check.contradiction) == (220, 197, True)


def test_dimension_check_thresholds():
    assert all(hyper3_dimension_check(3, d).contradiction for d in range(6, 15))
    assert not any(hyper3_dimension_check(3, d).contradiction for d in range(2, 6))
    assert all(hyper3_dimension_check(4, d).contradiction for d in range(3, 15))
    assert not hyper3_dimension_check(4, 2).contradiction
    # the surface case crosses over at d = 16
    assert not hyper3_dimension_check(2, 15).contradiction
    assert hyper3_dimension_check(2, 16).contradiction


def test_dimension_check_domain():
    with pytest.raises(ValueError):
        hyper3_dimension_check(5, 3)
    with pytest.raises(ValueError):
        hyper3_dimension_check(3, 1)
