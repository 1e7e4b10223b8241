"""Tests for monomial symmetric polynomials and the two expansion algorithms."""

import pickle
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import comb, factorial, perm, prod

import pytest

from ulrichci import symfunc
from ulrichci.polyring import MAX_EXP, MultiPoly
from ulrichci.symfunc import (
    BASIS,
    NotSymmetric,
    Partition,
    SymExpansion,
    _restriction_map,
    expand_direct,
    expand_via_restriction,
    from_basis,
    monomial_sym,
    restriction_coefficients,
    substitution_identities,
    verify_tf2_table,
    verify_tf2bis,
)


def coeffs(**named):
    """Expansion coefficient vector with named nonzero entries (1-based)."""
    out = [Fraction(0)] * 12
    for key, value in named.items():
        out[int(key[1:]) - 1] = Fraction(value)
    return tuple(out)


# -- partitions -----------------------------------------------------------------


def test_partition_validation():
    Partition((3, 1, 1))
    Partition(())
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((0,))


def test_partition_and_expansion_are_frozen_values():
    assert Partition([3, 1, 1]).parts == (3, 1, 1) and Partition().parts == ()
    assert Partition((2, 1)) == Partition([2, 1]) != Partition((2, 2))
    assert hash(Partition((2, 1))) == hash(Partition([2, 1]))
    a = SymExpansion(4, (1,) * 12)
    b = SymExpansion(s=4, coeffs=[Fraction(1)] * 12)
    assert a.coeffs == (Fraction(1),) * 12 and type(a.coeffs[0]) is Fraction
    assert a == b and hash(a) == hash(b) and a != SymExpansion(5, (1,) * 12)
    assert pickle.loads(pickle.dumps(a)) == a
    for record, name in ((Partition((1,)), "parts"), (a, "coeffs"), (a, "s")):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)


# -- monomial symmetric polynomials -----------------------------------------------


def test_monomial_sym_enforces_max_vars():
    with pytest.raises(ValueError, match="nvars=16 exceeds MAX_VARS=12"):
        monomial_sym((2, 1, 1), 16)


def test_power_sum_three_vars():
    expected = sum(
        (MultiPoly.variable(3, i) * MultiPoly.variable(3, i) for i in range(3)),
        MultiPoly.zero(3),
    )
    assert monomial_sym((2,), 3) == expected


def test_too_many_parts_gives_zero():
    assert monomial_sym((1, 1, 1, 1, 1), 4).is_zero


def test_two_variable_hook():
    x1, x2 = MultiPoly.gens(2)
    assert monomial_sym((2, 1), 2) == x1 * x1 * x2 + x1 * x2 * x2


def test_empty_partition_is_one():
    assert monomial_sym((), 5) == MultiPoly.const(5, 1)


def test_permutation_invariance():
    partitions = [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1), (2, 1), (1,)]
    for lam in partitions:
        for s in range(len(lam), 7):
            assert monomial_sym(lam, s).is_symmetric()


def test_term_count_is_multinomial():
    # m_lambda(s) has s! / ((s - l)! * prod(multiplicity!)) monomials, l = len(lambda).
    assert monomial_sym((2, 1, 1), 5).num_terms == 5 * comb(4, 2)
    for lam in BASIS:
        for s in range(1, 13):
            count = perm(s, len(lam)) // prod(map(factorial, Counter(lam).values()))
            assert monomial_sym(lam, s).num_terms == count, (lam, s)


def _partitions(weight, largest=None):
    if weight == 0:
        yield ()
        return
    for first in range(min(weight, largest or weight), 0, -1):
        for rest in _partitions(weight - first, first):
            yield (first,) + rest


def test_orbit_is_every_distinct_permutation():
    # Brute force: the distinct rearrangements of lambda padded with zeros.
    lams = [lam for weight in range(7) for lam in _partitions(weight)]
    assert len(lams) == 30 and set(BASIS) < set(lams)
    for lam in lams:
        for s in range(1, 8):
            padded = lam + (0,) * (s - len(lam))
            orbit = set(permutations(padded)) if len(lam) <= s else set()
            assert monomial_sym(lam, s) == MultiPoly(s, dict.fromkeys(orbit, 1)), (lam, s)


# -- direct expansion ---------------------------------------------------------------


def test_expand_square_of_power_sum():
    s = 5
    m1 = monomial_sym((1,), s)
    assert expand_direct(m1 * m1).coeffs == coeffs(a9=1, a10=2)


def test_expand_fourth_power_of_power_sum():
    s = 6
    m1 = monomial_sym((1,), s)
    result = expand_direct(m1 * m1 * m1 * m1)
    assert result.coeffs == coeffs(a1=1, a2=4, a3=6, a4=12, a5=24)


def test_expand_constant():
    assert expand_direct(MultiPoly.const(4, 7)).coeffs == coeffs(a12=7)


def test_expand_rejects_non_symmetric():
    with pytest.raises(NotSymmetric):
        expand_direct(MultiPoly.variable(4, 0))


def test_expand_rejects_high_degree():
    m1 = monomial_sym((1,), 4)
    with pytest.raises(ValueError):
        expand_direct(m1 * m1 * m1 * m1 * m1)


def test_expand_rejects_one_changed_coefficient(random_expansion):
    rng = random.Random(5)
    for s in (4, 5, 6):
        for _ in range(10):
            terms = dict(random_expansion(s, rng).reconstruct().terms())
            # A term whose exponents are all equal is a whole orbit on its own.
            exps = rng.choice(sorted(e for e in terms if len(set(e)) > 1))
            terms[exps] += rng.choice((-1, 1)) * Fraction(1, rng.randint(1, 3))
            with pytest.raises(NotSymmetric):
                expand_direct(MultiPoly(s, terms))


def test_expand_orbit_check_counts_terms():
    x1, x2, x3, x4 = MultiPoly.gens(4)
    # Each term carries the coefficient of its orbit's leading monomial, but
    # an orbit is incomplete; the degree-5 term fills the count back up.
    with pytest.raises(NotSymmetric):
        expand_direct(x1 + x2 + x3)
    with pytest.raises(ValueError, match="degree 5 > 4"):
        expand_direct(x1 + x2 + x3 + x1 * x1 * x1 * x1 * x1)


def test_expand_requires_four_variables():
    with pytest.raises(ValueError):
        expand_direct(MultiPoly.const(3, 1))
    with pytest.raises(ValueError, match="SymExpansion needs s >= 4, got s=3"):
        SymExpansion(3, (0,) * 12)
    with pytest.raises(ValueError, match="expected 12 coefficients, got 11"):
        SymExpansion(4, (0,) * 11)


def test_expand_reconstruct_roundtrip(random_expansion):
    rng = random.Random(7)
    for s in (4, 5, 6):
        for _ in range(10):
            expansion = random_expansion(s, rng)
            assert expand_direct(expansion.reconstruct()).coeffs == expansion.coeffs


def _basis_sum(c, s):
    """Reference: sum(c[i] * m_lambda_i(s)) by repeated addition."""
    total = MultiPoly.zero(s)
    for coeff, lam in zip(c, BASIS):
        total = total + monomial_sym(lam, s).scale(coeff)
    return total


def test_from_basis_matches_reconstruct(random_expansion):
    rng = random.Random(11)
    for s in (4, 5, 8, 12):
        for _ in range(5):
            c = random_expansion(s, rng).coeffs
            assert from_basis(c, s) == SymExpansion(s, c).reconstruct() == _basis_sum(c, s)


def test_from_basis_drops_long_partitions_below_four_variables():
    # m_lambda(s) = 0 when lambda has more than s parts.
    for s in (1, 2, 3):
        short = [int(len(lam) <= s) for lam in BASIS]
        assert from_basis((1,) * 12, s) == _basis_sum(short, s)
    assert from_basis(coeffs(a4=3, a8=Fraction(1, 2)), 2) == MultiPoly.zero(2)
    only_m1111 = from_basis(coeffs(a5=Fraction(2, 3)), 3)
    assert only_m1111 == MultiPoly.zero(3) and only_m1111._den == 1


def test_from_basis_edge_cases():
    for s in (1, 4, 12):
        zero = from_basis((0,) * 12, s)
        assert zero == MultiPoly.zero(s) and zero._den == 1
    for s in (0, 13):
        with pytest.raises(ValueError):
            from_basis((1,) * 12, s)
    with pytest.raises(TypeError, match="inexact float"):
        from_basis((0.5,) + (0,) * 11, 4)
    with pytest.raises(ValueError, match="expected 12 coefficients, got 11"):
        from_basis((1,) * 11, 4)


def test_sym_expansion_rejects_float():
    # Fraction(0.1) would silently be 3602879701896397/36028797018963968.
    with pytest.raises(TypeError, match="inexact float 0.1"):
        SymExpansion(5, [0.1] + [0] * 11)


def test_restriction_coefficients_reject_float():
    with pytest.raises(TypeError, match="inexact float 0.5"):
        restriction_coefficients([1] * 11 + [0.5], 6)


def test_exact_coefficients_pass_through_unchanged():
    half = Fraction(1, 2)
    assert SymExpansion(4, [half] * 12).coeffs[0] is half
    assert restriction_coefficients([half] * 12, 4) == (half,) * 12


def test_monomial_sym_enforces_the_exponent_cap():
    assert monomial_sym((MAX_EXP,), 2).coefficient((0, MAX_EXP)) == 1
    with pytest.raises(ValueError, match=f"above MAX_EXP={MAX_EXP}"):
        monomial_sym((MAX_EXP + 1, 1), 2)


# -- restriction expansion -------------------------------------------------------------


def test_restriction_agrees_on_m211():
    G = monomial_sym((2, 1, 1), 6)
    assert expand_via_restriction(G).coeffs == expand_direct(G).coeffs


def test_restriction_agrees_on_euler_quotient():
    from ulrichci.ulrich_functions import build_f

    p = build_f(5, 2, 0).divide_all_vars() * 360
    assert expand_via_restriction(p).coeffs == expand_direct(p).coeffs


def test_restriction_of_m31():
    # m31(s) restricted to 4 variables picks up m3, m1 and constant corrections.
    for s in (5, 6, 7, 8):
        t = s - 4
        lhs = monomial_sym((3, 1), s).substitute_ones(4)
        rhs = (
            monomial_sym((3, 1), 4)
            + t * monomial_sym((3,), 4)
            + t * monomial_sym((1,), 4)
            + t * (t - 1)
        )
        assert lhs == rhs


def test_substitution_identities_hold():
    for s in (5, 6, 7, 8):
        results = substitution_identities(s)
        assert all(r.ok for r in results), [r.to_dict() for r in results if not r.ok]


def test_restriction_coefficients_match_substitution(random_expansion):
    # Forward map agrees with actually substituting ones into the reconstruction.
    rng = random.Random(3)
    for s in (5, 6, 8):
        expansion = random_expansion(s, rng)
        predicted = restriction_coefficients(expansion.coeffs, s)
        restricted = expansion.reconstruct().substitute_ones(4)
        assert expand_direct(restricted).coeffs == predicted


def test_restriction_map_inverse(random_expansion):
    rng = random.Random(13)
    for s in range(5, 13):
        for _ in range(5):
            a = random_expansion(s, rng).coeffs
            restricted = _restriction_map(a, s - 4)
            assert restricted == restriction_coefficients(a, s)
            assert _restriction_map(restricted, 4 - s) == a


def test_s_equal_four_aliases_direct(random_expansion):
    rng = random.Random(11)
    expansion = random_expansion(4, rng)
    G = expansion.reconstruct()
    assert expand_via_restriction(G).coeffs == expand_direct(G).coeffs


def test_restriction_path_runs_at_s_equal_four(monkeypatch, random_expansion):
    # substitute_ones(4) and R(0) are identities at s = 4, so the path gives
    # expand_direct's result and errors, but it goes through the map.
    calls = []
    restriction_map = symfunc._restriction_map

    def counting(coeffs, t):
        calls.append(t)
        return restriction_map(coeffs, t)

    monkeypatch.setattr(symfunc, "_restriction_map", counting)
    G = random_expansion(4, random.Random(11)).reconstruct()
    assert expand_via_restriction(G).coeffs == expand_direct(G).coeffs
    assert calls == [0]
    x1, x2, x3, _ = MultiPoly.gens(4)
    with pytest.raises(NotSymmetric):
        expand_via_restriction(x1 + x2 + x3)
    with pytest.raises(ValueError, match="degree 5 > 4"):
        expand_via_restriction(x1 + x2 + x3 + x1 * x1 * x1 * x1 * x1)


def test_restriction_errors_are_decided_on_the_input(monkeypatch):
    # G's own degree and symmetry name the error, although its restriction
    # may be expandable (x5^5 -> 1) or fail otherwise (x1 + x5^6 -> x1 + 1).
    x1, x2, x3, x4, x5 = MultiPoly.gens(5)
    m1 = monomial_sym((1,), 5)
    cases = [
        (x5 * x5 * x5 * x5 * x5, ValueError, "polynomial has degree 5 > 4"),
        (x1 + x5 * x5 * x5 * x5 * x5 * x5, ValueError, "polynomial has degree 6 > 4"),
        (m1 + x5, NotSymmetric, "polynomial is not symmetric"),
        (m1 * m1 * m1 * m1 * m1, ValueError, "polynomial has degree 5 > 4"),
    ]
    for G, error, message in cases:
        for expand in (expand_direct, expand_via_restriction):
            with pytest.raises(error) as raised:
                expand(G)
            assert str(raised.value) == message
    # An expandable input is never put through the degree and symmetry pass.
    calls = []
    monkeypatch.setattr(symfunc, "_require_expandable", calls.append)
    G = monomial_sym((2, 1, 1), 6) - monomial_sym((1,), 6)
    assert expand_via_restriction(G).coeffs == expand_direct(G).coeffs
    assert calls == []


def test_tf2bis_fails_rel_reconstruction_on_a_wrong_restriction_map(monkeypatch):
    # A map that is wrong only for t > 0 predicts wrong restrictions, while
    # the inverse map R(4 - s) of expand_via_restriction stays right.
    restriction_map = symfunc._restriction_map

    def wrong_for_positive_t(coeffs, t):
        image = restriction_map(coeffs, t)
        return image[:-1] + (image[-1] + 1,) if t > 0 else image

    monkeypatch.setattr(symfunc, "_restriction_map", wrong_for_positive_t)
    rel, agree = verify_tf2bis(6)[-2:]
    assert not rel.ok and rel.witness == {"partition": [4]}
    assert agree.ok


# -- product identity table --------------------------------------------------------------


def test_tf2_table_all_pass():
    for s in (4, 5, 6, 7, 8):
        results = verify_tf2_table(s)
        assert len(results) == 13
        assert all(r.ok for r in results)


def test_tf2_identity_12_explicit():
    s = 5
    m2 = monomial_sym((2,), s)
    assert m2 * m2 == monomial_sym((4,), s) + 2 * monomial_sym((2, 2), s)


def test_tf2bis_suite():
    for s in (5, 6, 8, 12):
        results = verify_tf2bis(s)
        assert len(results) == 14
        assert all(r.ok for r in results), [r.to_dict() for r in results if not r.ok]
        assert all(r.parameters == {"s": s} for r in results)


def test_tf2bis_checks_every_basis_element_for_both_records(monkeypatch):
    # A wrong restriction map fails the reconstruction record at the first
    # basis element; the agreement record must still see all twelve.
    calls = []

    def counting(G):
        calls.append(G)
        return expand_via_restriction(G)

    monkeypatch.setattr(
        symfunc,
        "restriction_coefficients",
        lambda coeffs, s: tuple(c + 1 for c in restriction_coefficients(coeffs, s)),
    )
    monkeypatch.setattr(symfunc, "expand_via_restriction", counting)
    rel, agree = verify_tf2bis(5)[-2:]
    assert not rel.ok and rel.witness == {"partition": [4]}
    assert agree.ok
    assert len(calls) == 12
    assert calls == [monomial_sym(lam, 5) for lam in BASIS]


def test_tf2bis_witness_names_the_failing_partition(monkeypatch):
    # Maps that are wrong on a single basis element fail there and only there.
    def rel_wrong_on_m211(coeffs, s):
        b = restriction_coefficients(coeffs, s)
        return b[:-1] + (b[-1] + coeffs[3],)

    def via_wrong_on_m111(G):
        a = expand_via_restriction(G).coeffs
        return SymExpansion(G.nvars, a[:-1] + (a[-1] + a[7],))

    monkeypatch.setattr(symfunc, "restriction_coefficients", rel_wrong_on_m211)
    monkeypatch.setattr(symfunc, "expand_via_restriction", via_wrong_on_m111)
    results = verify_tf2bis(6)
    assert all(r.ok for r in results[:-2])
    rel, agree = results[-2:]
    assert not rel.ok and rel.witness == {"partition": [2, 1, 1]}
    assert not agree.ok and agree.witness == {"partition": [1, 1, 1]}


def test_basis_layout():
    assert len(BASIS) == 12
    assert BASIS[0] == (4,) and BASIS[-1] == ()
