"""Tests for the sparse exact polynomial ring."""

import copy
import os
import pickle
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulrichci.polyring import (
    FIELD_BITS,
    MAX_EXP,
    MAX_VARS,
    DimensionMismatch,
    MultiPoly,
    NotDivisible,
)
from ulrichci.symfunc import monomial_sym


def x(i, nvars=2):
    return MultiPoly.variable(nvars, i)


# -- strategies ---------------------------------------------------------------

exponent_vectors = st.tuples(st.integers(0, 3), st.integers(0, 3))
coefficients = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
).filter(lambda f: f != 0)
polys = st.dictionaries(exponent_vectors, coefficients, max_size=6).map(
    lambda terms: MultiPoly(2, terms)
)


# Reference model: a plain dict of nonzero Fractions in three variables.
ref_terms = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(1, 2), st.integers(1, 3)),
    st.fractions(min_value=-6, max_value=6, max_denominator=6).filter(bool),
    max_size=5,
)
scalars = st.one_of(
    st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=5)
)


def ref_combine(a, b, sign):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ref_to_string(terms, nvars):
    items = sorted(terms.items(), reverse=True) or [((0,) * nvars, Fraction(0))]
    return " + ".join(
        f"{c} * " + "*".join(f"x{i + 1}^{e}" for i, e in enumerate(exps))
        for exps, c in items
    )


def assert_canonical(p):
    """One positive denominator, coprime to the nonzero int numerators."""
    assert p._den >= 1
    assert all(type(c) is int and c for c in p._num.values())
    assert gcd(p._den, *p._num.values()) == 1


def assert_models(p, terms):
    assert_canonical(p)
    assert dict(p.terms()) == terms
    assert all(type(c) is Fraction for _, c in p.terms())
    assert p.to_string() == ref_to_string(terms, p.nvars)


@given(ref_terms, ref_terms, scalars)
@settings(max_examples=80)
def test_matches_fraction_dict_reference(a, b, k):
    p, q = MultiPoly(3, a), MultiPoly(3, b)
    assert_models(p, a)
    assert_models(p + q, ref_combine(a, b, 1))
    assert_models(p - q, ref_combine(a, b, -1))
    assert_models(p * q, ref_mul(a, b))
    assert_models(p.scale(k), {e: c * k for e, c in a.items() if c * k})
    assert_models(p + k, ref_combine(a, {(0, 0, 0): Fraction(k)} if k else {}, 1))
    restricted = {}
    for e, c in a.items():
        restricted[e[:2]] = restricted.get(e[:2], 0) + c
    assert_models(p.substitute_ones(2), {e: c for e, c in restricted.items() if c})
    shifted = p.times_all_vars()
    assert_models(shifted, {tuple(x + 1 for x in e): c for e, c in a.items()})
    assert_models(shifted.divide_all_vars(), a)
    assert (p == q) == (a == b)
    point = (Fraction(-1, 2), 3, Fraction(2, 3))
    assert p.eval(point) == sum(
        (c * point[0] ** e[0] * point[1] ** e[1] * point[2] ** e[2] for e, c in a.items()),
        Fraction(0),
    )


# -- packed keys across every ring size ------------------------------------------

# Exponents near 0 and near the cap, so sums and shifts reach both ends of a field.
wide_exponents = st.integers(0, 3) | st.integers(MAX_EXP - 2, MAX_EXP)
ref_coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=6).filter(bool)


def wide_terms(nvars):
    return st.dictionaries(
        st.tuples(*[wide_exponents] * nvars), ref_coefficients, max_size=4
    )


@st.composite
def wide_polys(draw):
    """(nvars, reference terms) for 1 <= nvars <= MAX_VARS."""
    nvars = draw(st.integers(1, MAX_VARS))
    return nvars, draw(wide_terms(nvars))


@st.composite
def wide_pairs(draw):
    nvars = draw(st.integers(1, MAX_VARS))
    return nvars, draw(wide_terms(nvars)), draw(wide_terms(nvars))


def ref_is_symmetric(terms, nvars):
    """Each exponent multiset carries one coefficient on its whole orbit."""
    orbits = {}
    for exps, c in terms.items():
        orbits.setdefault(tuple(sorted(exps)), []).append(c)
    return all(
        len(cs) == factorial(nvars) // prod(map(factorial, Counter(key).values()))
        and len(set(cs)) == 1
        for key, cs in orbits.items()
    )


@given(wide_pairs(), st.data())
@settings(max_examples=150)
def test_packed_keys_match_tuple_reference(case, data):
    nvars, a, b = case
    p, q = MultiPoly(nvars, a), MultiPoly(nvars, b)
    assert_models(p, a)
    assert_models(p - q, ref_combine(a, b, -1))
    if any(x + y > MAX_EXP for e1 in a for e2 in b for x, y in zip(e1, e2)):
        with pytest.raises(ValueError, match=f"above MAX_EXP={MAX_EXP}"):
            p * q
    else:
        assert_models(p * q, ref_mul(a, b))
    k = data.draw(st.integers(1, nvars))
    restricted = {}
    for e, c in a.items():
        restricted[e[:k]] = restricted.get(e[:k], 0) + c
    assert_models(p.substitute_ones(k), {e: c for e, c in restricted.items() if c})
    wider = data.draw(st.integers(nvars, MAX_VARS))
    assert_models(p.extend(wider), {e + (0,) * (wider - nvars): c for e, c in a.items()})
    if any(MAX_EXP in e for e in a):
        with pytest.raises(ValueError, match=f"above MAX_EXP={MAX_EXP}"):
            p.times_all_vars()
    else:
        assert_models(p.times_all_vars(), {tuple(x + 1 for x in e): c for e, c in a.items()})
    # p keeps a's term order, so the first term that misses a variable is a's.
    missing = next((e for e in a if 0 in e), None)
    if missing is None:
        assert_models(p.divide_all_vars(), {tuple(x - 1 for x in e): c for e, c in a.items()})
    else:
        with pytest.raises(NotDivisible) as info:
            p.divide_all_vars()
        assert str(info.value) == f"term with exponents {missing} is not divisible by all variables"
    assert p.is_symmetric() == ref_is_symmetric(a, nvars)


@given(wide_polys(), st.data())
@settings(max_examples=80)
def test_terms_coefficient_and_pickle_round_trip(case, data):
    nvars, a = case
    p = MultiPoly(nvars, a)
    assert MultiPoly(nvars, dict(p.terms())) == p
    assert all(p.coefficient(e) == c for e, c in a.items())
    probe = data.draw(st.tuples(*[wide_exponents] * nvars))
    assert p.coefficient(probe) == a.get(probe, 0)
    # Out of range reads 0: 2**FIELD_BITS must not alias a carry into the next field.
    i = data.draw(st.integers(0, nvars - 1))
    for bad in (-1, MAX_EXP + 1, 1 << FIELD_BITS):
        assert p.coefficient(probe[:i] + (bad,) + probe[i + 1 :]) == 0
    for duplicate in (lambda p: pickle.loads(pickle.dumps(p)), copy.copy, copy.deepcopy):
        twin = duplicate(p)
        assert twin == p and twin.nvars == nvars
        assert_models(twin, a)


@given(wide_polys(), st.data())
@settings(max_examples=80)
def test_substitute_ones_composes(case, data):
    # verify_tf0 takes each restriction from the next larger one.
    nvars, a = case
    p = MultiPoly(nvars, a)
    k = data.draw(st.integers(1, nvars))
    j = data.draw(st.integers(1, k))
    assert p.substitute_ones(k).substitute_ones(j) == p.substitute_ones(j)


@pytest.mark.parametrize("nvars", [1, 2, 12])
@given(data=st.data())
@settings(max_examples=40)
def test_is_symmetric_matches_orbit_reference(nvars, data):
    a = data.draw(wide_terms(nvars))
    assert MultiPoly(nvars, a).is_symmetric() == ref_is_symmetric(a, nvars)
    # One orbit of (hi,)*size + (lo,)*(nvars - size) is symmetric; changing
    # or dropping one of its terms breaks that when the orbit is not a point.
    size = data.draw(st.integers(0, nvars))
    lo, hi = data.draw(wide_exponents), data.draw(wide_exponents)
    orbit = sorted(
        {tuple(hi if i in support else lo for i in range(nvars)) for support in combinations(range(nvars), size)}
    )
    c = data.draw(ref_coefficients)
    symmetric = dict.fromkeys(orbit, c)
    assert MultiPoly(nvars, symmetric).is_symmetric()
    if len(orbit) > 1:
        e = data.draw(st.sampled_from(orbit))
        assert not MultiPoly(nvars, {**symmetric, e: 2 * c}).is_symmetric()
        assert not MultiPoly(nvars, {f: c for f in orbit if f != e}).is_symmetric()
    # A sum over the rotations of one term is cyclic, and symmetric only when
    # the rotations are the whole orbit: the swap test must see the rest.
    e = data.draw(st.tuples(*[wide_exponents] * nvars))
    cyclic = dict.fromkeys({e[i:] + e[:i] for i in range(nvars)}, c)
    assert MultiPoly(nvars, cyclic).is_symmetric() == ref_is_symmetric(cyclic, nvars)


@pytest.mark.parametrize(
    "enter",
    [
        lambda: MultiPoly(2, {(MAX_EXP + 1, 0): 1}),
        lambda: MultiPoly(12, {(0,) * 11 + (1 << FIELD_BITS,): 1}),
        lambda: MultiPoly(2, {(MAX_EXP, 0): 1}) * x(0),
        lambda: MultiPoly(12, {(3,) * 11 + (MAX_EXP,): 1}).times_all_vars(),
    ],
    ids=["init", "init-next-field", "mul", "times_all_vars"],
)
def test_exponent_cap_raises(enter):
    with pytest.raises(ValueError, match=f"above MAX_EXP={MAX_EXP}"):
        enter()


def test_exponent_cap_raises_under_python_O():
    # python -O strips assert statements; the cap must be an explicit raise.
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
            f"{__file__}::test_exponent_cap_raises",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "4 passed" in proc.stdout


def test_exponent_cap_is_reachable():
    top = MultiPoly(12, {(MAX_EXP,) * 12: 1})
    assert top.coefficient((MAX_EXP,) * 12) == 1 and top.degree() == 12 * MAX_EXP
    below = MultiPoly(12, {(MAX_EXP - 1,) * 12: 1})
    assert below.times_all_vars() == top == below * MultiPoly(12, {(1,) * 12: 1})
    assert top.divide_all_vars() == below
    assert top.to_string() == "1 * " + "*".join(f"x{i}^{MAX_EXP}" for i in range(1, 13))


@given(polys)
@settings(max_examples=40)
def test_canonical_form(p):
    assert p.scale(Fraction(3, 7)).scale(Fraction(7, 3)) == p
    assert p - p == MultiPoly.zero(2)
    assert (p - p)._den == 1
    assert p.is_zero or p.scale(Fraction(1, 2)) != p
    assert_canonical(p.scale(Fraction(3, 7)))


@pytest.mark.parametrize("s", range(1, 7))
def test_times_all_vars_is_product_with_all_vars(s):
    from ulrichci.ulrich_functions import build_q

    q = build_q(s, 9) / 3840
    assert q.times_all_vars() == q * monomial_sym((1,) * s, s)


# -- construction and canonical form ------------------------------------------


def test_zero_coefficients_pruned():
    p = MultiPoly(2, {(1, 0): 0, (0, 1): 2})
    assert p.num_terms == 1
    assert p.coefficient((0, 1)) == 2


def test_exponent_length_validated():
    with pytest.raises(DimensionMismatch):
        MultiPoly(2, {(1,): 1})


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        MultiPoly(2, {(-1, 0): 1})


def test_max_vars_enforced():
    with pytest.raises(ValueError):
        MultiPoly.zero(13)


@pytest.mark.parametrize(
    "enter",
    [
        lambda: MultiPoly(2, {(1, 0): 0.1}),
        lambda: x(0).scale(0.5),
        lambda: x(0).eval([0.1, 1]),
        lambda: MultiPoly.const(2, 0.5),
        lambda: x(0) / 0.5,
        lambda: MultiPoly(2, {(1.0, 0): 1}),
        lambda: x(0).coefficient((1.0, 0)),
    ],
    ids=["init", "scale", "eval", "const", "truediv", "exponent", "coefficient-exponent"],
)
def test_float_rejected(enter):
    # Fraction(0.1) would silently be 3602879701896397/36028797018963968.
    with pytest.raises(TypeError):
        enter()


def test_equality_is_term_map_equality():
    p = x(0) + x(1)
    q = MultiPoly(2, {(1, 0): 1, (0, 1): 1})
    assert p == q


# -- arithmetic ----------------------------------------------------------------


def test_difference_of_squares():
    assert (x(0) + x(1)) * (x(0) - x(1)) == x(0) * x(0) - x(1) * x(1)


def test_additive_identity():
    p = 3 * x(0) * x(1) - 7
    assert p + MultiPoly.zero(2) == p


def test_inverse_scaling():
    assert x(0).scale(Fraction(1, 2)).scale(2) == x(0)


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        x(0, 2) + MultiPoly.variable(3, 0)
    with pytest.raises(DimensionMismatch):
        x(0, 2) * MultiPoly.variable(3, 0)


@given(polys, polys, polys)
@settings(max_examples=50)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@given(polys, polys)
@settings(max_examples=50)
def test_eval_commutes_with_ring_ops(p, q):
    point = (Fraction(3, 2), Fraction(-2))
    assert (p + q).eval(point) == p.eval(point) + q.eval(point)
    assert (p * q).eval(point) == p.eval(point) * q.eval(point)


# -- evaluation -----------------------------------------------------------------


def test_eval_product():
    assert (x(0) * x(1)).eval((2, 3)) == 6


def test_eval_length_mismatch():
    with pytest.raises(DimensionMismatch):
        x(0).eval((1, 2, 3))


def test_eval_obstruction_polynomial_examples():
    from ulrichci.ulrich_functions import build_q

    q48 = build_q(4, 8)
    assert q48.eval((1, 1, 1, 1)) == 0
    assert q48.eval((2, 1, 1, 1)) == 90


# -- substitution -----------------------------------------------------------------


def test_substitute_ones_drops_variables():
    p = MultiPoly.variable(3, 0) * MultiPoly.variable(3, 1) * MultiPoly.variable(3, 2)
    assert p.substitute_ones(2) == MultiPoly.variable(2, 0) * MultiPoly.variable(2, 1)


def test_substitute_ones_power_sum():
    assert monomial_sym((2,), 5).substitute_ones(3) == monomial_sym((2,), 3) + 2


def test_substitute_ones_range_checked():
    with pytest.raises(ValueError):
        x(0).substitute_ones(0)
    with pytest.raises(ValueError):
        x(0).substitute_ones(3)


def test_substitute_ones_euler_polynomial():
    from ulrichci.ulrich_functions import build_f

    assert build_f(6, 2, 0).substitute_ones(4) == build_f(4, 2, 0)


# -- division by all variables -----------------------------------------------------


def test_divide_all_vars_monomial():
    p = x(0) * x(0) * x(1)
    assert p.divide_all_vars() == x(0)


def test_divide_all_vars_error_doubles_as_test():
    with pytest.raises(NotDivisible):
        (x(0) + x(1)).divide_all_vars()


def test_divide_all_vars_euler_polynomial_quotient():
    from ulrichci.ulrich_functions import build_f

    quotient = build_f(4, 2, 0).divide_all_vars()
    # Constant term of the quotient times 360 reproduces the published value.
    assert quotient.coefficient((0, 0, 0, 0)) * 360 == 27861


@given(polys)
@settings(max_examples=40)
def test_divide_inverts_multiplication_by_all_vars(p):
    all_vars = MultiPoly(2, {(1, 1): 1})
    assert (p * all_vars).divide_all_vars() == p


# -- coefficient lookup --------------------------------------------------------------


def test_coefficient_lookup():
    p = 3 * x(0) * x(0) * x(1)
    assert p.coefficient((2, 1)) == 3
    assert p.coefficient((1, 1)) == 0


def test_coefficient_out_of_range_reads_zero():
    p = MultiPoly(3, {(0, 1, 0): 5, (0, 0, MAX_EXP): 1})
    # 2**FIELD_BITS in x3 would carry into the field of x2.
    assert p.coefficient((0, 0, 1 << FIELD_BITS)) == 0
    assert p.coefficient((0, 0, MAX_EXP + 1)) == 0 and p.coefficient((0, 1, -1)) == 0
    assert p.coefficient((0, 0, MAX_EXP)) == 1 and p.coefficient((0, 1, 0)) == 5


def test_coefficient_length_checked():
    with pytest.raises(DimensionMismatch):
        x(0).coefficient((1, 0, 0))


# -- symmetry ----------------------------------------------------------------------------


def test_is_symmetric():
    assert (x(0) + x(1)).is_symmetric()
    assert not (x(0) - x(1)).is_symmetric()
    assert MultiPoly.const(1, 5).is_symmetric()
    # Invariant under the cycle, not under the swap of x1 and x2.
    assert not MultiPoly(3, {(2, 1, 0): 1, (0, 2, 1): 1, (1, 0, 2): 1}).is_symmetric()


def test_extend():
    p = x(0) * x(1)
    q = p.extend(4)
    assert q.nvars == 4
    assert q.coefficient((1, 1, 0, 0)) == 1


def test_extend_enforces_max_vars():
    with pytest.raises(ValueError, match="nvars=13 exceeds MAX_VARS=12"):
        x(0).extend(13)


# -- text form ----------------------------------------------------------------------------


def test_to_string_canonical_order():
    p = x(1) + x(0) * x(0)
    assert p.to_string() == "1 * x1^2*x2^0 + 1 * x1^0*x2^1"


def test_to_string_fraction_coefficient():
    p = Fraction(3, 2) * x(0) * x(1) - 5 * x(1) + 7
    assert p.to_string() == "3/2 * x1^1*x2^1 + -5 * x1^0*x2^1 + 7 * x1^0*x2^0"


def test_to_string_zero_spells_out_every_variable():
    assert MultiPoly.zero(3).to_string() == "0 * x1^0*x2^0*x3^0"


@given(polys, polys)
@settings(max_examples=60)
def test_to_string_is_canonical_random(p, q):
    # Equal polynomials print alike, whatever order their terms were given in.
    reordered = MultiPoly(2, dict(reversed(list(p.terms()))))
    assert reordered.to_string() == p.to_string()
    assert (p.to_string() == q.to_string()) == (p == q)


@pytest.mark.parametrize(
    "duplicate",
    [lambda p: pickle.loads(pickle.dumps(p)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_pickle_and_copy_round_trip(duplicate):
    p = x(0, 3) * x(2, 3) / 6 - Fraction(3, 4)
    twin = duplicate(p)
    assert twin == p and twin.nvars == 3
    assert twin.coefficient((1, 0, 1)) == Fraction(1, 6)
    with pytest.raises(AttributeError, match="immutable"):
        twin.nvars = 2
