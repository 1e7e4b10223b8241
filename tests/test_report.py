"""Tests for the pass/fail record helpers and the JSON writer."""

import contextlib
import enum
import json
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulrichci.polyring import MultiPoly
from ulrichci.report import FAIL, PASS, CheckResult, check, compare, to_json


def test_check_keeps_witness_only_on_failure():
    assert check("x", {"s": 1}, True, {"d": 2}).to_dict() == {
        "lemma": "x",
        "parameters": {"s": 1},
        "status": PASS,
    }
    failed = check("x", {"s": 1}, False, {"d": 2})
    assert (failed.status, failed.witness) == (FAIL, {"d": 2})
    assert check("x", {}, False).to_dict() == {"lemma": "x", "parameters": {}, "status": FAIL}


class Unsubtractable:
    """Equal to every other instance; subtracting one is an error."""

    def __eq__(self, other):
        return True

    def __sub__(self, other):
        raise AssertionError("a passing comparison built its difference")


def test_compare_builds_difference_only_on_failure():
    assert compare("x", {}, Unsubtractable(), Unsubtractable()).ok
    x1 = MultiPoly.variable(2, 0)
    failed = compare("x", {"s": 2}, x1 + 1, x1)
    assert failed.status == FAIL
    assert failed.witness == {"difference": "1 * x1^0*x2^0"}


def test_check_result_record_contract():
    a, b = CheckResult("x"), CheckResult(lemma="x")
    assert a == b and a.to_dict() == {"lemma": "x", "parameters": {}, "status": PASS}
    assert a.parameters is not b.parameters
    a.parameters["s"] = 1
    assert b.parameters == {} and a != b
    full = CheckResult("x", {"s": 1}, FAIL, {"d": 2})
    assert full == CheckResult(witness={"d": 2}, status=FAIL, parameters={"s": 1}, lemma="x")
    assert full != CheckResult("x", {"s": 1}, FAIL, {"d": 3})
    full.status = PASS  # records are mutable, so they do not hash
    assert full.ok and CheckResult.__hash__ is None


# -- JSON writer: json.dumps(indent=2) is the oracle ---------------------------------


@contextlib.contextmanager
def digit_limit(digits: int):
    """Set the int-to-str digit limit inside the block (0 lifts it, as cli.main does)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class Label(str):
    def __str__(self):
        return "not the value"


class Count(int):
    def __repr__(self):
        return "not the value"


class Colour(enum.IntEnum):
    RED = 1


#: Characters json escapes, or escapes in their own way: quotes, backslash,
#: controls, DEL, non-ASCII, astral and lone surrogates.
SPECIAL = '"\\/\x00\x08\t\n\x0c\r\x1f\x7f\x80é€\u2028\ud800\udfff😀'

texts = st.text(st.one_of(st.characters(), st.sampled_from(SPECIAL)), max_size=12)
huge_ints = st.tuples(st.integers(4301, 4400), st.integers(-9, 9)).map(
    lambda pair: (-1) ** pair[0] * 10 ** pair[0] + pair[1]
)
leaves = st.one_of(
    texts,
    texts.map(Label),
    st.integers(),
    st.integers().map(Count),
    huge_ints,
    st.booleans(),
    st.none(),
    st.just(Colour.RED),
)
keys = st.one_of(texts, st.integers(), st.integers().map(Count), st.booleans(), st.none())
documents = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=24,
)


@given(documents)
@settings(max_examples=200)
def test_to_json_matches_json_dumps(doc):
    with digit_limit(0):
        assert to_json(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {},
        (),
        [[], {}, [[{}]], {"a": {"b": []}}],
        {"": "", "x": [(), ()]},
        {1: "a", True: "b", None: "c", -7: [], "1": {}, Count(5): 0, Label("k"): 1},
        [Label("s"), Count(5), Colour.RED, True, False, None, 0, -0],
        "\ud800 é \x00 \"quoted\" \\",
        10**5000,
    ],
    ids=["list", "dict", "tuple", "nested-empty", "tuple-values", "coerced-keys", "subclasses", "string", "huge-int"],
)
def test_to_json_matches_json_dumps_on_edge_cases(doc):
    with digit_limit(0):
        assert to_json(doc) == json.dumps(doc, indent=2)


def test_to_json_keeps_the_digit_limit_of_the_caller():
    # main lifts the limit; under the default one, both writers refuse the same int.
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int-to-str digit limit before Python 3.11")
    with digit_limit(4300):
        with pytest.raises(ValueError):
            json.dumps([10**5000], indent=2)
        with pytest.raises(ValueError):
            to_json([10**5000])


@pytest.mark.parametrize(
    "doc",
    [Fraction(1, 3), {"x": [Fraction(2)]}, {1, 2}, [frozenset()], {(1, 2): 1}, {"x": {Fraction(1, 2): 1}}, b"bytes"],
    ids=["fraction", "nested-fraction", "set", "frozenset", "tuple-key", "fraction-key", "bytes"],
)
def test_to_json_refuses_what_json_refuses(doc):
    with pytest.raises(TypeError) as theirs:
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError, match=f"^{re.escape(str(theirs.value))}$"):
        to_json(doc)


@pytest.mark.parametrize(
    "doc, message",
    [
        (0.1, "inexact float 0.1; "),
        ([1, {"x": 2.0}], "inexact float 2.0; "),
        ({2.5: 1}, "inexact float key 2.5; "),
    ],
    ids=["float", "nested-float", "float-key"],
)
def test_to_json_refuses_floats(doc, message):
    # json would write a float; a report holds exact values only.
    with pytest.raises(TypeError, match=f"^{re.escape(message)}a report holds exact values only$"):
        to_json(doc)
