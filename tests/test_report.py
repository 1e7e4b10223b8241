"""Tests for the pass/fail record helpers."""

from ulrichci.polyring import MultiPoly
from ulrichci.report import FAIL, PASS, CheckResult, check, compare


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
