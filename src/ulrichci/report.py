"""Structured pass/fail records shared by the verifiers and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"


@dataclass
class CheckResult:
    """Outcome of one verified identity or positivity check."""

    lemma: str
    parameters: dict = field(default_factory=dict)
    status: str = PASS
    witness: dict | None = None

    @property
    def ok(self) -> bool:
        return self.status == PASS

    def to_dict(self) -> dict:
        doc = {"lemma": self.lemma, "parameters": self.parameters, "status": self.status}
        if self.witness is not None:
            doc["witness"] = self.witness
        return doc


def check(
    lemma: str, parameters: dict, ok: bool, witness: dict | None = None
) -> CheckResult:
    """A PASS record without a witness, or a FAIL record carrying witness."""
    if ok:
        return CheckResult(lemma, parameters)
    return CheckResult(lemma, parameters, FAIL, witness)


def compare(lemma: str, parameters: dict, lhs, rhs) -> CheckResult:
    """The check lhs == rhs; a failure's witness is the difference lhs - rhs as text."""
    if lhs == rhs:
        return CheckResult(lemma, parameters)
    difference = (lhs - rhs).to_string()
    return CheckResult(lemma, parameters, FAIL, {"difference": difference})


def all_ok(results: list[CheckResult]) -> bool:
    return all(r.ok for r in results)


def summarize(results: list[CheckResult]) -> dict:
    passed = sum(1 for r in results if r.ok)
    return {"total": len(results), "passed": passed, "failed": len(results) - passed}
