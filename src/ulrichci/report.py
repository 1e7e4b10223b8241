"""Structured pass/fail records shared by the verifiers and the CLI."""

from __future__ import annotations

PASS = "pass"
FAIL = "fail"


class Record:
    """Base of the package's plain records: equality and repr over __slots__.

    A record equals a record of the same class with equal fields.  Its
    fields may change, so it does not hash.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class FrozenRecord(Record):
    """A record whose fields are set once, in __init__; it hashes by its fields.

    Its __slots__ name the fields in the order of the __init__ arguments.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        # pickle and copy would restore the slots through __setattr__.
        return (type(self), self._values())


class CheckResult(Record):
    """Outcome of one verified identity or positivity check."""

    __slots__ = ("lemma", "parameters", "status", "witness")

    def __init__(
        self,
        lemma: str,
        parameters: dict | None = None,
        status: str = PASS,
        witness: dict | None = None,
    ):
        self.lemma = lemma
        self.parameters = {} if parameters is None else parameters
        self.status = status
        self.witness = witness

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
