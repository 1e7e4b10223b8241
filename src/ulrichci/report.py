"""Structured pass/fail records shared by the verifiers and the CLI, and
to_json, the writer of the JSON documents the CLI prints."""

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


def to_json(doc) -> str:
    """DOC as the text json.dumps(doc, indent=2) gives, byte for byte.

    CPython writes an indented document with its pure-Python encoder, a
    generator per container and a yield per token; this appends the pieces
    to one list and joins it once.  Dicts, lists and tuples are written
    with "," and ": " separators and two spaces of indent per level,
    strings through json's C escaper, ints by int.__repr__ (so main's
    lifted digit limit covers them), and bool and None as true, false and
    null, tested in json's order, so subclasses of str and int come out as
    json writes them.  A float raises TypeError, since a report holds exact
    values only, and so does every type json would refuse, or a key it
    would not coerce.
    """
    from json.encoder import encode_basestring_ascii  # text output loads no json

    parts: list[str] = []
    _write(doc, "\n", encode_basestring_ascii, parts.append)
    return "".join(parts)


def _write(value, newline: str, quote, out) -> None:
    """Pass VALUE's text to OUT in pieces; NEWLINE is its line break and indent."""
    cls = value.__class__
    # Exact strs and ints, most of a document, skip json's chain below.
    if cls is str:
        out(quote(value))
    elif cls is int:
        out(int.__repr__(value))
    elif isinstance(value, str):
        out(quote(value))
    elif value is None:
        out("null")
    elif value is True:
        out("true")
    elif value is False:
        out("false")
    elif isinstance(value, int):
        out(int.__repr__(value))
    elif isinstance(value, float):
        raise TypeError(f"inexact float {value!r}; a report holds exact values only")
    elif isinstance(value, (list, tuple)):
        if not value:
            out("[]")
            return
        inner = newline + "  "
        sep, comma = "[" + inner, "," + inner
        for item in value:
            out(sep)
            _write(item, inner, quote, out)
            sep = comma
        out(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out("{}")
            return
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        for key, item in value.items():
            out(sep)
            out(quote(key) if isinstance(key, str) else _key(key, quote))
            out(": ")
            _write(item, inner, quote, out)
            sep = comma
        out(newline + "}")
    else:
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")


def _key(key, quote) -> str:
    """A dict key that is not a str, coerced to a JSON string as json does."""
    if isinstance(key, float):
        raise TypeError(f"inexact float key {key!r}; a report holds exact values only")
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return '"' + int.__repr__(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
