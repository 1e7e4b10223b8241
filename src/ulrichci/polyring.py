"""Sparse multivariate polynomial arithmetic over exact rationals.

A polynomial in s variables x1..xs is stored as a map from length-s exponent
tuples to nonzero Fraction coefficients.  The representation is canonical
(no zero coefficients, fixed variable count), so two polynomials are equal
exactly when their term maps are equal.  All values are immutable; every
operation returns a fresh polynomial, which makes them safe to share across
threads or worker processes.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

# Hard cap on the variable count.  Term counts grow combinatorially with the
# number of variables; 12 keeps worst-case memory deterministic at desk scale.
MAX_VARS = 12

Exponents = tuple  # length-nvars tuple of non-negative ints


class DimensionMismatch(ValueError):
    """Raised when two polynomials over different variable counts are combined."""


class NotDivisible(ValueError):
    """Raised when a polynomial is not divisible by the product of all variables."""


_TERM_RE = re.compile(r"^x(\d+)\^(\d+)$")


def _exact(value) -> Fraction:
    """Fraction(value), refusing floats, which would enter as binary fractions."""
    if isinstance(value, float):
        raise TypeError(f"inexact float {value!r}; pass an int or a Fraction")
    return Fraction(value)


class MultiPoly:
    """Immutable sparse polynomial in x1..xs with Fraction coefficients."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, object] | None = None):
        if not isinstance(nvars, int) or nvars < 1:
            raise ValueError(f"nvars must be a positive integer, got {nvars!r}")
        if nvars > MAX_VARS:
            raise ValueError(f"nvars={nvars} exceeds MAX_VARS={MAX_VARS}")
        clean: dict[Exponents, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise DimensionMismatch(
                        f"exponent vector {exps!r} has length {len(exps)}, expected {nvars}"
                    )
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps!r}")
                c = _exact(coeff)
                if c:
                    clean[tuple(exps)] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _from_trusted(cls, nvars: int, terms: dict[Exponents, Fraction]) -> "MultiPoly":
        # Internal fast path: caller guarantees canonical keys and nonzero Fractions.
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", terms)
        return self

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars: int, value) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultiPoly":
        """The polynomial x_{index+1} (0-based index)."""
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for nvars={nvars}")
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): Fraction(1)})

    @classmethod
    def gens(cls, nvars: int) -> list["MultiPoly"]:
        return [cls.variable(nvars, i) for i in range(nvars)]

    # -- inspection --------------------------------------------------------

    def terms(self) -> Iterator[tuple[Exponents, Fraction]]:
        return iter(self._terms.items())

    @property
    def num_terms(self) -> int:
        return len(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0 by convention."""
        return max((sum(e) for e in self._terms), default=0)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise DimensionMismatch(
                f"exponent vector length {len(exps)} != nvars {self.nvars}"
            )
        return self._terms.get(exps, Fraction(0))

    def constant_term(self) -> Fraction:
        return self._terms.get((0,) * self.nvars, Fraction(0))

    # -- ring operations ---------------------------------------------------

    def _check_same_ring(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise DimensionMismatch(
                f"operands have {self.nvars} and {other.nvars} variables"
            )

    def __add__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same_ring(other)
        out = dict(self._terms)
        for exps, coeff in other._terms.items():
            acc = out.get(exps)
            if acc is None:
                out[exps] = coeff
            else:
                acc = acc + coeff
                if acc:
                    out[exps] = acc
                else:
                    del out[exps]
        return MultiPoly._from_trusted(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._from_trusted(
            self.nvars, {e: -c for e, c in self._terms.items()}
        )

    def __sub__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def scale(self, value) -> "MultiPoly":
        c = _exact(value)
        if not c:
            return MultiPoly.zero(self.nvars)
        return MultiPoly._from_trusted(
            self.nvars, {e: c * v for e, v in self._terms.items()}
        )

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same_ring(other)
        out: dict[Exponents, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                acc = out.get(key)
                out[key] = c1 * c2 if acc is None else acc + c1 * c2
        return MultiPoly._from_trusted(
            self.nvars, {e: c for e, c in out.items() if c}
        )

    def __rmul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __truediv__(self, other) -> "MultiPoly":
        return self.scale(1 / _exact(other))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- evaluation and substitution ----------------------------------------

    def eval(self, point: Sequence) -> Fraction:
        """Exact evaluation at a point of ints/Fractions (one value per variable)."""
        values = [_exact(v) for v in point]
        if len(values) != self.nvars:
            raise DimensionMismatch(
                f"point has length {len(values)}, expected {self.nvars}"
            )
        total = Fraction(0)
        for exps, coeff in self._terms.items():
            term = coeff
            for e, v in zip(exps, values):
                if e:
                    term *= v**e
            total += term
        return total

    def substitute_ones(self, k: int) -> "MultiPoly":
        """Set x_{k+1} = ... = x_s = 1 and return the result in k variables."""
        if not 1 <= k <= self.nvars:
            raise ValueError(f"k={k} out of range 1..{self.nvars}")
        out: dict[Exponents, Fraction] = {}
        for exps, coeff in self._terms.items():
            key = exps[:k]
            acc = out.get(key)
            out[key] = coeff if acc is None else acc + coeff
        return MultiPoly._from_trusted(k, {e: c for e, c in out.items() if c})

    def extend(self, nvars: int) -> "MultiPoly":
        """Reinterpret in a larger ring; new trailing variables do not occur."""
        if nvars < self.nvars:
            raise ValueError("extend target must have at least as many variables")
        pad = (0,) * (nvars - self.nvars)
        return MultiPoly._from_trusted(
            nvars, {e + pad: c for e, c in self._terms.items()}
        )

    def divide_all_vars(self) -> "MultiPoly":
        """Divide by x1*...*xs exactly.

        Raises NotDivisible if any term misses a variable, so the exception
        doubles as a divisibility test.
        """
        out: dict[Exponents, Fraction] = {}
        for exps, coeff in self._terms.items():
            if 0 in exps:
                raise NotDivisible(
                    f"term with exponents {exps} is not divisible by all variables"
                )
            out[tuple(e - 1 for e in exps)] = coeff
        return MultiPoly._from_trusted(self.nvars, out)

    def permuted(self, perm: Sequence[int]) -> "MultiPoly":
        """Apply the variable permutation sending position i to perm[i]."""
        if sorted(perm) != list(range(self.nvars)):
            raise ValueError(f"{perm!r} is not a permutation of 0..{self.nvars - 1}")
        out: dict[Exponents, Fraction] = {}
        for exps, coeff in self._terms.items():
            ne = [0] * self.nvars
            for i, e in enumerate(exps):
                ne[perm[i]] = e
            out[tuple(ne)] = coeff
        return MultiPoly._from_trusted(self.nvars, out)

    def is_symmetric(self) -> bool:
        """Invariance under an adjacent swap and the full cycle.

        These two permutations generate the whole symmetric group, so checking
        them suffices and costs only O(2 * num_terms).
        """
        s = self.nvars
        if s == 1:
            return True
        swap = list(range(s))
        swap[0], swap[1] = 1, 0
        cycle = [(i + 1) % s for i in range(s)]
        return self.permuted(swap) == self and self.permuted(cycle) == self

    # -- serialization -------------------------------------------------------

    def to_string(self) -> str:
        """Canonical text form: terms in lex-descending exponent order.

        Every term spells out all variables ("c * x1^a1*...*xs^as") so the
        variable count round-trips; the zero polynomial serializes as a single
        term with coefficient 0.
        """
        items = sorted(self._terms.items(), key=lambda kv: kv[0], reverse=True)
        if not items:
            items = [((0,) * self.nvars, Fraction(0))]
        parts = []
        for exps, coeff in items:
            mono = "*".join(f"x{i + 1}^{e}" for i, e in enumerate(exps))
            parts.append(f"{coeff} * {mono}")
        return " + ".join(parts)

    __str__ = to_string

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {self.to_string()!r})"

    @classmethod
    def from_string(cls, text: str) -> "MultiPoly":
        """Parse the canonical text form produced by to_string()."""
        terms: dict[Exponents, Fraction] = {}
        nvars = None
        for chunk in text.split(" + "):
            coeff_str, _, mono = chunk.partition(" * ")
            if not mono:
                raise ValueError(f"malformed term {chunk!r}")
            coeff = Fraction(coeff_str.strip())
            exps_by_index: dict[int, int] = {}
            for factor in mono.split("*"):
                match = _TERM_RE.match(factor.strip())
                if not match:
                    raise ValueError(f"malformed variable factor {factor!r}")
                exps_by_index[int(match.group(1)) - 1] = int(match.group(2))
            width = max(exps_by_index) + 1
            if nvars is None:
                nvars = width
            elif width != nvars:
                raise ValueError("inconsistent variable counts between terms")
            exps = tuple(exps_by_index.get(i, 0) for i in range(nvars))
            if coeff:
                terms[exps] = terms.get(exps, Fraction(0)) + coeff
        if nvars is None:
            raise ValueError("empty polynomial text")
        return cls(nvars, terms)
