"""Sparse multivariate polynomial arithmetic over exact rationals.

A polynomial in s variables x1..xs is stored as a map from length-s exponent
tuples to nonzero integer numerators, over one positive integer denominator
shared by all terms.  The representation is canonical (no zero numerators,
the denominator and the numerators have gcd 1, the zero polynomial has
denominator 1, fixed variable count), so two polynomials are equal exactly
when their term maps and denominators are equal.  Ring operations run on
Python ints followed by one gcd pass; coefficients are handed out as
Fractions.  All values are immutable; every operation returns a fresh
polynomial, which makes them safe to share across threads or worker
processes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Iterator, Mapping, Sequence

# Hard cap on the variable count.  Term counts grow combinatorially with the
# number of variables; 12 keeps worst-case memory deterministic at desk scale.
MAX_VARS = 12

Exponents = tuple  # length-nvars tuple of non-negative ints


class DimensionMismatch(ValueError):
    """Raised when two polynomials over different variable counts are combined."""


class NotDivisible(ValueError):
    """Raised when a polynomial is not divisible by the product of all variables."""


def _check_nvars(nvars) -> None:
    """Raise the ValueError of the constructor unless 1 <= nvars <= MAX_VARS."""
    if not isinstance(nvars, int) or nvars < 1:
        raise ValueError(f"nvars must be a positive integer, got {nvars!r}")
    if nvars > MAX_VARS:
        raise ValueError(f"nvars={nvars} exceeds MAX_VARS={MAX_VARS}")


def _exact(value) -> Fraction:
    """Fraction(value), refusing floats, which would enter as binary fractions."""
    if isinstance(value, float):
        raise TypeError(f"inexact float {value!r}; pass an int or a Fraction")
    return Fraction(value)


class MultiPoly:
    """Immutable sparse polynomial in x1..xs with rational coefficients.

    The coefficient of x^e is Fraction(_num[e], _den).
    """

    __slots__ = ("nvars", "_num", "_den")

    def __init__(self, nvars: int, terms: Mapping[Exponents, object] | None = None):
        _check_nvars(nvars)
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
        den = lcm(*(c.denominator for c in clean.values()))
        num = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    @classmethod
    def _from_trusted(
        cls, nvars: int, num: dict[Exponents, int], den: int
    ) -> "MultiPoly":
        # Internal fast path: caller guarantees canonical keys, nonzero int
        # numerators and a positive denominator coprime to them.
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)
        return self

    @classmethod
    def _reduced(cls, nvars: int, num: dict[Exponents, int], den: int) -> "MultiPoly":
        # Nonzero int numerators over den > 0, divided by their common gcd.
        g = gcd(den, *num.values()) if den != 1 else 1
        if g != 1:
            num = {e: c // g for e, c in num.items()}
            den //= g
        return cls._from_trusted(nvars, num, den)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("MultiPoly is immutable")

    def __reduce__(self):
        # pickle and copy would restore the slots through __setattr__.
        return (MultiPoly._from_trusted, (self.nvars, self._num, self._den))

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
        return cls(nvars, {tuple(exps): 1})

    @classmethod
    def gens(cls, nvars: int) -> list["MultiPoly"]:
        return [cls.variable(nvars, i) for i in range(nvars)]

    # -- inspection --------------------------------------------------------

    def terms(self) -> Iterator[tuple[Exponents, Fraction]]:
        den = self._den
        return ((e, Fraction(c, den)) for e, c in self._num.items())

    @property
    def num_terms(self) -> int:
        return len(self._num)

    @property
    def is_zero(self) -> bool:
        return not self._num

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0 by convention."""
        return max((sum(e) for e in self._num), default=0)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise DimensionMismatch(
                f"exponent vector length {len(exps)} != nvars {self.nvars}"
            )
        return Fraction(self._num.get(exps, 0), self._den)

    # -- ring operations ---------------------------------------------------

    def _check_same_ring(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise DimensionMismatch(
                f"operands have {self.nvars} and {other.nvars} variables"
            )

    def _plus(self, other, sign: int) -> "MultiPoly":
        """self + sign * other over the least common denominator."""
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same_ring(other)
        d1, d2 = self._den, other._den
        if d1 == d2:
            out = dict(self._num)
            den = d1
        else:
            g = gcd(d1, d2)
            lift = d2 // g
            out = {e: c * lift for e, c in self._num.items()}
            sign *= d1 // g
            den = d1 * lift
        for exps, coeff in other._num.items():
            acc = out.get(exps, 0) + sign * coeff
            if acc:
                out[exps] = acc
            else:
                del out[exps]
        return MultiPoly._reduced(self.nvars, out, den)

    def __add__(self, other) -> "MultiPoly":
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._from_trusted(
            self.nvars, {e: -c for e, c in self._num.items()}, self._den
        )

    def __sub__(self, other) -> "MultiPoly":
        return self._plus(other, -1)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def scale(self, value) -> "MultiPoly":
        c = _exact(value)
        if not c:
            return MultiPoly.zero(self.nvars)
        p = c.numerator
        num = {e: p * v for e, v in self._num.items()}
        return MultiPoly._reduced(self.nvars, num, self._den * c.denominator)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same_ring(other)
        out: dict[Exponents, int] = {}
        get = out.get
        for e1, c1 in self._num.items():
            for e2, c2 in other._num.items():
                key = tuple(map(add, e1, e2))
                out[key] = get(key, 0) + c1 * c2
        return MultiPoly._reduced(
            self.nvars, {e: c for e, c in out.items() if c}, self._den * other._den
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
        return (
            self.nvars == other.nvars
            and self._den == other._den
            and self._num == other._num
        )

    def __bool__(self) -> bool:
        return bool(self._num)

    # -- evaluation and substitution ----------------------------------------

    def eval(self, point: Sequence) -> Fraction:
        """Exact evaluation at a point of ints/Fractions (one value per variable)."""
        values = [_exact(v) for v in point]
        if len(values) != self.nvars:
            raise DimensionMismatch(
                f"point has length {len(values)}, expected {self.nvars}"
            )
        total = 0
        for exps, coeff in self._num.items():
            term = coeff
            for e, v in zip(exps, values):
                if e:
                    term *= v**e
            total += term
        return Fraction(total, self._den)

    def substitute_ones(self, k: int) -> "MultiPoly":
        """Set x_{k+1} = ... = x_s = 1 and return the result in k variables."""
        if not 1 <= k <= self.nvars:
            raise ValueError(f"k={k} out of range 1..{self.nvars}")
        out: dict[Exponents, int] = {}
        get = out.get
        for exps, coeff in self._num.items():
            key = exps[:k]
            out[key] = get(key, 0) + coeff
        return MultiPoly._reduced(k, {e: c for e, c in out.items() if c}, self._den)

    def extend(self, nvars: int) -> "MultiPoly":
        """Reinterpret in a larger ring; new trailing variables do not occur."""
        if nvars < self.nvars:
            raise ValueError("extend target must have at least as many variables")
        _check_nvars(nvars)
        pad = (0,) * (nvars - self.nvars)
        return MultiPoly._from_trusted(
            nvars, {e + pad: c for e, c in self._num.items()}, self._den
        )

    def divide_all_vars(self) -> "MultiPoly":
        """Divide by x1*...*xs exactly.

        Raises NotDivisible if any term misses a variable, so the exception
        doubles as a divisibility test.
        """
        out: dict[Exponents, int] = {}
        for exps, coeff in self._num.items():
            if 0 in exps:
                raise NotDivisible(
                    f"term with exponents {exps} is not divisible by all variables"
                )
            out[tuple([e - 1 for e in exps])] = coeff
        return MultiPoly._from_trusted(self.nvars, out, self._den)

    def times_all_vars(self) -> "MultiPoly":
        """Multiply by x1*...*xs: every exponent goes up by one."""
        return MultiPoly._from_trusted(
            self.nvars,
            {tuple([e + 1 for e in exps]): c for exps, c in self._num.items()},
            self._den,
        )

    def is_symmetric(self) -> bool:
        """Invariance under an adjacent swap and the full cycle.

        These two permutations generate the whole symmetric group, so it
        suffices that each term's image under both carries the same
        coefficient, which costs O(2 * num_terms) lookups.
        """
        if self.nvars == 1:
            return True
        get = self._num.get
        return all(
            get((e[1], e[0]) + e[2:]) == c and get(e[-1:] + e[:-1]) == c
            for e, c in self._num.items()
        )

    # -- text form ---------------------------------------------------------

    def to_string(self) -> str:
        """Canonical text form: terms in lex-descending exponent order.

        Every term spells out all variables ("c * x1^a1*...*xs^as") so the
        variable count shows; the zero polynomial prints as a single term with
        coefficient 0.  Witnesses carry this text.
        """
        items = sorted(self._num.items(), key=lambda kv: kv[0], reverse=True)
        if not items:
            items = [((0,) * self.nvars, 0)]
        parts = []
        for exps, coeff in items:
            mono = "*".join(f"x{i + 1}^{e}" for i, e in enumerate(exps))
            parts.append(f"{Fraction(coeff, self._den)} * {mono}")
        return " + ".join(parts)

    __str__ = to_string

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {self.to_string()!r})"
