"""Sparse multivariate polynomial arithmetic over exact rationals.

A polynomial in s variables x1..xs is stored as a map from packed exponent
keys to nonzero integer numerators, over one positive integer denominator
shared by all terms.  A key is the exponent vector read as a big-endian
int, one byte (FIELD_BITS) per variable, x1 in the top byte, so int order is
lex order of the exponent vectors.  Each field keeps its top bit clear as a
guard, which caps every exponent at MAX_EXP and shows a carry or a borrow
of the key arithmetic.  Ring operations
run on Python ints (a product of monomials is a sum of keys) followed by one
gcd pass; coefficients are handed out as Fractions and exponents as tuples.
The representation is canonical (no zero numerators, the denominator and
the numerators have gcd 1, the zero polynomial has denominator 1, fixed
variable count), so two polynomials are equal exactly when their term maps
and denominators are equal.  All values are immutable; every operation
returns a fresh polynomial, which makes them safe to share across threads
or worker processes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_
from typing import Iterator, Mapping, Sequence

# Hard cap on the variable count.  Term counts grow combinatorially with the
# number of variables; 12 keeps worst-case memory deterministic at desk scale.
MAX_VARS = 12

#: Bits per variable in a packed key, the exponent under one guard bit: one
#: byte, so that _pack and _unpack are bytes conversions.
FIELD_BITS = 8
#: Largest exponent a variable may carry; anything larger raises ValueError.
MAX_EXP = (1 << (FIELD_BITS - 1)) - 1
_MASK = (1 << FIELD_BITS) - 1
#: _ONES[n] is the key of x1*...*xn, and _GUARDS[n] has every guard bit of n fields.
_ONES = [sum(1 << FIELD_BITS * i for i in range(n)) for n in range(MAX_VARS + 1)]
_GUARDS = [ones << FIELD_BITS - 1 for ones in _ONES]

Exponents = tuple  # length-nvars tuple of ints in 0..MAX_EXP, the public form of a key


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
    """value as a Fraction, refusing floats, which would enter as binary fractions."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(f"inexact float {value!r}; pass an int or a Fraction")
    return Fraction(value)


def _pack(exps: Sequence[int]) -> int:
    """The key of an exponent vector whose entries lie in 0..MAX_EXP."""
    return int.from_bytes(bytes(exps), "big")


def _shifts(nvars: int) -> range:
    """Where each variable's field starts in a key, x1 first."""
    return range(FIELD_BITS * (nvars - 1), -1, -FIELD_BITS)


def _unpack(key: int, nvars: int) -> Exponents:
    return tuple(key.to_bytes(nvars, "big"))


def _spills(keys, guard: int) -> bool:
    """Whether a key went negative or set a guard bit: a field left 0..MAX_EXP."""
    spread = reduce(or_, keys, 0)
    return spread < 0 or spread & guard != 0


def _overflow(operation: str) -> ValueError:
    return ValueError(f"{operation} has an exponent above MAX_EXP={MAX_EXP}")


class MultiPoly:
    """Immutable sparse polynomial in x1..xs with rational coefficients.

    The coefficient of x^e is Fraction(_num[_pack(e)], _den).
    """

    __slots__ = ("nvars", "_num", "_den")

    def __init__(self, nvars: int, terms: Mapping[Exponents, object] | None = None):
        _check_nvars(nvars)
        clean: dict[int, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise DimensionMismatch(
                        f"exponent vector {exps!r} has length {len(exps)}, expected {nvars}"
                    )
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps!r}")
                if any(e > MAX_EXP for e in exps):
                    raise ValueError(f"exponent in {exps!r} is above MAX_EXP={MAX_EXP}")
                c = _exact(coeff)
                if c:
                    clean[_pack(exps)] = c
        den = lcm(*(c.denominator for c in clean.values()))
        num = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    @classmethod
    def _from_trusted(cls, nvars: int, num: dict[int, int], den: int) -> "MultiPoly":
        # Internal fast path: caller guarantees keys within the field caps,
        # nonzero int numerators and a positive denominator coprime to them.
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)
        return self

    @classmethod
    def _reduced(cls, nvars: int, num: dict[int, int], den: int) -> "MultiPoly":
        # Nonzero int numerators over den > 0, divided by their common gcd.
        g = gcd(den, *num.values()) if den != 1 else 1
        if g != 1:
            num = {e: c // g for e, c in num.items()}
            den //= g
        return cls._from_trusted(nvars, num, den)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("MultiPoly is immutable")

    def __reduce__(self):
        # pickle and copy would restore the slots through __setattr__; the
        # pickled state is the public tuple form, independent of the key layout.
        return (MultiPoly, (self.nvars, dict(self.terms())))

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars: int, value) -> "MultiPoly":
        _check_nvars(nvars)
        c = _exact(value)
        return cls._from_trusted(nvars, {0: c.numerator} if c else {}, c.denominator)

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
        nvars, den = self.nvars, self._den
        return ((_unpack(e, nvars), Fraction(c, den)) for e, c in self._num.items())

    @property
    def num_terms(self) -> int:
        return len(self._num)

    @property
    def is_zero(self) -> bool:
        return not self._num

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0 by convention."""
        return max((sum(_unpack(e, self.nvars)) for e in self._num), default=0)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise DimensionMismatch(
                f"exponent vector length {len(exps)} != nvars {self.nvars}"
            )
        if not all(0 <= e <= MAX_EXP for e in exps):
            return Fraction(0)  # no term can carry it
        return Fraction(self._num.get(_pack(exps), 0), self._den)

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
        out: dict[int, int] = {}
        get = out.get
        right = other._num.items()
        for e1, c1 in self._num.items():
            for e2, c2 in right:
                key = e1 + e2
                out[key] = get(key, 0) + c1 * c2
        if _spills(out, _GUARDS[self.nvars]):
            raise _overflow("product")
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
        for key, coeff in self._num.items():
            term = coeff
            for e, v in zip(_unpack(key, self.nvars), values):
                if e:
                    term *= v**e
            total += term
        return Fraction(total, self._den)

    def substitute_ones(self, k: int) -> "MultiPoly":
        """Set x_{k+1} = ... = x_s = 1 and return the result in k variables."""
        if not 1 <= k <= self.nvars:
            raise ValueError(f"k={k} out of range 1..{self.nvars}")
        shift = FIELD_BITS * (self.nvars - k)  # drops the trailing fields
        out: dict[int, int] = {}
        get = out.get
        for e, coeff in self._num.items():
            key = e >> shift
            out[key] = get(key, 0) + coeff
        return MultiPoly._reduced(k, {e: c for e, c in out.items() if c}, self._den)

    def extend(self, nvars: int) -> "MultiPoly":
        """Reinterpret in a larger ring; new trailing variables do not occur."""
        if nvars < self.nvars:
            raise ValueError("extend target must have at least as many variables")
        _check_nvars(nvars)
        shift = FIELD_BITS * (nvars - self.nvars)
        return MultiPoly._from_trusted(
            nvars, {e << shift: c for e, c in self._num.items()}, self._den
        )

    def divide_all_vars(self) -> "MultiPoly":
        """Divide by x1*...*xs exactly.

        Raises NotDivisible if any term misses a variable, so the exception
        doubles as a divisibility test.
        """
        ones, guard = _ONES[self.nvars], _GUARDS[self.nvars]
        # A zero field borrows: its key goes negative or sets a guard bit.
        out = {e - ones: c for e, c in self._num.items()}
        if _spills(out, guard):
            exps = next(
                _unpack(e, self.nvars) for e in self._num if _spills((e - ones,), guard)
            )
            raise NotDivisible(
                f"term with exponents {exps} is not divisible by all variables"
            )
        return MultiPoly._from_trusted(self.nvars, out, self._den)

    def times_all_vars(self) -> "MultiPoly":
        """Multiply by x1*...*xs: every exponent goes up by one."""
        ones = _ONES[self.nvars]
        out = {e + ones: c for e, c in self._num.items()}
        if _spills(out, _GUARDS[self.nvars]):
            raise _overflow("times_all_vars")
        return MultiPoly._from_trusted(self.nvars, out, self._den)

    def is_symmetric(self) -> bool:
        """Invariance under an adjacent swap and the full cycle.

        These two permutations generate the whole symmetric group, so it
        suffices that each term's image under both carries the same
        coefficient, which costs O(2 * num_terms) lookups.
        """
        if self.nvars == 1:
            return True
        get = self._num.get
        top = FIELD_BITS * (self.nvars - 1)  # the shift of the x1 field
        second = top - FIELD_BITS
        swap = (1 << top) - (1 << second)  # adding d * swap moves d from x2 to x1
        return all(
            get(e + ((e >> second & _MASK) - (e >> top)) * swap) == c
            and get(e >> FIELD_BITS | (e & _MASK) << top) == c
            for e, c in self._num.items()
        )

    # -- text form ---------------------------------------------------------

    def to_string(self) -> str:
        """Canonical text form: terms in lex-descending exponent order.

        Every term spells out all variables ("c * x1^a1*...*xs^as") so the
        variable count shows; the zero polynomial prints as a single term with
        coefficient 0.  Witnesses carry this text.
        """
        items = sorted(self._num.items(), reverse=True) or [(0, 0)]
        parts = []
        for key, coeff in items:
            exps = _unpack(key, self.nvars)
            mono = "*".join(f"x{i + 1}^{e}" for i, e in enumerate(exps))
            parts.append(f"{Fraction(coeff, self._den)} * {mono}")
        return " + ".join(parts)

    __str__ = to_string

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {self.to_string()!r})"
