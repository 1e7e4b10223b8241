"""Numeric invariants of Ulrich bundles on complete intersections, and the
non-existence certifier.

All quantities are exact: integers where integrality is guaranteed, Fractions
elsewhere.  Integrality the theory asserts (for instance of the codimension-2
class coefficient e) is checked and reported, never assumed.

Conventions for a smooth complete intersection X in P^(n+s) of degrees
d_1..d_s: S is the degree sum, S2 the sum of pairwise products, d the product
(the degree of X), and the hyperplane class generates the Picard group, so
line bundles are integer twists u.

deg Z and the surface data evaluate ulrich_functions.deg_bracket and
surface_invariants, the Noether route the ring forms are built from, at
(s, S, S2); chi_OZ (inclusion-exclusion) and deg_Z_chern stay independent
routes to check them against.

euler_table builds the whole table of chi(O_X(m)), chi(O_Z(m)) and
chi(E(m)) over a range of twists from two binomial columns, each built by
exact ratio steps and differenced by the Koszul operator prod(1 - E^-d_i);
its cost is linear in the number of twists (plus the degree sum and u) times
the size of the values, so n in the thousands takes a fraction of a second.
chi_OX, chi_OZ and chi_E compute one twist each by inclusion-exclusion
grouped by subset sum, O(s * S) binomials per twist; they are the reference
the table is tested against, and surface_data reads chi_OZ.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, prod
from operator import index
from typing import NamedTuple

from . import __version__
from .exact_arith import binom_int
from .report import FrozenRecord
from .ulrich_functions import GL4_CONSTANTS, deg_bracket, q_value, surface_invariants

NON_EXISTENCE = "NON_EXISTENCE"
EXCLUDED = "EXCLUDED"

REASON_PARITY = "parity obstruction"
REASON_Q_POSITIVITY = "q-positivity"
REASON_QUADRIC = "quadric exception"
REASON_TYPE_22 = "type-(2,2) exception"
REASON_LINE_BUNDLE = "line bundle"

HYPOTHESIS_VERY_GENERAL = "X is very general"


class ParityError(ValueError):
    """Raised when the determinant twist r(S-s)/2 is not an integer."""


class CIConfig(FrozenRecord):
    """A complete-intersection query: dimension, degree tuple, bundle rank.

    Each value must be an integer; a float raises TypeError.
    """

    __slots__ = ("n", "degrees", "r")

    def __init__(self, n: int, degrees, r: int):
        n, r, degrees = index(n), index(r), tuple(map(index, degrees))
        if n < 2:
            raise ValueError(f"dimension n must be >= 2, got {n}")
        if not degrees or any(d < 1 for d in degrees):
            raise ValueError(f"degrees must be positive integers, got {degrees}")
        if prod(degrees) < 2:
            raise ValueError("the degree of X must be at least 2")
        if r < 2:
            raise ValueError(f"rank must be >= 2, got {r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "r", r)

    @property
    def s(self) -> int:
        return len(self.degrees)

    @property
    def S(self) -> int:
        return sum(self.degrees)

    @property
    def S2(self) -> int:
        return sum(a * b for a, b in combinations(self.degrees, 2))

    @property
    def d(self) -> int:
        return prod(self.degrees)

    @property
    def i_X(self) -> int:
        """Subcanonical index: -K_X = i_X * H."""
        return -canonical_coeff(self)

    def padded(self, min_s: int) -> "CIConfig":
        """Pad the degree tuple with 1's up to min_s entries (same variety)."""
        extra = max(0, min_s - self.s)
        return CIConfig(self.n, self.degrees + (1,) * extra, self.r)


def canonical_coeff(cfg: CIConfig) -> int:
    """K_X = (S - s - n - 1) H."""
    return cfg.S - cfg.s - cfg.n - 1


def c2X_coeff(cfg: CIConfig) -> int:
    """c2(X) = [C(n+s+1, 2) + S(S - s - n - 1) - S2] H^2."""
    return comb(cfg.n + cfg.s + 1, 2) + cfg.S * canonical_coeff(cfg) - cfg.S2


def det_twist(cfg: CIConfig) -> Fraction:
    """u with det E = u H, namely r(S - s)/2 (need not be an integer)."""
    return Fraction(cfg.r * (cfg.S - cfg.s), 2)


def parity_obstruction(cfg: CIConfig) -> bool:
    """True when u = r(S - s)/2 is not an integer, so no rank-r Ulrich bundle can exist."""
    return det_twist(cfg).denominator != 1


def _det_twist_int(cfg: CIConfig) -> int:
    u = det_twist(cfg)
    if u.denominator != 1:
        raise ParityError(
            f"determinant twist u = {u} is not an integer (parity obstruction)"
        )
    return int(u)


def deg_Z(cfg: CIConfig) -> Fraction:
    """Degree of the Ulrich surface/subvariety attached to a rank-r bundle.

    deg(Z) = r d bracket / 24 with bracket = ulrich_functions.deg_bracket(r, s, S, S2).
    Invariant under padding the degrees with 1's.
    """
    bracket = deg_bracket(cfg.r, cfg.s, cfg.S, cfg.S2)
    return Fraction(cfg.r * cfg.d * bracket, 24)


def deg_Z_chern(cfg: CIConfig) -> Fraction:
    """deg(Z) through the Chern-class route, an independent cross-check.

    deg(Z) = (1/2) D^2 H^(n-2) - (1/2) D K_X H^(n-2) - (rd/24)(3n^2 + 5n + 2)
             + (r/12) K_X^2 H^(n-2) + (r/12) c2(X) H^(n-2)
    with D = u H and everything expressed through the coefficients above.
    """
    u = det_twist(cfg)
    k = canonical_coeff(cfg)
    n, r, d = cfg.n, cfg.r, cfg.d
    return (
        Fraction(1, 2) * u * u * d
        - Fraction(1, 2) * u * k * d
        - Fraction(r * d * (3 * n * n + 5 * n + 2), 24)
        + Fraction(r, 12) * k * k * d
        + Fraction(r, 12) * c2X_coeff(cfg) * d
    )


def _as_int(value: Fraction) -> int:
    # An explicit raise, not an assert, so the check also runs under python -O.
    if value.denominator != 1:
        raise ArithmeticError(f"expected an integer Euler characteristic, got {value}")
    return int(value)


def chi_E(cfg: CIConfig, m: int) -> int:
    """chi(E(m)) = r d binom(m+n, n); vanishes for m = -1..-n (Ulrich condition)."""
    return cfg.r * cfg.d * binom_int(m + cfg.n, cfg.n)


def _subset_sum_signs(degrees: tuple[int, ...]) -> dict[int, int]:
    """Coefficients of prod(1 - z^d_i): subset sum t -> sum of (-1)^|J|.

    The inclusion-exclusion over the subsets J of the degrees, grouped by
    t = sum(J); O(s * S) instead of 2^s.
    """
    coeffs = {0: 1}
    for d in degrees:
        step = dict(coeffs)
        for t, c in coeffs.items():
            step[t + d] = step.get(t + d, 0) - c
        coeffs = step
    return coeffs


def chi_OX(cfg: CIConfig, m: int) -> int:
    """chi(O_X(m)) by inclusion-exclusion over the defining degrees."""
    N = cfg.n + cfg.s
    total = 0
    for t, c in _subset_sum_signs(cfg.degrees).items():
        total += c * binom_int(m - t + N, N)
    return _as_int(total)


def chi_OZ(cfg: CIConfig, m: int) -> int:
    """chi(O_Z(m)) for the Ulrich subvariety, through the explicit expansion.

    Requires the determinant twist u = r(S-s)/2 to be an integer; raises
    ParityError otherwise.
    """
    u = _det_twist_int(cfg)
    n, s, r = cfg.n, cfg.s, cfg.r
    N = n + s
    total = binom_int(m + N, N)
    total += (-1) ** (n + 1) * r * cfg.d * binom_int(u - m - 1, n)
    total += (-1) ** (n + s) * (r - 1) * binom_int(u - m - 1, N)
    sign = (-1) ** (n + s)
    for t, c in _subset_sum_signs(cfg.degrees).items():
        if t:  # the empty subset (t = 0) gives the first and third terms above
            total += sign * c * (
                binom_int(t - m - 1, N) + (r - 1) * binom_int(t + u - m - 1, N)
            )
    return _as_int(total)


def _binomials(k: int, low: int, high: int) -> list[int]:
    """binom(x, k) for x = low..high: one binom_int, then exact ratio steps.

    binom(x, k) = binom(x - 1, k) * x / (x - k); the run of zeros at
    0 <= x < k ends with binom(k, k) = 1.
    """
    value = binom_int(low, k)
    column = [value]
    for x in range(low + 1, high + 1):
        if x == k:
            value = 1
        else:
            value, rest = divmod(value * x, x - k)
            # An explicit raise, not an assert, so the check also runs under python -O.
            if rest:
                raise ArithmeticError(f"binom({x}, {k}) is not an integer ratio step")
        column.append(value)
    return column


def _koszul(column, degrees, low: int, high: int) -> list[int]:
    """(D f)(m) for m = low..high, where column(a, b) lists f(a), ..., f(b).

    D = prod(1 - E^-d) over the degrees, E the shift m -> m + 1.  In
    ascending order, a degree at most the width of the list is one pass
    v[j] - v[j - d] over a list widened by d.  The larger degrees are summed
    over their subset sums, one list of the widened width each, so a huge
    degree costs a second list rather than d entries.
    """
    degrees = sorted(degrees)
    width = high - low + 1
    small = 0
    while small < len(degrees) and degrees[small] <= width:
        width += degrees[small]
        small += 1
    start = high - width + 1
    values = column(start, high)
    for t, c in _subset_sum_signs(degrees[small:]).items():
        if t:  # the empty subset (t = 0, c = 1) is the list itself
            shifted = column(start - t, high - t)
            values = [v + c * w for v, w in zip(values, shifted)]
    for d in degrees[:small]:
        values = [b - a for a, b in zip(values, values[d:])]
    return values


def _span(column, low: int, high: int, shift: int) -> tuple[list, list]:
    """column over low..high and over low - shift..high - shift.

    One list serves both when the two ranges meet.
    """
    width = high - low + 1
    if shift <= width:
        values = column(low - shift, high)
        return values[shift:], values[:width]
    return column(low, high), column(low - shift, high - shift)


def euler_table(cfg: CIConfig, m_low: int, m_high: int) -> list[dict]:
    """Rows {m, chi_OX, chi_OZ, chi_E} for every twist m = m_low..m_high.

    chi(O_X(m)) is the Koszul operator prod(1 - E^-d_i) applied to the one
    column binom(m + N, N), N = n + s; chi(E(m)) is r d times the column
    binom(m + n, n); chi(O_Z(m)) comes from 0 -> O_X^(r-1) -> E -> I_Z(u) -> 0:

        chi(O_Z(m)) = chi(O_X(m)) + (r - 1) chi(O_X(m - u)) - chi(E(m - u)),

    and is None when u is not an integer (parity obstruction).  The columns
    are built by ratio steps over whole ranges of twists; chi_OX, chi_OZ and
    chi_E compute one twist each and are the reference the table is tested
    against.
    """
    m_low, m_high = index(m_low), index(m_high)
    if m_low > m_high:
        raise ValueError(f"empty twist range {m_low}..{m_high}")
    n, N, rd = cfg.n, cfg.n + cfg.s, cfg.r * cfg.d
    obstructed = parity_obstruction(cfg)
    u = 0 if obstructed else _det_twist_int(cfg)

    def chi_ox(a: int, b: int) -> list[int]:
        return _koszul(lambda lo, hi: _binomials(N, lo + N, hi + N), cfg.degrees, a, b)

    def binom_n(a: int, b: int) -> list[int]:
        return _binomials(n, a + n, b + n)

    ox, ox_u = _span(chi_ox, m_low, m_high, u)
    e, e_u = _span(binom_n, m_low, m_high, u)
    return [
        {
            "m": m,
            "chi_OX": x,
            "chi_OZ": None if obstructed else x + (cfg.r - 1) * x_u - rd * y_u,
            "chi_E": rd * y,
        }
        for m, x, x_u, y, y_u in zip(range(m_low, m_high + 1), ox, ox_u, e, e_u)
    ]


def c2_E_coeff(cfg: CIConfig) -> tuple[Fraction, bool]:
    """Coefficient e with c2(E) = e H^2, and whether it is an integer.

    e = deg(Z)/d; integrality is a necessary condition whenever codimension-2
    classes on X are integer multiples of H^2, so a non-integral e is itself
    non-existence evidence under those hypotheses.
    """
    e = deg_Z(cfg) / cfg.d
    return e, e.denominator == 1


class SurfaceData(NamedTuple):
    """Numerical invariants of the Ulrich surface at n = 4.

    chi_noether is the Noether-formula value (K_Z^2 + c2(Z))/12 and
    chi_hilbert the Hilbert-polynomial value chi(O_Z); their difference is
    the contradiction witness (positive for every admissible input).
    """

    kz_h: Fraction
    kz_sq: Fraction
    c2_z: Fraction
    chi_noether: Fraction
    chi_hilbert: int

    @property
    def mismatch(self) -> Fraction:
        return self.chi_noether - self.chi_hilbert


def surface_data(cfg: CIConfig) -> SurfaceData:
    """Invariants of the rank-r Ulrich surface on a fourfold complete intersection.

    Needs n = 4 and r in {2, 3}.  At rank 3, K_Z.H comes from Riemann-Roch
    on Z, so it needs chi(O_Z) and chi(O_Z(1)); raises ParityError when u is
    not an integer.
    """
    r = cfg.r
    if cfg.n != 4 or r not in (2, 3):
        raise ValueError(f"surface data requires n = 4 and r in {{2, 3}}, got n={cfg.n}, r={r}")
    cfgp = cfg.padded(4)
    degz = deg_Z(cfgp)
    chi0 = chi_OZ(cfgp, 0)
    chi1 = chi_OZ(cfgp, 1) if r == 3 else None
    invariants = surface_invariants(r, cfgp.s, cfgp.S, cfgp.S2, degz, chi0, chi1)
    return SurfaceData(*invariants, chi_hilbert=chi0)


# ---------------------------------------------------------------------------
# Certification.
# ---------------------------------------------------------------------------


def _frac_doc(x):
    """JSON-friendly exact value: int when integral, string fraction otherwise."""
    f = Fraction(x)
    return int(f) if f.denominator == 1 else str(f)


class Certificate(NamedTuple):
    """Machine-checkable verdict for a (dimension, degrees, rank) query."""

    input: dict
    verdict: str
    reason: str
    witnesses: dict
    hypotheses: list[str]
    tool_version: str = __version__

    def to_dict(self) -> dict:
        return {
            "input": self.input,
            "verdict": self.verdict,
            "reason": self.reason,
            "witnesses": self.witnesses,
            "hypotheses": list(self.hypotheses),
            "tool_version": self.tool_version,
        }


def certify(n: int, degrees, r: int) -> Certificate:
    """Decide Ulrich non-existence for rank r <= 3 on a complete intersection.

    Requires n >= 4, every degree >= 2 and r in {1, 2, 3}; raises ValueError
    otherwise, and TypeError for a value that is not an integer, such as a
    float.  The decision path: rank 1 never admits Ulrich line bundles off
    projective space; the fourfold quadric (rank 2) and fourfold (2,2) types
    are excluded exceptions; dimensions above 4 reduce to 4 by hyperplane
    sections; then either the determinant-twist parity or the positivity of
    the obstruction value d*q at the degree tuple padded to 4 entries
    certifies non-existence.  Padding further would change witness values
    but never the verdict.  cg/sos proves d*q > 0 at every such tuple, so
    d*q <= 0 raises ArithmeticError.
    """
    n, r, degrees = index(n), index(r), tuple(map(index, degrees))
    if n < 4:
        raise ValueError(f"certification requires n >= 4, got n={n}")
    if not degrees:
        raise ValueError("at least one degree is required")
    if any(d < 2 for d in degrees):
        raise ValueError(
            f"all degrees must be >= 2 (got {degrees}); degree-1 entries are a "
            "proof device, not admissible input"
        )
    if r not in (1, 2, 3):
        raise ValueError(f"rank must be 1, 2 or 3, got {r}")

    canonical = tuple(sorted(degrees, reverse=True))
    input_doc = {"n": n, "degrees": list(canonical), "r": r}

    fixed = None
    if r == 1:
        fixed = (
            NON_EXISTENCE,
            REASON_LINE_BUNDLE,
            "Ulrich line bundles exist only on linear projective space; here deg X >= 2",
        )
    elif n == 4 and canonical == (2,) and r == 2:
        fixed = (
            EXCLUDED,
            REASON_QUADRIC,
            "the fourfold quadric carries rank-2 Ulrich bundles (spinor bundles); "
            "it is the stated exception",
        )
    elif n == 4 and canonical == (2, 2):
        fixed = (
            EXCLUDED,
            REASON_TYPE_22,
            "fourfolds of type (2,2) are outside the certified range; rank-2 "
            "Ulrich bundles exist on them",
        )
    if fixed:
        verdict, reason, note = fixed
        return Certificate(input_doc, verdict, reason, {"note": note}, [])

    # Independence of n beyond 4: hyperplane sections restrict Ulrich bundles
    # to Ulrich bundles, so a rank-r bundle upstairs would induce one on the
    # fourfold section with the same degrees.
    cfg = CIConfig(4, canonical, r).padded(4)

    if parity_obstruction(cfg):
        u = det_twist(cfg)
        return Certificate(
            input=input_doc,
            verdict=NON_EXISTENCE,
            reason=REASON_PARITY,
            witnesses={
                "u": _frac_doc(u),
                "inequality": f"u = r(S-s)/2 = {u} is not an integer, but the "
                "determinant of an Ulrich bundle is an integer twist",
            },
            hypotheses=[],
        )

    b, denom = GL4_CONSTANTS[r]
    q = q_value(cfg.degrees, b)
    w = cfg.d * q
    # An explicit raise, not an assert, so the check also runs under python -O.
    if w <= 0:
        raise ArithmeticError(f"expected d*q > 0 (cg/sos), got {w} at {cfg.degrees}")
    e, e_integral = c2_E_coeff(cfg)
    mismatch = Fraction(w, denom)
    witnesses = {
        "b": b,
        "s": cfg.s,
        "padded_degrees": list(cfg.degrees),
        "d": cfg.d,
        "q_value": q,
        "d_times_q": w,
        "euler_characteristic_mismatch": _frac_doc(mismatch),
        "inequality": f"chi_noether - chi_hilbert = d*q/{denom} = {mismatch} > 0, "
        "but both sides compute chi(O_Z) of the same surface",
        "c2_coefficient_e": _frac_doc(e),
        "e_integral": e_integral,
    }
    # At n = 4 the codimension-2 integrality needs Noether-Lefschetz
    # genericity; in higher dimension Lefschetz gives it outright.
    hypotheses = [HYPOTHESIS_VERY_GENERAL] if n == 4 else []
    return Certificate(input_doc, NON_EXISTENCE, REASON_Q_POSITIVITY, witnesses, hypotheses)


# ---------------------------------------------------------------------------
# Hypersurface arithmetic (rank 2).
# ---------------------------------------------------------------------------


def proj_h0(k: int, j: int) -> int:
    """h^0(O_{P^k}(j)): the Euler characteristic for j >= 0, zero otherwise."""
    return binom_int(j + k, k) if j >= 0 else 0


def hypersurface_hilb(n: int, d: int, m: int) -> int:
    """Hilbert polynomial P(m) = chi(O_Z(m)) of the rank-2 Ulrich locus Z.

    Z sits in a degree-d hypersurface of dimension n; its homogeneous ideal
    has 2d-1 generators in degree d-1, 2d-1 syzygies in degree d and socle
    degree 2d-1, which gives the three-binomial form below.
    """
    if n < 2 or d < 2:
        raise ValueError("need n >= 2 and d >= 2")
    value = (
        binom_int(m + n + 1, n + 1)
        - (2 * d - 1) * binom_int(m - d + n + 1, n)
        - binom_int(m - 2 * d + n + 2, n + 1)
    )
    return _as_int(value)


def hypersurface_hilbert_function(n: int, d: int, m: int) -> int:
    """Hilbert function h(m) = h^0(O_Z(m)) via truncated section counts.

    h(m) = h^0(O_{P^{n+1}}(m)) - (2d-1) h^0(O_{P^n}(m-d+1))
           - h^0(O_{P^{n+1}}(m-2d+1)).
    """
    if n < 2 or d < 2:
        raise ValueError("need n >= 2 and d >= 2")
    return (
        proj_h0(n + 1, m)
        - (2 * d - 1) * proj_h0(n, m - d + 1)
        - proj_h0(n + 1, m - 2 * d + 1)
    )


class ResolutionData(NamedTuple):
    """Free-resolution shape of the rank-2 Ulrich locus in a hypersurface."""

    generator_degree: int
    generator_count: int
    syzygy_degree: int
    syzygy_count: int
    socle_degree: int
    h0_ideal_at_generator_degree: int
    h0_normal_bundle: int


def hypersurface_resolution(n: int, d: int) -> ResolutionData:
    """Resolution data of the rank-2 Ulrich locus Z in a degree-d hypersurface.

    The ideal section count at the generator degree comes from truncated
    section counts of the resolution twists; the normal-bundle count combines
    the Hilbert function at d-1 with the generator/syzygy contributions.
    """
    if n < 2 or d < 2:
        raise ValueError("need n >= 2 and d >= 2")
    g = 2 * d - 1
    # h^0(J_Z(d-1)): all three resolution twists truncate to (1, 0, 0).
    h0_ideal = (
        g * proj_h0(n + 1, 0) - g * proj_h0(n + 1, -1) + proj_h0(n + 1, -d)
    )
    h0_oz = hypersurface_hilbert_function(n, d, d - 1)
    h0_normal = g * h0_oz + comb(g, 2) * (n + 2) - g * binom_int(d + n, n + 1)
    return ResolutionData(
        generator_degree=d - 1,
        generator_count=g,
        syzygy_degree=d,
        syzygy_count=g,
        socle_degree=2 * d - 1,
        h0_ideal_at_generator_degree=h0_ideal,
        h0_normal_bundle=h0_normal,
    )


class DimensionCheck(NamedTuple):
    """Outcome of the hypersurface incidence dimension count."""

    n: int
    d: int
    lhs: int
    rhs: int
    contradiction: bool


def hyper3_dimension_check(n: int, d: int) -> DimensionCheck:
    """Compare the family of hypersurfaces against the family of Ulrich loci.

    lhs = C(d+n+1, n+1) - 1 + 2d - 1 (hypersurface moduli plus the section
    family each candidate carries) must fit inside rhs = nd(2d-1) - 1 (Hilbert
    scheme bound); lhs > rhs certifies non-existence for the general member.
    """
    if n not in (2, 3, 4):
        raise ValueError(f"dimension count applies to n in {{2, 3, 4}}, got {n}")
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    lhs = comb(d + n + 1, n + 1) - 1 + 2 * d - 1
    rhs = n * d * (2 * d - 1) - 1
    return DimensionCheck(n=n, d=d, lhs=lhs, rhs=rhs, contradiction=lhs > rhs)
