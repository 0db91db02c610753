"""Ehrhart quasi-polynomials by exact interpolation.

For a rational polygon (or semi-open region) with coordinate denominator
lcm D, the counting function n |-> |nP ∩ Z^2| is a degree-2 quasi-polynomial
whose coefficient functions have period dividing D.  We therefore fit, for
each residue class r mod D, an exact quadratic through the counts at
n = r, r+D, r+2D, and verify it against one further count at r+3D.  The
verification turns the divisibility premise into a checked fact instead of
an assumption.  The fit and the verification run on integer forward
differences; only the finished coefficients become Fractions.  `is_pip`
builds no tables: it stops at the first count that leaves the quadratic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .geometry import (
    Polygon,
    _lattice_line,
    coord_lcm,
    denominator,
    lattice_count,
)
from .regions import RegionUnion, SemiOpenRegion, region_count


class VerificationFailure(ArithmeticError):
    """An interpolated quasi-polynomial failed its extra-sample check."""


class PeriodSequence(NamedTuple):
    s2: int
    s1: int
    s0: int
    quasi_period: int


@dataclass(frozen=True)
class EhrhartQuasiPolynomial:
    """Degree-2 quasi-polynomial as per-residue coefficient tables.

    `c2[r]`, `c1[r]`, `c0[r]` hold the coefficients valid for n ≡ r (mod
    modulus); tables are tuples of Fractions indexed by r in 0..modulus-1.
    """

    modulus: int
    c2: tuple[Fraction, ...]
    c1: tuple[Fraction, ...]
    c0: tuple[Fraction, ...]
    _periods: PeriodSequence | None = field(
        default=None, init=False, compare=False, repr=False)

    def evaluate(self, n: int) -> Fraction:
        r = n % self.modulus
        return self.c2[r] * n * n + self.c1[r] * n + self.c0[r]

    def coefficient(self, i: int, n: int) -> Fraction:
        return (self.c0, self.c1, self.c2)[i][n % self.modulus]

    def period_sequence(self) -> PeriodSequence:
        """The minimal periods, computed on the first call and kept."""
        if self._periods is None:
            s2 = minimal_period(self.c2)
            s1 = minimal_period(self.c1)
            s0 = minimal_period(self.c0)
            object.__setattr__(self, "_periods",
                               PeriodSequence(s2, s1, s0, math.lcm(s0, s1, s2)))
        return self._periods

    @property
    def quasi_period(self) -> int:
        return self.period_sequence().quasi_period

    @property
    def is_polynomial(self) -> bool:
        return self.quasi_period == 1


def region_denominator(R) -> int:
    """lcm of coordinate denominators of all vertices and removed endpoints."""
    if isinstance(R, Polygon):
        return denominator(R)
    if isinstance(R, SemiOpenRegion):
        pts = list(R.closed.vertices)
        for seg in R.removed:
            pts.extend((seg.open_end, seg.closed_end))
        return coord_lcm(pts)
    if isinstance(R, RegionUnion):
        return math.lcm(*(region_denominator(p) for p in R.pieces))
    raise TypeError(f"no denominator for {type(R).__name__}")


def ehrhart(R, extra_checks: int = 1) -> EhrhartQuasiPolynomial:
    """Interpolate the Ehrhart quasi-polynomial of a polygon or region.

    Counts at n = r + kD for k = 0, 1, 2 determine each residue class; the
    count at k = 3 (and beyond, if extra_checks > 1) must match or a
    VerificationFailure is raised.  An extra_checks below 1 would leave
    the tables unchecked, so it raises ValueError.
    """
    if not isinstance(extra_checks, int) or extra_checks < 1:
        raise ValueError(f"extra_checks must be an integer >= 1, got {extra_checks!r}")
    D = region_denominator(R)
    counts = [0] + [region_count(R, n) for n in range(1, (3 + extra_checks) * D + 1)]
    den = 2 * D * D
    c2 = [Fraction(0)] * D
    c1 = [Fraction(0)] * D
    c0 = [Fraction(0)] * D
    for r in range(1, D + 1):
        v0, v1, v2 = counts[r], counts[r + D], counts[r + 2 * D]
        # the quadratic through them, in forward differences: value
        # v0 + k*d1 + k(k-1)/2 * d2 at n = r + kD
        d1, d2 = v1 - v0, v2 - 2 * v1 + v0
        for k in range(3, 3 + extra_checks):
            n = r + k * D
            got = v0 + k * d1 + k * (k - 1) // 2 * d2
            if got != counts[n]:
                raise VerificationFailure(
                    f"interpolated value {got} != count {counts[n]} at n={n} "
                    f"(residue {r % D} mod {D})")
        # substituting k = (n - r)/D gives coefficients over 2D^2
        idx = r % D
        c2[idx] = Fraction(d2, den)
        c1[idx] = Fraction(2 * D * d1 - (2 * r + D) * d2, den)
        c0[idx] = Fraction(den * v0 - 2 * r * D * d1 + r * (r + D) * d2, den)
    return EhrhartQuasiPolynomial(D, tuple(c2), tuple(c1), tuple(c0))


def minimal_period(values) -> int:
    """Smallest divisor p of len(values) with values[(i+p) % D] == values[i].

    Periods of an Ehrhart coefficient table always divide the modulus, so
    only divisors need checking.
    """
    D = len(values)
    for p in range(1, D + 1):
        if D % p:
            continue
        if all(values[i] == values[(i + p) % D] for i in range(D)):
            return p
    raise AssertionError("unreachable: D is a period of itself")


def period_sequence(R) -> PeriodSequence:
    return ehrhart(R).period_sequence()


def is_pip(R) -> bool:
    """Pseudo-integral: the Ehrhart quasi-polynomial is a true polynomial.

    Equals ``ehrhart(R).quasi_period == 1`` without building the tables:
    that holds iff the counts at n = 1..4D lie on one quadratic, i.e. every
    third difference vanishes.  The first nonzero one proves the counts are
    not a polynomial, so the test stops there.
    """
    D = region_denominator(R)
    a, b, c = (region_count(R, n) for n in (1, 2, 3))
    for n in range(4, 4 * D + 1):
        v = region_count(R, n)
        if v - 3 * c + 3 * b - a:
            return False
        a, b, c = b, c, v
    return True


def mcmullen_indices(P: Polygon) -> tuple[int, int, int]:
    """(p2, p1, p0): least dilations making all i-faces meet the lattice.

    p2 = 1 always (the affine span of a polygon is the whole plane);
    p1 = lcm over edges of the least p making the edge's line hit Z^2;
    p0 = lcm of vertex coordinate denominators.  By construction
    p2 | p1 | p0, and each coefficient period s_i divides p_i.
    """
    Q, V = P._Q, P._V
    p1 = 1
    for a, b in zip(V, V[1:] + V[:1]):
        # the line of p*edge meets Z^2 iff Q divides p*c (see _lattice_line)
        c = _lattice_line(a, b)[0]
        p1 = math.lcm(p1, Q // math.gcd(Q, c))
    return 1, p1, Q


def series_coefficients(t: int, N: int) -> list[int]:
    """First N coefficients of (1 - z)^(-2) * (1 - z^t)^(-1)."""
    out = [0] * N
    for j in range(0, N, t):
        for k in range(j, N):
            out[k] += k - j + 1
    return out


def gf_series_check(P: Polygon, t: int, N: int) -> bool:
    """Compare counts of P against the generating function with a pole at
    the t-th roots of unity; the n = 0 term is taken to be 1."""
    if N < 3 * t:
        raise ValueError(f"need N >= 3t for a meaningful check, got N={N}, t={t}")
    expected = series_coefficients(t, N)
    if expected[0] != 1:
        return False
    return all(lattice_count(P, k) == expected[k] for k in range(1, N))
