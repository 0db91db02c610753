"""Ehrhart quasi-polynomials of rational polygons, from their edges.

For a rational polygon, or a region that `regions._pieces` splits into
polygons, removed segments and seams, with denominator lcm D, the count
L(n) = |nP ∩ Z^2| is a degree-2 quasi-polynomial whose coefficients have
period dividing D.  Two of them need no counting.  c2 is the area, with
period 1 (McMullen).  c1 is one sawtooth per edge, set by how far the
edge's line lies from the next lattice line parallel to it.  The constant
term c0(r) = L(r) - c2 r^2 - c1(r) r takes one count per residue r = 1..D.

Every table entry is checked.  Ehrhart-Macdonald reciprocity gives q(-r)
as L(r) minus a boundary defect that is counted edge by edge, so the count
at r is checked against the count at D - r.  The two residues paired with
themselves get their own checks: the constant term of the integral
polygon DP is 1, and, when D is even, one more count at n = 3D/2 must match
the tables.  A failed check raises VerificationFailure.  Everything runs on
integers over 2D^2, and the tables stay integers over one reduced
denominator: periods and JSON are taken from the integers, and a table
becomes Fractions only when its `c2`, `c1` or `c0` view is read.

`is_pip` builds no tables for a polygon: p1 != 1 rules it out, and
otherwise c1 is half its lattice perimeter, and the test stops at the
first count that leaves c2 n^2 + c1 n + 1; a PIP's (I, b) follow from c2
and c1 (`_pip_signature`).  A region with a removed
segment or a seam is a PIP when its `ehrhart` tables have quasi-period 1.
The interpolating fit, `ehrhart_interpolated`, is kept as the oracle the
engine is tested against.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .geometry import (
    Polygon,
    _area_numerator,
    _edge_lines,
    _line,
    _require_int,
    _segment_count,
    lattice_count,
)
from .regions import InvalidRegion, _pieces, region_count, region_denominator


class VerificationFailure(ArithmeticError):
    """A count disagreed with the quasi-polynomial that must produce it."""


class PeriodSequence(NamedTuple):
    s2: int
    s1: int
    s0: int
    quasi_period: int


@dataclass(frozen=True, init=False)
class EhrhartQuasiPolynomial:
    """Degree-2 quasi-polynomial as per-residue coefficient tables.

    The coefficients valid for n ≡ r (mod modulus) are `a2[r] / den`,
    `a1[r] / den` and `a0[r] / den`: three tuples of integers indexed by r
    in 0..modulus-1 over one denominator, divided by the gcd of all of
    them, so equal quasi-polynomials have equal tuples and hash alike.
    `c2`, `c1` and `c0` are the same tables as Fractions, built when first
    read.  The constructor takes tables of anything `Fraction` takes, as
    `point` does: 0.5, "1/2" and Fraction(1, 2) give the same table.
    """

    modulus: int
    den: int
    a2: tuple[int, ...]
    a1: tuple[int, ...]
    a0: tuple[int, ...]

    def __init__(self, modulus: int, c2, c1, c0):
        _require_int("modulus", modulus, 1)
        tables = [[Fraction(x) for x in t] for t in (c2, c1, c0)]
        if any(len(t) != modulus for t in tables):
            raise ValueError(f"coefficient tables must have {modulus} entries, "
                             f"got {tuple(len(t) for t in tables)}")
        # the lcm of the reduced denominators is already the least one
        den = math.lcm(*(x.denominator for t in tables for x in t))
        self._set(modulus, den, *(tuple(x.numerator * (den // x.denominator) for x in t)
                                  for t in tables))

    @classmethod
    def _from_ints(cls, modulus: int, den: int, *tables: list[int]) -> EhrhartQuasiPolynomial:
        """The tables a2, a1, a0 over den > 0, given as lists of integers;
        the lists are divided in place by the gcd of den and all entries."""
        g = math.gcd(den, *(math.gcd(*a) for a in tables))
        if g > 1:
            den //= g
            for a in tables:
                _divide(a, g)
        q = cls.__new__(cls)
        q._set(modulus, den, *map(tuple, tables))
        return q

    def _set(self, modulus: int, den: int, a2, a1, a0) -> None:
        for name, value in (("modulus", modulus), ("den", den), ("a2", a2),
                            ("a1", a1), ("a0", a0)):
            object.__setattr__(self, name, value)

    c2 = cached_property(lambda q: tuple(Fraction(x, q.den) for x in q.a2))
    c1 = cached_property(lambda q: tuple(Fraction(x, q.den) for x in q.a1))
    c0 = cached_property(lambda q: tuple(Fraction(x, q.den) for x in q.a0))

    def evaluate(self, n: int) -> Fraction:
        _require_int("n", n)
        r = n % self.modulus
        return Fraction(self.a2[r] * n * n + self.a1[r] * n + self.a0[r], self.den)

    def coefficient(self, i: int, n: int) -> Fraction:
        """c_i(n), the coefficient of n^i, for i = 0, 1 or 2."""
        if type(i) is not int or i not in (0, 1, 2):
            raise ValueError(f"i must be 0, 1 or 2, got {i!r}")
        _require_int("n", n)
        return Fraction((self.a0, self.a1, self.a2)[i][n % self.modulus], self.den)

    @cached_property
    def _periods(self) -> PeriodSequence:
        s2, s1, s0 = map(minimal_period, (self.a2, self.a1, self.a0))
        return PeriodSequence(s2, s1, s0, math.lcm(s0, s1, s2))

    def period_sequence(self) -> PeriodSequence:
        """The minimal periods, computed on the first call and kept."""
        return self._periods

    @property
    def quasi_period(self) -> int:
        return self.period_sequence().quasi_period

    @property
    def is_polynomial(self) -> bool:
        return self.quasi_period == 1


def _require_table_size(D: int) -> None:
    """Raise ValueError, before any table is built, when no list of D
    entries can be indexed."""
    if D > sys.maxsize:
        raise ValueError(f"denominator D = {D} is larger than the largest table "
                         f"size, {sys.maxsize}")


def _divide(a: list[int], g: int) -> None:
    """Divide every entry of a by g in place, with one quotient per run of
    equal entries, so a table of one repeated value keeps one object."""
    x = q = None
    for i, y in enumerate(a):
        if y != x:
            x, q = y, y // g
        a[i] = q


def _linear_numerators(D: int, polys, segs) -> list[int]:
    """2D^2 * c1(r) for the residues r = 0..D-1.

    c1(n) is the sum over polygon edges of (g/Q)(1/2 - {-n*c/Q}), minus
    (g/Q)[Q | n*c] for each segment, with (c, k, g) the edge's or segment's
    `_lattice_line` over its Q.  Each sawtooth has period Q, which divides D.
    """
    const = 0
    c1 = [0] * D
    for P in polys:
        Q = P._Q
        m = D // Q
        for c, _, g, _, _ in _edge_lines(P):
            const += g * m * D
            if c % Q:
                w = 2 * g * m * m
                c1 = [x - y for x, y in zip(c1, [w * (-r * c % Q) for r in range(Q)] * m)]
    for s in segs:
        Q, (c, _, g, _, _) = s._Q, s._lines[0]
        m = D // Q
        w = 2 * g * m * D
        c1 = [x - y for x, y in zip(c1, [0 if r * c % Q else w for r in range(Q)] * m)]
    return [x + const for x in c1]


def _defects(D: int, polys, segs) -> list[int]:
    """L(n) - q(-n) for n = 0..D (index n), the count that reciprocity
    leaves out: the boundary points of each polygon (its `boundary_count`,
    one half-open count per edge), less |n(a,b]| + |n[a,b)| per segment.

    An edge or segment line meets Z^2 only at multiples of p = Q/gcd(Q, c),
    so only those n are counted.
    """
    d = [0] * (D + 1)
    terms = ([(line, P._Q, 1) for P in polys for line in _edge_lines(P)]
             + [(line, s._Q, -1) for s in segs for line in s._lines])
    for line, Q, sign in terms:
        p = Q // math.gcd(Q, line[0])
        for n in range(p, D + 1, p):
            d[n] += sign * _segment_count(line, Q, n, False)
    return d


def ehrhart(R) -> EhrhartQuasiPolynomial:
    """The Ehrhart quasi-polynomial of a polygon or region, checked.

    c2 and c1 come in closed form from the edges and c0 from the counts at
    n = 1..D.  Reciprocity checks the count at each n against the count at
    D - n; n = D is checked by c0(0) = 1 and, for even D, n = D/2 by one
    more count at 3D/2.  Any mismatch raises VerificationFailure, and a D
    too large for a table to hold, or whose tables do not fit in memory,
    ValueError naming D.
    """
    polys, removed, seams = _pieces(R)
    # seams join the removed segments: a closed seam has the c1 sawtooth and
    # the reciprocity defect |n(a,b]| + |n[a,b)| of a half-open one, and its
    # extra end point changes only c0, which comes from the counts
    D, segs = region_denominator(R), removed + seams
    _require_table_size(D)
    den = 2 * D * D
    a2 = _area_numerator(D, polys)
    try:
        a1 = _linear_numerators(D, polys, segs)
        defects = _defects(D, polys, segs)
        a0 = [0] * D
    except MemoryError:
        raise ValueError(f"denominator D = {D}: the Ehrhart tables of D entries "
                         f"do not fit in memory") from None
    for n in range(1, D + 1):
        a0[n % D] = den * region_count(R, n) - a2 * n * n - a1[n % D] * n
    for n in range(1, D + 1):
        i, j, sq = n % D, -n % D, a2 * n * n
        # a0[i] + sq + a1[i] n is den times the count at n, by the loop above
        got, want = sq - a1[j] * n + a0[j], a0[i] + sq + a1[i] * n - den * defects[n]
        if got != want:
            raise VerificationFailure(
                f"reciprocity fails at n={n} (residue {n % D} mod {D}): the count at "
                f"n={j or D} gives q(-{n}) = {Fraction(got, den)}, the count at n={n} "
                f"minus the boundary defect is {Fraction(want, den)}")
    if a0[0] != den:
        raise VerificationFailure(
            f"constant term {Fraction(a0[0], den)} != 1 at n={D} (residue 0 mod {D})")
    if D % 2 == 0:
        h = D // 2
        n = 3 * h
        got, want = a2 * n * n + a1[h] * n + a0[h], den * region_count(R, n)
        if got != want:
            raise VerificationFailure(
                f"tables give {Fraction(got, den)} != count {want // den} "
                f"at n={n} (residue {h} mod {D})")
    return EhrhartQuasiPolynomial._from_ints(D, den, [a2] * D, a1, a0)


def minimal_period(values) -> int:
    """Smallest divisor p of len(values) with values[(i+p) % D] == values[i].

    Periods of an Ehrhart coefficient table always divide the modulus, so
    only divisors need checking; for a divisor p, the shift by p fixes the
    table exactly when it fixes the first D - p entries.
    """
    D = len(values)
    if not D:
        raise ValueError("an empty sequence has no period")
    return next(p for p in range(1, D + 1) if D % p == 0 and values[p:] == values[:D - p])


def period_sequence(R) -> PeriodSequence:
    return ehrhart(R).period_sequence()


def is_pip(R) -> bool:
    """Pseudo-integral: the Ehrhart quasi-polynomial is a true polynomial.

    A polygon, or a region with nothing removed and no seam, is settled
    without building tables by `_pip_signature`: c1 must be constant and
    the counts at n = 1..D must equal c2 n^2 + c1 n + 1; the test stops at
    the first that does not.  An edge of QP with `_line` (c, g, u, v) and
    period p = Q/gcd(Q, c) adds (g/Q)(1/2 - {-n c/Q}) to c1(n) (see
    `_linear_numerators`): at most g/(2Q), reached at n ≡ 0 (mod Q), and
    g/(2Qp) on average over a period.  A constant c1 equals both its value
    at n = Q and its mean, so every p = 1, that is p1 = 1; then c1 is the
    sum of g/(2Q), half the lattice perimeter.  For a PIP, reciprocity
    gives I = L(-1) = c2 - c1 + 1, so b = L(1) - I = 2 c1 = Σg/Q, which is
    how `scott_pip_search` reads (I, b) from the test.

    A removed segment or a seam subtracts a term of the other sign, which
    can cancel an edge's jumps (the triangle (-1, -1), (3, 3/2), (1, 3/2)
    has p1 = 2, but less the half-open segment ((2, 3/2), (1, 3/2)] it has
    quasi-period 1), so such a region is decided by its tables:
    ``ehrhart(R).quasi_period == 1``.
    """
    polys, removed, seams = _pieces(R)
    if removed or seams:
        return ehrhart(R).quasi_period == 1
    return _pip_signature(polys[0]) is not None


def _pip_signature(P: Polygon) -> tuple[int, int] | None:
    """(I, b), the interior and boundary lattice points of P, when the
    polygon P is a PIP, else None; the test of `is_pip`.

    Both come from the test's own numbers: b = 2 c1 = Σg/Q from the edge
    lines, and I = L(1) - b = c2 - c1 + 1, the value at n = 1 that the
    first count has just confirmed.
    """
    D, V, perimeter = P._Q, P._V, 0
    for a, b in zip(V, V[1:] + V[:1]):
        c, g, _, _ = _line(a, b)
        if c % D:   # p > 1
            return None
        perimeter += g
    # 2D^2 * c1, with c1 = perimeter / 2D
    a2, a1, den = _area_numerator(D, (P,)), D * perimeter, 2 * D * D
    if not all(den * region_count(P, n) == a2 * n * n + a1 * n + den
               for n in range(1, D + 1)):
        return None
    return (a2 - a1) // den + 1, perimeter // D


def mcmullen_indices(P: Polygon) -> tuple[int, int, int]:
    """(p2, p1, p0): least dilations making all i-faces meet the lattice.

    p2 = 1 always (the affine span of a polygon is the whole plane);
    p1 = lcm over edges of the least p making the edge's line hit Z^2;
    p0 = lcm of vertex coordinate denominators.  By construction
    p2 | p1 | p0, and each coefficient period s_i divides p_i.
    """
    if not isinstance(P, Polygon):
        raise InvalidRegion(f"mcmullen_indices takes a Polygon, got {type(P).__name__}")
    Q, V = P._Q, P._V
    # the line of p*edge meets Z^2 iff Q divides p*c (see _line)
    p1 = math.lcm(*(Q // math.gcd(Q, _line(a, b)[0]) for a, b in zip(V, V[1:] + V[:1])))
    return 1, p1, Q


def series_coefficients(t: int, N: int) -> list[int]:
    """First N coefficients of (1 - z)^(-2) * (1 - z^t)^(-1)."""
    _require_int("t", t, 1)
    _require_int("N", N, 0)
    out = [0] * N
    for j in range(0, N, t):
        for k in range(j, N):
            out[k] += k - j + 1
    return out


def gf_series_check(P: Polygon, t: int, N: int) -> bool:
    """Compare counts of P against the generating function with a pole at
    the t-th roots of unity; the n = 0 term is taken to be 1.  N >= 3t."""
    _require_int("t", t, 1)
    _require_int("N", N, 3 * t)
    expected = series_coefficients(t, N)
    if expected[0] != 1:
        return False
    return all(lattice_count(P, k) == expected[k] for k in range(1, N))


# ---------------------------------------------------------------------------
# oracle


def ehrhart_interpolated(R) -> EhrhartQuasiPolynomial:
    """Oracle: interpolate the Ehrhart quasi-polynomial from counts alone,
    through the counts at n = 1..4D.

    Counts at n = r + kD for k = 0, 1, 2 determine each residue class; the
    count at k = 3 must match or a VerificationFailure is raised.
    """
    D = region_denominator(R)
    _require_table_size(D)
    counts = [0] + [region_count(R, n) for n in range(1, 4 * D + 1)]
    den = 2 * D * D
    a2, a1, a0 = [0] * D, [0] * D, [0] * D
    for r in range(1, D + 1):
        v0, v1, v2, v3 = counts[r:r + 3 * D + 1:D]
        # the quadratic through v0, v1, v2, in forward differences: value
        # v0 + k*d1 + k(k-1)/2 * d2 at n = r + kD
        d1, d2 = v1 - v0, v2 - 2 * v1 + v0
        got = v0 + 3 * d1 + 3 * d2
        if got != v3:
            raise VerificationFailure(
                f"interpolated value {got} != count {v3} at n={r + 3 * D} "
                f"(residue {r % D} mod {D})")
        # substituting k = (n - r)/D gives coefficients over 2D^2
        idx = r % D
        a2[idx] = d2
        a1[idx] = 2 * D * d1 - (2 * r + D) * d2
        a0[idx] = den * v0 - 2 * r * D * d1 + r * (r + D) * d2
    return EhrhartQuasiPolynomial._from_ints(D, den, a2, a1, a0)
