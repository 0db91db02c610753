"""Explicit polygon families with prescribed lattice-point behavior.

Two kinds of construction live here:

* pseudo-integral polygons (quasi-period 1) with 1 or 2 boundary points and
  any number I >= 1 of interior points, built by dragging a semi-open
  triangle through a chain of piecewise skew transformations;

* polygons with any prescribed coefficient period sequence (1, s, t), glued
  from a heptagon H(s) carrying the period in its linear coefficient and a
  thin triangle Q(t) carrying it in its constant coefficient.

Every closed-form vertex list produced here is re-derived by actually
running the transformation chain, and a ConstructionMismatch is raised if
the two disagree, so the formulas cannot drift from the geometry.  The
heptagon's named points are written once (`_heptagon_points`), and the
seed and every count parameter (I, s, t, trials, bounds) pass
`_require_int`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .ehrhart import EhrhartQuasiPolynomial, _pip_signature, ehrhart, region_denominator
from .geometry import (
    GeometryError,
    Point,
    Polygon,
    _require_int,
    area,
    boundary_count,
    convex_union,
    integral_hull,
    interior_count,
    lattice_count,
    lattice_length,
    point,
)
from .regions import HalfOpenSegment, SemiOpenRegion, region_count, segment_count
from .sampling import random_polygon, trial_rng
from .unimodular import (
    affine_skew,
    apply_disjoint,
    apply_to_polygon,
    iterate,
    skew_minus,
    skew_plus,
)


class ConstructionMismatch(AssertionError):
    """A transformation chain disagreed with its closed-form vertex list."""


class GlueFailure(GeometryError):
    pass


@dataclass(frozen=True)
class TraceStep:
    label: str
    region: SemiOpenRegion
    quasi: EhrhartQuasiPolynomial
    splitting_lines: tuple[tuple[Point, tuple[int, int]], ...] = ()


@dataclass(frozen=True)
class ConstructionTrace:
    steps: tuple[TraceStep, ...]
    final: Polygon

    def max_denominator(self) -> int:
        return max(region_denominator(s.region) for s in self.steps)

    def counts_preserved(self) -> bool:
        """Every step has the lattice count of the first at every n >= 1.

        Read from the steps' Ehrhart tables, which reciprocity checked when
        `ehrhart` built them; nothing is counted.  Two quasi-polynomials
        agree at every n exactly when their coefficients agree at every
        residue r modulo the lcm of their moduli, a[r] den' = a'[r'] den
        with r and r' the residues of r modulo each modulus: on each residue
        class both are polynomials in n.
        """
        p = self.steps[0].quasi
        for q in (s.quasi for s in self.steps[1:]):
            if any(x[r % p.modulus] * q.den != y[r % q.modulus] * p.den
                   for x, y in zip((p.a2, p.a1, p.a0), (q.a2, q.a1, q.a0))
                   for r in range(math.lcm(p.modulus, q.modulus))):
                return False
        return True


# ---------------------------------------------------------------------------
# pseudo-integral polygons with b = 2 and b = 1


def pip_b2(I: int) -> Polygon:
    """Kite with I interior and 2 boundary lattice points, quasi-period 1.

    The upper half conv{(0,0), (I+1,0), (1, I/(I+1))} is pseudo-integral;
    the kite is its union with the mirror image below the x-axis.
    """
    _require_int("I", I, 1)
    h = 1 - Fraction(1, I + 1)
    return Polygon([(0, 0), (1, -h), (I + 1, 0), (1, h)])


def pip_b2_half(I: int) -> Polygon:
    """The generating triangle of pip_b2 (everything on or above the x-axis)."""
    _require_int("I", I, 1)
    return Polygon([(0, 0), (I + 1, 0), (1, 1 - Fraction(1, I + 1))])


def _pip_b1_expected(I: int):
    """Closed forms for the b = 1 chain, c = (2I-1)/(2I+1).

    The chain is: a semi-open integral triangle T1; 2I-1 downward shears of
    the right halfplane giving T2; one simultaneous pair of corner shears
    giving the closed quadrilateral T3 = conv{(0,-1), (c,c), (0,I-1/2),
    (-c,c)} (the half-open removal is absorbed: its image is covered by the
    other piece); then 2I-1 upward shears of the left halfplane producing
    the triangle P = conv{(0,-1), (c,c), (-c, 2Ic)}.
    """
    c = Fraction(2 * I - 1, 2 * I + 1)
    half = Fraction(2 * I - 1, 2)
    T1 = SemiOpenRegion(
        Polygon([(0, 0), (1, 2 * I - 1), (-1, 0)]),
        [HalfOpenSegment((0, 0), (1, 2 * I - 1))])
    T2 = SemiOpenRegion(
        Polygon([(1, 0), (0, half), (-1, 0)]),
        [HalfOpenSegment((0, 0), (1, 0))])
    T3 = SemiOpenRegion(Polygon([(0, -1), (c, c), (0, half), (-c, c)]))
    P = Polygon([(0, -1), (c, c), (-c, 2 * I * c)])
    return T1, T2, T3, P


def pip_b1(I: int) -> ConstructionTrace:
    """Triangle with I interior and exactly 1 boundary lattice point.

    Runs the full piecewise-skew chain and checks each stage against its
    closed-form vertex list; raises ConstructionMismatch on any deviation.
    """
    _require_int("I", I, 1)
    exp_T1, exp_T2, exp_T3, exp_P = _pip_b1_expected(I)

    down = skew_plus((0, -1))            # shears {x >= 0} by (x, y) -> (x, y - x)
    corner_right = skew_plus((-1, -1))   # acts below the diagonal y = x
    corner_left = skew_minus((1, -1))    # acts below the antidiagonal y = -x
    up = skew_plus((0, 1))               # shears {x <= 0} by (x, y) -> (x, y - x)

    T1 = exp_T1
    T2 = iterate(down, 2 * I - 1, T1)
    if T2 != exp_T2:
        raise ConstructionMismatch(f"T2 for I={I}: chain gave {T2!r}, expected {exp_T2!r}")
    T3 = apply_disjoint([corner_right, corner_left], T2)
    if T3 != exp_T3:
        raise ConstructionMismatch(f"T3 for I={I}: chain gave {T3!r}, expected {exp_T3!r}")
    final_region = iterate(up, 2 * I - 1, T3)
    if final_region.removed:
        raise ConstructionMismatch(f"final region for I={I} kept removals")
    P = final_region.closed
    if P != exp_P:
        raise ConstructionMismatch(f"P for I={I}: chain gave {P!r}, expected {exp_P!r}")

    def lines(*maps):
        return tuple((m.anchor, m.direction) for m in maps)

    steps = (
        TraceStep("T1", T1, ehrhart(T1)),
        TraceStep("T2", T2, ehrhart(T2), lines(down)),
        TraceStep("T3", T3, ehrhart(T3), lines(corner_right, corner_left)),
        TraceStep("P", final_region, ehrhart(final_region), lines(up)),
    )
    return ConstructionTrace(steps, P)


# ---------------------------------------------------------------------------
# prescribed period sequences (1, s, t)


def _heptagon_points(s: int) -> dict[str, Point]:
    """The heptagon's vertices t1, t2, u1, u2, v1, v2, w and the lattice
    point v = (s, 0), by name, with M = s(s - 1) + 1 and e = 1/s."""
    _require_int("s", s, 2)
    M, e = s * (s - 1) + 1, Fraction(1, s)
    return {"t1": (-e, M), "t2": (-e, -M), "u1": (0, M), "u2": (0, -M),
            "v1": (1, M - 1), "v2": (1, 1 - M), "w": (s - 1 + e, 0), "v": (s, 0)}


def heptagon(s: int) -> Polygon:
    """Heptagon with period sequence (1, s, 1): the linear Ehrhart
    coefficient has minimal period s while the constant term is 1."""
    p = _heptagon_points(s)
    return Polygon([p[k] for k in ("t2", "u2", "v2", "w", "v1", "u1", "t1")])


def heptagon_anchor(s: int) -> tuple[int, int]:
    """The lattice vertex u1 of heptagon(s), where the Q triangle glues on."""
    return _heptagon_points(s)["u1"]


def heptagon_decomposition(s: int) -> dict:
    """Re-enact the count-preserving subdivision of the heptagon.

    The heptagon splits into a rectangle R and three triangles around the
    right vertex w; two affine corner shears move the outer triangles onto
    the integral triangle with apex v = (s, 0).  The resulting convex
    pentagon H' undercounts the heptagon by exactly a half-open unit
    interval h with rational left endpoint: count(H) = count(H') + count(h).
    Returns all intermediate objects plus named check booleans.
    """
    H = heptagon(s)
    t1, t2, u1, u2, v1, v2, w, v = _heptagon_points(s).values()

    R = Polygon([t1, t2, u2, u1])
    T1 = Polygon([u1, w, v1])
    T2 = Polygon([u2, v2, w])
    T3 = Polygon([u1, u2, w])

    U1 = affine_skew(u1, w, "+")
    U2 = affine_skew(u2, w, "-")
    U1T1 = apply_to_polygon(U1, T1)
    U2T2 = apply_to_polygon(U2, T2)

    checks = {}
    checks["pieces_tile_heptagon"] = (
        area(R) + area(T1) + area(T2) + area(T3) == area(H))
    checks["U1_maps_T1"] = U1T1 == Polygon([u1, w, v])
    checks["U2_maps_T2"] = U2T2 == Polygon([u2, v, w])

    Hp = convex_union([R, U1T1, U2T2, T3])
    checks["H_prime_convex"] = Hp == Polygon([t1, t2, u2, v, u1])

    h = HalfOpenSegment((Fraction(1, s), 0), (1, 0))
    checks["count_identity"] = all(
        region_count(H, n) == region_count(Hp, n) + segment_count(h, n)
        for n in range(1, 3 * s + 1))

    qp_H = ehrhart(H)
    qp_Hp = ehrhart(Hp)
    ell_c0 = tuple(constant_coefficient_of_interval(s, n) for n in range(s))
    checks["H_prime_constant_matches_segment"] = qp_Hp.c0 == ell_c0
    checks["H_prime_linear_period"] = (
        qp_Hp.period_sequence().s1 == s)
    checks["H_constant_is_one"] = all(c == 1 for c in qp_H.c0)

    return {
        "heptagon": H, "rectangle": R, "triangles": (T1, T2, T3),
        "mapped": (U1T1, U2T2), "h_prime": Hp, "half_open": h,
        "maps": (U1, U2), "quasi": (qp_H, qp_Hp), "checks": checks,
    }


def constant_coefficient_of_interval(s: int, n: int) -> Fraction:
    """floor(n/s) - n/s + 1: the constant Ehrhart coefficient of [0, 1/s],
    a function of n mod s with minimal period s."""
    _require_int("s", s, 1)
    _require_int("n", n)
    return Fraction(math.floor(Fraction(n, s))) - Fraction(n, s) + 1


def triangle_q(anchor, t: int) -> Polygon:
    """Thin triangle with period sequence (1, 1, t) for t >= 2.

    Shape conv{(0,0), (1,-1), (1/t, 0)} translated by a lattice anchor; it
    is unimodularly equivalent to conv{(0,0), (1,0), (0,1/t)}.
    """
    _require_int("t", t, 1)
    ax, ay = point(*anchor)
    if ax.denominator != 1 or ay.denominator != 1:
        raise ValueError(f"anchor must be a lattice point, got {anchor!r}")
    return Polygon([(ax, ay), (ax + 1, ay - 1), (ax + Fraction(1, t), ay)])


def glued(s: int, t: int) -> Polygon:
    """Polygon with period sequence (1, s, t), s, t >= 2.

    heptagon(s) and triangle_q(u1, t) share the lattice edge u1 -> v1 of
    lattice length 1; their union is convex.  All gluing conditions are
    checked, not assumed.
    """
    p = _heptagon_points(s)
    _require_int("t", t, 2)
    H, u1, v1 = heptagon(s), p["u1"], p["v1"]
    Q = triangle_q(u1, t)

    edge_dir = (v1[0] - u1[0], v1[1] - u1[1])
    if lattice_length(edge_dir) != 1:
        raise GlueFailure("shared edge is not a lattice segment of length 1")
    for poly in (H, Q):
        verts = poly.vertices
        k = len(verts)
        pairs = {frozenset((verts[i], verts[(i + 1) % k])) for i in range(k)}
        if frozenset((point(*u1), point(*v1))) not in pairs:
            raise GlueFailure(f"{poly!r} does not have u1-v1 as an edge")
    try:
        P = convex_union([H, Q])
    except GeometryError as exc:
        raise GlueFailure(f"union of H and Q is not convex: {exc}") from exc
    return P


def glued_count_identity(s: int, t: int) -> bool:
    """count(H ∪ Q) = count(H) + count(Q) - (n + 1) for n up to 3 lcm(s, t),
    the shared edge being a unit lattice segment."""
    H = heptagon(s)
    Q = triangle_q(heptagon_anchor(s), t)
    P = glued(s, t)
    return all(
        lattice_count(P, n) == lattice_count(H, n) + lattice_count(Q, n) - (n + 1)
        for n in range(1, 3 * math.lcm(s, t) + 1))


# ---------------------------------------------------------------------------
# Scott admissibility and the integral-hull criterion


def scott_admissible(I: int, b: int) -> bool:
    """Whether (I, b) is the lattice-point signature of some integral polygon:
    b >= 3 and Scott's inequality."""
    return I >= 0 and b >= 3 and scott_inequality_holds(I, b)


def scott_inequality_holds(I: int, b: int) -> bool:
    """b <= 2I + 6 with (1, 9) the single exception; vacuous for I = 0,
    where any b >= 3 is realizable even by integral polygons."""
    return I == 0 or b <= 2 * I + 6 or (I, b) == (1, 9)


def integral_hull_proposition_check(P: Polygon) -> tuple[bool, bool]:
    """(applicable, holds): when the integral hull of P has an interior
    lattice point, P must satisfy Scott's inequality, with P's own interior
    and boundary counts I and b."""
    hull = integral_hull(P)
    applicable = hull.dim == 2 and interior_count(hull.polygon, 1) >= 1
    b = boundary_count(P, 1)
    return applicable, scott_inequality_holds(lattice_count(P, 1) - b, b)


# ---------------------------------------------------------------------------
# randomized search for Scott counterexamples among PIPs


@dataclass
class SearchReport:
    seed: int
    trials: int
    max_denominator: int
    coord_bound: int
    polygons_tested: int = 0
    pips_found: int = 0
    census: dict[tuple[int, int], int] = field(default_factory=dict)
    counterexamples: list[Polygon] = field(default_factory=list)
    counterexamples_weak: list[Polygon] = field(default_factory=list)


def scott_pip_search(seed: int, trials: int, max_denominator: int = 4,
                     coord_bound: int = 4) -> SearchReport:
    """Seeded random search for a PIP violating Scott's inequality.

    Every trial draws its own deterministic stream from (seed, index), so
    the report is reproducible and independent of evaluation order.  The
    strict list uses b <= 2I + 6 with the (1, 9) exception; the weak list
    uses the looser b <= 2I + 7.  Both concern I >= 1 only.
    """
    _require_int("seed", seed)
    _require_int("trials", trials, 0)
    _require_int("max_denominator", max_denominator, 1)
    _require_int("coord_bound", coord_bound, 1)
    report = SearchReport(seed, trials, max_denominator, coord_bound)
    for i in range(trials):
        P = random_polygon(trial_rng(seed, i), max_denominator, coord_bound)
        if P is None:
            continue
        report.polygons_tested += 1
        signature = _pip_signature(P)
        if signature is None:
            continue
        report.pips_found += 1
        I, b = signature
        report.census[(I, b)] = report.census.get((I, b), 0) + 1
        if not scott_inequality_holds(I, b):
            report.counterexamples.append(P)
        if I >= 1 and b > 2 * I + 7:
            report.counterexamples_weak.append(P)
    return report
