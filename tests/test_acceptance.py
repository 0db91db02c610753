"""Acceptance suite: one test per acceptance criterion, exact tolerances.

Every test prints a single PASS line on success (visible with `pytest -s`);
a failed assertion marks the criterion failed.  Shared fixtures: `corpus200`
(200 seeded random polygons, coordinate denominators <= 6, coordinates in
[-5, 5]) and `search1000` (seeded 1000-trial PIP search).
"""
from fractions import Fraction as F

from ehrpoly import (
    HalfOpenSegment,
    Polygon,
    area,
    boundary_count,
    constant_coefficient_of_interval,
    denominator,
    ehrhart,
    gf_series_check,
    glued,
    heptagon,
    heptagon_decomposition,
    integral_hull_proposition_check,
    interior_count,
    lattice_count,
    lattice_count_naive,
    lattice_count_rowscan,
    mcmullen_indices,
    pip_b1,
    pip_b2,
    pip_b2_half,
    region_count,
    segment_count,
    triangle_q,
)


def _ok(line: str) -> None:
    print(f"ACCEPTANCE PASS: {line}")


def test_criterion_01_two_boundary_point_family():
    for I in range(1, 11):
        P = pip_b2(I)
        assert (interior_count(P, 1), boundary_count(P, 1)) == (I, 2)
        assert ehrhart(P).is_polynomial
        for n in range(1, 13):
            expected = I * n * n + n + 1
            assert lattice_count(P, n) == expected
            assert lattice_count_naive(P, n) == expected
    _ok("b=2 family, I=1..10: signature (I,2), polynomial count I*n^2+n+1 "
        "against brute force, n=1..12")


def test_criterion_02_one_boundary_point_family():
    for I in range(1, 11):
        trace = pip_b1(I)      # raises ConstructionMismatch on any deviation
        c = F(2 * I - 1, 2 * I + 1)
        half = F(2 * I - 1, 2)
        T2 = trace.steps[1].region
        assert T2.closed == Polygon([(1, 0), (0, half), (-1, 0)])
        assert T2.removed == (HalfOpenSegment((0, 0), (1, 0)),)
        T3 = trace.steps[2].region
        assert T3.closed == Polygon([(0, -1), (c, c), (0, half), (-c, c)])
        assert T3.removed == ()
        P = trace.final
        assert P == Polygon([(0, -1), (c, c), (-c, 2 * I * c)])
        assert (interior_count(P, 1), boundary_count(P, 1)) == (I, 1)
        assert ehrhart(P).is_polynomial
        for n in range(1, 3 * (2 * I + 1) + 1):
            assert 2 * lattice_count(P, n) == (2 * I - 1) * n * n + n + 2
    _ok("b=1 family, I=1..10: chain steps match closed forms, signature "
        "(I,1), count (I-1/2)n^2 + n/2 + 1 up to n=3(2I+1)")


def test_criterion_03_transform_invariance_and_doubling():
    for I in range(1, 11):
        trace = pip_b1(I)
        bound = 3 * trace.max_denominator()
        base = [region_count(trace.steps[0].region, n) for n in range(1, bound + 1)]
        for step in trace.steps[1:]:
            assert [region_count(step.region, n) for n in range(1, bound + 1)] == base
    for I in range(1, 6):
        P, T = pip_b2(I), pip_b2_half(I)
        assert lattice_count(P, 1) == 2 * lattice_count(T, 1) - (I + 2)
        for n in range(1, 11):
            on_axis = n * (I + 1) + 1   # I + 2 at n = 1, scaling linearly
            assert lattice_count(P, n) == 2 * lattice_count(T, n) - on_axis
    _ok("every b=1 chain step preserves counts for all tested n; kite count "
        "= 2*half - axis points (I+2 at n=1, linear in n), I<=5, n<=10")


def test_criterion_04_prescribed_period_sequences():
    for s in range(2, 7):
        ps = ehrhart(heptagon(s)).period_sequence()
        assert (ps.s2, ps.s1, ps.s0) == (1, s, 1), s
    for t in range(2, 7):
        ps = ehrhart(triangle_q((0, 0), t)).period_sequence()
        assert (ps.s2, ps.s1, ps.s0) == (1, 1, t), t
    for s in range(2, 6):
        for t in range(2, 6):
            ps = ehrhart(glued(s, t)).period_sequence()
            assert (ps.s2, ps.s1, ps.s0) == (1, s, t), (s, t)
    _ok("period sequences: heptagon (1,s,1) s=2..6; triangle (1,1,t) t=2..6; "
        "glued (1,s,t) for s,t in 2..5")


def test_criterion_05_heptagon_decomposition():
    for s in range(2, 7):
        dec = heptagon_decomposition(s)
        assert all(dec["checks"].values()), s
        qp_H, _ = dec["quasi"]
        assert all(c == 1 for c in qp_H.c0)
        h = dec["half_open"]
        for n in range(1, 3 * s + 1):
            assert (region_count(dec["heptagon"], n)
                    == region_count(dec["h_prime"], n) + segment_count(h, n))
    _ok("heptagon subdivision s=2..6: corner maps verified, count(H) = "
        "count(H') + count(h), constant coefficient of H identically 1")


def test_criterion_06_interval_coefficient_formulas():
    for s in range(2, 7):
        for m in range(1, 4):
            R = Polygon([(0, 0), (F(1, s), 0), (F(1, s), m), (0, m)])
            q = ehrhart(R)
            assert q.modulus == s
            for n in range(1, 6 * s + 1):
                assert q.coefficient(0, n) == constant_coefficient_of_interval(s, n)
    for s in range(2, 9):
        for n in range(1, 51):
            c_ell = constant_coefficient_of_interval(s, n)
            # constant coefficient of the half-open complement (1/s, 1]:
            # count is n - floor(n/s) = (1 - 1/s) n + c_h0(n)
            c_h = (segment_count(HalfOpenSegment((F(1, s), 0), (1, 0)), n)
                   - (1 - F(1, s)) * n)
            assert c_ell + c_h == 1, (s, n)
    _ok("interval coefficient floor(n/s) - n/s + 1 matches interpolated "
        "rectangle c0 (s=2..6, m=1..3, n<=6s); complement identity "
        "c_ell0 + c_h0 = 1 for n<=50")


def test_criterion_07_generating_function():
    for t in range(2, 7):
        Q = triangle_q((0, 0), t)
        assert gf_series_check(Q, t, 40), t
        assert ehrhart(Q).quasi_period == t
    _ok("series of (1-z)^-2 (1-z^t)^-1 matches counts for t=2..6, N=40; "
        "interpolated quasi-period equals t")


def test_criterion_08_period_divides_index(corpus200):
    assert len(corpus200) == 200
    for P in corpus200:
        p2, p1, p0 = mcmullen_indices(P)
        ps = ehrhart(P).period_sequence()
        assert p2 % ps.s2 == 0 and p1 % ps.s1 == 0 and p0 % ps.s0 == 0, P
        assert p1 % p2 == 0 and p0 % p1 == 0, P
    _ok("s_i | p_i and p2 | p1 | p0 on 200 seeded random polygons "
        "(denominators <= 6, coordinates in [-5, 5])")


def test_criterion_09_pip_laws(search1000):
    pips = [pip_b2(I) for I in range(1, 11)]
    pips += [pip_b1(I).final for I in range(1, 11)]
    report = search1000
    from ehrpoly import is_pip
    from ehrpoly.sampling import random_polygon, trial_rng
    found = []
    for i in range(report.trials):
        P = random_polygon(trial_rng(report.seed, i), report.max_denominator,
                           report.coord_bound)
        if P is not None and is_pip(P):
            found.append(P)
    assert len(found) == report.pips_found
    for P in pips + found:
        I, b = interior_count(P, 1), boundary_count(P, 1)
        assert b >= 1 and (I, b) not in {(0, 1), (0, 2)}
        assert area(P) == I + F(b, 2) - 1                 # Pick, exactly
        for n in range(1, 13):
            assert boundary_count(P, n) == n * b
    _ok(f"Pick's identity and boundary scaling b(nP) = n*b hold on all "
        f"constructed PIPs and all {len(found)} PIPs from the seeded "
        f"1000-trial search; none with b=0 or (I,b) in {{(0,1),(0,2)}}")


NEAR_DEGENERATE = [
    # thin slivers hugging a lattice segment
    Polygon([(0, 0), (4, 0), (2, F(1, 5))]),
    Polygon([(0, 0), (4, F(-1, 6)), (4, F(1, 6))]),
    Polygon([(0, 0), (1, F(-1, 1000)), (2, 0), (1, F(1, 1000))]),
    # almost-integral squares and triangles
    Polygon([(F(-1, 3), F(-1, 3)), (F(10, 3), F(-1, 3)), (F(10, 3), F(10, 3)),
             (F(-1, 3), F(10, 3))]),
    Polygon([(F(1, 6), F(1, 6)), (F(23, 6), F(1, 6)), (F(1, 6), F(23, 6))]),
    Polygon([(F(-1, 5), 0), (3, F(-1, 5)), (3, 3), (0, F(16, 5))]),
    # hulls that collapse to segments or points
    Polygon([(F(1, 2), F(-1, 7)), (5, F(-1, 7)), (3, F(1, 7))]),
    Polygon([(F(2, 5), F(2, 5)), (F(3, 5), F(2, 5)), (F(1, 2), F(3, 5))]),
    # wide-but-flat: many boundary points, no interior
    Polygon([(0, 0), (9, 0), (9, 1), (0, 1)]),
    Polygon([(0, 0), (12, 0), (6, F(1, 2))]),
    # the (1, 9) extremal signature
    Polygon([(0, 0), (3, 0), (3, 3), (0, 3)]),
    Polygon([(-1, -1), (2, -1), (2, 2), (-1, 2)]),
    # spikes with one fat corner
    Polygon([(0, 0), (7, F(1, 3)), (7, F(2, 3)), (0, 1)]),
    Polygon([(0, 0), (5, 0), (5, 5), (F(1, 4), F(1, 2))]),
    Polygon([(F(-7, 2), 0), (0, F(-7, 2)), (F(7, 2), 0), (0, F(7, 2))]),
    # tiny polygons with zero or one lattice point
    Polygon([(F(1, 7), F(1, 7)), (F(2, 7), F(1, 7)), (F(2, 7), F(2, 7))]),
    Polygon([(F(-1, 7), F(-1, 7)), (F(1, 7), F(-1, 7)), (0, F(1, 7))]),
    # long needle through lattice points
    Polygon([(0, F(-1, 9)), (8, F(-1, 9)), (8, F(1, 9)), (0, F(1, 9))]),
    Polygon([(0, 0), (6, 2), (6, F(5, 2)), (0, F(1, 2))]),
    Polygon([(F(1, 2), 0), (F(3, 2), -2), (F(5, 2), 0), (F(3, 2), 2)]),
]


def test_criterion_10_integral_hull_proposition(corpus200):
    assert len(NEAR_DEGENERATE) == 20
    applicable_count = 0
    for P in list(corpus200) + NEAR_DEGENERATE:
        applicable, holds = integral_hull_proposition_check(P)
        if applicable:
            applicable_count += 1
            assert holds, P
    assert applicable_count > 50
    _ok(f"integral-hull proposition holds on all {applicable_count} "
        f"applicable polygons (corpus + 20 near-degenerate cases)")


def test_criterion_11_counter_oracle_equivalence(corpus200):
    checked = 0
    for P in corpus200:
        for n in range(1, 3 * denominator(P) + 1):
            fast = lattice_count(P, n)
            assert fast == lattice_count_rowscan(P, n), (P, n)
            assert fast == lattice_count_naive(P, n), (P, n)
            checked += 1
    _ok(f"floor-sum, row-scan and naive bounding-box counters agree on "
        f"{checked} (polygon, n) pairs, n <= 3*denominator")
