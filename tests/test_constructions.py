from fractions import Fraction as F

import pytest

from ehrpoly import (
    HalfOpenSegment,
    Polygon,
    area,
    boundary_count,
    constant_coefficient_of_interval,
    convex_hull,
    glued,
    glued_count_identity,
    heptagon,
    heptagon_anchor,
    heptagon_decomposition,
    integral_hull_proposition_check,
    interior_count,
    is_pip,
    lattice_count,
    lattice_count_naive,
    period_sequence,
    pip_b1,
    pip_b2,
    pip_b2_half,
    point,
    region_count,
    scott_admissible,
    scott_inequality_holds,
    triangle_q,
)
from ehrpoly.geometry import DegenerateInput
from ehrpoly.sampling import SplitMix64


class TestPipB2:
    def test_smallest_kite(self):
        assert pip_b2(1) == Polygon([(0, 0), (1, F(-1, 2)), (2, 0), (1, F(1, 2))])
        assert (interior_count(pip_b2(1), 1), boundary_count(pip_b2(1), 1)) == (1, 2)

    def test_signature_and_polynomial(self):
        for I in (1, 3, 6):
            P = pip_b2(I)
            assert (interior_count(P, 1), boundary_count(P, 1)) == (I, 2)
            assert is_pip(P)
            for n in range(1, 13):
                assert lattice_count(P, n) == I * n * n + n + 1
            for n in range(1, 5):
                assert lattice_count_naive(P, n) == I * n * n + n + 1

    def test_half_triangle_is_pip_with_empty_interior(self):
        for I in (1, 2, 4):
            T = pip_b2_half(I)
            assert interior_count(T, 1) == 0
            assert boundary_count(T, 1) == I + 2
            assert is_pip(T)

    def test_doubling_identity(self):
        # kite count = twice the half count minus the shared axis points,
        # of which there are n*(I+1) + 1 (that is I + 2 at n = 1)
        for I in range(1, 6):
            P, T = pip_b2(I), pip_b2_half(I)
            assert lattice_count(P, 1) == 2 * lattice_count(T, 1) - (I + 2)
            for n in range(1, 11):
                axis = n * (I + 1) + 1
                assert lattice_count(P, n) == 2 * lattice_count(T, n) - axis

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            pip_b2(0)


class TestPipB1:
    def test_smallest_triangle(self):
        tr = pip_b1(1)
        assert tr.final == Polygon([(0, -1), (F(1, 3), F(1, 3)), (F(-1, 3), F(2, 3))])
        assert (interior_count(tr.final, 1), boundary_count(tr.final, 1)) == (1, 1)

    def test_step_closed_forms_for_I3(self):
        tr = pip_b1(3)
        labels = [s.label for s in tr.steps]
        assert labels == ["T1", "T2", "T3", "P"]
        T2 = tr.steps[1].region
        assert T2.closed == Polygon([(1, 0), (0, F(5, 2)), (-1, 0)])
        assert T2.removed == (HalfOpenSegment((0, 0), (1, 0)),)
        T3 = tr.steps[2].region
        c = F(5, 7)
        assert T3.closed == Polygon([(0, -1), (c, c), (0, F(5, 2)), (-c, c)])
        assert T3.removed == ()
        assert tr.final == Polygon([(0, -1), (c, c), (-c, F(30, 7))])

    def test_signature_polynomial_and_preservation(self):
        for I in (1, 2, 4):
            tr = pip_b1(I)
            P = tr.final
            assert (interior_count(P, 1), boundary_count(P, 1)) == (I, 1)
            assert is_pip(P)
            assert tr.counts_preserved()
            for n in range(1, 3 * (2 * I + 1) + 1):
                assert 2 * lattice_count(P, n) == (2 * I - 1) * n * n + n + 2

    def test_every_step_is_a_pip_region(self):
        tr = pip_b1(2)
        for step in tr.steps:
            assert step.quasi.is_polynomial

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            pip_b1(-1)


class TestHeptagon:
    def test_vertices_s2(self):
        H = heptagon(2)
        assert set(H.vertices) == {
            point(F(-1, 2), 3), point(F(-1, 2), -3), point(0, 3), point(0, -3),
            point(1, 2), point(1, -2), point(F(3, 2), 0)}

    def test_right_vertex(self):
        assert point(F(7, 3), 0) in heptagon(3).vertices

    def test_period_sequence(self):
        for s in (2, 3):
            ps = period_sequence(heptagon(s))
            assert (ps.s2, ps.s1, ps.s0) == (1, s, 1)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            heptagon(1)

    def test_decomposition_checks(self):
        for s in (2, 3, 5):
            assert all(heptagon_decomposition(s)["checks"].values())

    def test_decomposition_details(self):
        dec = heptagon_decomposition(3)
        qp_H, qp_Hp = dec["quasi"]
        assert all(c == 1 for c in qp_H.c0)
        assert qp_Hp.period_sequence().s1 == 3
        # the pentagon undercounts the heptagon by a half-open interval
        h = dec["half_open"]
        from ehrpoly import segment_count
        for n in range(1, 10):
            assert (region_count(dec["heptagon"], n)
                    == region_count(dec["h_prime"], n) + segment_count(h, n))


class TestTriangleQ:
    def test_anchored_at_origin(self):
        Q = triangle_q((0, 0), 2)
        assert Q == Polygon([(0, 0), (1, -1), (F(1, 2), 0)])
        ps = period_sequence(Q)
        assert (ps.s2, ps.s1, ps.s0) == (1, 1, 2)

    def test_integral_case(self):
        Q = triangle_q((4, -2), 1)
        assert tuple(period_sequence(Q))[:3] == (1, 1, 1)

    def test_translation_invariance(self):
        for t in (2, 3):
            a = period_sequence(triangle_q((0, 0), t))
            b = period_sequence(triangle_q(heptagon_anchor(4), t))
            assert a == b

    def test_anchor_must_be_lattice(self):
        with pytest.raises(ValueError):
            triangle_q((F(1, 2), 0), 2)


class TestGlued:
    def test_period_sequences(self):
        for s, t in [(2, 2), (2, 3), (4, 2)]:
            ps = period_sequence(glued(s, t))
            assert (ps.s2, ps.s1, ps.s0) == (1, s, t)

    def test_count_identity(self):
        assert glued_count_identity(2, 3)
        assert glued_count_identity(3, 2)

    def test_components_share_unit_edge(self):
        s, t = 3, 2
        H, Q = heptagon(s), triangle_q(heptagon_anchor(s), t)
        P = glued(s, t)
        assert area(P) == area(H) + area(Q)

    def test_parameter_validation(self):
        for s, t in [(1, 2), (2, 1), (0, 0)]:
            with pytest.raises(ValueError):
                glued(s, t)


class TestScott:
    def test_admissible_examples(self):
        assert scott_admissible(0, 3)
        assert scott_admissible(1, 9)
        assert not scott_admissible(1, 10)
        assert not scott_admissible(4, 2)   # b < 3 never integral
        assert scott_admissible(2, 10)
        assert not scott_admissible(-1, 5)

    def test_inequality_with_exception(self):
        assert scott_inequality_holds(1, 8)
        assert scott_inequality_holds(1, 9)
        assert not scott_inequality_holds(1, 10)
        assert not scott_inequality_holds(2, 11)
        assert scott_inequality_holds(0, 50)  # vacuous branch

    def test_realized_signatures_are_admissible(self):
        # hulls of random lattice subsets of [0, 6]^2 realize many (I, b)
        rng = SplitMix64(424242)
        seen = set()
        built = 0
        while built < 120:
            pts = [(rng.below(7), rng.below(7)) for _ in range(rng.int_between(3, 9))]
            try:
                P = convex_hull(pts)
            except DegenerateInput:
                continue
            built += 1
            seen.add((interior_count(P, 1), boundary_count(P, 1)))
        assert len(seen) > 10
        for I, b in seen:
            assert scott_admissible(I, b), (I, b)


@pytest.mark.parametrize("n", [True, 1.5])
def test_the_interval_constant_refuses_an_n_that_is_not_an_integer(n):
    # True would be read as 1, and 1.5 raised a TypeError from Fraction
    with pytest.raises(ValueError, match=f"^n must be an integer, got {n!r}$"):
        constant_coefficient_of_interval(3, n)


class TestIntegralHullProposition:
    def test_fat_nearly_integral_square(self):
        P = Polygon([(F(-1, 3), F(-1, 3)), (F(10, 3), F(-1, 3)),
                     (F(10, 3), F(10, 3)), (F(-1, 3), F(10, 3))])
        applicable, holds = integral_hull_proposition_check(P)
        assert applicable and holds

    def test_kite_hull_is_not_two_dimensional(self):
        applicable, _ = integral_hull_proposition_check(pip_b2(1))
        assert not applicable

    def test_integral_polygon_with_interior(self):
        P = Polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
        applicable, holds = integral_hull_proposition_check(P)
        assert applicable and holds

    def test_holds_is_scotts_inequality_on_the_counts_of_P(self, monkeypatch):
        import sys
        cons = sys.modules["ehrpoly.constructions"]
        P = Polygon([(F(-1, 3), F(-1, 3)), (F(10, 3), F(-1, 3)),
                     (F(10, 3), F(10, 3)), (F(-1, 3), F(10, 3))])
        assert integral_hull_proposition_check(P) == (True, True)
        # counts of P that broke Scott's inequality, (I, b) = (1, 10)
        monkeypatch.setattr(cons, "boundary_count", lambda Q, n: 10 if Q is P else pytest.fail())
        monkeypatch.setattr(cons, "lattice_count", lambda Q, n: 11 if Q is P else pytest.fail())
        assert integral_hull_proposition_check(P) == (True, False)
