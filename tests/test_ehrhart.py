import math
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from ehrpoly import (
    DegenerateInput,
    InvalidRegion,
    Polygon,
    RegionUnion,
    apply_piecewise,
    area,
    constant_coefficient_of_interval,
    convex_hull,
    denominator,
    ehrhart,
    gf_series_check,
    glued,
    heptagon,
    is_pip,
    lattice_count,
    mcmullen_indices,
    minimal_period,
    period_sequence,
    pip_b1,
    pip_b2,
    pip_b2_half,
    primitive,
    region_count,
    series_coefficients,
    skew_minus,
    skew_plus,
    triangle_q,
)
from ehrpoly.ehrhart import EhrhartQuasiPolynomial, ehrhart_interpolated, region_denominator
from ehrpoly.jsonio import quasi_to_json
from ehrpoly.regions import HalfOpenSegment, SemiOpenRegion
from ehrpoly.sampling import SplitMix64, polygon_corpus
from test_geometry import fractions_made, rational_polygons
from test_unimodular import regions

SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
FRAC3 = st.fractions(min_value=-3, max_value=3, max_denominator=3)


class TestInterpolation:
    def test_unit_square_is_n_plus_1_squared(self):
        q = ehrhart(SQUARE)
        assert q.modulus == 1
        assert (q.c2, q.c1, q.c0) == ((F(1),), (F(2),), (F(1),))

    def test_thin_rectangle_closed_form(self):
        # [0, 1/s] x [0, m]: count is (floor(n/s) + 1) * (m*n + 1), so
        # c2 = m/s, c1(n) = m*c0(n) + 1/s, c0(n) = floor(n/s) - n/s + 1
        for s in (2, 3, 5):
            for m in (1, 2, 3):
                R = Polygon([(0, 0), (F(1, s), 0), (F(1, s), m), (0, m)])
                q = ehrhart(R)
                assert q.modulus == s
                for n in range(1, 2 * s + 1):
                    c0 = constant_coefficient_of_interval(s, n)
                    assert q.coefficient(2, n) == F(m, s)
                    assert q.coefficient(1, n) == m * c0 + F(1, s)
                    assert q.coefficient(0, n) == c0

    def test_kite_is_polynomial_despite_modulus_two(self):
        q = ehrhart(pip_b2(1))
        assert q.modulus == 2
        assert q.period_sequence() == (1, 1, 1, 1)
        for n in range(1, 9):
            assert q.evaluate(n) == n * n + n + 1

    def test_reproduces_counts_one_period_beyond_fit(self):
        for P in polygon_corpus(31, 8, max_denominator=4, coord_bound=3):
            q = ehrhart(P)
            D = q.modulus
            for n in range(1, 4 * D + 1):
                assert q.evaluate(n) == lattice_count(P, n)

    def test_semi_open_region_input(self):
        T1 = SemiOpenRegion(
            Polygon([(0, 0), (1, 1), (-1, 0)]),
            [HalfOpenSegment((0, 0), (1, 1))])
        q = ehrhart(T1)
        assert q.modulus == 1
        # closed triangle has polynomial n^2/2 + 3n/2 + 1; removal takes n
        assert (q.c2[0], q.c1[0], q.c0[0]) == (F(1, 2), F(1, 2), F(1))

    def test_region_denominator_includes_removals(self):
        R = SemiOpenRegion(SQUARE, [HalfOpenSegment((F(1, 3), 0), (1, 0))])
        assert region_denominator(R) == 3

    @pytest.mark.parametrize("entry", [region_count, region_denominator, ehrhart, is_pip,
                                       ehrhart_interpolated, period_sequence])
    @pytest.mark.parametrize("bad", [HalfOpenSegment((0, 0), (1, 0)), SQUARE.vertices, None])
    def test_one_error_for_what_is_not_a_region(self, entry, bad):
        args = (bad, 1) if entry is region_count else (bad,)
        with pytest.raises(InvalidRegion):
            entry(*args)

    def test_inconsistent_counts_raise(self, monkeypatch):
        import sys
        eh = sys.modules["ehrpoly.ehrhart"]
        from ehrpoly.ehrhart import VerificationFailure
        real = eh.region_count
        # a counter that is not quadratic in n cannot pass the extra sample
        monkeypatch.setattr(eh, "region_count",
                            lambda R, n: real(R, n) + (n >= 4))
        with pytest.raises(VerificationFailure):
            eh.ehrhart_interpolated(SQUARE)

    def test_fourth_sample_is_checked(self, monkeypatch):
        import sys
        eh = sys.modules["ehrpoly.ehrhart"]
        real = eh.region_count
        # on the unit square (D = 1) the counts stop at n = 4D = 4
        monkeypatch.setattr(eh, "region_count",
                            lambda R, n: real(R, n) + (n >= 5))
        assert eh.ehrhart_interpolated(SQUARE) == ehrhart_interpolated(SQUARE)

    def test_period_sequence_is_computed_once(self, monkeypatch):
        import sys
        eh = sys.modules["ehrpoly.ehrhart"]
        q = ehrhart(heptagon(3))
        calls = []
        real = eh.minimal_period
        monkeypatch.setattr(eh, "minimal_period",
                            lambda values: calls.append(values) or real(values))
        ps = q.period_sequence()
        assert (q.period_sequence(), q.quasi_period, q.is_polynomial) == (ps, 3, False)
        assert len(calls) == 3
        assert q == ehrhart(heptagon(3)) and hash(q) == hash(ehrhart(heptagon(3)))


@st.composite
def small_regions(draw):
    """Polygons with denominators <= 3 and coordinates in [-2, 2], of which
    about a quarter are PIPs, closed or less a half-open piece of an edge
    between points at thirds or halves of it."""
    q = draw(st.integers(1, 3))
    coord = st.integers(-2 * q, 2 * q).map(lambda k: F(k, q))
    try:
        P = convex_hull(draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=5)))
    except DegenerateInput:
        assume(False)
    if draw(st.booleans()):
        return P
    a, b = draw(st.sampled_from(list(P.edges())))
    at = st.sampled_from([F(0), F(1, 3), F(1, 2), F(2, 3), F(1)])
    ks = draw(st.lists(at, min_size=2, max_size=2, unique=True))
    ends = [(a[0] + k * (b[0] - a[0]), a[1] + k * (b[1] - a[1])) for k in ks]
    return SemiOpenRegion(P, [HalfOpenSegment(*ends)])


def _eh():
    import sys
    return sys.modules["ehrpoly.ehrhart"]


def _trace_regions(I):
    return [step.region for step in pip_b1(I).steps]


class TestEngine:
    """The edge engine against the interpolating oracle."""

    @settings(max_examples=60, deadline=None)
    @given(rational_polygons())
    def test_equals_the_fit_on_polygons(self, P):
        assert ehrhart(P) == ehrhart_interpolated(P)

    @settings(max_examples=6, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.data())
    def test_equals_the_fit_on_pip_b1_trace_regions(self, I, data):
        R = data.draw(st.sampled_from(_trace_regions(I)))
        assert ehrhart(R) == ehrhart_interpolated(R)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(FRAC3, FRAC3), min_size=3, max_size=8),
           st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any),
           st.sampled_from([skew_plus, skew_minus]))
    def test_equals_the_fit_on_region_unions(self, pts, r, side):
        # small coordinates around the origin: the map's line through the
        # origin cuts most of these polygons, and the images stay small
        try:
            R = apply_piecewise(side(r), convex_hull(pts))
        except (DegenerateInput, InvalidRegion):
            assume(False)
        assume(isinstance(R, RegionUnion) and region_denominator(R) <= 120)
        assert ehrhart(R) == ehrhart_interpolated(R)

    def test_closed_form_c1_is_the_fitted_c1_at_every_residue(self, corpus200):
        eh = _eh()
        regions = corpus200[:60] + _trace_regions(1) + _trace_regions(3)
        for R in regions:
            D = region_denominator(R)
            fitted = ehrhart_interpolated(R).c1
            polys, removed, seams = eh._pieces(R)
            a1 = eh._linear_numerators(eh.region_denominator(R), polys, removed + seams)
            assert [F(x, 2 * D * D) for x in a1] == list(fitted)

    def test_a_fault_at_any_count_raises(self, monkeypatch):
        eh = _eh()
        real = eh.region_count
        regions = (polygon_corpus(77, 12, max_denominator=6, coord_bound=5)
                   + [pip_b2(2), heptagon(3)] + _trace_regions(2))
        Ds = {region_denominator(R) for R in regions}
        assert any(D % 2 for D in Ds) and any(D % 2 == 0 for D in Ds)
        for R in regions:
            D = region_denominator(R)
            # n = D and n = D/2 are the residues reciprocity pairs with themselves
            for bad in range(1, D + 1):
                for delta in (1, -1):
                    monkeypatch.setattr(
                        eh, "region_count",
                        lambda R, n, bad=bad, delta=delta: real(R, n) + delta * (n == bad))
                    with pytest.raises(eh.VerificationFailure):
                        eh.ehrhart(R)

    def test_self_paired_residues_are_checked(self, monkeypatch):
        eh = _eh()
        real = eh.region_count
        # reciprocity alone would accept L(1) = 5 on the unit square
        monkeypatch.setattr(eh, "region_count", lambda R, n: real(R, n) + (n == 1))
        with pytest.raises(eh.VerificationFailure, match="constant term"):
            eh.ehrhart(SQUARE)
        # on the kite of modulus 2, n = 1 is D/2: the count at n = 3 catches it
        with pytest.raises(eh.VerificationFailure, match="n=3 "):
            eh.ehrhart(pip_b2(1))

    def test_counts_once_per_residue(self, monkeypatch):
        eh = _eh()
        real = eh.region_count
        seen = []
        monkeypatch.setattr(eh, "region_count",
                            lambda R, n: seen.append(n) or real(R, n))
        for P in (heptagon(3), pip_b2(2)):
            seen.clear()
            D = denominator(P)
            eh.ehrhart(P)
            assert seen == list(range(1, D + 1)) + ([3 * D // 2] if D % 2 == 0 else [])

    def test_is_pip_agrees_with_the_fit(self):
        polys = polygon_corpus(4, 500, max_denominator=4, coord_bound=4)
        polys += [pip_b2(I) for I in range(1, 5)] + [pip_b1(I).final for I in range(1, 5)]
        verdicts = [is_pip(P) for P in polys]
        assert verdicts == [ehrhart_interpolated(P).quasi_period == 1 for P in polys]
        assert all(verdicts[-8:]) and 0 < sum(verdicts[:500]) < 500

    def test_is_pip_refuses_a_nonconstant_c1_without_counting(self, monkeypatch):
        eh = _eh()
        monkeypatch.setattr(eh, "region_count", lambda R, n: pytest.fail("counted"))
        monkeypatch.setattr(eh, "_linear_numerators", lambda *a: pytest.fail("built a c1 table"))
        assert not eh.is_pip(heptagon(3))
        assert mcmullen_indices(heptagon(3))[1] != 1


def test_a_modulus_no_table_can_hold_is_a_named_error():
    # D = 10^20 > sys.maxsize: the engine and the fit refuse it before building
    # a table (the fit last, since without the check it counts for ever)
    P = Polygon([(0, 0), (1, 0), (0, F(1, 10**20))])
    R = SemiOpenRegion(P, [HalfOpenSegment((0, 0), (F(1, 2), 0))])
    for call in (lambda: ehrhart(P), lambda: ehrhart(R), lambda: period_sequence(R),
                 lambda: is_pip(R), lambda: ehrhart_interpolated(P)):
        with pytest.raises(ValueError, match=f"D = {10**20} is larger"):
            call()


class TestIsPip:
    def test_settles_a_polygon_from_its_edges(self, monkeypatch):
        # D = 1,005,973: the c1 table would be a million entries per edge
        eh = _eh()
        monkeypatch.setattr(eh, "region_count", lambda R, n: pytest.fail("counted"))
        monkeypatch.setattr(eh, "_linear_numerators", lambda *a: pytest.fail("built a c1 table"))
        assert not eh.is_pip(glued(997, 1009))

    def test_a_polygon_with_p1_equal_to_1_allocates_nothing_that_grows_with_D(self):
        import tracemalloc
        T = Polygon([(0, 0), (3, F(2, 5)), (F(7, 1000003), F(1, 3))])
        assert denominator(T) == 15000045 and mcmullen_indices(T)[1] == 1
        tracemalloc.start()
        try:
            assert not is_pip(T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_a_removed_segment_can_cancel_an_edge_period(self):
        # why a region with removed segments keeps the c1 table: the
        # segment's term cancels the jumps of the edge it lies on
        P = Polygon([(-1, -1), (3, F(3, 2)), (1, F(3, 2))])
        R = SemiOpenRegion(P, [HalfOpenSegment((2, F(3, 2)), (1, F(3, 2)))])
        assert ehrhart(R).quasi_period == 1 and is_pip(R)
        assert mcmullen_indices(R.closed)[1] == 2 and not is_pip(P)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(regions(), small_regions()))
    def test_agrees_with_quasi_period_on_regions(self, R):
        assert is_pip(R) == (ehrhart(R).quasi_period == 1)
        if isinstance(R, Polygon) and is_pip(R):
            assert mcmullen_indices(R)[1] == 1

    def test_agrees_with_quasi_period_on_search_corpus(self):
        polys = polygon_corpus(4, 500, max_denominator=4, coord_bound=4)
        verdicts = [is_pip(P) for P in polys]
        assert verdicts == [ehrhart(P).quasi_period == 1 for P in polys]
        assert 0 < sum(verdicts) < len(polys)

    def test_stops_at_first_nonquadratic_count(self, monkeypatch):
        import sys
        eh = sys.modules["ehrpoly.ehrhart"]
        real = eh.region_count
        seen = []
        monkeypatch.setattr(eh, "region_count",
                            lambda R, n: seen.append(n) or real(R, n))
        T = triangle_q((0, 0), 2)
        assert not eh.is_pip(T)
        assert len(seen) < 4 * denominator(T)

    def test_checks_every_count_that_ehrhart_verifies(self, monkeypatch):
        import sys
        eh = sys.modules["ehrpoly.ehrhart"]
        from ehrpoly.ehrhart import VerificationFailure
        real = eh.region_count
        kite = pip_b2(1)   # D = 2, so ehrhart_interpolated's last count is at n = 8
        monkeypatch.setattr(eh, "region_count",
                            lambda R, n: real(R, n) + (n == 8))
        with pytest.raises(VerificationFailure):
            eh.ehrhart_interpolated(kite)
        # the engine and is_pip count n = 1..D (and 3D/2): a fault at any
        # of n = 1..D is caught by both
        for bad in range(1, denominator(kite) + 1):
            monkeypatch.setattr(eh, "region_count",
                                lambda R, n, bad=bad: real(R, n) + (n == bad))
            with pytest.raises(VerificationFailure):
                eh.ehrhart(kite)
            assert not eh.is_pip(kite)


def _reference_quasi_json(q):
    """quasi_to_json written from the Fraction views, one num/den string
    per entry and periods compared as Fractions."""
    def table(c):
        D = len(c)
        return [f"{c[r % D].numerator}/{c[r % D].denominator}" for r in range(1, D + 1)]

    periods = [minimal_period(c) for c in (q.c2, q.c1, q.c0)]
    return {"modulus": q.modulus, "c2": table(q.c2), "c1": table(q.c1), "c0": table(q.c0),
            "period_sequence": periods, "quasi_period": math.lcm(*periods)}


class TestIntegerTables:
    """The tables are integers over one reduced denominator; the Fraction
    views, the periods and the JSON read them."""

    @settings(max_examples=60, deadline=None)
    @given(regions())
    def test_ints_agree_with_their_fraction_views(self, R):
        q = ehrhart(R)
        fit = ehrhart_interpolated(R)
        assert q == fit and hash(q) == hash(fit)
        assert math.gcd(q.den, *q.a2, *q.a1, *q.a0) == 1
        for a, c in ((q.a2, q.c2), (q.a1, q.c1), (q.a0, q.c0)):
            assert len(a) == q.modulus and c == tuple(F(x, q.den) for x in a)
            assert minimal_period(a) == minimal_period(c)
        assert quasi_to_json(q) == _reference_quasi_json(q)
        built = EhrhartQuasiPolynomial(q.modulus, q.c2, q.c1, q.c0)
        assert built == q and hash(built) == hash(q)
        assert (built.den, built.a2, built.a1, built.a0) == (q.den, q.a2, q.a1, q.a0)

    def test_constructor_takes_fractions_and_ints(self):
        q = EhrhartQuasiPolynomial(2, (F(1, 2), F(1, 2)), (1, F(3, 4)), (F(1), 0))
        assert (q.den, q.a2, q.a1, q.a0) == (4, (2, 2), (4, 3), (4, 0))
        assert q.evaluate(3) == F(1, 2) * 9 + F(3, 4) * 3 and q.coefficient(1, 4) == 1
        with pytest.raises(ValueError, match="2 entries"):
            EhrhartQuasiPolynomial(2, (F(1),), (F(1),), (F(1),))

    @pytest.mark.parametrize("half", [0.5, "1/2"])
    def test_constructor_takes_what_fraction_takes(self, half):
        assert (EhrhartQuasiPolynomial(1, (half,), (0,), (1,))
                == EhrhartQuasiPolynomial(1, (F(1, 2),), (0,), (1,)))

    def test_accessors_take_a_coefficient_index_and_an_integer_n(self):
        q = ehrhart(glued(2, 3))
        assert q.coefficient(2, -1) == q.coefficient(2, 5) == q.c2[5]
        assert q.evaluate(-1) == q.c2[5] - q.c1[5] + q.c0[5]
        for i in (-1, 3, True, 1.0):
            with pytest.raises(ValueError, match=f"i must be 0, 1 or 2, got {i!r}"):
                q.coefficient(i, 1)
        for n in (1.5, True, "1"):
            with pytest.raises(ValueError, match=f"n must be an integer, got {n!r}"):
                q.coefficient(0, n)
            with pytest.raises(ValueError, match=f"n must be an integer, got {n!r}"):
                q.evaluate(n)

    def test_engine_and_json_make_no_fractions(self):
        pentagon = Polygon([(0, 0), (F(4001, 997), F(1, 997)), (6, F(2995, 997)),
                            (F(3, 997), 5), (F(-1000, 997), 2)])
        semi_open = _trace_regions(3)[0]
        assert region_denominator(pentagon) == 997
        assert isinstance(semi_open, SemiOpenRegion) and semi_open.removed
        watched = {ehrhart, EhrhartQuasiPolynomial.period_sequence, quasi_to_json}
        for R in (pentagon, semi_open):
            entered, made, doc = fractions_made(watched, lambda: quasi_to_json(ehrhart(R)))
            assert (entered, made) == (3, 0)
            assert doc == _reference_quasi_json(ehrhart(R))


class TestMinimalPeriod:
    def test_constant(self):
        assert minimal_period((F(7), F(7), F(7), F(7))) == 1

    def test_two_periodic_of_modulus_four(self):
        assert minimal_period((F(1, 2), F(1), F(1, 2), F(1))) == 2

    def test_interval_constant_coefficient_has_full_period(self):
        for s in (2, 3, 6):
            table = tuple(constant_coefficient_of_interval(s, n) for n in range(s))
            assert minimal_period(table) == s

    def test_non_divisor_shifts_do_not_count(self):
        # period must divide the modulus: [1,2,1,2,1,2] has period 2, not 3
        assert minimal_period((F(1), F(2), F(1), F(2), F(1), F(2))) == 2

    def test_empty_sequence_is_a_named_error(self):
        with pytest.raises(ValueError, match="empty sequence"):
            minimal_period([])

    def test_integer_tables(self):
        assert minimal_period((5, 5, 5, 5, 5, 5)) == 1
        assert minimal_period((1, 2, 3, 1, 2, 3)) == 3
        # a table that leaves its pattern in the last entry has full period
        assert minimal_period((1, 2, 1, 2, 1, 3)) == 6
        # the shift by 2 fixes the first 3 entries, but 2 does not divide 5
        assert minimal_period((1, 2, 1, 2, 1)) == 5


class TestPeriodSequence:
    def test_integral_polygons(self):
        for P in (SQUARE, Polygon([(0, 0), (3, 0), (0, 3)])):
            assert tuple(period_sequence(P))[:3] == (1, 1, 1)

    def test_heptagon(self):
        ps = period_sequence(heptagon(2))
        assert (ps.s2, ps.s1, ps.s0) == (1, 2, 1)
        assert ps.quasi_period == 2

    def test_anchored_triangle(self):
        ps = period_sequence(triangle_q((0, 0), 3))
        assert (ps.s2, ps.s1, ps.s0) == (1, 1, 3)

    def test_is_pip(self):
        assert is_pip(SQUARE)
        assert is_pip(pip_b2_half(2))
        assert not is_pip(triangle_q((0, 0), 2))


class TestMcMullen:
    def test_integral(self):
        assert mcmullen_indices(SQUARE) == (1, 1, 1)

    def test_vertex_only_denominator(self):
        # edge lines of conv{(0,0),(1,0),(0,1/3)} all hit the lattice at
        # every dilation (x + 3y = n has solutions), so p1 = 1 while p0 = 3
        P = Polygon([(0, 0), (1, 0), (0, F(1, 3))])
        assert mcmullen_indices(P) == (1, 1, 3)

    def test_heptagon_p0(self):
        for s in (2, 3, 5):
            assert mcmullen_indices(heptagon(s))[2] == s

    def test_edge_line_index_can_exceed_one(self):
        # horizontal edge at height 1/2 never contains a lattice point at
        # odd dilations
        P = Polygon([(0, 0), (1, 0), (1, F(1, 2)), (0, F(1, 2))])
        assert mcmullen_indices(P) == (1, 2, 2)

    def test_divisibility_on_corpus(self, corpus200):
        for P in corpus200[:50]:
            p2, p1, p0 = mcmullen_indices(P)
            ps = ehrhart(P).period_sequence()
            assert p1 % p2 == 0 and p0 % p1 == 0
            assert p2 % ps.s2 == 0 and p1 % ps.s1 == 0 and p0 % ps.s0 == 0
            assert p0 == denominator(P)

    @pytest.mark.parametrize("R", [
        SemiOpenRegion(SQUARE),
        RegionUnion([SemiOpenRegion(SQUARE), SemiOpenRegion(SQUARE.translate((1, 0)))],
                    HalfOpenSegment((1, 0), (1, 1))),
        HalfOpenSegment((0, 0), (1, 0)),
        None,
    ], ids=["SemiOpenRegion", "RegionUnion", "HalfOpenSegment", "None"])
    def test_names_a_region_that_is_not_a_polygon(self, R):
        with pytest.raises(InvalidRegion, match=f"takes a Polygon, got {type(R).__name__}"):
            mcmullen_indices(R)

    def test_p1_is_least_dilation_whose_edge_lines_meet_the_lattice(self, corpus200):
        for P in corpus200[:60]:
            p1 = mcmullen_indices(P)[1]
            meets = [all(_line_meets_lattice((p * a[0], p * a[1]), (b[0] - a[0], b[1] - a[1]))
                         for a, b in P.edges())
                     for p in range(1, p1 + 1)]
            assert meets == [False] * (p1 - 1) + [True]

    def test_c0_is_a_sum_of_vertex_terms(self):
        # McMullen's locality: c0 is a constant plus one function of n per
        # vertex v, of period q_v, the lcm of v's coordinate denominators.
        # When the q_v that are maximal under divisibility are pairwise
        # coprime, take n_v = r (mod q_v) and n_v = 0 (mod each other one);
        # then den*c0(r) = sum_v den*c0(n_v) - (k - 1)*den for k periods,
        # with den*c0(n) read off the count at n, not the engine's a0
        rng = SplitMix64(1978)
        polys = [glued(3, 4), glued(5, 7)]
        while len(polys) < 300:
            pts = []
            for _ in range(rng.int_between(3, 6)):
                q = rng.int_between(1, 7)
                pts.append((F(rng.int_between(-3 * q, 3 * q), q),
                            F(rng.int_between(-3 * q, 3 * q), q)))
            try:
                polys.append(convex_hull(pts))
            except DegenerateInput:
                pass
        several = 0
        for P in polys:
            qs = {math.lcm(x.denominator, y.denominator) for x, y in P.vertices}
            kept = [q for q in qs if not any(p != q and p % q == 0 for p in qs)]
            if any(math.gcd(a, b) > 1 for a, b in combinations(kept, 2)):
                continue
            qp = ehrhart(P)
            D, den = qp.modulus, qp.den
            assert D == math.prod(kept)

            def den_c0(n):
                return den * lattice_count(P, n) - qp.a2[0] * n * n - qp.a1[n % D] * n

            for r in range(D):
                # the n in 1..D with n = r (mod q) and n = 0 (mod D / q)
                ns = [D // q * (r * pow(D // q, -1, q) % q) or D for q in kept]
                assert qp.a0[r] == sum(map(den_c0, ns)) - (len(kept) - 1) * den
            several += len(kept) >= 2
        assert several >= 150


def _line_meets_lattice(a, d):
    """Whether the line through a with direction d holds a lattice point:
    one primitive step from a covers a whole period of its lattice points."""
    u, v = primitive(d)
    if u == 0:
        return a[0].denominator == 1
    lo, hi = sorted((a[0], a[0] + u))
    return any((a[1] + (x - a[0]) * F(v, u)).denominator == 1
               for x in range(math.ceil(lo), math.floor(hi) + 1))


class TestGeneratingFunction:
    def test_series_t1_is_binomials(self):
        assert series_coefficients(1, 8) == [math.comb(k + 2, 2) for k in range(8)]

    def test_integral_triangle_matches_t1(self):
        assert gf_series_check(triangle_q((5, 7), 1), 1, 12)

    def test_t2_and_t3(self):
        assert gf_series_check(triangle_q((0, 0), 2), 2, 10)
        assert gf_series_check(triangle_q((0, 0), 3), 3, 12)

    def test_wrong_t_fails(self):
        assert not gf_series_check(triangle_q((0, 0), 2), 3, 12)

    def test_needs_enough_terms(self):
        with pytest.raises(ValueError):
            gf_series_check(triangle_q((0, 0), 4), 4, 8)


def test_leading_coefficient_is_area_up_to_row_count_bound():
    # Count nP row by row.  The row at integer height y is an interval of
    # length l(y) and holds between l(y) - 1 and l(y) + 1 lattice points;
    # nP has at most n*h + 1 such rows.  The width l is concave, so
    # unimodal and at most n*w, and summing it over the integer heights of
    # each monotone part misses its integral by at most n*w.  Together:
    #     |L(n) - n^2 * area| <= n*(h + 2w) + 1,
    # with w, h the sides of P's bounding box.
    for P in polygon_corpus(77, 10, max_denominator=5, coord_bound=4):
        D = denominator(P)
        n = 100 * D
        x0, y0, x1, y1 = P.bounding_box()
        bound = n * ((y1 - y0) + 2 * (x1 - x0)) + 1
        assert abs(lattice_count(P, n) - n * n * area(P)) <= bound
