import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ehrpoly import (
    AffineUnimodular,
    CoincidentPoints,
    HalfOpenSegment,
    InvalidRegion,
    NonLatticeAnchor,
    PiecewiseUnimodularMap,
    Polygon,
    RegionUnion,
    SemiOpenRegion,
    affine_skew,
    apply_disjoint,
    apply_piecewise,
    apply_to_polygon,
    iterate,
    lattice_count,
    pip_b1,
    point,
    primitive,
    region,
    region_count,
    region_count_naive,
    skew,
    skew_minus,
    skew_plus,
)
from ehrpoly import unimodular
from ehrpoly.ehrhart import region_denominator
from ehrpoly.unimodular import IDENTITY
from test_geometry import fractions_made, rational_polygons

SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])

GRID = [(F(x, 3), F(y, 2)) for x in range(-9, 10, 2) for y in range(-6, 7, 3)]


class TestSkew:
    def test_horizontal_direction(self):
        U = skew((1, 0))
        assert [U.apply(p) for p in [(0, 1), (2, 3)]] == [point(1, 1), point(5, 3)]
        # (x, y) -> (x + y, y)
        assert (U.m00, U.m01, U.m10, U.m11) == (1, 1, 0, 1)

    def test_down_direction(self):
        U = skew((0, -1))
        # (x, y) -> (x, y - x); fixes its own direction
        assert (U.m00, U.m01, U.m10, U.m11) == (1, 0, -1, 1)
        assert U.apply((0, -1)) == point(0, -1)
        assert U.apply((1, 0)) == point(1, -1)

    def test_fixes_spanned_line(self):
        for r in [(1, 0), (0, -1), (2, 3), (-3, 5), (-1, -1)]:
            U = skew(r)
            for k in (-2, F(-1, 2), F(3, 7), 1):
                p = (k * r[0], k * r[1])
                assert U.apply(p) == point(*p)

    def test_determinant_one_and_lattice_bijection(self):
        for r in [(1, 0), (0, 1), (5, -3), (-2, -7), (F(3, 2), F(3, 4))]:
            U = skew(r)
            assert U.det == 1
            inv = U.inverse()
            for p in [(1, 0), (0, 1), (3, -4)]:
                q = U.apply(p)
                assert q[0].denominator == 1 and q[1].denominator == 1
                assert inv.apply(q) == point(*p)

    def test_scaling_invariance(self):
        assert skew((F(3, 2), F(3, 4))) == skew((2, 1))
        assert skew((4, 6)) == skew((2, 3))

    def test_matrix_entries_validated(self):
        with pytest.raises(ValueError):
            AffineUnimodular(2, 0, 0, 1)
        with pytest.raises(ValueError):
            AffineUnimodular(1, 0, 0, 1, tx=F(1, 2))  # type: ignore[arg-type]
        with pytest.raises(ValueError, match="^m00 must be an integer, got True$"):
            AffineUnimodular(True, 0, 0, True)  # type: ignore[arg-type]


class TestPiecewiseMaps:
    def test_plus_moves_positive_side_only(self):
        m = skew_plus((0, -1))   # det((0,-1),(x,y)) = x
        assert m.apply((1, 5)) == point(1, 4)    # moved by the shear
        assert m.apply((-1, 5)) == point(-1, 5)  # untouched
        assert m.apply((0, 7)) == point(0, 7)    # on the line

    def test_minus_is_inverse_of_plus_of_opposite(self):
        for r in [(0, 1), (1, 0), (2, -3), (-5, 2)]:
            minus = skew_minus(r)
            plus_opp = skew_plus((-r[0], -r[1]))
            for p in GRID:
                assert minus.apply(plus_opp.apply(p)) == point(*p)
                assert plus_opp.apply(minus.apply(p)) == point(*p)

    def test_minus_fixes_nonnegative_side(self):
        m = skew_minus((0, 1))   # det((0,1),(x,y)) = -x; acts where x >= 0
        assert m.apply((-2, 3)) == point(-2, 3)
        assert m.apply((2, 3)) == point(2, 5)

    def test_branch_agreement_on_line(self):
        for r in [(1, 0), (0, -1), (3, 2), (-2, 5)]:
            m = skew_plus(r)
            rp = primitive(r)
            for k in range(-10, 10):
                p = (F(k, 7) * rp[0], F(k, 7) * rp[1])
                assert (m.positive_side_map.apply(p)
                        == m.negative_side_map.apply(p))

    def test_disagreeing_maps_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseUnimodularMap((0, 0), (1, 0), skew((0, 1)), IDENTITY)


class TestAffineSkew:
    def test_zero_anchor_reduces_to_linear(self):
        m1 = affine_skew((0, 0), (2, 3), "+")
        m2 = skew_plus((2, 3))
        for p in GRID:
            assert m1.apply(p) == m2.apply(p)

    def test_fixes_anchor_line(self):
        u, w = (2, 5), (F(7, 2), 1)
        m = affine_skew(u, w, "+")
        assert m.apply(u) == point(*u)
        assert m.apply(w) == point(*w)

    def test_errors(self):
        with pytest.raises(CoincidentPoints):
            affine_skew((1, 1), (1, 1), "+")
        with pytest.raises(NonLatticeAnchor):
            affine_skew((F(1, 2), 0), (1, 1), "+")
        with pytest.raises(ValueError):
            affine_skew((0, 0), (1, 1), "x")


class TestApplyPiecewise:
    def test_identity_map_returns_region_unchanged(self):
        ident = PiecewiseUnimodularMap((0, 0), (1, 0), IDENTITY, IDENTITY)
        R = region(SQUARE.vertices, [((0, 0), (1, 0))])
        out = apply_piecewise(ident, R)
        assert out == R

    def test_region_on_identity_side_unchanged(self):
        m = skew_plus((0, -1))  # acts on x >= 0
        left = Polygon([(-3, 0), (-1, 0), (-1, 1), (-3, 1)])
        out = apply_piecewise(m, left)
        assert isinstance(out, SemiOpenRegion) and out.closed == left

    def test_single_shear_of_triangle(self):
        # upward spike crossing x = 0 sheared down on the right
        T = region([(0, 0), (1, 1), (-1, 0)], [((0, 0), (1, 1))])
        out = apply_piecewise(skew_plus((0, -1)), T)
        assert out.closed == Polygon([(-1, 0), (1, 0), (0, F(1, 2))])
        assert out.removed == (HalfOpenSegment((0, 0), (1, 0)),)

    def test_downward_chain_reaches_flat_triangle(self):
        I = 3
        T1 = region([(0, 0), (1, 2 * I - 1), (-1, 0)], [((0, 0), (1, 2 * I - 1))])
        out = iterate(skew_plus((0, -1)), 2 * I - 1, T1)
        assert out.closed == Polygon([(1, 0), (0, F(2 * I - 1, 2)), (-1, 0)])
        assert out.removed == (HalfOpenSegment((0, 0), (1, 0)),)
        for n in range(1, 10):
            assert region_count(out, n) == region_count(T1, n)

    def test_iterate_once_equals_apply(self):
        m = skew_plus((0, -1))
        T = region([(0, 0), (1, 1), (-1, 0)], [((0, 0), (1, 1))])
        assert iterate(m, 1, T) == apply_piecewise(m, T)

    def test_counts_preserved_for_generic_map_and_polygon(self):
        hexagon = Polygon([(-2, -1), (0, -2), (2, -1), (2, 1), (0, 2), (-2, 1)])
        for r in [(1, 0), (0, -1), (1, 2), (-2, 3), (1, -3)]:
            for m in (skew_plus(r), skew_minus(r)):
                out = apply_piecewise(m, hexagon)
                for n in range(1, 7):
                    assert region_count(out, n) == lattice_count(hexagon, n)

    def test_removed_segment_crossing_the_line_is_split(self):
        R = region([(-2, 0), (2, 0), (2, 1), (-2, 1)], [((-1, 0), (1, 0))])
        out = apply_piecewise(skew_plus((0, -1)), R)
        # right half of the removal is dragged down, left half stays
        assert isinstance(out, RegionUnion)
        for n in range(1, 7):
            assert region_count(out, n) == region_count(R, n)

    def test_nonconvex_image_becomes_region_union(self):
        big = Polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
        out = apply_piecewise(skew_plus((0, -1)), big)
        assert isinstance(out, RegionUnion)
        for n in range(1, 8):
            assert region_count(out, n) == lattice_count(big, n)

    def test_apply_to_polygon_requires_closed_result(self):
        out = apply_to_polygon(skew_plus((0, -1)), SQUARE)
        assert out == Polygon([(0, 0), (1, -1), (1, 0), (0, 1)])

    def test_on_line_segment_of_one_sided_region_mapped_once(self):
        # both side maps are the same translation; a region below the line
        # with its removal on the line must translate exactly once
        shift = AffineUnimodular(1, 0, 0, 1, 1, 1)
        m = PiecewiseUnimodularMap((0, 0), (1, 0), shift, shift)
        R = region([(0, -1), (1, -1), (1, 0), (0, 0)], [((0, 0), (1, 0))])
        out = apply_piecewise(m, R)
        assert out.closed == Polygon([(1, 0), (2, 0), (2, 1), (1, 1)])
        assert out.removed == (HalfOpenSegment((1, 1), (2, 1)),)


class TestApplyDisjoint:
    def test_corner_shears_close_the_removal(self):
        # the double corner shear of the flat semi-open triangle produces a
        # closed quadrilateral: the removal's image is covered by the other
        # piece, so it is absorbed
        I = 2
        T2 = region([(1, 0), (0, F(2 * I - 1, 2)), (-1, 0)], [((0, 0), (1, 0))])
        out = apply_disjoint([skew_plus((-1, -1)), skew_minus((1, -1))], T2)
        c = F(2 * I - 1, 2 * I + 1)
        assert out.removed == ()
        assert out.closed == Polygon([(0, -1), (c, c), (0, F(2 * I - 1, 2)), (-c, c)])
        for n in range(1, 11):
            assert region_count(out, n) == region_count(T2, n)

    def test_overlapping_actions_rejected(self):
        T = Polygon([(1, 0), (0, 1), (-1, 0), (0, -1)])
        with pytest.raises(InvalidRegion):
            apply_disjoint([skew_plus((0, -1)), skew_plus((0, -1))], T)

    def test_single_cut_keeps_the_mapped_chord_as_seam(self):
        # the right half of the square is sheared, then both halves are
        # translated by (1, 1): the image is not convex, and the seam is the
        # chord x = 0 moved with them
        shift = AffineUnimodular(1, 0, 0, 1, 1, 1)
        m = PiecewiseUnimodularMap((0, 0), (0, -1), shift.compose(skew((0, -1))), shift)
        big = Polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
        out = apply_disjoint([m], big)
        assert isinstance(out, RegionUnion)
        assert out._seam == HalfOpenSegment((1, 0), (1, 2))
        for n in range(1, 8):
            assert region_count(out, n) == lattice_count(big, n)

    def test_region_union_input_rejected(self):
        union = apply_piecewise(skew_plus((0, -1)),
                                Polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)]))
        with pytest.raises(InvalidRegion):
            apply_disjoint([skew_plus((1, 0))], union)

    @pytest.mark.parametrize("call, name", [
        (lambda m: apply_piecewise(m, SQUARE), "m"),
        (lambda m: apply_disjoint([skew_plus((0, -1)), m], SQUARE), r"maps\[1\]"),
        (lambda m: iterate(m, 2, SQUARE), "m"),
    ], ids=["apply_piecewise", "apply_disjoint", "iterate"])
    def test_what_is_not_a_map_is_named_with_its_type(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be a PiecewiseUnimodularMap, got int$"):
            call(5)

    @pytest.mark.parametrize("sides, name", [((1, 2), "positive_side_map"),
                                             ((IDENTITY, 2), "negative_side_map")])
    def test_a_side_map_that_is_not_affine_is_named_with_its_type(self, sides, name):
        with pytest.raises(ValueError, match=f"^{name} must be an AffineUnimodular, got int$"):
            PiecewiseUnimodularMap((0, 0), (0, 1), *sides)

    def test_single_map_matches_apply_piecewise(self):
        T = region([(0, 0), (1, 1), (-1, 0)], [((0, 0), (1, 1))])
        assert apply_disjoint([skew_plus((0, -1))], T) == apply_piecewise(skew_plus((0, -1)), T)


def test_heptagon_corner_maps_move_triangles_onto_spike():
    from ehrpoly import heptagon_decomposition
    for s in (2, 3):
        dec = heptagon_decomposition(s)
        assert dec["checks"]["U1_maps_T1"]
        assert dec["checks"]["U2_maps_T2"]


unit = st.fractions(min_value=0, max_value=1, max_denominator=6)
small = st.integers(-3, 3)


@st.composite
def regions(draw):
    """A rational polygon, closed or with a removed sub-segment of an edge."""
    P = draw(rational_polygons())
    if draw(st.booleans()):
        return P
    a, b = draw(st.sampled_from(list(P.edges())))
    s, t = draw(st.lists(unit, min_size=2, max_size=2, unique=True))
    return SemiOpenRegion(P, [HalfOpenSegment(*[(a[0] + k * (b[0] - a[0]), a[1] + k * (b[1] - a[1]))
                                                 for k in (s, t)])])


@st.composite
def piecewise_maps(draw):
    """skew_plus, skew_minus, affine_skew, or an affine_skew moved to a
    rational anchor on its line."""
    r = draw(st.tuples(small, small).filter(lambda r: r != (0, 0)))
    u = draw(st.tuples(small, small))
    kind = draw(st.sampled_from(["plus", "minus", "affine", "rational anchor"]))
    if kind == "plus":
        return skew_plus(r)
    if kind == "minus":
        return skew_minus(r)
    m = affine_skew(u, (u[0] + r[0], u[1] + r[1]), draw(st.sampled_from("+-")))
    if kind == "affine":
        return m
    k = draw(st.fractions(min_value=-3, max_value=3, max_denominator=6))
    d = m.direction
    return PiecewiseUnimodularMap((u[0] + k * d[0], u[1] + k * d[1]), d,
                                  m.positive_side_map, m.negative_side_map)


class TestApplyPiecewiseProperties:
    @settings(max_examples=120, deadline=None)
    @given(regions(), piecewise_maps())
    def test_counts_preserved(self, R, m):
        out = apply_piecewise(m, R)
        for n in range(1, 2 * region_denominator(R) + 1):
            assert region_count(out, n) == region_count(R, n)
        # the oracle takes every kind: R is a Polygon or a SemiOpenRegion,
        # its image a SemiOpenRegion or a RegionUnion
        for X in (R, out):
            assert [region_count_naive(X, n) for n in (1, 2, 3)] == [
                region_count(X, n) for n in (1, 2, 3)]

    @settings(max_examples=60, deadline=None)
    @given(rational_polygons(), piecewise_maps())
    def test_polygon_on_one_closed_side_maps_vertex_by_vertex(self, P, m):
        for sign in (1, -1):
            Q = _onto_one_closed_side(P, m, sign)
            amap = m.side_map(sign)
            assert apply_piecewise(m, Q) == SemiOpenRegion(
                Polygon([amap.apply(p) for p in Q.vertices]))


def _onto_one_closed_side(P: Polygon, m: PiecewiseUnimodularMap, sign: int) -> Polygon:
    """P moved across m's line until its lowest (sign 1) or highest (sign -1)
    vertex is on it, so that P lies on that closed side."""
    (u, v), a = m.direction, m.anchor
    heights = [u * (y - a[1]) - v * (x - a[0]) for x, y in P.vertices]
    w = F(min(heights) if sign > 0 else max(heights), u * u + v * v)
    Q = P.translate((w * v, -w * u))
    assert {m.side(p) for p in Q.vertices} == {0, sign}
    return Q


def iterate_by_loop(m: PiecewiseUnimodularMap, k: int, R):
    """The oracle of `iterate`: k calls of apply_piecewise, each image
    required to be convex."""
    for _ in range(k):
        R = apply_piecewise(m, R)
        if isinstance(R, RegionUnion):
            raise InvalidRegion("intermediate image became non-convex")
    return R


class TestIterate:
    @settings(max_examples=150, deadline=None)
    @given(regions(), piecewise_maps(), st.integers(1, 7))
    def test_matches_the_loop(self, R, m, k):
        try:
            want = iterate_by_loop(m, k, R)
        except InvalidRegion:
            with pytest.raises(InvalidRegion):
                iterate(m, k, R)
        else:
            assert iterate(m, k, R) == want

    @pytest.mark.parametrize("I", range(1, 9))
    def test_matches_the_loop_on_both_shear_runs_of_pip_b1(self, I):
        T1, T2, T3, P = (step.region for step in pip_b1(I).steps)
        for m, start, end in ((skew_plus((0, -1)), T1, T2), (skew_plus((0, 1)), T3, P)):
            assert iterate(m, 2 * I - 1, start) == iterate_by_loop(m, 2 * I - 1, start) == end

    @settings(max_examples=60, deadline=None)
    @given(rational_polygons(), piecewise_maps(), st.integers(1, 7), st.sampled_from([1, -1]))
    def test_matches_the_loop_on_one_closed_side(self, P, m, k, sign):
        Q = _onto_one_closed_side(P, m, sign)
        assert iterate(m, k, Q) == iterate_by_loop(m, k, Q)

    @pytest.mark.parametrize("k", [1, 7, 10**6])
    def test_makes_one_map_application_for_any_k(self, monkeypatch, k):
        calls, apply = [], unimodular.apply_disjoint

        def counted(maps, R):
            calls.append(len(maps))
            return apply(maps, R)
        monkeypatch.setattr(unimodular, "apply_disjoint", counted)
        # the unit square is on the closed side x >= 0 that the shear moves
        out = iterate(skew_plus((0, -1)), k, SQUARE)
        assert calls == [1]
        assert out == SemiOpenRegion(Polygon([(0, 0), (1, -k), (1, 1 - k), (0, 1)]))

    @pytest.mark.parametrize("sides, name", [
        # both sides translate along the line y = 0 instead of fixing it
        ((AffineUnimodular(1, 0, 0, 1, 1, 0),) * 2, "positive_side_map"),
        # the reflection in y = 0 fixes the line but has determinant -1
        ((IDENTITY, AffineUnimodular(1, 0, 0, -1)), "negative_side_map"),
    ], ids=["translation along the line", "reflection in the line"])
    def test_refuses_a_map_that_is_not_a_shear_of_its_line(self, sides, name):
        m = PiecewiseUnimodularMap((0, 0), (1, 0), *sides)
        with pytest.raises(ValueError, match=f"^iterate needs side maps that are determinant-1 "
                                             f"shears fixing the splitting line, and {name} "
                                             f"is not one$"):
            iterate(m, 2, SQUARE)


@st.composite
def unimodular_maps(draw):
    """A product of three shears, maybe times a reflection, then an integer translation."""
    m = AffineUnimodular(1, draw(small), 0, 1).compose(AffineUnimodular(1, 0, draw(small), 1))
    m = m.compose(AffineUnimodular(1, draw(small), 0, 1))
    if draw(st.booleans()):
        m = m.compose(AffineUnimodular(0, 1, 1, 0))
    return AffineUnimodular(1, 0, 0, 1, draw(small), draw(small)).compose(m)


@st.composite
def side_map_pairs(draw):
    """A rational anchor, a direction and two det +-1 maps with integer
    translations: the second is the first after a shear that fixes the
    line, after a shear that fixes one of two points on it, or drawn on its own."""
    first = draw(unimodular_maps())
    A = draw(st.tuples(unit, st.fractions(min_value=-2, max_value=2, max_denominator=4)))
    r = draw(st.tuples(small, small).filter(lambda r: r != (0, 0)))
    (u, v), k = primitive(r), draw(small)
    kind = draw(st.sampled_from(["fixes the line", "fixes one point", "any"]))
    if kind == "fixes the line":
        # x |-> x + k (u y - v x - c) (u, v) fixes u y - v x = c; k*c is an integer
        c = u * A[1] - v * A[0]
        k *= c.denominator
        kc = int(k * c)
        second = first.compose(AffineUnimodular(
            1 - k * u * v, k * u * u, -k * v * v, 1 + k * u * v, -kc * u, -kc * v))
    elif kind == "fixes one point":
        # x |-> B + N (x - B) with N = ((1, q k), (0, 1)), for B the anchor or
        # the anchor plus (u, v), and q their denominator
        B = draw(st.sampled_from([A, (A[0] + u, A[1] + v)]))
        q = math.lcm(A[0].denominator, A[1].denominator)
        second = first.compose(AffineUnimodular(1, q * k, 0, 1, int(-q * k * B[1]), 0))
    else:
        second = draw(unimodular_maps())
    return A, r, first, second


@settings(max_examples=300, deadline=None)
@given(side_map_pairs())
def test_side_maps_must_agree_at_the_anchor_and_one_step_along_the_line(case):
    A, r, first, second = case
    u, v = primitive(r)
    agree = all(first.apply(p) == second.apply(p) for p in (A, (A[0] + u, A[1] + v)))
    if agree:
        PiecewiseUnimodularMap(A, r, first, second)
    else:
        with pytest.raises(ValueError, match="disagree"):
            PiecewiseUnimodularMap(A, r, first, second)


@st.composite
def scaled_points_and_maps(draw):
    """A skew_plus, skew_minus or affine_skew of a rational direction, maybe
    non-primitive, at a lattice anchor; a denominator Q; and integer points
    V whose points V / Q lie on the line and a few steps of 1/Q to either
    side of it, with some anywhere."""
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    r = draw(st.one_of(st.just((F(3, 2), F(3, 4))),
                       st.tuples(coord, coord).filter(lambda r: r != (0, 0))))
    kind = draw(st.sampled_from([skew_plus, skew_minus, affine_skew]))
    if kind is affine_skew:
        a = draw(st.tuples(small, small))
        m = affine_skew(a, (a[0] + r[0], a[1] + r[1]), draw(st.sampled_from("+-")))
    else:
        m, a = kind(r), (0, 0)
    Q, (u, v) = draw(st.integers(1, 12)), m.direction
    steps = draw(st.lists(st.tuples(st.integers(-5, 5), st.integers(-3, 3)), max_size=8))
    V = [(Q * a[0] + j * u - e * v, Q * a[1] + j * v + e * u)
         for j, e in [(0, -1), (0, 0), (0, 1)] + steps]
    V += draw(st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), max_size=4))
    return m, Q, V


@settings(max_examples=200, deadline=None)
@given(scaled_points_and_maps())
def test_apply_scaled_matches_the_map_point_by_point(case):
    m, Q, V = case
    pts = [(F(x, Q), F(y, Q)) for x, y in V]
    assert {m.side(p) for p in pts[:3]} == {-1, 0, 1}
    # the oracle: the side and the image in Fractions, one point at a time
    a, (u, v) = m.anchor, m.direction
    expected = []
    for x, y in pts:
        f = m.side_map(u * (y - a[1]) - v * (x - a[0]))
        expected.append((f.m00 * x + f.m01 * y + f.tx, f.m10 * x + f.m11 * y + f.ty))
    got = [(F(x, Q), F(y, Q)) for x, y in m._apply_scaled(Q, V)]
    assert got == expected == [m.apply(p) for p in pts]


def test_construction_chains_make_no_fractions():
    # count the Fractions made while iterate or apply_disjoint is running
    entered, made, _ = fractions_made({iterate, apply_disjoint},
                                      lambda: [pip_b1(I) for I in (1, 2, 3)])
    assert entered > 0 and made == 0


def test_nonconvex_image_makes_no_fractions():
    m, big = skew_plus((0, -1)), Polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    entered, made, out = fractions_made({apply_piecewise}, lambda: apply_piecewise(m, big))
    assert isinstance(out, RegionUnion)
    assert entered == 1 and made == 0


def _matrix_product(m: AffineUnimodular, p) -> tuple[F, F]:
    """M p + t written out in Fraction arithmetic, independent of the integer path."""
    x, y = F(p[0]), F(p[1])
    return (m.m00 * x + m.m01 * y + m.tx, m.m10 * x + m.m11 * y + m.ty)


@settings(max_examples=200, deadline=None)
@given(unimodular_maps(), piecewise_maps(), st.tuples(unit, unit), st.tuples(small, small),
       st.fractions(min_value=-3, max_value=3, max_denominator=6))
def test_apply_matches_the_matrix_product(m, pm, f, shift, k):
    p = (f[0] + shift[0], f[1] + shift[1])
    # a point on the splitting line, where either side's map may act
    (u, v), A = pm.direction, pm.anchor
    on_line = (A[0] + k * u, A[1] + k * v)
    assert m.apply(p) == _matrix_product(m, p)
    for q in (p, on_line, shift):
        side = u * (F(q[1]) - A[1]) - v * (F(q[0]) - A[0])
        want = _matrix_product(pm.positive_side_map if side >= 0 else pm.negative_side_map, q)
        got = pm.apply(q)
        assert got == want and all(type(c) is F for c in got)
    assert all(type(c) is F for c in m.apply(shift))
