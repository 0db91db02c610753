import math
import re
import sys
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ehrpoly import (
    DegenerateInput,
    HalfOpenSegment,
    Polygon,
    ZeroVector,
    area,
    boundary_count,
    convex_hull,
    convex_union,
    denominator,
    integral_hull,
    interior_count,
    lattice_count,
    lattice_count_naive,
    lattice_count_rowscan,
    lattice_length,
    lattice_points,
    point,
    primitive,
    segment_count,
)
from ehrpoly.geometry import GeometryError, _rows, cross, point_on_segment
from ehrpoly.sampling import polygon_corpus

SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
KITE = Polygon([(0, 0), (1, F(-1, 2)), (2, 0), (1, F(1, 2))])
TRI_B1 = Polygon([(0, -1), (F(1, 3), F(1, 3)), (F(-1, 3), F(2, 3))])

frac6 = st.fractions(min_value=-5, max_value=5, max_denominator=6)


class TestConvexHull:
    def test_drops_interior_and_collinear_points(self):
        h = convex_hull([(0, 0), (2, 0), (1, 1), (1, F(1, 2))])
        assert h == Polygon([(0, 0), (2, 0), (1, 1)])

    def test_identity_on_triangle(self):
        assert convex_hull([(0, 0), (1, 0), (0, 1)]) == Polygon([(0, 0), (1, 0), (0, 1)])

    def test_collinear_rejected(self):
        with pytest.raises(DegenerateInput):
            convex_hull([(0, 0), (1, 0), (2, 0)])
        with pytest.raises(DegenerateInput):
            convex_hull([(0, 0), (1, 1)])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(frac6, frac6), min_size=3, max_size=12))
    def test_idempotent(self, pts):
        try:
            h = convex_hull(pts)
        except DegenerateInput:
            return
        assert convex_hull(h.vertices) == h
        assert all(h.contains(point(*p)) for p in pts)

    def test_canonical_start_vertex(self):
        a = Polygon([(1, 0), (1, 1), (0, 1), (0, 0)])
        b = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert a == b and a.vertices[0] == point(0, 0)

    def test_clockwise_rejected(self):
        with pytest.raises(DegenerateInput):
            Polygon([(0, 0), (0, 1), (1, 0)])

    @pytest.mark.parametrize("build", [Polygon, convex_hull])
    @pytest.mark.parametrize("k, bad", [(0, (0, 0, 5)), (2, (0, 1, 5)), (1, "10"), (2, 7)])
    def test_a_point_that_is_not_a_pair_is_named(self, build, k, bad):
        # a third coordinate is refused, not dropped, and a two-character
        # string is not read as two coordinates
        pts = [(0, 0), (1, 0), (0, 1)]
        pts[k] = bad
        with pytest.raises(GeometryError, match=rf"^point {k} is not an \(x, y\) pair: "
                                                rf"{re.escape(repr(bad))}$"):
            build(pts)

    def test_pentagram_rejected(self):
        # every turn is left, but the boundary winds around twice
        star = [(0, 10), (-6, -8), (10, 3), (-10, 3), (6, -8)]
        for k in range(5):
            with pytest.raises(DegenerateInput, match="wind"):
                Polygon(star[k:] + star[:k])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(frac6, frac6), min_size=3, max_size=12), st.randoms())
    def test_only_rotations_of_the_hull_order_accepted(self, pts, rnd):
        try:
            h = convex_hull(pts)
        except DegenerateInput:
            return
        order = list(h.vertices)
        rnd.shuffle(order)
        k = order.index(h.vertices[0])
        if order[k:] + order[:k] == list(h.vertices):
            assert Polygon(order) == h
        else:
            with pytest.raises(DegenerateInput):
                Polygon(order)


class TestArea:
    def test_unit_square(self):
        assert area(SQUARE) == 1

    def test_kite_by_hand_shoelace(self):
        # (0,0),(1,-1/2),(2,0),(1,1/2): shoelace sum = 2 -> area 1; equals
        # Pick's value I + b/2 - 1 = 1 + 1 - 1
        assert area(KITE) == 1

    def test_one_boundary_triangle(self):
        assert area(TRI_B1) == F(1, 2)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=5))
    def test_dilation_scales_area_quadratically(self, n):
        for P in (SQUARE, KITE, TRI_B1):
            assert area(P.dilate(n)) == n * n * area(P)


class TestLatticeCount:
    def test_unit_square_n3(self):
        assert lattice_count(SQUARE, 3) == 16

    def test_kite_small_dilates(self):
        assert lattice_count(KITE, 1) == 3
        assert lattice_count(KITE, 2) == 7
        assert sorted(lattice_points(KITE, 1)) == [(0, 0), (1, 0), (2, 0)]

    def test_counters_agree_on_reference_shapes(self):
        for P in (SQUARE, KITE, TRI_B1):
            for n in range(1, 10):
                assert (lattice_count(P, n)
                        == lattice_count_rowscan(P, n)
                        == lattice_count_naive(P, n))

    def test_counters_agree_on_random_polygons(self):
        for P in polygon_corpus(7, 25, max_denominator=6, coord_bound=3):
            for n in range(1, 9):
                assert lattice_count(P, n) == lattice_count_rowscan(P, n)
                assert lattice_count(P, n) == lattice_count_naive(P, n)

    def test_no_lattice_points_in_thin_polygon(self):
        thin = Polygon([(F(1, 5), F(1, 5)), (F(2, 5), F(1, 5)), (F(1, 5), F(2, 5))])
        assert lattice_count(thin, 1) == 0
        assert lattice_count_naive(thin, 1) == 0

    def test_rejects_bad_dilation(self):
        with pytest.raises(ValueError):
            lattice_count(SQUARE, 0)


class TestBoundary:
    def test_examples(self):
        assert boundary_count(SQUARE, 1) == 4
        assert boundary_count(KITE, 1) == 2
        assert boundary_count(TRI_B1, 1) == 1

    def test_interior_examples(self):
        assert interior_count(SQUARE, 1) == 0
        assert interior_count(KITE, 1) == 1
        assert interior_count(Polygon([(0, 0), (3, 0), (0, 3)]), 1) == 1

    def _boundary_brute(self, P, n):
        Pn = P.dilate(n)
        xlo, ylo, xhi, yhi = Pn.bounding_box()
        cnt = 0
        for x in range(math.ceil(xlo), math.floor(xhi) + 1):
            for y in range(math.ceil(ylo), math.floor(yhi) + 1):
                if Pn.on_boundary(point(x, y)):
                    cnt += 1
        return cnt

    def test_edgewise_matches_bruteforce(self):
        for P in polygon_corpus(11, 12, max_denominator=6, coord_bound=2):
            for n in range(1, 3 * denominator(P) + 1):
                assert boundary_count(P, n) == self._boundary_brute(P, n)


class TestLatticeVectors:
    def test_lattice_length_examples(self):
        assert lattice_length((F(3, 2), F(3, 4))) == F(3, 4)
        assert lattice_length((1, 0)) == 1
        assert lattice_length((0, 5)) == 5

    def test_primitive_examples(self):
        assert primitive((F(3, 2), F(3, 4))) == (2, 1)
        assert primitive((0, -7)) == (0, -1)
        assert primitive((4, 6)) == (2, 3)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            lattice_length((0, 0))
        with pytest.raises(ZeroVector):
            primitive((F(0), F(0)))

    @settings(max_examples=80, deadline=None)
    @given(frac6, frac6, st.fractions(min_value=F(-4), max_value=F(4), max_denominator=5))
    def test_scaling_law(self, x, y, k):
        if (x, y) == (0, 0) or k == 0:
            return
        assert lattice_length((k * x, k * y)) == abs(k) * lattice_length((x, y))

    @settings(max_examples=80, deadline=None)
    @given(frac6, frac6)
    def test_primitive_properties(self, x, y):
        if (x, y) == (0, 0):
            return
        u, v = primitive((x, y))
        assert math.gcd(u, v) == 1
        assert u * y - v * x == 0          # parallel
        assert u * x + v * y > 0            # same direction


def _fraction_hull(P):
    """(dim, vertices, polygon) of the integral hull built as a Fraction
    hull of every lattice point of P: the reference for `integral_hull`."""
    pts = sorted({point(x, y) for x, y in lattice_points(P, 1)})
    try:
        h = convex_hull(pts)
    except DegenerateInput:
        ends = tuple(pts) if len(pts) < 2 else (pts[0], pts[-1])
        return len(ends) - 1, ends, None
    return 2, h.vertices, h


@st.composite
def rational_polygons(draw):
    """Random rational polygons with denominators <= 6; about half are thin
    (a band of height 1 around a lattice line), sheared or turned upright."""
    thin = draw(st.booleans())
    ys = st.fractions(min_value=F(-1, 2), max_value=F(1, 2), max_denominator=6) if thin else frac6
    pts = draw(st.lists(st.tuples(frac6, ys), min_size=3, max_size=10))
    k = draw(st.integers(min_value=-2, max_value=2))
    pts = [(x, y + k * x) for x, y in pts]
    if draw(st.booleans()):
        pts = [(y, x) for x, y in pts]
    try:
        return convex_hull(pts)
    except DegenerateInput:
        assume(False)


@st.composite
def trapezoids(draw):
    """Random rational polygons with a horizontal bottom and top edge."""
    y0, y1 = sorted(draw(st.lists(frac6, min_size=2, max_size=2, unique=True)))
    b0, b1 = sorted(draw(st.lists(frac6, min_size=2, max_size=2, unique=True)))
    t0, t1 = sorted(draw(st.lists(frac6, min_size=2, max_size=2, unique=True)))
    return Polygon([(b0, y0), (b1, y0), (t1, y1), (t0, y1)])


def fractions_made(watched, action):
    """(calls of the functions in `watched`, Fractions made while one of
    them runs, what `action()` returns), counted with `sys.setprofile`."""
    codes, new = {f.__code__ for f in watched}, F.__new__.__code__
    depth = entered = made = 0

    def profile(frame, event, arg):
        nonlocal depth, entered, made
        if frame.f_code in codes and event in ("call", "return"):
            depth += 1 if event == "call" else -1
            entered += event == "call"
        elif event == "call" and frame.f_code is new and depth:
            made += 1

    sys.setprofile(profile)
    try:
        result = action()
    finally:
        sys.setprofile(None)
    return entered, made, result


def _row_scan_points(P, n):
    """nP ∩ Z^2 from the `Fraction` row crossings of the row-scan oracle."""
    return [(x, y) for y, first, last in _rows(P, n) for x in range(first, last + 1)]


class TestLatticePoints:
    @settings(max_examples=120, deadline=None)
    @given(st.one_of(rational_polygons(), trapezoids()), st.integers(min_value=1, max_value=6))
    def test_matches_the_row_scan(self, P, n):
        assert lattice_points(P, n) == _row_scan_points(P, n)

    @pytest.mark.parametrize("P, pts, empty_rows", [
        # a sliver: rows 1, 2, 4 and 5 cross it between two lattice points
        (Polygon([(0, 0), (F(1, 3), 0), (2, 6)]), [(0, 0), (1, 3), (2, 6)], 4),
        # horizontal edges at y = 1/3 and on the row y = 2
        (Polygon([(F(-1, 2), F(1, 3)), (F(5, 2), F(1, 3)), (2, 2), (0, 2)]),
         [(0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (2, 2)], 0),
    ])
    def test_examples(self, P, pts, empty_rows):
        assert lattice_points(P, 1) == pts
        assert sum(last < first for _, first, last in _rows(P, 1)) == empty_rows
        for n in range(1, 7):
            assert lattice_points(P, n) == _row_scan_points(P, n)

    def test_makes_no_fractions(self):
        P = Polygon._from_scaled(15, [(0, 0), (40, 3), (7, 22)])
        entered, made, pts = fractions_made(
            {lattice_points}, lambda: [lattice_points(P, n) for n in (1, 2, 3)])
        assert entered == 3 and made == 0
        assert pts == [_row_scan_points(P, n) for n in (1, 2, 3)]

    def test_shares_one_plan_with_lattice_count(self, monkeypatch):
        import ehrpoly.geometry as geo
        real, builds = geo._counting_plan, []
        monkeypatch.setattr(geo, "_counting_plan", lambda P: builds.append(P) or real(P))
        P = Polygon([(0, 0), (F(7, 2), F(1, 3)), (2, 5)])
        pts = lattice_points(P, 3)
        assert builds == [P]
        assert lattice_count(P, 3) == len(pts) == lattice_count_rowscan(P, 3)
        assert lattice_count(P, 2) == lattice_count_rowscan(P, 2)
        assert builds == [P]


class TestContainment:
    @settings(max_examples=60, deadline=None)
    @given(rational_polygons(), st.lists(st.tuples(frac6, frac6), max_size=12))
    def test_matches_cross_products(self, P, pts):
        mids = [((a[0] + b[0]) / 2, (a[1] + b[1]) / 2) for a, b in P.edges()]
        for p in list(P.vertices) + mids + pts:
            sides = [cross(a, b, p) for a, b in P.edges()]
            assert P.contains(p) == (min(sides) >= 0)
            assert P.contains_strict(p) == (min(sides) > 0)
        assert all(P.contains(p) and not P.contains_strict(p) for p in list(P.vertices) + mids)

    @pytest.mark.parametrize("p", [
        (1, 2), (3, 0), (1, 1), (4, 0),
        (F(3, 2), F(3, 2)), (F(1, 3), F(8, 3)), (F(-1, 2), 1),
        (1.5, 1.5), (0.5, 0.5), (0.99, 2.01), (0.1, 2.9), (3.0, 0.0),
        ("3/2", "3/2"), ("0.99", "2.01"), ("1", "2"), ("-1/2", "1"),
    ])
    def test_coerces_points_like_the_constructor(self, p):
        T = Polygon([(0, 0), (3, 0), (0, 3)])
        seg = HalfOpenSegment((0, 3), (3, 0))
        q = point(*p)
        for method in (T.contains, T.contains_strict, T.on_boundary, seg.contains):
            assert method(p) == method(q)
        assert T.on_boundary(p) == any(point_on_segment(q, a, b) for a, b in T.edges())

    def test_float_points_are_taken_at_their_exact_value(self):
        T = Polygon([(0, 0), (3, 0), (0, 3)])
        # the binary values of 0.99 and 2.01 do not sum to 3; 1.5 is exact
        assert not T.on_boundary((0.99, 2.01)) and T.contains_strict((0.99, 2.01))
        assert T.on_boundary((1.5, 1.5)) and T.on_boundary(("0.99", "2.01"))


_T2 = Polygon([(0, 0), (2, 0), (0, 2)])


@pytest.mark.parametrize("call", [
    lambda p: _T2.contains(p),
    lambda p: _T2.translate(p),
    lambda p: lattice_length(p),
    lambda p: HalfOpenSegment(p, (1, 0)),
], ids=["contains", "translate", "lattice_length", "HalfOpenSegment"])
@pytest.mark.parametrize("bad", [(1, 1, 99), "11", (7,), 7])
def test_a_single_point_that_is_not_a_pair_is_named(call, bad):
    # a third coordinate is refused, not dropped, and a two-character
    # string is not read as two coordinates
    with pytest.raises(GeometryError, match=rf"^point is not an \(x, y\) pair: "
                                            rf"{re.escape(repr(bad))}$"):
        call(bad)
    assert call((1, 1)) is not None


class TestCountingPlan:
    @settings(max_examples=40, deadline=None)
    @given(rational_polygons(), st.randoms(), st.tuples(frac6, frac6),
           st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    def test_plan_counts_match_oracles_in_any_order(self, P, rnd, shift, k):
        D = denominator(P)
        ns = list(range(1, 2 * D + 3))
        rnd.shuffle(ns)
        counts = {n: lattice_count(P, n) for n in ns}   # one plan, built first
        # the oracles cost O(rows) and O(area): check both ends of the order
        for n in ns[:4] + ns[-4:]:
            assert counts[n] == lattice_count_rowscan(P, n)
            if n * n * area(P) <= 2000:
                assert counts[n] == lattice_count_naive(P, n)
        doubled, moved, shifted = P.dilate(2), P.translate(shift), P.translate(k)
        for n in (1, 2):
            assert lattice_count(doubled, n) == counts[2 * n]
            assert lattice_count(moved, n) == lattice_count_rowscan(moved, n) \
                == lattice_count_naive(moved, n)
            # nk is a lattice vector, so it moves nP onto the same count
            assert lattice_count(shifted, n) == counts[n]


class TestIntegralHull:
    @settings(max_examples=100, deadline=None)
    @given(rational_polygons())
    def test_matches_fraction_hull_of_every_lattice_point(self, P):
        h = integral_hull(P)
        assert (h.dim, h.vertices, h.polygon) == _fraction_hull(P)

    @pytest.mark.parametrize("P, dim", [
        # lattice points (0, 0..3): one per row
        (Polygon([(F(-1, 3), 0), (F(1, 3), 0), (0, 3)]), 1),
        # lattice points (0..3, 0): a single row
        (Polygon([(0, F(-1, 3)), (3, 0), (0, F(1, 3))]), 1),
        (Polygon([(F(-1, 2), F(-1, 2)), (F(1, 2), F(-1, 2)), (0, F(1, 2))]), 0),
        (Polygon([(F(1, 3), F(1, 3)), (F(2, 3), F(1, 3)), (F(1, 2), F(2, 3))]), -1),
    ])
    def test_degenerate_lattice_sets_match_fraction_hull(self, P, dim):
        h = integral_hull(P)
        assert h.dim == dim and h.polygon is None
        assert (h.dim, h.vertices, h.polygon) == _fraction_hull(P)

    def test_integral_polygon_is_its_own_hull(self):
        h = integral_hull(SQUARE)
        assert h.dim == 2 and h.polygon == SQUARE

    def test_kite_hull_degenerates_to_segment(self):
        h = integral_hull(KITE)
        assert h.dim == 1
        assert h.vertices == (point(0, 0), point(2, 0))

    def test_bruteforced_hull(self):
        P = Polygon([(F(-1, 3), F(-1, 3)), (F(7, 3), F(-1, 3)), (1, F(7, 3))])
        h = integral_hull(P)
        assert h.dim == 2
        assert h.polygon == Polygon([(0, 0), (2, 0), (1, 2)])

    def test_empty_and_point_hulls(self):
        thin = Polygon([(F(1, 5), F(1, 5)), (F(2, 5), F(1, 5)), (F(1, 5), F(2, 5))])
        assert integral_hull(thin).dim == -1
        around_origin = Polygon([(F(-1, 5), F(-1, 5)), (F(1, 5), F(-1, 5)),
                                 (F(1, 5), F(1, 5)), (F(-1, 5), F(1, 5))])
        h = integral_hull(around_origin)
        assert h.dim == 0 and h.vertices == (point(0, 0),)


class TestDenominator:
    def test_examples(self):
        assert denominator(SQUARE) == 1
        assert denominator(TRI_B1) == 3
        from ehrpoly import heptagon
        assert denominator(heptagon(3)) == 3


class TestConvexUnion:
    def test_square_from_triangles(self):
        t1 = Polygon([(0, 0), (1, 0), (1, 1)])
        t2 = Polygon([(0, 0), (1, 1), (0, 1)])
        assert convex_union([t1, t2]) == SQUARE

    def test_nonconvex_union_rejected(self):
        t1 = Polygon([(0, 0), (1, 0), (1, 1)])
        t2 = Polygon([(1, 0), (3, 0), (3, 1)])
        with pytest.raises(GeometryError):
            convex_union([t1, t2])

    def test_overlapping_pieces_rejected(self):
        with pytest.raises(GeometryError):
            convex_union([SQUARE, Polygon([(0, 0), (1, 0), (1, 1)])])

    def test_rejection_names_both_areas(self):
        t1 = Polygon([(0, 0), (1, 0), (1, 1)])
        t2 = Polygon([(1, 0), (3, 0), (3, 1)])
        with pytest.raises(GeometryError) as exc:
            convex_union([t1, t2])
        assert str(exc.value) == ("pieces do not tile a convex region "
                                  "(hull area 5/2, piece areas sum to 3/2)")


def test_pick_on_integral_polygons():
    # hulls of random lattice point sets
    from ehrpoly.sampling import SplitMix64
    rng = SplitMix64(99)
    built = 0
    while built < 40:
        pts = [(rng.int_between(-4, 4), rng.int_between(-4, 4)) for _ in range(6)]
        try:
            P = convex_hull(pts)
        except DegenerateInput:
            continue
        built += 1
        assert area(P) == interior_count(P, 1) + F(boundary_count(P, 1), 2) - 1


def _fraction_area(P):
    """Shoelace area of the `Fraction` vertices: the reference for `area`."""
    return sum((a[0] * b[1] - a[1] * b[0] for a, b in P.edges()), F(0)) / 2


def _lattice_scan(a, b, n):
    """Lattice points of the closed segment n*[a, b], by `point_on_segment`
    over its bounding box: the reference for the integer segment counts."""
    a, b = point(n * F(a[0]), n * F(a[1])), point(n * F(b[0]), n * F(b[1]))
    return [(x, y)
            for x in range(math.ceil(min(a[0], b[0])), math.floor(max(a[0], b[0])) + 1)
            for y in range(math.ceil(min(a[1], b[1])), math.floor(max(a[1], b[1])) + 1)
            if point_on_segment(point(x, y), a, b)]


@st.composite
def rational_segments(draw):
    """Segments with denominators <= 6, including vertical, horizontal and
    lattice-endpoint ones, in either direction."""
    kind = draw(st.sampled_from(["any", "vertical", "horizontal", "lattice"]))
    a, b = draw(st.tuples(frac6, frac6)), draw(st.tuples(frac6, frac6))
    if kind == "vertical":
        b = (a[0], b[1])
    elif kind == "horizontal":
        b = (b[0], a[1])
    elif kind == "lattice":
        a = (F(round(a[0])), F(round(a[1])))
        b = (F(round(b[0])), F(round(b[1])))
    assume(a != b)
    return a, b


class TestIntegerCore:
    @settings(max_examples=60, deadline=None)
    @given(rational_polygons(), st.integers(min_value=0, max_value=9))
    def test_vertices_are_the_stored_integers_over_q(self, P, k):
        k %= len(P)
        P = Polygon(P.vertices[k:] + P.vertices[:k])   # rotated back on construction
        Q = P._Q
        assert P.vertices == tuple((F(x, Q), F(y, Q)) for x, y in P._V)
        assert Q == denominator(P) == math.lcm(*(c.denominator for v in P.vertices for c in v))

    @settings(max_examples=60, deadline=None)
    @given(rational_polygons(), st.integers(min_value=1, max_value=4),
           st.tuples(frac6, frac6))
    def test_unchecked_constructions_match_the_checked_constructor(self, P, n, d):
        # dilate, translate and integral_hull skip the checks and the
        # Fraction vertices, all of which `_unscale` builds; Polygon(list of
        # Fractions) does neither
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sys.modules["ehrpoly.geometry"], "_unscale",
                       lambda *a: pytest.fail("built a Fraction vertex"))
            dilated, moved = P.dilate(n), P.translate(d)
        pairs = [(dilated, [(n * x, n * y) for x, y in P.vertices]),
                 (moved, [(x + d[0], y + d[1]) for x, y in P.vertices])]
        h = integral_hull(P)
        if h.polygon is not None:
            pairs.append((h.polygon, list(h.vertices)))
        for fast, verts in pairs:
            slow = Polygon(verts)
            assert (fast._Q, fast._V) == (slow._Q, slow._V)
            assert fast == slow and hash(fast) == hash(slow)
            assert fast.vertices == slow.vertices
            assert area(fast) == _fraction_area(slow)

    @settings(max_examples=60, deadline=None)
    @given(rational_polygons())
    def test_boundary_count_matches_on_boundary(self, P):
        for n in (1, 2, 3):
            Pn = P.dilate(n)
            brute = sum(Pn.on_boundary(point(*p)) for p in lattice_points(P, n))
            assert boundary_count(P, n) == brute

    @settings(max_examples=150, deadline=None)
    @given(rational_segments(), st.integers(min_value=1, max_value=3))
    # the direction cases of the start point's inverse: v = 0, u = 0,
    # |v| = 1 of either sign, and a large coprime (u, v)
    @example(((F(-1, 3), F(1, 2)), (3, F(1, 2))), 2)
    @example(((1, F(-5, 2)), (1, 4)), 1)
    @example(((F(1, 2), 0), (F(7, 2), 1)), 2)
    @example(((0, 1), (2, 0)), 3)
    @example(((0, 0), (F(1000003, 1000001), F(-999999, 1000001))), 1)
    @example(((F(1, 2), F(1, 3)), (F(1, 2) + F(1000003, 999998), F(1, 3) - F(999999, 999998))), 3)
    def test_segment_counts_match_point_on_segment(self, seg, n):
        a, b = seg
        dilated = _lattice_scan(a, b, n)
        na = point(n * F(a[0]), n * F(a[1]))
        assert segment_count(HalfOpenSegment(a, b), n) == sum(p != na for p in dilated)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(frac6, frac6), min_size=3, max_size=12))
    def test_convex_hull_is_the_least_convex_cover(self, pts):
        try:
            h = convex_hull(pts)
        except DegenerateInput:
            return
        given_pts = {point(*p) for p in pts}
        assert set(h.vertices) <= given_pts
        assert all(h.contains(p) for p in given_pts)


def _count_parameters():
    """(entry point, parameter, least value, call passing the value) for
    every count parameter of the package."""
    from ehrpoly import constructions as cons, verify
    from ehrpoly.ehrhart import EhrhartQuasiPolynomial, gf_series_check, series_coefficients
    from ehrpoly.regions import region, region_count, region_count_naive
    from ehrpoly.sampling import random_polygon, trial_rng
    from ehrpoly.unimodular import iterate, skew_plus

    seg = HalfOpenSegment((0, 0), (1, 0))
    R = region(SQUARE.vertices, [seg])
    return [
        ("Polygon.dilate", "n", 1, SQUARE.dilate),
        ("lattice_count", "n", 1, lambda v: lattice_count(SQUARE, v)),
        ("lattice_count_rowscan", "n", 1, lambda v: lattice_count_rowscan(SQUARE, v)),
        ("lattice_count_naive", "n", 1, lambda v: lattice_count_naive(SQUARE, v)),
        ("lattice_points", "n", 1, lambda v: lattice_points(SQUARE, v)),
        ("boundary_count", "n", 1, lambda v: boundary_count(SQUARE, v)),
        ("interior_count", "n", 1, lambda v: interior_count(SQUARE, v)),
        ("HalfOpenSegment.dilate", "n", 1, seg.dilate),
        ("segment_count", "n", 1, lambda v: segment_count(seg, v)),
        ("region_count", "n", 1, lambda v: region_count(R, v)),
        ("region_count_naive", "n", 1, lambda v: region_count_naive(R, v)),
        ("pip_b2", "I", 1, cons.pip_b2),
        ("pip_b2_half", "I", 1, cons.pip_b2_half),
        ("pip_b1", "I", 1, cons.pip_b1),
        ("heptagon", "s", 2, cons.heptagon),
        ("heptagon_anchor", "s", 2, cons.heptagon_anchor),
        ("heptagon_decomposition", "s", 2, cons.heptagon_decomposition),
        ("constant_coefficient_of_interval", "s", 1,
         lambda v: cons.constant_coefficient_of_interval(v, 1)),
        ("triangle_q", "t", 1, lambda v: cons.triangle_q((0, 0), v)),
        ("glued", "s", 2, lambda v: cons.glued(v, 2)),
        ("glued", "t", 2, lambda v: cons.glued(2, v)),
        ("scott_pip_search", "trials", 0, lambda v: cons.scott_pip_search(1, v)),
        ("scott_pip_search", "max_denominator", 1,
         lambda v: cons.scott_pip_search(1, 1, max_denominator=v)),
        ("scott_pip_search", "coord_bound", 1, lambda v: cons.scott_pip_search(1, 1, coord_bound=v)),
        ("polygon_corpus", "size", 0, lambda v: polygon_corpus(1, v)),
        ("polygon_corpus", "max_denominator", 1, lambda v: polygon_corpus(1, 1, max_denominator=v)),
        ("polygon_corpus", "coord_bound", 1, lambda v: polygon_corpus(1, 1, coord_bound=v)),
        ("random_polygon", "max_denominator", 1, lambda v: random_polygon(trial_rng(1, 0), v, 3)),
        ("random_polygon", "coord_bound", 1, lambda v: random_polygon(trial_rng(1, 0), 2, v)),
        ("EhrhartQuasiPolynomial", "modulus", 1, lambda v: EhrhartQuasiPolynomial(v, (), (), ())),
        ("series_coefficients", "t", 1, lambda v: series_coefficients(v, 5)),
        ("series_coefficients", "N", 0, lambda v: series_coefficients(2, v)),
        ("gf_series_check", "t", 1, lambda v: gf_series_check(SQUARE, v, 9)),
        ("gf_series_check", "N", 6, lambda v: gf_series_check(SQUARE, 2, v)),
        ("iterate", "k", 1, lambda v: iterate(skew_plus((0, -1)), v, SQUARE)),
        ("verify_pip", "max_I", 1, lambda v: verify.verify_pip(max_I=v, max_n=1)),
        ("verify_pip", "max_n", 1, lambda v: verify.verify_pip(max_I=1, max_n=v)),
        ("verify_heptagon", "max_s", 2, lambda v: verify.verify_heptagon(max_s=v)),
        ("verify_glue", "max_s", 2, lambda v: verify.verify_glue(max_s=v, max_t=2)),
        ("verify_glue", "max_t", 2, lambda v: verify.verify_glue(max_s=2, max_t=v)),
        ("verify_mcmullen", "trials", 1, lambda v: verify.verify_mcmullen(trials=v)),
        ("verify_transforms", "max_I", 1, lambda v: verify.verify_transforms(max_I=v)),
    ]


COUNT_PARAMETERS = _count_parameters()


@pytest.mark.parametrize("entry, name, least, call", COUNT_PARAMETERS,
                         ids=[f"{entry}-{name}" for entry, name, _, _ in COUNT_PARAMETERS])
def test_every_count_parameter_refuses_bools_floats_and_values_below_its_least(
        entry, name, least, call):
    # one check for all of them: a bool or a float is not a count, even
    # when it equals a valid one, and each message names the parameter
    for bad in (True, float(least), least - 1):
        need = f"at least {least}" if type(bad) is int else "an integer"
        with pytest.raises(ValueError, match=f"^{name} must be {need}, got {bad!r}$"):
            call(bad)
