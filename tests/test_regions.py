from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from ehrpoly import (
    HalfOpenSegment,
    InvalidRegion,
    Polygon,
    RegionUnion,
    SemiOpenRegion,
    apply_piecewise,
    lattice_count,
    lattice_length,
    region,
    region_count,
    region_count_naive,
    segment_count,
    skew_plus,
)
from ehrpoly import geometry
from ehrpoly.geometry import cross
from ehrpoly.regions import _segments_overlap
from ehrpoly.sampling import SplitMix64, polygon_corpus

SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


def semi_open_triangle(I):
    return region([(0, 0), (1, 2 * I - 1), (-1, 0)],
                  [((0, 0), (1, 2 * I - 1))])


class TestSegmentCount:
    def test_half_open_interval_examples(self):
        h = HalfOpenSegment((F(1, 2), 0), (1, 0))
        # complement of [0, 1/2] in [0, 1]: totals must be n + 1
        assert segment_count(h, 1) == 1
        assert segment_count(h, 2) == 1
        assert segment_count(HalfOpenSegment((0, 0), (3, 0)), 1) == 3

    def test_interval_complement_identity(self):
        # counts of [0, 1/s] and (1/s, 1] always add up to n + 1
        for s in range(2, 9):
            for n in range(1, 51):
                ell = n // s + 1   # the lattice points of [0, n/s]
                h = segment_count(HalfOpenSegment((F(1, s), 0), (1, 0)), n)
                assert ell + h == n + 1

    def test_lattice_segment_scales_by_lattice_length(self):
        cases = [((0, 0), (2, 1)), ((1, 1), (4, 3)), ((0, 0), (3, 3)), ((-1, 2), (1, -2))]
        for a, b in cases:
            seg = HalfOpenSegment(a, b)
            L = lattice_length((b[0] - a[0], b[1] - a[1]))
            for n in range(1, 21):
                assert segment_count(seg, n) == n * L

    def test_degenerate_segment_rejected(self):
        with pytest.raises(InvalidRegion):
            HalfOpenSegment((1, 1), (1, 1))


class TestSemiOpenRegion:
    def test_semi_open_triangle_count(self):
        T1 = semi_open_triangle(1)
        # closed triangle holds (0,0), (1,1), (-1,0); the removed half-open
        # edge excludes only (1,1)
        assert lattice_count(T1.closed, 1) == 3
        assert region_count(T1, 1) == 2
        assert region_count_naive(T1, 1) == 2

    def test_no_removals_is_plain_count(self):
        R = SemiOpenRegion(SQUARE)
        assert region_count(R, 2) == 9

    def test_dimension_guard(self):
        with pytest.raises(InvalidRegion):
            region_count(HalfOpenSegment((F(1, 2), 0), (1, 0)), 1)
        with pytest.raises(InvalidRegion):
            SemiOpenRegion(HalfOpenSegment((0, 0), (1, 0)))

    def test_removed_must_lie_on_boundary(self):
        with pytest.raises(InvalidRegion):
            region(SQUARE.vertices, [((0, 0), (1, 1))])  # diagonal

    @pytest.mark.parametrize("entry", [((0, 0), (1, 0), (1, 1)), ((0, 0),), 7])
    def test_a_removed_entry_that_is_not_a_pair_is_named(self, entry):
        with pytest.raises(InvalidRegion, match=r"^removed\[1\] must be a HalfOpenSegment"):
            region(SQUARE.vertices, [((0, 0), (F(1, 2), 0)), entry])

    def test_removed_may_be_proper_subsegment_of_edge(self):
        R = region(SQUARE.vertices, [((F(1, 4), 0), (F(3, 4), 0))])
        # at n=4 the removal dilates to (1, 3], excluding (2,0) and (3,0)
        assert region_count(R, 4) == 25 - 2
        assert region_count_naive(R, 4) == 25 - 2

    def test_overlapping_removals_rejected(self):
        with pytest.raises(InvalidRegion):
            region(SQUARE.vertices, [((0, 0), (1, 0)), ((F(1, 2), 0), (1, 0))])

    def test_adjacent_removals_allowed(self):
        R = region(SQUARE.vertices, [((0, 0), (F(1, 2), 0)), ((F(1, 2), 0), (1, 0))])
        assert region_count(R, 2) == 9 - 2

    def test_dilate(self):
        T1 = semi_open_triangle(1)
        d = T1.dilate(2)
        assert d.closed == Polygon([(0, 0), (2, 2), (-2, 0)])
        assert d.removed[0] == HalfOpenSegment((0, 0), (2, 2))
        assert SQUARE.dilate(1) == SQUARE

    def test_counts_decompose_exactly(self):
        T1 = semi_open_triangle(3)
        for n in range(1, 13):
            parts = sum(segment_count(s, n) for s in T1.removed)
            assert region_count(T1, n) + 0 == lattice_count(T1.closed, n) - parts


def test_region_count_matches_naive_on_random_regions():
    rng = SplitMix64(5150)
    for P in polygon_corpus(5150, 15, max_denominator=4, coord_bound=3):
        # remove a half-open prefix of a random edge
        edges = list(P.edges())
        a, b = edges[rng.below(len(edges))]
        mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        R = SemiOpenRegion(P, [HalfOpenSegment(a, mid)])
        for n in range(1, 7):
            assert region_count(R, n) == region_count_naive(R, n)


def test_naive_region_count_reads_no_counting_plan(monkeypatch):
    def broken(P):
        raise AssertionError("the oracle read the counting plan")

    monkeypatch.setattr(geometry, "_counting_plan", broken)
    R = region([(0, 0), (F(5, 2), 0), (1, F(7, 3))], [((0, 0), (1, 0))])
    assert [region_count_naive(R, n) for n in (1, 2, 6)] == [4, 14, 109]


def test_naive_region_count_takes_every_region_kind():
    # the removed edge crosses the cut, so one end of the seam is removed
    # from one piece only: it must not count, and a plain union of the
    # pieces' points counts 59 at n = 3
    R = region([(-2, -2), (1, -1), (2, 2), (1, 2)], [((1, -1), (2, 2))])
    U = apply_piecewise(skew_plus((1, 0)), R)
    assert isinstance(U, RegionUnion)
    for X in (R.closed, R, U):
        assert [region_count_naive(X, n) for n in (1, 2, 3)] == [
            region_count(X, n) for n in (1, 2, 3)]
    assert region_count_naive(U, 3) == region_count(R, 3) == 58
    with pytest.raises(InvalidRegion):
        region_count_naive(HalfOpenSegment((0, 0), (1, 0)), 1)


class TestRegionUnion:
    LEFT = region(SQUARE.vertices)
    RIGHT = region([(1, 0), (2, 0), (2, 1), (1, 1)])
    SEAM = HalfOpenSegment((1, 0), (1, 1))

    def test_polygon_pieces_rejected(self):
        with pytest.raises(InvalidRegion):
            RegionUnion([self.LEFT.closed, self.RIGHT.closed], self.SEAM)

    def test_seam_given_as_a_pair_of_points_rejected(self):
        with pytest.raises(InvalidRegion):
            RegionUnion([self.LEFT, self.RIGHT], ((1, 0), (1, 1)))

    def test_seam_off_the_boundary_of_a_piece_rejected(self):
        # on the boundary of the left square, but not of the right one; the
        # union would count 7, 16, 30 at n = 1..3 where the truth is 6, 15, 28
        with pytest.raises(InvalidRegion):
            RegionUnion([self.LEFT, self.RIGHT], HalfOpenSegment((0, F(1, 2)), (0, 1)))
        U = RegionUnion([self.LEFT, self.RIGHT], self.SEAM)
        assert [region_count(U, n) for n in (1, 2, 3)] == [6, 15, 28]


ints = st.integers(-12, 12)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.tuples(ints, ints), st.tuples(ints, ints), st.integers(1, 5))
def test_scaled_segment_matches_the_fraction_segment(Q, a, b, k):
    assume(a != b)
    seg = HalfOpenSegment._from_scaled(k * Q, (k * a[0], k * a[1]), (k * b[0], k * b[1]))
    ref = HalfOpenSegment((F(a[0], Q), F(a[1], Q)), (F(b[0], Q), F(b[1], Q)))
    assert seg == ref and hash(seg) == hash(ref) and repr(seg) == repr(ref)
    assert (seg.open_end, seg.closed_end) == (ref.open_end, ref.closed_end)


def fraction_overlap(s, t):
    """`_segments_overlap` in `Fraction` arithmetic, kept as its oracle."""
    if cross(s.open_end, s.closed_end, t.open_end) != 0:
        return False
    if cross(s.open_end, s.closed_end, t.closed_end) != 0:
        return False
    d = (s.closed_end[0] - s.open_end[0], s.closed_end[1] - s.open_end[1])

    def param(p):
        if d[0] != 0:
            return (p[0] - s.open_end[0]) / d[0]
        return (p[1] - s.open_end[1]) / d[1]

    lo2, hi2 = sorted((param(t.open_end), param(t.closed_end)))
    return max(F(0), lo2) < min(F(1), hi2)


# steps along a line from a base point, so that ends often coincide
steps = st.sampled_from([F(-1), F(-1, 2), F(0), F(1, 3), F(1, 2), F(1), F(3, 2), F(2)])


@st.composite
def segment_pairs(draw):
    """Two segments on one line (vertical and horizontal lines included),
    touching, nested, reversed or apart, or the second one moved off the
    line at one or both ends."""
    coord = st.fractions(-2, 2, max_denominator=4)
    base = draw(st.tuples(coord, coord))
    r = draw(st.sampled_from([(0, 1), (0, -2), (1, 0), (-3, 0), (2, 3), (-1, 2)]))

    def at(k, off=0):
        return (base[0] + k * r[0] - off * r[1], base[1] + k * r[1] + off * r[0])

    s = draw(st.lists(steps, min_size=2, max_size=2, unique=True))
    t = draw(st.lists(steps, min_size=2, max_size=2, unique=True))
    offs = draw(st.sampled_from([(0, 0), (0, 0), (0, F(1, 2)), (F(1, 3), F(1, 3))]))
    return (HalfOpenSegment(at(s[0]), at(s[1])),
            HalfOpenSegment(at(t[0], offs[0]), at(t[1], offs[1])))


@settings(max_examples=300, deadline=None)
@given(segment_pairs())
def test_segments_overlap_matches_the_fraction_test(pair):
    s, t = pair
    assert _segments_overlap(s, t) == fraction_overlap(s, t)
    assert _segments_overlap(t, s) == fraction_overlap(t, s)


def test_segments_overlap_edge_cases():
    a, b, c = (0, 0), (0, 2), (0, 3)  # vertical
    cases = [((a, b), (b, c), False),  # touching at one end
             ((a, b), (c, b), False),  # touching, reversed
             ((a, c), (b, a), True),   # nested, reversed
             ((b, a), (a, b), True),   # the same segment reversed
             ((a, b), ((1, 0), (1, 2)), False)]  # parallel
    for (p, q), (u, v), overlap in cases:
        s, t = HalfOpenSegment(p, q), HalfOpenSegment(u, v)
        assert _segments_overlap(s, t) == fraction_overlap(s, t) == overlap
