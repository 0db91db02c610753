"""Semi-open polygonal regions: a closed polygon minus half-open boundary
segments.

These make the signed-sum Ehrhart arguments exact: removing a half-open
segment (open, closed] from a closed polygon subtracts its lattice points
without double bookkeeping at the shared endpoint.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .geometry import (
    Point,
    Polygon,
    GeometryError,
    _check_dilation,
    _edge_sides,
    _lattice_line,
    _scale,
    _segment_count,
    cross,
    lattice_count,
    lattice_points,
    point,
    point_on_segment,
    vec_scale,
)


class InvalidRegion(GeometryError):
    pass


@dataclass(frozen=True)
class HalfOpenSegment:
    """The segment (open_end, closed_end]: excludes open_end, includes closed_end."""

    open_end: Point
    closed_end: Point
    _lines: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "open_end", point(*self.open_end))
        object.__setattr__(self, "closed_end", point(*self.closed_end))
        if self.open_end == self.closed_end:
            raise InvalidRegion("half-open segment needs distinct endpoints")

    def dilate(self, n: int) -> "HalfOpenSegment":
        _check_dilation(n)
        return HalfOpenSegment(vec_scale(self.open_end, n), vec_scale(self.closed_end, n))

    def contains(self, p: Point) -> bool:
        """Exact membership of p in (open_end, closed_end]."""
        return point_on_segment(p, self.open_end, self.closed_end) and p != self.open_end


def _segment_lines(seg: HalfOpenSegment) -> tuple:
    """(Q, line open -> closed, line closed -> open): the `_lattice_line`s of
    seg over its own denominator Q, built once per segment."""
    lines = seg._lines
    if lines is None:
        Q, (a, b) = _scale((seg.open_end, seg.closed_end))
        lines = (Q, _lattice_line(a, b), _lattice_line(b, a))
        object.__setattr__(seg, "_lines", lines)
    return lines


def segment_count(seg: HalfOpenSegment, n: int) -> int:
    """Lattice points in n * (open, closed] = (n*open, n*closed]."""
    _check_dilation(n)
    Q, line, _ = _segment_lines(seg)
    return _segment_count(line, Q, n, closed=False)


def _collinear_with_edge(seg: HalfOpenSegment, P: Polygon) -> bool:
    """Both ends lie in P and on the line of one edge, so on that edge."""
    so, sc = _edge_sides(P, seg.open_end), _edge_sides(P, seg.closed_end)
    return min(so) >= 0 and min(sc) >= 0 and any(a == b == 0 for a, b in zip(so, sc))


def _segments_overlap(s: HalfOpenSegment, t: HalfOpenSegment) -> bool:
    """True if the closed hulls of s and t share more than boundary touching
    allowed for half-open disjointness."""
    if cross(s.open_end, s.closed_end, t.open_end) != 0:
        return False
    if cross(s.open_end, s.closed_end, t.closed_end) != 0:
        return False
    # collinear: compare parameter intervals along the common line
    d = (s.closed_end[0] - s.open_end[0], s.closed_end[1] - s.open_end[1])

    def param(p):
        if d[0] != 0:
            return (p[0] - s.open_end[0]) / d[0]
        return (p[1] - s.open_end[1]) / d[1]

    lo1, hi1 = sorted((Fraction(0), Fraction(1)))
    lo2, hi2 = sorted((param(t.open_end), param(t.closed_end)))
    return max(lo1, lo2) < min(hi1, hi2)


class SemiOpenRegion:
    """A closed convex polygon minus finitely many half-open boundary segments."""

    __slots__ = ("closed", "removed")

    def __init__(self, closed: Polygon, removed=()):
        if not isinstance(closed, Polygon):
            raise InvalidRegion(
                "closed part must be a Polygon; 1-dimensional sets are handled "
                "by segment_count, not region_count")
        removed = tuple(removed)
        for seg in removed:
            if not isinstance(seg, HalfOpenSegment):
                raise InvalidRegion(f"removed entries must be HalfOpenSegment, got {seg!r}")
            if not _collinear_with_edge(seg, closed):
                raise InvalidRegion(
                    f"removed segment {seg} does not lie on the polygon boundary")
        for i in range(len(removed)):
            for j in range(i + 1, len(removed)):
                if _segments_overlap(removed[i], removed[j]):
                    raise InvalidRegion("removed segments overlap")
        self.closed = closed
        self.removed = removed

    def __eq__(self, other) -> bool:
        return (isinstance(other, SemiOpenRegion)
                and self.closed == other.closed
                and set(self.removed) == set(other.removed))

    def __repr__(self) -> str:
        if not self.removed:
            return f"SemiOpenRegion({self.closed!r})"
        return f"SemiOpenRegion({self.closed!r} minus {list(self.removed)})"

    def contains(self, p: Point) -> bool:
        return self.closed.contains(p) and not any(s.contains(p) for s in self.removed)

    def dilate(self, n: int) -> "SemiOpenRegion":
        return SemiOpenRegion(self.closed.dilate(n), tuple(s.dilate(n) for s in self.removed))


def region(closed, removed=()) -> SemiOpenRegion:
    """Convenience constructor: vertices + (open, closed) endpoint pairs."""
    P = closed if isinstance(closed, Polygon) else Polygon(closed)
    segs = tuple(s if isinstance(s, HalfOpenSegment) else HalfOpenSegment(s[0], s[1])
                 for s in removed)
    return SemiOpenRegion(P, segs)


def region_count(R, n: int) -> int:
    """Lattice points of the dilated region; accepts Polygon, SemiOpenRegion
    or RegionUnion."""
    if isinstance(R, Polygon):
        return lattice_count(R, n)
    if isinstance(R, SemiOpenRegion):
        c = lattice_count(R.closed, n)
        for seg in R.removed:
            c -= segment_count(seg, n)
        return c
    if isinstance(R, RegionUnion):
        return R.count(n)
    if isinstance(R, HalfOpenSegment):
        raise InvalidRegion("1-dimensional region: use segment_count")
    raise InvalidRegion(f"cannot count {type(R).__name__}")


def region_count_naive(R: SemiOpenRegion, n: int) -> int:
    """Oracle: enumerate closed lattice points, drop the removed ones."""
    pts = lattice_points(R.closed, n)
    dil = [s.dilate(n) for s in R.removed]
    return sum(
        1 for p in pts
        if not any(s.contains(point(*p)) for s in dil))


class RegionUnion:
    """Two semi-open pieces glued along a shared closed seam segment.

    Produced by piecewise maps when the image fails to be convex; counting is
    inclusion-exclusion over the seam.  The seam must avoid every removed
    segment (checked), which is all the piecewise machinery ever needs.
    """

    __slots__ = ("pieces", "seams", "_seam")

    def __init__(self, pieces, seams):
        self.pieces = tuple(pieces)
        self.seams = tuple(seams)
        if len(self.pieces) != 2 or len(self.seams) != 1:
            raise InvalidRegion("RegionUnion supports exactly two pieces and one seam")
        (sa, sb), = self.seams
        self._seam = HalfOpenSegment(sa, sb)  # keeps the seam's lattice lines
        for piece in self.pieces:
            for rem in piece.removed:
                if _segments_overlap(rem, self._seam):
                    raise InvalidRegion("removed segment overlaps the union seam")

    def count(self, n: int) -> int:
        Q, line, _ = _segment_lines(self._seam)
        shared = _segment_count(line, Q, n, closed=True)
        return sum(region_count(p, n) for p in self.pieces) - shared

    def dilate(self, n: int) -> "RegionUnion":
        _check_dilation(n)
        return RegionUnion(
            [p.dilate(n) for p in self.pieces],
            [(vec_scale(a, n), vec_scale(b, n)) for a, b in self.seams])

    def __repr__(self) -> str:
        return f"RegionUnion({list(self.pieces)})"
