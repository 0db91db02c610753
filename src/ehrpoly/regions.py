"""Semi-open polygonal regions: a closed polygon minus half-open boundary
segments, and two such regions glued along a closed seam.

These make the signed-sum Ehrhart arguments exact: removing a half-open
segment (open, closed] from a closed polygon subtracts its lattice points
without double bookkeeping at the shared endpoint.  `_pieces` alone says
what a region holds, for `region_count`, `region_denominator` and the
Ehrhart engine; the oracle `region_count_naive` tests points instead.  A
segment stores its ends as integers over a common denominator, as a
polygon does, and the edge and overlap tests run on them.
"""
from __future__ import annotations

import math
from collections import Counter

from .geometry import (
    Point,
    Polygon,
    GeometryError,
    _edge_sides,
    _lattice_line,
    _pair,
    _require_int,
    _scale,
    _segment_count,
    _unscale,
    lattice_count,
    point,
    point_on_segment,
)


class InvalidRegion(GeometryError):
    pass


class HalfOpenSegment:
    """The segment (open_end, closed_end]: excludes open_end, includes closed_end.

    Like a Polygon it stores its ends once, as integer points a and b over
    their common denominator Q, with the lattice lines a -> b and b -> a
    (`_lattice_line`) that its counts read; `open_end` and `closed_end`
    are built from them when read.
    """

    __slots__ = ("_Q", "_a", "_b", "_lines")

    def __init__(self, open_end: Point, closed_end: Point):
        Q, (a, b) = _scale((_pair(open_end), _pair(closed_end)))
        self._set(Q, a, b)

    @classmethod
    def _from_scaled(cls, Q: int, a: tuple[int, int], b: tuple[int, int]) -> "HalfOpenSegment":
        """The segment (a / Q, b / Q], for integer points a and b; Q, a and b
        are divided by their common factor, as `_scale` would give them."""
        g = math.gcd(Q, *a, *b)
        seg = cls.__new__(cls)
        seg._set(Q // g, (a[0] // g, a[1] // g), (b[0] // g, b[1] // g))
        return seg

    def _set(self, Q: int, a: tuple[int, int], b: tuple[int, int]) -> None:
        if a == b:
            raise InvalidRegion("half-open segment needs distinct endpoints")
        self._Q, self._a, self._b = Q, a, b
        self._lines = (_lattice_line(a, b), _lattice_line(b, a))

    @property
    def open_end(self) -> Point:
        return _unscale(self._Q, self._a)

    @property
    def closed_end(self) -> Point:
        return _unscale(self._Q, self._b)

    # (_Q, _a, _b) is canonical: Q is the least common denominator
    def __eq__(self, other) -> bool:
        return (isinstance(other, HalfOpenSegment)
                and (self._Q, self._a, self._b) == (other._Q, other._a, other._b))

    def __hash__(self) -> int:
        return hash((self._Q, self._a, self._b))

    def __repr__(self) -> str:
        return f"HalfOpenSegment(open_end={self.open_end!r}, closed_end={self.closed_end!r})"

    def dilate(self, n: int) -> "HalfOpenSegment":
        _require_int("n", n, 1)
        (ax, ay), (bx, by) = self._a, self._b
        return HalfOpenSegment._from_scaled(self._Q, (n * ax, n * ay), (n * bx, n * by))

    def contains(self, p: Point) -> bool:
        """Exact membership of p, coerced by `_pair`, in (open_end, closed_end]."""
        p = _pair(p)
        return point_on_segment(p, self.open_end, self.closed_end) and p != self.open_end


def segment_count(seg: HalfOpenSegment, n: int) -> int:
    """Lattice points in n * (open, closed] = (n*open, n*closed]."""
    _require_int("n", n, 1)
    return _segment_count(seg._lines[0], seg._Q, n, closed=False)


def _on_line(seg: HalfOpenSegment, d: int, p: tuple[int, int]) -> bool:
    """The integer point p / d lies on the line of seg."""
    c, _, _, u, v = seg._lines[0]
    return seg._Q * (u * p[1] - v * p[0]) == d * c


def _collinear_with_edge(seg: HalfOpenSegment, P: Polygon) -> bool:
    """Both ends lie in P and on the line of one edge, so on that edge."""
    so, sc = _edge_sides(P, seg._Q, seg._a), _edge_sides(P, seg._Q, seg._b)
    return min(so) >= 0 and min(sc) >= 0 and any(a == b == 0 for a, b in zip(so, sc))


def _segments_overlap(s: HalfOpenSegment, t: HalfOpenSegment) -> bool:
    """True if the closed hulls of s and t share more than boundary touching
    allowed for half-open disjointness."""
    Q, R = s._Q, t._Q
    if not (_on_line(s, R, t._a) and _on_line(s, R, t._b)):
        return False
    # collinear: compare the projections onto the direction (u, v) of s,
    # all over Q * R; s runs from a to b in that direction
    _, _, _, u, v = s._lines[0]
    lo, hi = (R * (u * x + v * y) for x, y in (s._a, s._b))
    tlo, thi = sorted(Q * (u * x + v * y) for x, y in (t._a, t._b))
    return max(lo, tlo) < min(hi, thi)


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

    def dilate(self, n: int) -> "SemiOpenRegion":
        return SemiOpenRegion(self.closed.dilate(n), tuple(s.dilate(n) for s in self.removed))


def region(closed, removed=()) -> SemiOpenRegion:
    """Convenience constructor: vertices + (open, closed) endpoint pairs."""
    P = closed if isinstance(closed, Polygon) else Polygon(closed)
    segs = []
    for i, s in enumerate(removed):
        if isinstance(s, (tuple, list)) and len(s) == 2:
            s = HalfOpenSegment(*s)
        elif not isinstance(s, HalfOpenSegment):
            raise InvalidRegion(f"removed[{i}] must be a HalfOpenSegment or an "
                                f"(open, closed) pair, got {s!r}")
        segs.append(s)
    return SemiOpenRegion(P, segs)


def _pieces(R) -> tuple[tuple, tuple, tuple]:
    """(polygons, removed, seams), tuples R holds: R counts as its closed
    polygons less its half-open removed segments and its closed seams."""
    if isinstance(R, SemiOpenRegion):
        return (R.closed,), R.removed, ()
    if isinstance(R, Polygon):
        return (R,), (), ()
    if isinstance(R, RegionUnion):
        A, B = R.pieces
        return (A.closed, B.closed), A.removed + B.removed, (R._seam,)
    if isinstance(R, HalfOpenSegment):
        raise InvalidRegion("1-dimensional region: use segment_count")
    raise InvalidRegion(f"cannot count {type(R).__name__}")


def region_count(R, n: int) -> int:
    """Lattice points of n * R, for a Polygon, SemiOpenRegion or RegionUnion."""
    if isinstance(R, Polygon):
        return lattice_count(R, n)
    polys, removed, seams = _pieces(R)
    c = 0
    for P in polys:
        c += lattice_count(P, n)
    for seg in removed:
        c -= segment_count(seg, n)
    for seg in seams:
        c -= _segment_count(seg._lines[0], seg._Q, n, closed=True)
    return c


def region_denominator(R) -> int:
    """lcm of the denominators of all vertices, removed ends and seam ends."""
    return math.lcm(*(x._Q for part in _pieces(R) for x in part))


def region_count_naive(R, n: int) -> int:
    """Oracle for `region_count`, on neither `_pieces` nor the counting plan:
    each lattice point of each piece's closed dilate is tested with
    `_edge_sides` and `HalfOpenSegment.contains`.  A point on the closed
    seam of a union counts only if both pieces hold it, any other if one does."""
    union = isinstance(R, RegionUnion)
    pieces = R.pieces if union else (R if isinstance(R, SemiOpenRegion) else SemiOpenRegion(R),)
    seams = [R._seam.dilate(n)] if union else []
    hits = Counter()
    for piece in pieces:
        dil = [s.dilate(n) for s in piece.removed]
        x0, y0, x1, y1 = piece.closed.dilate(n).bounding_box()
        hits.update((x, y) for x in range(math.ceil(x0), math.floor(x1) + 1)
                    for y in range(math.ceil(y0), math.floor(y1) + 1)
                    if min(_edge_sides(piece.closed, n, (x, y))) >= 0
                    and not any(s.contains((x, y)) for s in dil))
    return sum(1 for p, k in hits.items() if k == len(pieces) or not any(
        point_on_segment(point(*p), s.open_end, s.closed_end) for s in seams))


class RegionUnion:
    """Two semi-open pieces glued along a shared closed seam segment.

    Produced by piecewise maps when the image fails to be convex.  The seam
    lies on the boundary of both pieces and avoids every removed segment
    (both checked); it is kept as a HalfOpenSegment and subtracted closed.
    The pieces are not a partition as point sets: a seam point belongs to
    the union only if both pieces hold it, so a removed segment that
    crosses the cut takes its seam end out of the union.
    """

    __slots__ = ("pieces", "_seam")

    def __init__(self, pieces, seam: HalfOpenSegment):
        self.pieces = tuple(pieces)
        if (len(self.pieces) != 2 or not isinstance(seam, HalfOpenSegment)
                or not all(isinstance(p, SemiOpenRegion) for p in self.pieces)):
            raise InvalidRegion("RegionUnion glues two SemiOpenRegions along a HalfOpenSegment")
        self._seam = seam
        for piece in self.pieces:
            if not _collinear_with_edge(seam, piece.closed):
                raise InvalidRegion(f"the seam {seam} is not on the boundary of {piece.closed}")
            for rem in piece.removed:
                if _segments_overlap(rem, seam):
                    raise InvalidRegion("removed segment overlaps the union seam")

    def __repr__(self) -> str:
        return f"RegionUnion({list(self.pieces)})"
