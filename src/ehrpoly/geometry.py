"""Exact rational plane geometry for lattice-point counting.

Points and vectors are plain `(Fraction, Fraction)` tuples at the API, which
keeps them hashable and cheap; `Polygon` is the only real class.  No floats
appear anywhere, so all predicates (orientation, containment, counts) are
exact.  A polygon stores its vertices once as integers over their common
denominator Q, and builds their `Fraction`s on each read of `vertices`.
Its validity check, convex hulls and unions, dilates, translates, areas,
containment, lattice and boundary counts, and the lattice points of
dilates run on integers.  One monotone chain (`_monotone_chain`) builds
every hull and accepts a vertex list iff the list is its own hull; one
lattice-line formula (`_line`, which `_lattice_line` extends by a start
point) serves every segment and edge period; one edge test (`_edge_sides`)
places points against edges; one check (`_require_int`) guards every
integer parameter, and one (`_pair`) every single point.  Hulls, unions,
dilates and translates build their polygons from integers through one
unchecked constructor (`Polygon._from_scaled`).

Three independent lattice counters are provided:

* ``lattice_count``       -- default, per-edge floor-sums, O(edges * log)
* ``lattice_count_rowscan`` -- per-row interval counting, O(rows * edges)
* ``lattice_count_naive`` -- full bounding-box scan, O(area * edges)

They must always agree; the slower ones exist as oracles for the faster.
The row scan keeps its own `Fraction` edge crossings (`_rows`) and the
naive counter its own edge half-planes.  The first count or enumeration of
a polygon builds its counting plan (`_counting_plan`: how each edge bounds
the rows of any dilate, as integer floor-sum terms), which `lattice_count`
sums and `lattice_points` enumerates.  The lattice line of each edge is
kept the same way (`_edge_lines`), for the boundary counts of every dilate
and for the Ehrhart engine.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import groupby, repeat
from operator import itemgetter
from typing import Iterable, Iterator, Sequence


class GeometryError(ValueError):
    pass


class DegenerateInput(GeometryError):
    """Input does not span two dimensions (collinear / too few points)."""


class ZeroVector(GeometryError):
    pass


Point = tuple[Fraction, Fraction]
Vector = tuple[Fraction, Fraction]


def point(x, y) -> Point:
    """Coerce a coordinate pair to an exact rational point."""
    return (Fraction(x), Fraction(y))


def cross(o: Point, a: Point, b: Point) -> Fraction:
    """Cross product of (a - o) and (b - o); > 0 for a left turn."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def is_lattice(p: Point) -> bool:
    return p[0].denominator == 1 and p[1].denominator == 1


def coord_lcm(points: Iterable[Point]) -> int:
    """lcm of all coordinate denominators (1 for an empty iterable)."""
    d = 1
    for p in points:
        d = math.lcm(d, p[0].denominator, p[1].denominator)
    return d


class Polygon:
    """Strictly convex polygon, counterclockwise vertex tuple.

    Vertices are canonicalized to start at the lexicographically smallest
    vertex, so two polygons are equal iff they are the same point set.  A
    vertex list is valid iff, so started, it is its own `_monotone_chain`
    hull: no repeated vertex, collinear triple, clockwise turn or second
    winding (a pentagram turns left at every vertex), nor a line segment.
    """

    __slots__ = ("_Q", "_V", "_plan", "_lines")

    def __init__(self, vertices: Sequence):
        Q, V = _scale_pairs(vertices)
        m = len(V)
        if m < 3:
            raise DegenerateInput(f"need at least 3 vertices, got {m}")
        start = min(range(m), key=V.__getitem__)
        V = V[start:] + V[:start]
        if V != _monotone_chain(sorted(V)):
            raise DegenerateInput("vertices are not their convex hull in counterclockwise order "
                                  "(repeated, collinear, clockwise or winding more than once)")
        self._set(Q, V)

    @classmethod
    def _from_scaled(cls, Q: int, V: Sequence[tuple[int, int]]) -> "Polygon":
        """The polygon with vertices V / Q, unchecked.

        V must be a counterclockwise, strictly convex cycle of integer
        points that starts at its smallest one, as `_monotone_chain`
        returns it.  Q and V are divided by their common factor, which
        makes the pair the one `_scale` gives.
        """
        g = math.gcd(Q, *(c for p in V for c in p))
        if g > 1:
            Q, V = Q // g, [(x // g, y // g) for x, y in V]
        P = cls.__new__(cls)
        P._set(Q, V)
        return P

    def _set(self, Q: int, V: Sequence[tuple[int, int]]) -> None:
        # the vertices are _V / Q, with _V integer pairs; the counting plan is
        # built by the first lattice count or enumeration and the edge lines by
        # the first `_edge_lines`
        self._Q, self._V = Q, tuple(V)
        self._plan = self._lines = None

    @property
    def vertices(self) -> tuple[Point, ...]:
        return tuple(_unscale(self._Q, v) for v in self._V)

    # (_Q, _V) is canonical: Q is the least common denominator and V starts
    # at the smallest vertex
    def __eq__(self, other) -> bool:
        return isinstance(other, Polygon) and self._Q == other._Q and self._V == other._V

    def __hash__(self) -> int:
        return hash((self._Q, self._V))

    def __repr__(self) -> str:
        pts = ", ".join(f"({v[0]}, {v[1]})" for v in self.vertices)
        return f"Polygon[{pts}]"

    def __len__(self) -> int:
        return len(self._V)

    def edges(self) -> Iterator[tuple[Point, Point]]:
        vs = self.vertices
        for i in range(len(vs)):
            yield vs[i], vs[(i + 1) % len(vs)]

    def dilate(self, n: int) -> "Polygon":
        _require_int("n", n, 1)
        return Polygon._from_scaled(self._Q, [(n * x, n * y) for x, y in self._V])

    def translate(self, d: Vector) -> "Polygon":
        d = _pair(d)
        Q = math.lcm(self._Q, coord_lcm([d]))
        m, dx, dy = Q // self._Q, int(d[0] * Q), int(d[1] * Q)
        return Polygon._from_scaled(Q, [(m * x + dx, m * y + dy) for x, y in self._V])

    def _least_side(self, p) -> int:
        """min `_edge_sides` of p, coerced by `_pair`: 0 on the boundary."""
        d, (q,) = _scale([_pair(p)])
        return min(_edge_sides(self, d, q))

    def contains(self, p: Point) -> bool:
        """Closed containment (boundary counts)."""
        return self._least_side(p) >= 0

    def contains_strict(self, p: Point) -> bool:
        return self._least_side(p) > 0

    def on_boundary(self, p: Point) -> bool:
        return self._least_side(p) == 0

    def bounding_box(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        xs, ys = zip(*self.vertices)
        return min(xs), min(ys), max(xs), max(ys)


def _scale(points: Sequence[Point]) -> tuple[int, list[tuple[int, int]]]:
    """(Q, integer points): rational points over their common denominator Q."""
    Q = coord_lcm(points)
    return Q, [(x.numerator * (Q // x.denominator), y.numerator * (Q // y.denominator))
               for x, y in points]


def _is_pair(p) -> bool:
    return isinstance(p, (tuple, list)) and len(p) == 2


def _pair(p) -> Point:
    """`point` of one (x, y) pair given to the API; anything else raises
    GeometryError naming it."""
    if not _is_pair(p):
        raise GeometryError(f"point is not an (x, y) pair: {p!r}")
    return point(*p)


def _scale_pairs(items: Iterable) -> tuple[int, list[tuple[int, int]]]:
    """`_scale` of the `point`s of (x, y) pairs; any other item raises GeometryError."""
    pts = list(items)
    if bad := [i for i, p in enumerate(pts) if not _is_pair(p)]:
        raise GeometryError(f"point {bad[0]} is not an (x, y) pair: {pts[bad[0]]!r}")
    return _scale([point(x, y) for x, y in pts])


def _unscale(Q: int, p: tuple[int, int]) -> Point:
    """The rational point p / Q, for an integer pair p: `_scale` undone."""
    return (Fraction(p[0], Q), Fraction(p[1], Q))


def _edge_sides(P: Polygon, d: int, p: tuple[int, int]) -> list[int]:
    """For each edge a -> b of P, the positive multiple Q^2 d cross(a, b, p / d)
    for an integer point p: positive left of the edge, 0 on its line."""
    Q, V = P._Q, P._V
    X, Y = Q * p[0], Q * p[1]
    return [(bx - ax) * (Y - d * ay) - (by - ay) * (X - d * ax)
            for (ax, ay), (bx, by) in zip(V, V[1:] + V[:1])]


def _require_int(name: str, value, least: int | None = None) -> None:
    """The check of every integer parameter: an int, not a bool, and
    >= least when least is given."""
    if type(value) is not int or (least is not None and value < least):
        need = "an integer" if type(value) is not int else f"at least {least}"
        raise ValueError(f"{name} must be {need}, got {value!r}")


def point_on_segment(p: Point, a: Point, b: Point) -> bool:
    """Exact membership of p in the closed segment [a, b]."""
    if cross(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def _monotone_chain(pts: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """Hull vertices of sorted distinct integer points, counterclockwise
    from the smallest, collinear points dropped (Andrew's monotone chain).

    A collinear set gives its two ends, a single point or an empty set
    gives [].
    """
    return _half_chain(pts)[:-1] + _half_chain(reversed(pts))[:-1]


def _half_chain(pts: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """The chain of `_monotone_chain` through pts in the given order, keeping
    only left turns: a kept point o, a, p turn left iff `cross(o, a, p) > 0`,
    written out here as a comparison."""
    chain: list = []
    for p in pts:
        px, py = p
        while len(chain) > 1:
            ox, oy = chain[-2]
            ax, ay = chain[-1]
            if (ax - ox) * (py - oy) > (ay - oy) * (px - ox):
                break
            del chain[-1]
        chain.append(p)
    return chain


def convex_hull(points: Iterable) -> Polygon:
    """Convex hull via monotone chain; collinear points are dropped.

    Raises DegenerateInput when fewer than 3 distinct points remain or all
    points are collinear.
    """
    return _scaled_hull(*_scale_pairs(points))


def _scaled_hull(Q: int, V: Iterable[tuple[int, int]]) -> Polygon:
    """`convex_hull` of the points V / Q, for integer pairs V."""
    pts = sorted(set(V))
    if len(pts) < 3:
        raise DegenerateInput("hull needs at least 3 distinct points")
    verts = _monotone_chain(pts)
    if len(verts) < 3:
        raise DegenerateInput("all points collinear")
    return Polygon._from_scaled(Q, verts)


def _shoelace(V: Sequence[tuple[int, int]]) -> int:
    """Twice the signed area of the integer vertex cycle V."""
    return sum(a[0] * b[1] - a[1] * b[0] for a, b in zip(V, V[1:] + V[:1]))


def _area_numerator(D: int, polys: Iterable[Polygon]) -> int:
    """2D^2 times the total area of the polygons, for D a multiple of each
    one's Q: the shoelace sums of the integer vertices, over 2Q^2 each."""
    return sum(_shoelace(P._V) * (D // P._Q) ** 2 for P in polys)


def area(P: Polygon) -> Fraction:
    """Exact shoelace area; positive since vertices are counterclockwise."""
    return Fraction(_shoelace(P._V), 2 * P._Q ** 2)


def denominator(P: Polygon) -> int:
    """lcm of all vertex coordinate denominators (the 0-index p0)."""
    return P._Q


# ---------------------------------------------------------------------------
# lattice vectors


def _primitive_parts(r: Vector) -> tuple[int, int, int, int]:
    """(u, v, g, Q) with r = (g / Q) * (u, v) and (u, v) primitive."""
    Q, ((x, y),) = _scale([_pair(r)])
    g = math.gcd(x, y)
    if g == 0:
        raise ZeroVector("lattice length of the zero vector")
    return x // g, y // g, g, Q


def lattice_length(r: Vector) -> Fraction:
    """The positive rational L with r = L * primitive(r).

    For r = (a/b, c/d) in lowest terms this is gcd(a, c) / lcm(b, d).
    """
    _, _, g, Q = _primitive_parts(r)
    return Fraction(g, Q)


def primitive(r: Vector) -> tuple[int, int]:
    """Shortest integer vector positively proportional to r."""
    u, v, _, _ = _primitive_parts(r)
    return (u, v)


def _line(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int, int, int]:
    """(c, g, u, v) for the line through the integer points a != b.

    g = gcd(b - a) and (u, v) = (b - a) / g, so the line is u*y - v*x = c.
    Scaled by n/Q the line is u*y - v*x = n*c/Q, which meets Z^2 iff Q
    divides n*c: first at n = Q / gcd(Q, c), the period of a segment on it.
    """
    dx, dy = b[0] - a[0], b[1] - a[1]
    g = math.gcd(dx, dy)
    u, v = dx // g, dy // g
    return u * a[1] - v * a[0], g, u, v


def _lattice_line(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int, int, int, int]:
    """(c, k, g, u, v): the `_line` (c, g, u, v) of a -> b and a start k.
    s = alpha*x + beta*y, with alpha = u^-1 mod |v| from `pow` (u when v = 0)
    and alpha*u + beta*v = 1, runs along the line from k at a to k + g at b,
    growing by 1 along each step (u, v); where n/Q times the line meets Z^2,
    its lattice points are where s is an integer."""
    c, g, u, v = _line(a, b)
    alpha = pow(u, -1, abs(v)) if v else u
    beta = (1 - alpha * u) // v if v else 0
    return c, alpha * a[0] + beta * a[1], g, u, v


def _edge_lines(P: Polygon) -> tuple:
    """The `_lattice_line` of each edge a -> b of QP, built once per polygon."""
    lines = P._lines
    if lines is None:
        V = P._V
        lines = P._lines = tuple(_lattice_line(a, b) for a, b in zip(V, V[1:] + V[:1]))
    return lines


def _segment_count(line: tuple, Q: int, n: int, closed: bool) -> int:
    """Lattice points of n/Q times the segment from a to b with
    `line = _lattice_line(a, b)`: the closed segment, or the half-open one
    that leaves out the a end.

    On it s runs from n*k/Q to n*(k + g)/Q (see `_lattice_line`); the
    integers in (lo, hi] number floor(hi) - floor(lo).
    """
    c, k, g = line[:3]
    if n * c % Q:
        return 0
    lo = n * k - 1 if closed else n * k
    return n * (k + g) // Q - lo // Q


# ---------------------------------------------------------------------------
# lattice point counting in dilates


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i=0}^{n-1} floor((a*i + b) / m) for m > 0, exact and fast.

    Euclidean-style reduction, O(log max(a, m)); handles negative a, b.
    """
    assert m > 0 and n >= 0
    ans = 0
    if a < 0:
        a2 = a % m
        ans -= n * (n - 1) // 2 * ((a2 - a) // m)
        a = a2
    if b < 0:
        b2 = b % m
        ans -= n * ((b2 - b) // m)
        b = b2
    while True:
        if a >= m:
            ans += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            ans += n * (b // m)
            b %= m
        y = a * n + b
        if y < m:
            break
        n = y // m
        b = y % m
        m, a = a, m
    return ans


def _counting_plan(P: Polygon):
    """(Q, ymin, ymax, right, left): how the edges of P bound the rows of
    any dilate nP, all integers.

    The vertices of nP are (n*X/Q, n*Y/Q) for the integer vertices (X, Y)
    of QP; ymin and ymax are the extreme Y.  Along the edge from (X1, Y1)
    to (X2, Y2), row y of nP has boundary abscissa x(y) = (A*y + n*B) / M,
    with A = Q*(X2 - X1), B = X1*Y2 - X2*Y1 and M = Q*(Y2 - Y1).  A rising
    edge bounds its rows on the right, as the term (A, B, M, top); a falling
    one on the left, as (A, B, -M, top), since -ceil(x) = floor(-x); top is
    the edge's greater Y.  Both chains run bottom up, as `lattice_count`
    walks them, so a vertex row goes to the edge below it.
    """
    Q, V = P._Q, P._V
    right, left = [], []
    for (ax, ay), (bx, by) in zip(V, V[1:] + V[:1]):
        M = Q * (by - ay)
        if M:
            (right if M > 0 else left).append(
                (Q * (bx - ax), ax * by - bx * ay, abs(M), max(ay, by)))
    right.sort(key=lambda t: t[3])
    left.sort(key=lambda t: t[3])
    ys = [y for _, y in V]
    return Q, min(ys), max(ys), tuple(right), tuple(left)


def _cached_plan(P: Polygon):
    """P's counting plan, built by its first count or enumeration."""
    if P._plan is None:
        P._plan = _counting_plan(P)
    return P._plan


def lattice_count(P: Polygon, n: int) -> int:
    """|nP ∩ Z^2| via exact per-edge floor sums.

    Each row y contributes floor(xR(y)) - ceil(xL(y)) + 1 where xL, xR are
    the row's exact boundary abscissae; summed per boundary chain edge with
    `floor_sum`, so the cost is O(edges * log), independent of n.  The
    edge terms come from P's counting plan, built once per polygon.
    """
    _require_int("n", n, 1)
    Q, ymin, ymax, right, left = _cached_plan(P)
    ylo = -(-n * ymin // Q)   # ceil
    yhi = n * ymax // Q       # floor
    if ylo > yhi:
        return 0
    total = yhi - ylo + 1
    for chain in (right, left):
        cur = ylo
        for A, B, M, top in chain:
            y2 = n * top // Q
            if y2 >= cur:
                total += floor_sum(min(y2, yhi) - cur + 1, M, A, A * cur + n * B)
                cur = y2 + 1
    return total


def _row_interval(P_scaled: list[Point], y: Fraction) -> tuple[Fraction, Fraction] | None:
    xs = []
    m = len(P_scaled)
    for i in range(m):
        (x1, y1), (x2, y2) = P_scaled[i], P_scaled[(i + 1) % m]
        if min(y1, y2) <= y <= max(y1, y2):
            if y1 == y2:
                xs.extend((x1, x2))
            else:
                xs.append(x1 + (y - y1) * (x2 - x1) / (y2 - y1))
    if not xs:
        return None
    return min(xs), max(xs)


def _rows(P: Polygon, n: int) -> Iterator[tuple[int, int, int]]:
    """(y, first x, last x) of each integer row of nP, from the exact
    `Fraction` edge crossings; a row without lattice points has last < first.
    Only the row-scan oracle reads this."""
    verts = [(x * n, y * n) for x, y in P.vertices]
    ymin = min(v[1] for v in verts)
    ymax = max(v[1] for v in verts)
    for y in range(math.ceil(ymin), math.floor(ymax) + 1):
        iv = _row_interval(verts, Fraction(y))
        if iv is not None:
            yield y, math.ceil(iv[0]), math.floor(iv[1])


def lattice_count_rowscan(P: Polygon, n: int) -> int:
    """|nP ∩ Z^2| by scanning integer rows between exact edge crossings."""
    _require_int("n", n, 1)
    return sum(max(0, last - first + 1) for _, first, last in _rows(P, n))


def lattice_count_naive(P: Polygon, n: int) -> int:
    """|nP ∩ Z^2| by testing every bounding-box point against every edge."""
    _require_int("n", n, 1)
    Q, V = P._Q, P._V
    # (x, y) lies in nP iff, for each edge a -> b of QP, the cross product
    # (bx-ax)*(Q*y - n*ay) - (by-ay)*(Q*x - n*ax) is not negative
    coeffs = [(-(by - ay) * Q, (bx - ax) * Q, n * ((by - ay) * ax - (bx - ax) * ay))
              for (ax, ay), (bx, by) in zip(V, V[1:] + V[:1])]
    xs = [x for x, _ in V]
    ys = [y for _, y in V]
    xlo, xhi = -((-n * min(xs)) // Q), (n * max(xs)) // Q
    ylo, yhi = -((-n * min(ys)) // Q), (n * max(ys)) // Q
    count = 0
    for y in range(ylo, yhi + 1):
        partial = [(cx, cy * y + c0) for cx, cy, c0 in coeffs]
        for x in range(xlo, xhi + 1):
            for cx, t in partial:
                if cx * x + t < 0:
                    break
            else:
                count += 1
    return count


def lattice_points(P: Polygon, n: int = 1) -> list[tuple[int, int]]:
    """Enumerate nP ∩ Z^2 row by row, bottom to top and left to right.

    Row y runs from the largest ceiling of a left-bound term of P's counting
    plan to the smallest floor of a right-bound one, the bounds that
    `lattice_count` sums; a horizontal edge bounds only the range of rows.
    All integer, O(rows * edges) plus the points.
    """
    _require_int("n", n, 1)
    Q, ymin, ymax, right, left = _cached_plan(P)
    right = [(A, n * B, M) for A, B, M, _ in right]
    left = [(A, n * B, M) for A, B, M, _ in left]
    pts: list[tuple[int, int]] = []
    for y in range(-(-n * ymin // Q), n * ymax // Q + 1):
        first = -min([(A * y + nB) // M for A, nB, M in left])
        last = min([(A * y + nB) // M for A, nB, M in right])
        pts.extend(zip(range(first, last + 1), repeat(y)))
    return pts


def boundary_count(P: Polygon, n: int) -> int:
    """Lattice points on the boundary of nP, counted edge by edge.

    Each edge is counted without its first vertex, so going around the
    cycle counts every boundary point exactly once.
    """
    _require_int("n", n, 1)
    Q = P._Q
    return sum(_segment_count(line, Q, n, closed=False) for line in _edge_lines(P))


def interior_count(P: Polygon, n: int) -> int:
    return lattice_count(P, n) - boundary_count(P, n)


# ---------------------------------------------------------------------------
# integral hull and convex unions


class IntegralHull:
    """Convex hull of lattice points, such as P ∩ Z^2; may be 2-, 1-, 0-dimensional or empty.

    `polygon` is set only when the hull is 2-dimensional; `vertices` always
    holds the extreme points (possibly fewer than 3).
    """

    __slots__ = ("dim", "vertices", "polygon")

    def __init__(self, lattice_pts: Iterable[tuple[int, int]]):
        pts = sorted(set(lattice_pts))
        verts = _monotone_chain(pts)
        if len(verts) >= 3:
            self.dim = 2
            self.polygon: Polygon | None = Polygon._from_scaled(1, verts)
            self.vertices = self.polygon.vertices
        else:
            ends = pts if len(pts) < 2 else [pts[0], pts[-1]]
            self.dim = len(ends) - 1
            self.polygon = None
            self.vertices = tuple(point(x, y) for x, y in ends)

    def __repr__(self) -> str:
        if self.polygon is not None:
            return f"IntegralHull({self.polygon!r})"
        return f"IntegralHull(dim={self.dim}, vertices={self.vertices})"


def integral_hull(P: Polygon) -> IntegralHull:
    """The hull of P ∩ Z^2, from the two ends of each row that `lattice_points`
    lists: the hull of a row is the segment between them."""
    rows = (list(row) for _, row in groupby(lattice_points(P, 1), itemgetter(1)))
    return IntegralHull(p for row in rows for p in (row[0], row[-1]))


def _union_hull(pieces: Sequence[Polygon]) -> Polygon | None:
    """The union of interior-disjoint convex pieces when it is convex, else
    None.

    The hull of all vertices is the union iff its area equals the sum of
    the piece areas.  Both run on the integer vertices over the lcm Q of
    the pieces' denominators.
    """
    Q = math.lcm(*(p._Q for p in pieces))
    hull = _scaled_hull(Q, [(x * (Q // p._Q), y * (Q // p._Q)) for p in pieces for x, y in p._V])
    return hull if _area_numerator(Q, [hull]) == _area_numerator(Q, pieces) else None


def convex_union(pieces: Sequence[Polygon]) -> Polygon:
    """Union of interior-disjoint convex pieces, required to be convex;
    anything else raises (see `_union_hull`)."""
    hull = _union_hull(pieces)
    if hull is None:
        hull = convex_hull([v for p in pieces for v in p.vertices])
        raise GeometryError(
            f"pieces do not tile a convex region (hull area {area(hull)}, "
            f"piece areas sum to {sum(map(area, pieces))})")
    return hull
