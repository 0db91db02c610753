"""Skew unimodular transformations and piecewise maps built from them.

The skew transformation for a nonzero rational direction r fixes the line
through r pointwise and shears everything else parallel to r:

    skew(r): x  |->  x + det(r_p, x) * r_p,      r_p = primitive(r)

(the lattice-length normalization in the defining formula cancels, so only
the primitive direction matters).  The one-sided variants act on a single
halfplane and are glued with the identity along the splitting line, which
makes them lattice-count preserving homeomorphisms of the plane.

`apply_disjoint` pushes a semi-open region through such maps: it cuts the
region by every splitting line, maps each closed cell, and reassembles;
`apply_piecewise` is its one-line case.  A removed half-open segment whose
image is covered by another piece is dropped (the other preimage still
supplies those points), which is exactly how a semi-open construction chain
can end in a genuinely closed polygon.

Cells are cut, mapped and glued on their integer vertices over their
denominator: one side formula (`PiecewiseUnimodularMap._side`) places
vertices and segment ends, one map formula (`_map_scaled`) moves them,
`_scaled_hull` builds each cut and mapped cell, and `_union_hull` glues
them.  Removed segments and the seam of a non-convex image are cut, mapped
and chained on their integer ends over their denominator the same way.
`PiecewiseUnimodularMap._apply_scaled` maps a batch of integer points over
one denominator by the same two formulas: `verify transforms` runs its
direction checks through it and `_map_scaled`, and the `apply` methods scale
a single point and use them too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations
from typing import Sequence

from .geometry import (
    GeometryError,
    Point,
    Polygon,
    Vector,
    _edge_sides,
    _pair,
    _require_int,
    _scale,
    _scaled_hull,
    _union_hull,
    _unscale,
    is_lattice,
    primitive,
)
from .regions import (
    HalfOpenSegment,
    InvalidRegion,
    RegionUnion,
    SemiOpenRegion,
    _on_line,
    _segments_overlap,
)


class CoincidentPoints(GeometryError):
    pass


class NonLatticeAnchor(GeometryError):
    pass


@dataclass(frozen=True)
class AffineUnimodular:
    """x |-> M x + t with M an integer matrix of determinant +-1, t integral."""

    m00: int
    m01: int
    m10: int
    m11: int
    tx: int = 0
    ty: int = 0

    def __post_init__(self):
        for name in ("m00", "m01", "m10", "m11", "tx", "ty"):
            _require_int(name, getattr(self, name))
        if abs(self.det) != 1:
            raise ValueError(f"matrix determinant must be +-1, got {self.det}")

    @property
    def det(self) -> int:
        return self.m00 * self.m11 - self.m01 * self.m10

    def apply(self, p: Point) -> Point:
        Q, V = _scale([_pair(p)])
        return _unscale(Q, _map_scaled(self, Q, V)[0])

    def compose(self, other: "AffineUnimodular") -> "AffineUnimodular":
        """self after other."""
        return AffineUnimodular(
            self.m00 * other.m00 + self.m01 * other.m10,
            self.m00 * other.m01 + self.m01 * other.m11,
            self.m10 * other.m00 + self.m11 * other.m10,
            self.m10 * other.m01 + self.m11 * other.m11,
            self.m00 * other.tx + self.m01 * other.ty + self.tx,
            self.m10 * other.tx + self.m11 * other.ty + self.ty)

    def inverse(self) -> "AffineUnimodular":
        d = self.det
        a, b, c, e = self.m11 * d, -self.m01 * d, -self.m10 * d, self.m00 * d
        return AffineUnimodular(a, b, c, e, -(a * self.tx + b * self.ty),
                                -(c * self.tx + e * self.ty))

    @property
    def is_identity(self) -> bool:
        return (self.m00, self.m01, self.m10, self.m11, self.tx, self.ty) == (1, 0, 0, 1, 0, 0)


IDENTITY = AffineUnimodular(1, 0, 0, 1)


def skew(r: Vector) -> AffineUnimodular:
    """The determinant-1 shear fixing the line through r pointwise.

    With (u, v) = primitive(r) the matrix is ((1-uv, u**2), (-v**2, 1+uv)).
    """
    u, v = primitive(r)
    return AffineUnimodular(1 - u * v, u * u, -v * v, 1 + u * v)


@dataclass(frozen=True)
class PiecewiseUnimodularMap:
    """One affine unimodular map per side of a splitting line.

    The line passes through `anchor` with primitive integer `direction`;
    the sign of the determinant det(direction, x - anchor) selects the
    side.  Both maps must agree on the line, so the glued map is a
    homeomorphism.
    """

    anchor: Point
    direction: tuple[int, int]
    positive_side_map: AffineUnimodular
    negative_side_map: AffineUnimodular
    _line: tuple[int, int] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        for name in ("positive_side_map", "negative_side_map"):
            if not isinstance(m := getattr(self, name), AffineUnimodular):
                raise ValueError(f"{name} must be an AffineUnimodular, got {type(m).__name__}")
        object.__setattr__(self, "anchor", _pair(self.anchor))
        object.__setattr__(self, "direction", primitive(self.direction))
        (u, v), (d, ((x, y),)) = self.direction, _scale([self.anchor])
        # with the anchor at (x, y) / d, the line is u*Y - v*X = c / d
        object.__setattr__(self, "_line", (u * y - v * x, d))
        # agreement at two distinct line points implies agreement on the line
        pts = [(x, y), (x + d * u, y + d * v)]
        if _map_scaled(self.positive_side_map, d, pts) != _map_scaled(self.negative_side_map, d, pts):
            raise ValueError("side maps disagree on the splitting line")

    def _side(self, Q: int, p: tuple[int, int]) -> int:
        """The positive multiple Q d det(direction, p / Q - anchor), for an
        integer point p."""
        (u, v), (c, d) = self.direction, self._line
        return d * (u * p[1] - v * p[0]) - Q * c

    def side(self, p: Point) -> int:
        Q, (q,) = _scale([_pair(p)])
        s = self._side(Q, q)
        return (s > 0) - (s < 0)

    def side_map(self, sign: int) -> AffineUnimodular:
        return self.positive_side_map if sign >= 0 else self.negative_side_map

    def apply(self, p: Point) -> Point:
        Q, V = _scale([_pair(p)])
        return _unscale(Q, self._apply_scaled(Q, V)[0])

    def _apply_scaled(self, Q: int, V) -> list[tuple[int, int]]:
        """The images of the points V / Q, for integer pairs V, again over Q."""
        return [_map_scaled(self.side_map(self._side(Q, p)), Q, (p,))[0] for p in V]


def _map_scaled(m: AffineUnimodular, Q: int, V) -> list[tuple[int, int]]:
    """The images under m of the points V / Q, for integer pairs V, again over Q."""
    return [(m.m00 * x + m.m01 * y + m.tx * Q, m.m10 * x + m.m11 * y + m.ty * Q)
            for x, y in V]


def _anchored_skew(u: tuple[int, int], r: Vector, sign: str) -> PiecewiseUnimodularMap:
    """skew_plus (sign "+") or skew_minus ("-") of r, moved to fix the line
    through the lattice point u: its shear M, or M's inverse, becomes
    x |-> M x + u - M u."""
    M = skew(r) if sign == "+" else skew(r).inverse()
    mx, my = _map_scaled(M, 1, [u])[0]
    shear = AffineUnimodular(M.m00, M.m01, M.m10, M.m11, u[0] - mx, u[1] - my)
    sides = (shear, IDENTITY) if sign == "+" else (IDENTITY, shear)
    return PiecewiseUnimodularMap(u, primitive(r), *sides)


def skew_plus(r: Vector) -> PiecewiseUnimodularMap:
    """skew(r) where det(r, x) >= 0, identity elsewhere."""
    return _anchored_skew((0, 0), r, "+")


def skew_minus(r: Vector) -> PiecewiseUnimodularMap:
    """The inverse of skew_plus(-r).

    skew_plus(-r) shears the halfplane det(r, x) <= 0 onto itself, so the
    inverse applies the inverse shear there and the identity on the other
    side.
    """
    return _anchored_skew((0, 0), r, "-")


def affine_skew(u, w, sign: str) -> PiecewiseUnimodularMap:
    """skew_plus/minus of (w - u), conjugated to fix the line through u and w.

    `u` must be a lattice point so the conjugated map stays in GL2(Z) x Z^2.
    """
    u, w = _pair(u), _pair(w)
    if u == w:
        raise CoincidentPoints("anchor and target coincide")
    if not is_lattice(u):
        raise NonLatticeAnchor(f"anchor {u} is not a lattice point")
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    return _anchored_skew((int(u[0]), int(u[1])), (w[0] - u[0], w[1] - u[1]), sign)


# ---------------------------------------------------------------------------
# applying piecewise maps to regions


def _split_polygon(P: Polygon, m: PiecewiseUnimodularMap):
    """Clip P against both closed halfplanes of m's line.

    Returns (pos_piece, neg_piece, chord); each piece is a Polygon or None
    when that side has empty interior, chord is (Q, a, b) for the segment
    a/Q to b/Q of the line inside P, or None when the line misses the
    interior.
    """
    Q, V = P._Q, P._V
    sides = [m._side(Q, p) for p in V]
    # edge a -> b crosses the line at (sa*b - sb*a) / (sa - sb), over Q;
    # every point goes over the common denominator Q*L
    cuts = [(sa * bx - sb * ax, sa * by - sb * ay, sa - sb)
            for (ax, ay), sa, (bx, by), sb in zip(V, sides, V[1:] + V[:1], sides[1:] + sides[:1])
            if sa * sb < 0]
    L = math.lcm(*(w for _, _, w in cuts))
    on_line = [(x * (L // w), y * (L // w)) for x, y, w in cuts]
    pts = [((x * L, y * L), s) for (x, y), s in zip(V, sides)]
    on_line += [p for p, s in pts if s == 0]
    # a side has area iff some vertex lies strictly on it
    lo, hi = min(sides), max(sides)
    pos_piece = _scaled_hull(Q * L, on_line + [p for p, s in pts if s > 0]) if hi > 0 else None
    neg_piece = _scaled_hull(Q * L, on_line + [p for p, s in pts if s < 0]) if lo < 0 else None
    chord = (Q * L, min(on_line), max(on_line)) if lo < 0 < hi else None
    return pos_piece, neg_piece, chord


def _split_segment(seg: HalfOpenSegment, m: PiecewiseUnimodularMap):
    """Split a half-open segment by the map's line into sided sub-segments.

    Yields (sign, sub-segment).  Segments lying on the line go to the
    positive side; both side maps agree there, so the choice is immaterial.
    """
    Q, a, b = seg._Q, seg._a, seg._b
    sa, sb = m._side(Q, a), m._side(Q, b)
    if sa * sb >= 0:
        yield (-1 if sa + sb < 0 else 1), seg
        return
    # the cut (sa*b - sb*a) / (sa - sb) goes over Q*|sa - sb|, and the ends with it
    e, w = (1 if sa > 0 else -1), abs(sa - sb)
    cut = (e * (sa * b[0] - sb * a[0]), e * (sa * b[1] - sb * a[1]))
    yield e, HalfOpenSegment._from_scaled(Q * w, (a[0] * w, a[1] * w), cut)
    yield -e, HalfOpenSegment._from_scaled(Q * w, cut, (b[0] * w, b[1] * w))


def _merge_removed(segs: list[HalfOpenSegment]) -> list[HalfOpenSegment]:
    """Chain collinear (a, c] + (c, b] into (a, b]; drop exact duplicates."""
    out = list(dict.fromkeys(segs))
    while True:
        for s, t in permutations(out, 2):
            Q, R = s._Q, t._Q
            if all(x * R == y * Q for x, y in zip(s._b, t._a)) and _on_line(s, R, t._b):
                break
        else:
            return out
        out = [u for u in out if u is not s and u is not t]
        out.append(HalfOpenSegment._from_scaled(
            Q * R, (s._a[0] * R, s._a[1] * R), (t._b[0] * Q, t._b[1] * Q)))


def _reassemble(mapped: list[tuple[Polygon, list[HalfOpenSegment]]],
                seam: HalfOpenSegment | None):
    """Glue mapped closed pieces back into a region.

    Convex union: removed segments covered by another piece are dropped
    (their points have surviving preimages); the rest must land on the hull
    boundary.  Non-convex union: return a RegionUnion over the seam.
    """
    if len(mapped) == 1:
        P, segs = mapped[0]
        return SemiOpenRegion(P, _merge_removed(segs))
    hull = _union_hull([P for P, _ in mapped])
    if hull is None:
        if len(mapped) != 2 or seam is None:
            raise InvalidRegion("cannot represent a non-convex union of these pieces")
        return RegionUnion(
            [SemiOpenRegion(P, _merge_removed(segs)) for P, segs in mapped], seam)

    def covered(i: int, g: HalfOpenSegment) -> bool:
        # g lies in another piece, and no removed segment of that piece meets it
        return any(j != i and min(_edge_sides(Pj, g._Q, g._a) + _edge_sides(Pj, g._Q, g._b)) >= 0
                   and not any(_segments_overlap(g, h) for h in segs_j)
                   for j, (Pj, segs_j) in enumerate(mapped))

    # a segment removed from both sides is kept once, by _merge_removed
    survivors = [g for i, (_, segs) in enumerate(mapped) for g in segs if not covered(i, g)]
    return SemiOpenRegion(hull, _merge_removed(survivors))


def _require_map(name: str, m) -> None:
    if not isinstance(m, PiecewiseUnimodularMap):
        raise ValueError(f"{name} must be a PiecewiseUnimodularMap, got {type(m).__name__}")


def apply_piecewise(m: PiecewiseUnimodularMap, R):
    """Image of a polygon or semi-open region under a one-line piecewise map.

    Returns a SemiOpenRegion when the image is convex (a closed Polygon is
    just a region with nothing removed), otherwise a RegionUnion.
    """
    _require_map("m", m)
    return apply_disjoint([m], R)


def apply_to_polygon(m: PiecewiseUnimodularMap, P: Polygon) -> Polygon:
    """apply_piecewise for closed polygons whose image is again closed."""
    out = apply_piecewise(m, P)
    if not isinstance(out, SemiOpenRegion) or out.removed:
        raise InvalidRegion("image is not a closed convex polygon")
    return out.closed


def apply_disjoint(maps: Sequence[PiecewiseUnimodularMap], R):
    """Apply several one-line maps acting simultaneously on disjoint cells.

    The region is cut by all splitting lines; each cell may be moved by at
    most one of the maps (checked), the rest act as the identity there.
    This is the cell-wise action of a piecewise map with several lines, not
    the composition of the individual maps.  When a single cut splits the
    region, its chord is the seam of a non-convex image.
    """
    for i, m in enumerate(maps):
        _require_map(f"maps[{i}]", m)
    if isinstance(R, Polygon):
        R = SemiOpenRegion(R)
    if not isinstance(R, SemiOpenRegion):
        raise InvalidRegion(f"apply_disjoint expects a region, got {type(R).__name__}")
    cells: list[tuple[Polygon, list[HalfOpenSegment], tuple[int, ...]]] = [
        (R.closed, list(R.removed), ())]
    chords: list[tuple[int, tuple[int, int], tuple[int, int]]] = []
    for m in maps:
        nxt = []
        for poly, segs, signs in cells:
            pos_piece, neg_piece, chord = _split_polygon(poly, m)
            if chord is not None:
                chords.append(chord)
            sided: dict[int, list[HalfOpenSegment]] = {1: [], -1: []}
            for seg in segs:
                for sign, sub in _split_segment(seg, m):
                    sided[sign].append(sub)
            # a side without area can still be assigned segments, but only ones
            # on the splitting line, where both side maps agree: hand them across
            for sign, piece in ((1, pos_piece), (-1, neg_piece)):
                if piece is None:
                    sided[-sign].extend(sided[sign])
                    sided[sign] = []
            for sign, piece in ((1, pos_piece), (-1, neg_piece)):
                if piece is not None:
                    nxt.append((piece, sided[sign], signs + (sign,)))
        cells = nxt
    amaps: list[AffineUnimodular] = []
    for _, _, signs in cells:
        acting = [m.side_map(s) for m, s in zip(maps, signs) if not m.side_map(s).is_identity]
        if len(acting) > 1:
            raise InvalidRegion("maps act on overlapping cells")
        amaps.append(acting[0] if acting else IDENTITY)
    # _scaled_hull restores the counterclockwise order and the first vertex
    mapped = [(_scaled_hull(poly._Q, _map_scaled(amap, poly._Q, poly._V)),
               [HalfOpenSegment._from_scaled(s._Q, *_map_scaled(amap, s._Q, (s._a, s._b)))
                for s in segs])
              for (poly, segs, _), amap in zip(cells, amaps)]
    seam = None
    if len(chords) == 1:
        # the two cells meet along the chord, where their maps agree; the
        # first (positive side) cell's map carries it
        Q, *ends = chords[0]
        seam = HalfOpenSegment._from_scaled(Q, *_map_scaled(amaps[0], Q, ends))
    return _reassemble(mapped, seam)


def iterate(m: PiecewiseUnimodularMap, k: int, R):
    """k-fold composition of apply_piecewise; every intermediate image must
    stay convex (it does in all the construction chains here)."""
    _require_int("k", k, 1)
    cur = R
    for _ in range(k):
        cur = apply_piecewise(m, cur)
        if isinstance(cur, RegionUnion):
            raise InvalidRegion("intermediate image became non-convex; "
                                "iterate only supports convex chains")
    return cur
