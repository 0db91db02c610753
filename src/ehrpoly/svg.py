"""SVG rendering of polygons, semi-open regions and construction traces.

Figures show the integer lattice as a grid, the polygon filled, interior
lattice points as solid dots, boundary lattice points as rings, removed
half-open segments dashed (open endpoint hollow), and splitting lines of
skew transformations in gray.  Every coordinate is an integer numerator
over a denominator: vertices over their polygon's Q, segment ends over
theirs, lattice points over 1, and the panel boxes over one figure
denominator.  Only where a splitting line crosses its panel's box is it
rational.  No floats are involved, so output is byte-identical everywhere.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .geometry import Polygon, _edge_sides, lattice_points, point
from .regions import SemiOpenRegion

SCALE = 40          # pixels per lattice unit; the margin is 3/4 of a unit

FILL = "#9ecae9"
EDGE = "#1f3552"
GRID = "#dddddd"
AXIS = "#aaaaaa"
SPLIT = "#999999"
REMOVED = "#cc3333"
INTERIOR_PT = "#1a1a1a"
BOUNDARY_PT = "#ffffff"


def _num(n: int, d: int) -> str:
    """Deterministic decimal rendering of n / d, for d > 0, half-up at three places."""
    sign = "-" if n < 0 else ""
    q, r = divmod(abs(n) * 1000, d)
    if 2 * r >= d:
        q += 1
    whole, frac = divmod(q, 1000)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{str(frac).zfill(3).rstrip('0')}"


class Panel:
    """One framed drawing: a region plus optional splitting lines."""

    def __init__(self, region: SemiOpenRegion | Polygon, label: str = "",
                 splitting_lines=(), pieces=()):
        if isinstance(region, Polygon):
            region = SemiOpenRegion(region)
        self.region = region
        self.label = label
        self.splitting_lines = tuple(splitting_lines)
        self.pieces = tuple(pieces)  # extra outlined sub-polygons


def _panel_svg(panel: Panel, D: int, ox: int) -> tuple[list[str], int, int]:
    """Render one panel offset horizontally by ox / D pixels; returns the
    SVG fragments plus panel width and height in pixels, over D.

    D is a multiple of 4 and of every panel polygon's Q, so the box, which
    has a margin of 3/4 around the vertices, is integral over D.
    """
    V = [(x * (D // P._Q), y * (D // P._Q))
         for P in (panel.region.closed, *panel.pieces) for x, y in P._V]
    m = 3 * (D // 4)
    xlo, ylo = min(x for x, _ in V) - m, min(y for _, y in V) - m
    xhi, yhi = max(x for x, _ in V) + m, max(y for _, y in V) + m

    def X(n: int, q: int) -> str:
        return _num(q * ox + SCALE * (n * D - q * xlo), q * D)

    def Y(n: int, q: int) -> str:
        return _num(SCALE * (q * yhi - n * D), q * D)

    def path(P: Polygon) -> str:
        return " ".join(f"{'M' if i == 0 else 'L'} {X(x, P._Q)} {Y(y, P._Q)}"
                        for i, (x, y) in enumerate(P._V)) + " Z"

    out = []
    # lattice grid
    for gx in range(-(-xlo // D), xhi // D + 1):
        color = AXIS if gx == 0 else GRID
        out.append(f'<line x1="{X(gx, 1)}" y1="{Y(ylo, D)}" x2="{X(gx, 1)}" y2="{Y(yhi, D)}" '
                   f'stroke="{color}" stroke-width="1"/>')
    for gy in range(-(-ylo // D), yhi // D + 1):
        color = AXIS if gy == 0 else GRID
        out.append(f'<line x1="{X(xlo, D)}" y1="{Y(gy, 1)}" x2="{X(xhi, D)}" y2="{Y(gy, 1)}" '
                   f'stroke="{color}" stroke-width="1"/>')
    # splitting lines, clipped to the panel box: the only rational coordinates
    for anchor, direction in panel.splitting_lines:
        blo, bhi = (Fraction(xlo, D), Fraction(ylo, D)), (Fraction(xhi, D), Fraction(yhi, D))
        a = point(*anchor)
        ts = sorted({(b[i] - a[i]) / direction[i]
                     for b in (blo, bhi) for i in (0, 1) if direction[i] != 0})
        pts = [(a[0] + t * direction[0], a[1] + t * direction[1]) for t in ts]
        pts = [p for p in pts if all(blo[i] <= p[i] <= bhi[i] for i in (0, 1))]
        if len(pts) >= 2:
            (x1, y1), (x2, y2) = [(X(x.numerator, x.denominator), Y(y.numerator, y.denominator))
                                  for x, y in (pts[0], pts[-1])]
            out.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                       f'stroke="{SPLIT}" stroke-width="2"/>')
    # filled polygon
    out.append(f'<path d="{path(panel.region.closed)}" fill="{FILL}" fill-opacity="0.65" '
               f'stroke="{EDGE}" stroke-width="2"/>')
    for piece in panel.pieces:
        out.append(f'<path d="{path(piece)}" fill="none" stroke="{EDGE}" '
                   f'stroke-width="1" stroke-dasharray="2,2"/>')
    # removed half-open segments
    for seg in panel.region.removed:
        q, (ax, ay), (bx, by) = seg._Q, seg._a, seg._b  # open end a, closed end b
        out.append(f'<line x1="{X(ax, q)}" y1="{Y(ay, q)}" x2="{X(bx, q)}" y2="{Y(by, q)}" '
                   f'stroke="{REMOVED}" stroke-width="2.5" stroke-dasharray="6,4"/>')
        out.append(f'<circle cx="{X(ax, q)}" cy="{Y(ay, q)}" r="4" fill="#ffffff" '
                   f'stroke="{REMOVED}" stroke-width="1.5"/>')
        out.append(f'<circle cx="{X(bx, q)}" cy="{Y(by, q)}" r="4" fill="{REMOVED}"/>')
    # lattice points of the closed polygon; a boundary point lies on an edge's line
    P = panel.region.closed
    for p in lattice_points(P):
        x, y = X(p[0], 1), Y(p[1], 1)
        if 0 in _edge_sides(P, 1, p):
            out.append(f'<circle cx="{x}" cy="{y}" r="4.5" fill="{BOUNDARY_PT}" '
                       f'stroke="{EDGE}" stroke-width="2"/>')
        else:
            out.append(f'<circle cx="{x}" cy="{y}" r="4" fill="{INTERIOR_PT}"/>')
    if panel.label:
        # XML character data; `&` first.  xml.sax.saxutils.escape would do
        # the same but imports urllib.request, which adds about 40 ms and
        # 6 MB to every start of the CLI
        text = panel.label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        out.append(f'<text x="{_num(ox + 6 * D, D)}" y="16" font-family="sans-serif" '
                   f'font-size="14" fill="{EDGE}">{text}</text>')
    return out, SCALE * (xhi - xlo), SCALE * (yhi - ylo)


def render_panels(panels: list[Panel]) -> str:
    # one denominator for the whole figure keeps the offsets integral
    D = math.lcm(4, *(P._Q for panel in panels for P in (panel.region.closed, *panel.pieces)))
    gap = 20 * D
    frags: list[str] = []
    ox = height = 0
    for panel in panels:
        body, w, h = _panel_svg(panel, D, ox)
        frags.extend(body)
        ox += w + gap
        height = max(height, h)
    W, H = _num(ox - gap if panels else 0, D), _num(height + 22 * D, D)
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{W}" height="{H}" viewBox="0 0 {W} {H}">')
    return "\n".join([head, *frags, "</svg>"]) + "\n"
