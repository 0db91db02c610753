"""SVG rendering of polygons, semi-open regions and construction traces.

Figures show the integer lattice as a grid, the polygon filled, interior
lattice points as solid dots, boundary lattice points as rings, removed
half-open segments dashed (open endpoint hollow), and splitting lines of
skew transformations in gray.  All coordinates are derived from exact
rationals with deterministic integer arithmetic; no floats are involved,
so output is byte-identical everywhere.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .geometry import Polygon, boundary_points, lattice_points, point
from .regions import SemiOpenRegion

SCALE = 40          # pixels per lattice unit
MARGIN = Fraction(3, 4)

FILL = "#9ecae9"
EDGE = "#1f3552"
GRID = "#dddddd"
AXIS = "#aaaaaa"
SPLIT = "#999999"
REMOVED = "#cc3333"
INTERIOR_PT = "#1a1a1a"
BOUNDARY_PT = "#ffffff"


def _num(v: Fraction, places: int = 3) -> str:
    """Deterministic decimal rendering of a rational, half-up at `places`."""
    v = Fraction(v)
    sign = "-" if v < 0 else ""
    v = abs(v)
    scaled = v * 10 ** places
    n = scaled.numerator // scaled.denominator
    if 2 * (scaled.numerator % scaled.denominator) >= scaled.denominator:
        n += 1
    whole, frac = divmod(n, 10 ** places)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{str(frac).zfill(places).rstrip('0')}"


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

    def bounds(self):
        xs, ys = [], []
        for v in self.region.closed.vertices:
            xs.append(v[0]); ys.append(v[1])
        for p in self.pieces:
            for v in p.vertices:
                xs.append(v[0]); ys.append(v[1])
        return (min(xs) - MARGIN, min(ys) - MARGIN,
                max(xs) + MARGIN, max(ys) + MARGIN)


def _panel_svg(panel: Panel, ox: Fraction) -> tuple[list[str], Fraction, Fraction]:
    """Render one panel offset horizontally by ox pixels; returns the SVG
    fragments plus panel width and height in pixels."""
    xlo, ylo, xhi, yhi = panel.bounds()
    w = (xhi - xlo) * SCALE
    h = (yhi - ylo) * SCALE

    def X(x) -> str:
        return _num(ox + (Fraction(x) - xlo) * SCALE)

    def Y(y) -> str:
        return _num((yhi - Fraction(y)) * SCALE)

    out = []
    # lattice grid
    for gx in range(math.ceil(xlo), math.floor(xhi) + 1):
        color = AXIS if gx == 0 else GRID
        out.append(f'<line x1="{X(gx)}" y1="{Y(ylo)}" x2="{X(gx)}" y2="{Y(yhi)}" '
                   f'stroke="{color}" stroke-width="1"/>')
    for gy in range(math.ceil(ylo), math.floor(yhi) + 1):
        color = AXIS if gy == 0 else GRID
        out.append(f'<line x1="{X(xlo)}" y1="{Y(gy)}" x2="{X(xhi)}" y2="{Y(gy)}" '
                   f'stroke="{color}" stroke-width="1"/>')
    # splitting lines, clipped to the panel box
    for anchor, direction in panel.splitting_lines:
        a = point(*anchor)
        dx, dy = direction
        ts = []
        if dx != 0:
            ts += [(Fraction(xlo) - a[0]) / dx, (Fraction(xhi) - a[0]) / dx]
        if dy != 0:
            ts += [(Fraction(ylo) - a[1]) / dy, (Fraction(yhi) - a[1]) / dy]
        pts = []
        for t in sorted(set(ts)):
            px, py = a[0] + t * dx, a[1] + t * dy
            if xlo <= px <= xhi and ylo <= py <= yhi:
                pts.append((px, py))
        if len(pts) >= 2:
            (x1, y1), (x2, y2) = pts[0], pts[-1]
            out.append(f'<line x1="{X(x1)}" y1="{Y(y1)}" x2="{X(x2)}" y2="{Y(y2)}" '
                       f'stroke="{SPLIT}" stroke-width="2"/>')
    # filled polygon
    path = " ".join(f"{'M' if i == 0 else 'L'} {X(v[0])} {Y(v[1])}"
                    for i, v in enumerate(panel.region.closed.vertices)) + " Z"
    out.append(f'<path d="{path}" fill="{FILL}" fill-opacity="0.65" '
               f'stroke="{EDGE}" stroke-width="2"/>')
    for piece in panel.pieces:
        ppath = " ".join(f"{'M' if i == 0 else 'L'} {X(v[0])} {Y(v[1])}"
                         for i, v in enumerate(piece.vertices)) + " Z"
        out.append(f'<path d="{ppath}" fill="none" stroke="{EDGE}" '
                   f'stroke-width="1" stroke-dasharray="2,2"/>')
    # removed half-open segments
    for seg in panel.region.removed:
        o, c = seg.open_end, seg.closed_end
        out.append(f'<line x1="{X(o[0])}" y1="{Y(o[1])}" x2="{X(c[0])}" y2="{Y(c[1])}" '
                   f'stroke="{REMOVED}" stroke-width="2.5" stroke-dasharray="6,4"/>')
        out.append(f'<circle cx="{X(o[0])}" cy="{Y(o[1])}" r="4" fill="#ffffff" '
                   f'stroke="{REMOVED}" stroke-width="1.5"/>')
        out.append(f'<circle cx="{X(c[0])}" cy="{Y(c[1])}" r="4" fill="{REMOVED}"/>')
    # lattice points of the closed polygon
    bpts = set(boundary_points(panel.region.closed))
    for x, y in lattice_points(panel.region.closed):
        if (x, y) in bpts:
            out.append(f'<circle cx="{X(x)}" cy="{Y(y)}" r="4.5" fill="{BOUNDARY_PT}" '
                       f'stroke="{EDGE}" stroke-width="2"/>')
        else:
            out.append(f'<circle cx="{X(x)}" cy="{Y(y)}" r="4" fill="{INTERIOR_PT}"/>')
    if panel.label:
        # XML character data; `&` first.  xml.sax.saxutils.escape would do
        # the same but imports urllib.request, which adds about 40 ms and
        # 6 MB to every start of the CLI
        text = panel.label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        out.append(f'<text x="{_num(ox + 6)}" y="16" font-family="sans-serif" '
                   f'font-size="14" fill="{EDGE}">{text}</text>')
    return out, w, h


def render_panels(panels: list[Panel]) -> str:
    gap = Fraction(20)
    frags: list[str] = []
    ox = Fraction(0)
    height = Fraction(0)
    for panel in panels:
        body, w, h = _panel_svg(panel, ox)
        frags.extend(body)
        ox += w + gap
        height = max(height, h)
    width = ox - gap if panels else Fraction(0)
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{_num(width)}" height="{_num(height + 22)}" '
            f'viewBox="0 0 {_num(width)} {_num(height + 22)}">')
    return "\n".join([head, *frags, "</svg>"]) + "\n"


def render_region(region, label: str = "", splitting_lines=()) -> str:
    return render_panels([Panel(region, label, splitting_lines)])
