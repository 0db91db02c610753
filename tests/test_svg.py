import hashlib
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from ehrpoly import Polygon, heptagon_decomposition, pip_b1, region
from ehrpoly.cli import main
from ehrpoly.svg import Panel, _num, render_panels
from test_geometry import fractions_made


def test_number_formatting_is_exact_and_deterministic():
    assert _num(1, 2) == "0.5"
    assert _num(-7, 4) == "-1.75"
    assert _num(1, 3) == "0.333"
    assert _num(2, 3) == "0.667"
    assert _num(5, 1) == "5"
    assert _num(0, 1) == "0"


@given(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4))
def test_number_formatting_reads_only_the_value(n, d):
    # half-up at three places, worked out on the reduced Fraction
    v = abs(F(n, d)) * 1000
    k = v.numerator // v.denominator + (2 * (v.numerator % v.denominator) >= v.denominator)
    want = ("-" if n < 0 else "") + (f"{k // 1000}.{k % 1000:03d}".rstrip("0").rstrip("."))
    assert _num(n, d) == _num(3 * n, 3 * d) == want


def test_render_panels_structure():
    square = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    svg = render_panels([Panel(square, "unit square")])
    assert svg.startswith("<svg") and svg.endswith("</svg>\n")
    assert svg.count('fill="#ffffff" stroke="#1f3552"') == 4   # boundary rings
    assert "unit square" in svg
    assert render_panels([Panel(square, "unit square")]) == svg


def test_removed_segment_and_splitting_line_styles():
    R = region([(0, 0), (1, 1), (-1, 0)], [((0, 0), (1, 1))])
    svg = render_panels([Panel(R, "seed", [((0, 0), (0, -1))])])
    assert 'stroke-dasharray="6,4"' in svg
    assert 'stroke="#999999"' in svg
    # open endpoint hollow, closed endpoint solid
    assert 'fill="#ffffff" stroke="#cc3333"' in svg
    assert 'fill="#cc3333"' in svg


def test_interior_points_solid():
    fat = Polygon([(0, 0), (3, 0), (3, 3), (0, 3)])
    svg = render_panels([Panel(fat)])
    assert svg.count('fill="#1a1a1a"') == 4   # (1,1),(1,2),(2,1),(2,2)


@pytest.mark.parametrize("construct, digest", [
    ("pip-b1 --I 1 --trace",
     "621ccaeafff63c32edb4b1cc4ce718c66f74ee447dcc30757e9a85de448ee61c"),
    ("pip-b1 --I 2 --trace",
     "d053a254f1322d6da39907e3e95114d2121b18a676436e9b729c57a702f6791c"),
    ("pip-b1 --I 3 --trace",
     "79f6531eb714cde33dab0f34d1f935204381ba22462b689c5d44a41a2a1d8c21"),
    ("pip-b1 --I 4 --trace",
     "7daeacc86a12bfb9924772aa3f8e4f20e773c959e9498af78e59a0e82a6e21ad"),
    ("pip-b1 --I 5 --trace",
     "f343e6ebf478974e50d199f2d1be0e6b088fe738fd21de849a81cf1027cf732d"),
    ("pip-b1 --I 6 --trace",
     "2ad48825bfce1562ef7b5162f79d62cb7a955f1c442b3577c720dcdfbc64fa59"),
    ("heptagon --s 2 --decomposition",
     "20b95cbab14e201cb0b5b1082587082f4309552e3bface9d0f5dc9a4fe0c4242"),
    ("heptagon --s 3 --decomposition",
     "11e266d9e4df81e4da2697f7a3aa7ee2006036c13f65ae3192134aefb41290d1"),
    ("heptagon --s 4 --decomposition",
     "ac3e81b5607b05f2914e14914057053bd4407130ad567280b762dafe9c1cd505"),
    ("heptagon --s 5 --decomposition",
     "b52a6d4337c98cb4b71db34e43d725a0c39733df36e018d9e4f6de6938e46a75"),
    ("heptagon --s 6 --decomposition",
     "4884fafb75872fb42ae43f2bbd9a339dae1a6678608bc21ffd6382bf282917b2"),
    ("heptagon --s 7 --decomposition",
     "b228b18e77a1e6e265c8088561241dfa31929fc920765662057ffd62eda14080"),
    ("heptagon --s 8 --decomposition",
     "609dd84dedda4ce9d67191d71ec89a114b1fc6105e53b37c60dce5cf4f30510a"),
])
def test_rendered_figures_are_pinned(tmp_path, capsys, construct, digest):
    # the pip-b1 traces draw splitting lines and removed segments, the
    # heptagon decompositions outlined pieces; any change to a coordinate,
    # its rounding or the drawing order changes these digests
    doc = tmp_path / "doc.json"
    assert main(["construct", *construct.split(), "-o", str(doc)]) == 0
    assert main(["render", str(doc), "-"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_panels_without_splitting_lines_make_no_fractions():
    dec = heptagon_decomposition(3)
    steps = pip_b1(2).steps
    panels = [Panel(dec["heptagon"], "H", pieces=dec["triangles"]),
              Panel(dec["h_prime"], "H'", pieces=dec["mapped"])]
    panels += [Panel(step.region, step.label) for step in steps]
    assert any(step.region.removed for step in steps)
    entered, made, svg = fractions_made({render_panels}, lambda: render_panels(panels))
    assert entered == 1 and made == 0
    assert svg.count("<path") == 2 + 3 + 2 + len(steps)
