"""A standing fuzz of `analyze` and `render` through `cli.main`.

Documents are built from valid polygons, regions, panels and steps, and
then mutated: a node is replaced by a value of the wrong type, a
denominator of zero or below, a vertex that is not a pair or a string
that `int` reads but a coordinate may not hold, or a key is deleted.
The builders also make removed segments off the boundary or overlapping,
labels with `<&>` and zero splitting directions.  Whatever the document,
`main` returns 0, 1 or 2 and lets no exception escape.  Coordinates have
denominators dividing 12, so every modulus D is at most 12.
"""
import copy
import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ehrpoly import GeometryError, Polygon, convex_hull
from ehrpoly.cli import main
from ehrpoly.jsonio import dumps, polygon_to_json, vertex_to_json

FUZZ = settings(max_examples=200, derandomize=True, deadline=None)

fracs = st.sampled_from((1, 2, 3, 4, 6, 12)).flatmap(
    lambda d: st.integers(-3 * d, 3 * d).map(lambda n: Fraction(n, d)))
points = st.tuples(fracs, fracs)
labels = st.text(alphabet="ab <&>'\"", max_size=8)

# replacements for any node of a document
BAD = [5, 1.5, None, True, "x", "0", "-3", [], {}, ["0"], ["0", "1", "2"], ["1", "0"],
       ["1", "-3"], [["0", "1"]], "1_0", " 2", "+3", "١", "<&>", ["0", "0"]]


@st.composite
def polygons(draw):
    try:
        return convex_hull(draw(st.lists(points, min_size=3, max_size=7)))
    except GeometryError:
        return Polygon([(0, 0), (1, 0), (0, 1)])


@st.composite
def region_docs(draw):
    """A polygon with removed segments along its edges, reversed, off the
    boundary, or repeating the one before."""
    P = draw(polygons())
    V = P.vertices
    removed = []
    for i in draw(st.lists(st.integers(0, len(V) - 1), max_size=3, unique=True)):
        a, b = V[i], V[(i + 1) % len(V)]
        kind = draw(st.sampled_from(["edge", "reversed", "off", "again"]))
        if kind == "again" and removed:
            removed.append(dict(removed[-1]))
            continue
        if kind == "reversed":
            a, b = b, a
        elif kind == "off":
            b = draw(points)
        removed.append({"open": vertex_to_json(a), "closed": vertex_to_json(b)})
    doc = polygon_to_json(P)
    if removed:
        doc["removed"] = removed
    return doc


splitting_lines = st.lists(st.fixed_dictionaries({
    "anchor": points.map(vertex_to_json),
    "direction": st.lists(st.integers(-2, 2).map(str), min_size=2, max_size=2),
}), max_size=2)


@st.composite
def figure_docs(draw):
    """A region with a label and splitting lines, a `panels` document or a
    `steps` document."""
    kind = draw(st.sampled_from(["region", "panels", "steps"]))
    if kind == "panels":
        return {"panels": draw(st.lists(st.fixed_dictionaries({
            "label": labels, "region": region_docs(), "splitting_lines": splitting_lines,
            "pieces": st.lists(polygons().map(polygon_to_json), max_size=2)}), max_size=3))}
    one = st.builds(lambda R, label, lines: {**R, "label": label, "splitting_lines": lines},
                    region_docs(), labels, splitting_lines)
    if kind == "steps":
        return {"steps": draw(st.lists(one, max_size=3))}
    return draw(one)


def _nodes(doc, out):
    """Every (container, key) pair below doc."""
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        out.append((doc, key))
        _nodes(value, out)
    return out


@st.composite
def mutated(draw, docs):
    doc = draw(docs)
    for _ in range(draw(st.integers(0, 2))):
        nodes = _nodes(doc, [])
        if not nodes:
            break
        parent, key = draw(st.sampled_from(nodes))
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(BAD)))
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _exit_code(*argv) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(list(argv))


@FUZZ
@given(doc=mutated(st.one_of(polygons().map(polygon_to_json), region_docs())))
def test_analyze_exits_0_1_or_2(workdir, doc):
    f = workdir / "analyze.json"
    f.write_text(dumps(doc))
    assert _exit_code("analyze", str(f)) in (0, 1, 2)


@FUZZ
@given(doc=mutated(figure_docs()))
def test_render_exits_0_1_or_2(workdir, doc):
    f = workdir / "render.json"
    f.write_text(dumps(doc))
    assert _exit_code("render", str(f), str(workdir / "render.svg")) in (0, 1, 2)
