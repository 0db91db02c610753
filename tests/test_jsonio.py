from fractions import Fraction as F

import pytest

from ehrpoly import (
    Polygon,
    ehrhart,
    glued,
    heptagon,
    pip_b1,
    pip_b2,
    pip_b2_half,
    polygon_corpus,
    region,
    triangle_q,
)
from ehrpoly.jsonio import (
    ParseError,
    dumps,
    load_document,
    polygon_from_json,
    polygon_to_json,
    quasi_to_json,
    region_from_json,
    region_to_json,
    trace_to_json,
    vertex_to_json,
)

SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


def test_polygon_round_trip_preserves_exact_fractions():
    P = Polygon([(0, -1), (F(1, 3), F(1, 3)), (F(-1, 3), F(2, 3))])
    doc = polygon_to_json(P)
    # canonical order starts at the lexicographically smallest vertex
    assert doc["vertices"][0] == [["-1", "3"], ["2", "3"]]
    assert polygon_from_json(doc) == P


def test_polygons_are_written_as_their_fraction_vertices_would_be():
    polys = polygon_corpus(3, 200, max_denominator=12, coord_bound=6)
    polys += [P for I in range(1, 6) for P in (pip_b1(I).final, pip_b2(I), pip_b2_half(I))]
    polys += [heptagon(s) for s in range(2, 9)] + [glued(s, t) for s in (2, 5) for t in (3, 7)]
    polys += [triangle_q((0, 0), q) for q in range(1, 6)]
    for P in polys:
        assert dumps(polygon_to_json(P)) == \
            dumps({"vertices": [vertex_to_json(v) for v in P.vertices]})


def test_removed_segments_are_written_as_their_fraction_ends_would_be():
    regions = [step.region for I in range(1, 7) for step in pip_b1(I).steps]
    assert any(R.removed for R in regions)
    for R in regions:
        assert region_to_json(R).get("removed", []) == [
            {"open": vertex_to_json(s.open_end), "closed": vertex_to_json(s.closed_end)}
            for s in R.removed]


def test_huge_integers_survive():
    big = 10 ** 40
    P = Polygon([(0, 0), (big, 0), (0, F(1, big))])
    assert polygon_from_json(polygon_to_json(P)) == P


def test_region_round_trip():
    R = region(SQUARE.vertices, [((F(1, 2), 0), (1, 0))])
    doc = region_to_json(R)
    assert "removed" in doc
    assert region_from_json(doc) == R


def test_quasi_polynomial_layout_residue_zero_last():
    # modulus 2: arrays list residue 1 first, then residue 0
    R = Polygon([(0, 0), (F(1, 2), 0), (F(1, 2), 1), (0, 1)])
    q = ehrhart(R)
    doc = quasi_to_json(q)
    assert doc["modulus"] == 2
    assert doc["c0"] == ["1/2", "1/1"]      # n odd first, n even second
    assert doc["period_sequence"] == [1, 2, 2]
    assert doc["quasi_period"] == 2


def test_trace_document_shape():
    doc = trace_to_json(pip_b1(1))
    assert [s["label"] for s in doc["steps"]] == ["T1", "T2", "T3", "P"]
    assert doc["steps"][0]["region"]["removed"]
    assert doc["final"]["vertices"][0] == [["-1", "3"], ["2", "3"]]


def test_dumps_is_canonical():
    assert dumps({"b": 1, "a": 2}) == '{\n  "a": 2,\n  "b": 1\n}\n'


class TestParseErrors:
    def test_invalid_json_document(self):
        with pytest.raises(ParseError, match="document"):
            load_document("{nope")

    def test_missing_vertices(self):
        with pytest.raises(ParseError, match="polygon.vertices"):
            polygon_from_json({})

    def test_vertices_not_list(self):
        with pytest.raises(ParseError, match="polygon.vertices"):
            polygon_from_json({"vertices": "x"})

    def test_bad_pair_named_by_index(self):
        with pytest.raises(ParseError, match=r"polygon.vertices\[1\]\[0\]"):
            polygon_from_json({"vertices": [[["0", "1"], ["0", "1"]],
                                            [["x", "1"], ["0", "1"]],
                                            [["1", "1"], ["1", "1"]]]})

    def test_nonpositive_denominator(self):
        with pytest.raises(ParseError, match="denominator must be positive"):
            polygon_from_json({"vertices": [[["0", "1"], ["0", "0"]],
                                            [["1", "1"], ["0", "1"]],
                                            [["0", "1"], ["1", "1"]]]})

    def test_degenerate_polygon_reported_on_vertices(self):
        with pytest.raises(ParseError, match="collinear"):
            polygon_from_json({"vertices": [[["0", "1"], ["0", "1"]],
                                            [["1", "1"], ["0", "1"]],
                                            [["2", "1"], ["0", "1"]]]})

    def test_region_removed_field(self):
        doc = region_to_json(region(SQUARE.vertices, [((F(1, 2), 0), (1, 0))]))
        doc["removed"][0].pop("closed")
        with pytest.raises(ParseError, match=r"region.removed\[0\]"):
            region_from_json(doc)

    def test_removed_off_boundary_reported(self):
        doc = polygon_to_json(SQUARE)
        doc["removed"] = [{"open": [["0", "1"], ["0", "1"]],
                           "closed": [["1", "1"], ["1", "1"]]}]
        with pytest.raises(ParseError, match="region.removed"):
            region_from_json(doc)
