import hashlib
import inspect
import json
import re
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction as F

import pytest

from ehrpoly import AffineUnimodular, PiecewiseUnimodularMap, Polygon, skew_plus
from ehrpoly.cli import build_parser, main
from ehrpoly.jsonio import dumps, polygon_to_json

SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
SQUARE_JSON = polygon_to_json(SQUARE)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def usage_error(capsys, *argv, prog: str) -> str:
    """The stderr of a call that argparse refuses: it exits 2, writes
    nothing to stdout, and the usage line and error name `prog`."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert out.err.startswith(f"usage: {prog} [-h]") and f"\n{prog}: error: " in out.err
    return out.err


def test_construct_pip_b1(capsys):
    code, out, _ = run(capsys, "construct", "pip-b1", "--I", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc == polygon_to_json(
        Polygon([(0, -1), (F(1, 3), F(1, 3)), (F(-1, 3), F(2, 3))]))


def test_construct_pip_b2_and_triangle_q(capsys):
    code, out, _ = run(capsys, "construct", "pip-b2", "--I", "2")
    assert code == 0
    assert json.loads(out) == polygon_to_json(
        Polygon([(0, 0), (1, F(-2, 3)), (3, 0), (1, F(2, 3))]))
    code, out, _ = run(capsys, "construct", "triangle-q", "--t", "2",
                       "--anchor", "1,5")
    assert code == 0
    assert json.loads(out) == polygon_to_json(
        Polygon([(1, 5), (2, 4), (F(3, 2), 5)]))


def test_construct_missing_parameter_exits_2(capsys):
    err = usage_error(capsys, "construct", "pip-b2", prog="ehrpoly construct pip-b2")
    assert err.endswith("error: the following arguments are required: --I\n")


@pytest.mark.parametrize("anchor", ["1", "1,x"])
def test_construct_malformed_anchor_exits_2_naming_the_option(capsys, anchor):
    code, out, err = run(capsys, "construct", "triangle-q", "--t", "2", "--anchor", anchor)
    assert code == 2 and out == ""
    assert "--anchor" in err and "x,y" in err and repr(anchor) in err


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_calls_share_no_parser_state(tmp_path, capsys):
    path = tmp_path / "b2.json"
    code, out, _ = run(capsys, "construct", "pip-b2", "--I", "2", "-o", str(path))
    assert code == 0 and out == "" and path.read_text()
    assert "--I" in usage_error(capsys, "construct", "pip-b2", prog="ehrpoly construct pip-b2")
    code, out, _ = run(capsys, "construct", "pip-b2", "--I", "2")
    assert code == 0 and out == path.read_text()


def test_verify_failure_exits_1(capsys, monkeypatch):
    import ehrpoly.verify as v
    monkeypatch.setitem(
        v.SUITES, "pip",
        lambda **kw: {"suite": "pip", "passed": False,
                      "checks": [{"name": "broken", "passed": False}]})
    code, out, _ = run(capsys, "verify", "pip")
    assert code == 1
    assert json.loads(out)["passed"] is False


@pytest.mark.parametrize("suite", ["pip", "heptagon", "glue", "mcmullen", "transforms"])
def test_verify_defaults_are_the_suite_defaults(capsys, suite):
    import ehrpoly.verify as v
    code, out, _ = run(capsys, "verify", suite)
    assert code == 0 and out == dumps(v.SUITES[suite]())


def test_construct_and_analyze_round_trip(tmp_path, capsys):
    poly_file = tmp_path / "glued.json"
    code, _, _ = run(capsys, "construct", "glued", "--s", "2", "--t", "3",
                     "-o", str(poly_file))
    assert code == 0
    code, out, _ = run(capsys, "analyze", str(poly_file))
    assert code == 0
    doc = json.loads(out)
    assert doc["period_sequence"] == [1, 2, 3]
    assert doc["quasi_period"] == 6
    assert doc["is_pip"] is False
    assert doc["polygon"] == json.loads(poly_file.read_text())
    assert doc["scott"]["inequality_holds"] is True


def test_analyze_unit_square(tmp_path, capsys):
    f = tmp_path / "square.json"
    f.write_text(dumps(polygon_to_json(SQUARE)))
    code, out, _ = run(capsys, "analyze", str(f))
    assert code == 0
    doc = json.loads(out)
    assert doc["period_sequence"] == [1, 1, 1]
    assert doc["quasi_period"] == 1
    assert doc["is_pip"] is True
    assert doc["mcmullen_indices"] == [1, 1, 1]
    assert doc["pick_holds"] is True
    assert doc["area"] == "1/1"


def test_analyze_malformed_json_exits_2(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text('{"vertices": "oops"}')
    code, _, err = run(capsys, "analyze", str(f))
    assert code == 2
    assert "vertices" in err


def test_analyze_deeply_nested_json_exits_2(tmp_path, capsys):
    # the decoder raises RecursionError here, not JSONDecodeError
    f = tmp_path / "deep.json"
    f.write_text("[" * 100_000)
    code, out, err = run(capsys, "analyze", str(f))
    assert code == 2 and out == ""
    assert err == "error: document: invalid JSON: nested too deeply\n"


@pytest.mark.parametrize("number, message", [
    # the decoder's own limit on a bare number, and _parse_int's on a quoted one
    ("1" * 5000, "error: document: invalid JSON: Exceeds the limit"),
    ('"' + "1" * 5000 + '"', f"error: polygon.vertices[0][0][0]: a string of 5000 characters, "
                             f"longer than the {sys.get_int_max_str_digits()} digits"),
], ids=["bare", "quoted"])
def test_a_number_too_long_to_read_exits_2_naming_the_field(tmp_path, capsys, number, message):
    f = tmp_path / "long.json"
    f.write_text('{"vertices": [[[%s, "1"], ["0", "1"]]]}' % number)
    code, out, err = run(capsys, "analyze", str(f))
    assert code == 2 and out == ""
    assert err.startswith(message) and len(err) < 200


@pytest.mark.parametrize("number", ["1_0", " 2", "+3", "\u0661"],
                         ids=["underscore", "space", "plus", "arabic-indic"])
def test_a_coordinate_that_is_not_ascii_decimal_exits_2_naming_the_field(tmp_path, capsys, number):
    # int() reads each of these; a coordinate string is -?[0-9]+ only
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"vertices": [[[number, "1"], ["0", "1"]], [["5", "1"], ["0", "1"]],
                                          [["0", "1"], ["5", "1"]]]}))
    code, out, err = run(capsys, "analyze", str(f))
    assert code == 2 and out == ""
    assert err == f"error: polygon.vertices[0][0][0]: not an integer: {number!r}\n"


def test_analyze_out_of_memory_exits_2_naming_the_modulus(tmp_path, capsys, monkeypatch):
    def no_memory(P):
        raise MemoryError
    monkeypatch.setattr("ehrpoly.cli.ehrhart", no_memory)
    f = tmp_path / "p.json"
    f.write_text(dumps(polygon_to_json(Polygon([(0, 0), (3, F(1, 7)), (0, 2)]))))
    code, out, err = run(capsys, "analyze", str(f))
    assert code == 2 and out == ""
    assert err.startswith("error: denominator D = 7: ") and "memory" in err


def test_analyze_of_a_modulus_no_table_can_hold_exits_2(tmp_path, capsys):
    f = tmp_path / "thin.json"
    f.write_text(dumps(polygon_to_json(Polygon([(0, 0), (1, 0), (0, F(1, 10**20))]))))
    code, out, err = run(capsys, "analyze", str(f))
    assert code == 2 and out == ""
    assert err.startswith(f"error: denominator D = {10**20} is larger than")


def test_analyze_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/p.json")
    assert code == 2 and err


def test_construct_out_of_range_exits_2(capsys):
    code, _, err = run(capsys, "construct", "heptagon", "--s", "1")
    assert code == 2
    assert "s must be" in err


# each family and suite with the options it takes, and a value for every option
TAKES = {("construct", "pip-b1"): ("--I", "--trace"), ("construct", "pip-b2"): ("--I",),
         ("construct", "heptagon"): ("--s", "--decomposition"),
         ("construct", "triangle-q"): ("--t", "--anchor"), ("construct", "glued"): ("--s", "--t"),
         ("verify", "pip"): ("--max-I", "--max-n"), ("verify", "heptagon"): ("--max-s",),
         ("verify", "glue"): ("--max-s", "--max-t"), ("verify", "mcmullen"): ("--trials", "--seed"),
         ("verify", "transforms"): ("--max-I",)}
VALUES = {"construct": {"--I": ["2"], "--s": ["3"], "--t": ["3"], "--anchor": ["1,5"],
                        "--trace": [], "--decomposition": []},
          "verify": {"--max-I": ["1"], "--max-n": ["3"], "--max-s": ["2"], "--max-t": ["2"],
                     "--trials": ["2"], "--seed": ["1"]}}


@pytest.mark.parametrize("command, target, option", [
    (c, t, o) for (c, t), takes in TAKES.items() for o in VALUES[c] if o not in takes])
def test_an_option_the_target_does_not_take_exits_2_naming_it(capsys, command, target, option):
    taken = [arg for o in TAKES[command, target] for arg in [o, *VALUES[command][o]]]
    foreign = [option, *VALUES[command][option]]
    err = usage_error(capsys, command, target, *taken, *foreign,
                      prog=f"ehrpoly {command} {target}")
    assert err.endswith(f"error: unrecognized arguments: {' '.join(foreign)}\n")


@pytest.mark.parametrize("command, target", TAKES)
def test_each_target_help_lists_exactly_the_options_it_takes(capsys, command, target):
    with pytest.raises(SystemExit) as exc:
        main([command, target, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[A-Za-z][\w-]*", capsys.readouterr().out))
    assert listed - {"--help", "--output"} == set(TAKES[command, target])


def test_each_suite_flag_is_a_parameter_of_the_suite():
    import ehrpoly.verify as v
    flags = {suite: tuple(f"--{name.replace('_', '-')}"
                          for name in inspect.signature(fn).parameters)
             for suite, fn in v.SUITES.items()}
    assert flags == {suite: TAKES["verify", suite] for suite in v.SUITES}
    assert set().union(*flags.values()) == {
        "--max-I", "--max-n", "--max-s", "--max-t", "--trials", "--seed"}


@pytest.mark.parametrize("argv, prog, message", [
    # an abbreviation of a taken option is no option: --t is not --trace
    (("construct", "pip-b1", "--I", "2", "--t", "3"), "ehrpoly construct pip-b1",
     "unrecognized arguments: --t 3"),
    (("construct", "heptagon", "--s", "3", "--dec"), "ehrpoly construct heptagon",
     "unrecognized arguments: --dec"),
    (("verify", "mcmullen", "--trial", "3"), "ehrpoly verify mcmullen",
     "unrecognized arguments: --trial 3"),
    # options follow the target
    (("construct", "--I", "2", "pip-b2"), "ehrpoly construct", "argument family: invalid choice: '2'"),
    (("verify", "--max-s", "2", "glue"), "ehrpoly verify", "argument suite: invalid choice: '2'"),
])
def test_options_are_spelled_out_after_the_target(capsys, argv, prog, message):
    assert message in usage_error(capsys, *argv, prog=prog)


@pytest.mark.parametrize("argv, prog, foreign", [
    (("construct", "pip-b2", "--trace", "--I", "2"), "ehrpoly construct pip-b2", "--trace"),
    (("search", "--seed", "3", "extra"), "ehrpoly search", "extra"),
    (("analyze", "in.json", "out.json"), "ehrpoly analyze", "out.json"),
    # before the subcommand token, only the root parser has seen it
    (("--foo", "search", "--trials", "1", "extra"), "ehrpoly", "--foo"),
    # between the subcommand and its target, only the subcommand parser has
    (("verify", "--foo", "transforms"), "ehrpoly verify", "--foo"),
    (("construct", "--foo", "pip-b2", "--I", "2"), "ehrpoly construct", "--foo"),
])
def test_a_foreign_argument_is_refused_by_the_parser_it_was_given_to(capsys, argv, prog, foreign):
    err = usage_error(capsys, *argv, prog=prog)
    assert err.endswith(f"error: unrecognized arguments: {foreign}\n")


def test_construct_unknown_family_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "dodecahedron"])
    assert exc.value.code == 2


def test_verify_pip_passes(capsys):
    code, out, _ = run(capsys, "verify", "pip", "--max-I", "2", "--max-n", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])


def test_verify_heptagon_passes(capsys):
    code, out, _ = run(capsys, "verify", "heptagon", "--max-s", "2")
    assert code == 0 and json.loads(out)["passed"] is True


def test_verify_glue_passes(capsys):
    code, out, _ = run(capsys, "verify", "glue", "--max-s", "3", "--max-t", "3")
    assert code == 0 and json.loads(out)["passed"] is True


@pytest.mark.parametrize("argv", [
    ("pip", "--max-I", "-1"),
    ("pip", "--max-n", "0"),
    ("heptagon", "--max-s", "1"),
    ("glue", "--max-s", "1"),
    ("glue", "--max-t", "1"),
    ("transforms", "--max-I", "0"),
    ("mcmullen", "--trials", "-1"),
])
def test_verify_refuses_vacuous_bounds(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "must be at least" in err


def test_verify_transforms_passes(capsys):
    code, out, _ = run(capsys, "verify", "transforms", "--max-I", "2")
    assert code == 0 and json.loads(out)["passed"] is True


def test_verify_transforms_report_is_pinned(capsys):
    # names, order and verdict of every check: any change to them changes the digest
    code, out, _ = run(capsys, "verify", "transforms", "--max-I", "3")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == \
        "86cd2fb144ae7240a35d4f8272b0254ef9796011cb9e64711c50a5112522c85c"


def transforms_checks(capsys, marker: str) -> list[dict]:
    """The checks of `verify transforms --max-I 1` whose name holds
    `marker`, from a run that must fail."""
    code, out, _ = run(capsys, "verify", "transforms", "--max-I", "1")
    checks = [c for c in json.loads(out)["checks"] if marker in c["name"]]
    assert code == 1 and len(checks) == 7
    return checks


def test_verify_transforms_sees_a_wrong_inverse(capsys, monkeypatch):
    import ehrpoly.verify as v
    monkeypatch.setattr(v, "skew_minus", skew_plus)
    assert not any(c["passed"] for c in transforms_checks(capsys, "inverts skew_plus(-r)"))


def test_verify_transforms_sees_side_maps_that_disagree_on_the_line(capsys, monkeypatch):
    import ehrpoly.verify as v
    turn = AffineUnimodular(0, -1, 1, 0)  # fixes only the origin, the anchor of skew_plus

    def torn_skew_plus(r):
        m = skew_plus(r)
        with pytest.raises(ValueError, match="disagree"):
            PiecewiseUnimodularMap(m.anchor, m.direction, m.positive_side_map, turn)
        object.__setattr__(m, "negative_side_map", turn)
        return m

    monkeypatch.setattr(v, "skew_plus", torn_skew_plus)
    assert not any(c["passed"] for c in transforms_checks(capsys, "continuous across its line"))


def test_verify_mcmullen_passes(capsys):
    code, out, _ = run(capsys, "verify", "mcmullen", "--trials", "30", "--seed", "7")
    assert code == 0 and json.loads(out)["passed"] is True


def test_verify_mcmullen_compares_the_engine_with_the_fit(capsys, monkeypatch):
    import sys
    from ehrpoly.ehrhart import EhrhartQuasiPolynomial
    v = sys.modules["ehrpoly.verify"]
    monkeypatch.setattr(v, "ehrhart_interpolated",
                        lambda P: EhrhartQuasiPolynomial(1, (F(0),), (F(0),), (F(1),)))
    code, out, _ = run(capsys, "verify", "mcmullen", "--trials", "5", "--seed", "7")
    checks = {c["name"]: c["passed"] for c in json.loads(out)["checks"]}
    assert code == 1 and checks == {
        "s_i | p_i on 5 polygons": True, "p2 | p1 | p0": True,
        "leading coefficient is the area, period 1": False}


def test_verification_failure_exits_1_with_the_residue(tmp_path, capsys, monkeypatch):
    import sys
    eh = sys.modules["ehrpoly.ehrhart"]
    real = eh.region_count
    monkeypatch.setattr(eh, "region_count", lambda R, n: real(R, n) + (n == 2))
    f = tmp_path / "heptagon.json"
    assert run(capsys, "construct", "heptagon", "--s", "3", "-o", str(f))[0] == 0
    code, out, err = run(capsys, "analyze", str(f))
    assert code == 1 and out == ""
    assert err.startswith("verification failed: ") and err.count("\n") == 1
    assert "n=1" in err and "residue 1 mod 3" in err


def test_search_deterministic_and_exit_zero(tmp_path, capsys):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "search", "--seed", "1", "--trials", "80", "-o", str(f1))[0] == 0
    assert run(capsys, "search", "--seed", "1", "--trials", "80", "-o", str(f2))[0] == 0
    assert f1.read_bytes() == f2.read_bytes()
    doc = json.loads(f1.read_text())
    assert doc["trials"] == 80 and doc["counterexamples"] == []


def test_render_square(tmp_path, capsys):
    f = tmp_path / "square.json"
    f.write_text(dumps(polygon_to_json(SQUARE)))
    out_svg = tmp_path / "square.svg"
    code, _, _ = run(capsys, "render", str(f), str(out_svg))
    assert code == 0
    svg = out_svg.read_text()
    assert svg.startswith("<svg")
    # 4 boundary lattice points drawn as rings
    assert svg.count('fill="#ffffff" stroke="#1f3552"') == 4
    assert '<line' in svg


def test_render_trace_four_panels(tmp_path, capsys):
    trace_file = tmp_path / "trace.json"
    run(capsys, "construct", "pip-b1", "--I", "3", "--trace", "-o", str(trace_file))
    out_svg = tmp_path / "fig.svg"
    code, _, _ = run(capsys, "render", str(trace_file), str(out_svg))
    assert code == 0
    svg = out_svg.read_text()
    for label in ("T1", "T2", "T3", "P"):
        assert f">{label}</text>" in svg
    assert 'stroke-dasharray="6,4"' in svg          # removed half-open segments
    assert 'stroke="#999999"' in svg                 # splitting lines

    # byte-identical on re-render
    out2 = tmp_path / "fig2.svg"
    run(capsys, "render", str(trace_file), str(out2))
    assert out_svg.read_bytes() == out2.read_bytes()


def test_render_heptagon_decomposition(tmp_path, capsys):
    dec_file = tmp_path / "dec.json"
    run(capsys, "construct", "heptagon", "--s", "3", "--decomposition",
        "-o", str(dec_file))
    out_svg = tmp_path / "dec.svg"
    code, _, _ = run(capsys, "render", str(dec_file), str(out_svg))
    assert code == 0
    svg = out_svg.read_text()
    assert "H (s=3)" in svg and "H&apos;" in svg or "H'" in svg


def test_construct_heptagon_decomposition_with_a_failed_check_exits_1(capsys, monkeypatch):
    import ehrpoly.constructions as cons
    # a wrong constant term of [0, 1/s] fails one named check of the subdivision
    monkeypatch.setattr(cons, "constant_coefficient_of_interval", lambda s, n: F(0))
    code, out, err = run(capsys, "construct", "heptagon", "--s", "3", "--decomposition")
    assert code == 1 and out == ""
    assert err == ("construction verification failed: heptagon decomposition for s=3 "
                   "fails H_prime_constant_matches_segment\n")


def test_render_escapes_label_text(tmp_path, capsys):
    f = tmp_path / "labelled.json"
    f.write_text(json.dumps({"vertices": SQUARE_JSON["vertices"], "label": "a<b & c"}))
    out_svg = tmp_path / "labelled.svg"
    code, _, _ = run(capsys, "render", str(f), str(out_svg))
    assert code == 0
    root = ET.parse(out_svg).getroot()
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert texts == ["a<b & c"]


@pytest.mark.parametrize("doc, field", [
    ({"vertices": SQUARE_JSON["vertices"], "removed": 5}, "document.region.removed"),
    ({"vertices": SQUARE_JSON["vertices"],
      "splitting_lines": [{"anchor": SQUARE_JSON["vertices"][0], "direction": 7}]},
     "document.splitting_lines[0].direction"),
    ({"panels": [5]}, "panels[0]"),
    ({"steps": 5}, "document.steps"),
    ({"vertices": SQUARE_JSON["vertices"], "label": 5}, "document.label"),
    ({"steps": [{"vertices": SQUARE_JSON["vertices"], "label": ["T1"]}]}, "steps[0].label"),
    ({"vertices": SQUARE_JSON["vertices"],
      "removed": [{"open": SQUARE_JSON["vertices"][0], "closed": SQUARE_JSON["vertices"][0]}]},
     "document.region.removed[0]"),
    ({"vertices": SQUARE_JSON["vertices"],
      "splitting_lines": [{"anchor": SQUARE_JSON["vertices"][0], "direction": ["0", "0"]}]},
     "document.splitting_lines[0].direction"),
])
def test_render_malformed_document_exits_2_naming_the_field(tmp_path, capsys, doc, field):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    code, _, err = run(capsys, "render", str(f), str(tmp_path / "out.svg"))
    assert code == 2
    assert err.startswith(f"error: {field}:")


_V0, _V1 = [["0", "1"], ["0", "1"]], [["1", "1"], ["0", "1"]]


@pytest.mark.parametrize("command, doc, message", [
    ("render", [1, 2], "document: expected a JSON object"),
    ("analyze", [_V0, _V1], "polygon: expected an object, got list"),
    ("analyze", {"vertices": [_V0, 5, _V1]}, "polygon.vertices[1]: expected [x, y], got 5"),
    ("analyze", {"vertices": [_V0, _V1, [1.5, ["1", "1"]]]},
     'polygon.vertices[2][0]: expected ["num", "den"], got 1.5'),
    ("analyze", {"vertices": [_V0, _V1, [[True, "1"], ["1", "1"]]]},
     "polygon.vertices[2][0][0]: expected an integer string, got True"),
    ("render", {"vertices": [_V0, _V1, [["0", "1"], ["1", "1"]]], "splitting_lines": [5]},
     'document.splitting_lines[0]: expected {"anchor": vertex, "direction": ["dx", "dy"]}'),
], ids=["document", "polygon", "vertex", "coordinate", "numerator", "splitting-line"])
def test_a_malformed_field_exits_2_with_its_path(tmp_path, capsys, command, doc, message):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    argv = [command, str(f)] + ([str(tmp_path / "out.svg")] if command == "render" else [])
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_analyze_pentagram_exits_2(tmp_path, capsys):
    f = tmp_path / "star.json"
    star = [[[str(x), "1"], [str(y), "1"]]
            for x, y in ((0, 10), (-6, -8), (10, 3), (-10, 3), (6, -8))]
    f.write_text(json.dumps({"vertices": star}))
    code, _, err = run(capsys, "analyze", str(f))
    assert code == 2
    assert "polygon.vertices" in err and "wind" in err


def test_construct_byte_identical_runs(capsys):
    _, out1, _ = run(capsys, "construct", "heptagon", "--s", "4")
    _, out2, _ = run(capsys, "construct", "heptagon", "--s", "4")
    assert out1 == out2


@pytest.mark.parametrize("vertices, digest", [
    # the README polygon, D = 3
    ([(0, -1), (F(1, 3), F(1, 3)), (F(-1, 3), F(2, 3))],
     "86a15c9f08edebe31939e656f11fa2359a9e87c9f357fb9f10af20e7c5da1591"),
    # a pentagon with D = 997: tables of 997 residues, c1 and c0 of full period
    ([(0, 0), (F(4001, 997), F(1, 997)), (6, F(2995, 997)), (F(3, 997), 5), (F(-1000, 997), 2)],
     "318c7565e992380631017e24a2b8ff29654a276832b881cad4d78b32597a6f8a"),
    # a quadrilateral with D = 2
    ([(F(1, 2), 0), (3, F(1, 2)), (F(5, 2), 3), (0, F(3, 2))],
     "45ee5baa2ec6172be896b07dd97234193fe151ed29e39dad07b703a16131e883"),
])
def test_analyze_reports_are_pinned(tmp_path, capsys, vertices, digest):
    # pins every byte of the report, the coefficient tables included
    f = tmp_path / "polygon.json"
    f.write_text(dumps(polygon_to_json(Polygon(vertices))))
    code, out, _ = run(capsys, "analyze", str(f))
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest
