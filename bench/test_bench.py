"""Tests of the benchmark's own input generators, output checks and tracer."""
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import workloads as W
from ehrpoly import cli
from tracer import metric_names, metric_unit
from ehrpoly.geometry import Polygon, area, denominator

HERE = Path(__file__).resolve().parent


def _files(reqs):
    return [Path(r.argv[1]).read_bytes() for r in reqs]


def _call(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, [buf.getvalue()]


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_requests_depend_only_on_the_seed(tmp_path, name):
    make = W.WORKLOADS[name][0]
    w1, a = make(7, tmp_path / "a")
    w2, b = make(7, tmp_path / "b")
    _, c = make(8, tmp_path / "c")
    strip = (lambda r: (r.key, r.argv[0])) if name == "analyze" else (lambda r: r.argv)
    assert [strip(r) for r in a] == [strip(r) for r in b]
    assert w1.key == w2.key
    if name == "analyze":
        assert _files(a) == _files(b)
        assert _files(a) != _files(c)
    else:
        assert [r.argv for r in a] != [r.argv for r in c]


def test_analyze_inputs_span_the_stated_ranges(tmp_path):
    _, reqs = W.analyze_requests(3, tmp_path)
    block = reqs[:W.ANALYZE_BLOCK]
    polys = [Polygon(W._vertices(json.loads(Path(r.argv[1]).read_text()))) for r in block]
    areas = sorted(float(area(P)) for P in polys)
    dens = sorted(denominator(P) for P in polys)
    lo, hi = W.ANALYZE_AREA
    # one draw per log-stratum: the extremes land near the ends of the range
    assert lo * 0.5 < areas[0] < lo * 2 and hi * 0.5 < areas[-1] < hi * 1.5
    assert dens[0] <= 2 and dens[-1] > W.ANALYZE_DENOMINATOR[1] // 2


def test_certify_parameters_cycle_through_their_ranges(tmp_path):
    _, reqs = W.certify_requests(4, tmp_path)
    lo, hi = W.CERTIFY_PIP_I
    block = W.WORKLOADS["certify"][3]
    first = reqs[:(hi - lo + 1) * block]
    assert sorted(int(r.argv[3]) for r in first if r.argv[1] == "pip-b1") \
        == list(range(lo, hi + 1))


def test_analyze_polygon_has_exact_denominator():
    rng = random.Random(1)
    for D in (1, 2, 6, 97, 360):
        verts = W.analyze_polygon(rng, 50.0, D, 5)
        P = Polygon([(Fraction(x, D), Fraction(y, D)) for x, y in verts])
        assert denominator(P) == D
        assert 25 < area(P) < 100


def test_generators_do_not_use_the_program_sampler(tmp_path, monkeypatch):
    import ehrpoly.sampling as sampling
    _, before = W.analyze_requests(5, tmp_path / "a")
    monkeypatch.setattr(sampling, "random_polygon", None)
    monkeypatch.setattr(sampling, "trial_rng", None)
    _, after = W.analyze_requests(5, tmp_path / "b")
    assert _files(before) == _files(after)


def _small_analyze_request(tmp_path, D=3):
    verts = W.analyze_polygon(random.Random(2), 12.0, D, 6)
    path = tmp_path / "p.json"
    path.write_text(W.canonical(W._polygon_doc(verts, D)))
    return W.Request("p", ("analyze", str(path)))


def test_analyze_check_accepts_real_output_and_rejects_tampering(tmp_path):
    req = _small_analyze_request(tmp_path)
    code, outputs = _call(req.argv)
    W.analyze_check(req, W.analyze_record(req, code, outputs))

    doc = json.loads(outputs[0])
    for field, value in [("interior_points", doc["interior_points"] + 1),
                         ("is_pip", not doc["is_pip"]),
                         ("pick_holds", not doc["pick_holds"])]:
        bad = dict(doc, **{field: value})
        with pytest.raises(W.CheckFailed):
            W.analyze_check(req, W.analyze_record(req, code, [json.dumps(bad)]))
    bad = json.loads(outputs[0])
    c0 = bad["ehrhart"]["c0"]
    x = W._ratio(c0[0]) + 1
    c0[0] = f"{x.numerator}/{x.denominator}"
    with pytest.raises(W.CheckFailed):
        W.analyze_check(req, W.analyze_record(req, code, [json.dumps(bad)]))


def test_search_check(tmp_path):
    _, reqs = W.search_requests(1, tmp_path)
    req = reqs[0]
    code, outputs = _call(req.argv)
    rec = W.search_record(req, code, outputs)
    W.search_check(req, rec)
    with pytest.raises(W.CheckFailed):   # exit 1 without counterexamples
        W.search_check(req, (1,) + rec[1:])
    with pytest.raises(W.CheckFailed):   # census disagrees with pips_found
        W.search_check(req, rec[:5] + (rec[5] + 1,) + rec[6:])


@pytest.mark.parametrize("argv", [
    ("construct", "glued", "--s", "2", "--t", "3"),
    ("construct", "heptagon", "--s", "2", "--decomposition"),
    ("verify", "heptagon", "--max-s", "2"),
])
def test_certify_check_accepts_real_output(argv):
    req = W.Request("r", argv)
    code, outputs = _call(argv)
    W.certify_check(req, W.certify_record(req, code, outputs))


def test_certify_check_pip_b1_and_render(tmp_path):
    trace = tmp_path / "t.json"
    req = W.Request("b1", ("construct", "pip-b1", "--I", "1", "--trace"), render=str(trace))
    code, outputs = _call(req.argv)
    trace.write_text(outputs[0])
    _, svg = _call(("render", str(trace), "-"))
    outputs += svg
    W.certify_check(req, (code, tuple(outputs)))
    with pytest.raises(W.CheckFailed):   # claims a different I
        wrong = W.Request("b1", ("construct", "pip-b1", "--I", "2", "--trace"))
        W.certify_check(wrong, (code, tuple(outputs)))
    with pytest.raises(W.CheckFailed):   # SVG cut short
        W.certify_check(req, (code, (outputs[0], outputs[1][:-8])))
    with pytest.raises(W.CheckFailed):   # not canonical
        W.certify_check(req, (code, (outputs[0].replace("\n", " "), outputs[1])))


def test_certify_check_rejects_failed_suite():
    req = W.Request("v", ("verify", "heptagon", "--max-s", "2"))
    code, outputs = _call(req.argv)
    doc = json.loads(outputs[0])
    doc["checks"][0]["passed"] = False
    with pytest.raises(W.CheckFailed):
        W.certify_check(req, (code, (W.canonical(doc),)))


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == metric_names()
    assert all(m["unit"] == metric_unit(m["name"]) for m in spec["per_layer"])


TRACE_SCRIPT = """
import io, json, sys
from contextlib import redirect_stdout
from tracer import Tracer
from ehrpoly import cli
t = Tracer()
t.enable(True)
for i, argv in enumerate(json.loads(sys.argv[1])):
    t.current_request = i
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
print(json.dumps(t.layer_metrics()))
"""


def _traced(argvs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(HERE), str(HERE.parent / "src"), env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", TRACE_SCRIPT, json.dumps(argvs)],
                         env=env, capture_output=True, text=True, check=True, timeout=120)
    return json.loads(out.stdout)


def test_tracer_sees_each_layer_and_the_bypasses(tmp_path):
    poly = _small_analyze_request(tmp_path, D=2).argv
    m = _traced([list(poly)])
    assert m["geometry.integral_hull.calls"] == 1
    assert m["geometry.lattice_points.points"] > 0
    assert m["ehrhart.ehrhart.calls"] == 1
    # analyze counts the dilates of its one polygon only inside ehrhart
    assert m["ehrhart.ehrhart.counts"] == m["regions.region_count.calls"] > 0
    assert m["sampling.random_polygon.calls"] == 0
    assert m["unimodular.apply_piecewise.calls"] == 0
    assert m["jsonio.parse.calls"] >= 1
    assert m["jsonio.dumps.calls"] == 1 and m["jsonio.bytes_out"] > 0
    assert 0 <= m["cli.main.self_ms"] <= m["ehrhart.ehrhart.ms"] + 1e3

    m = _traced([["search", "--seed", "3", "--trials", "20"]])
    assert m["sampling.random_polygon.calls"] == 20
    assert 0 < m["sampling.useful_ratio"] <= 1
    assert m["geometry.integral_hull.calls"] == 0
    assert m["unimodular.iterate.calls"] == 0

    m = _traced([["verify", "pip", "--max-I", "1"]])
    assert m["unimodular.iterate.calls"] > 0 and m["verify.pip.ms"] > 0
    assert m["geometry.integral_hull.calls"] == 0
    assert m["ehrhart.ehrhart.self_ms"] <= m["ehrhart.ehrhart.ms"]
