"""Command-line front end.

Subcommands:

    analyze    polygon JSON -> quasi-polynomial, periods, PIP/Pick/Scott status
    construct  emit a named family (pip-b1, pip-b2, heptagon, triangle-q, glued)
    verify     run a named invariant suite at given bounds
    search     seeded random search for Scott counterexamples among PIPs
    render     polygon/region/trace JSON -> SVG figure

Exit codes: 0 success, 1 verification failure / counterexample found,
2 usage or parse error.  Output is canonical JSON (sorted keys), identical
bytes for identical invocations.
"""
from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from . import constructions as cons
from . import jsonio, svg, verify
from .ehrhart import VerificationFailure, ehrhart, mcmullen_indices
from .geometry import area, boundary_count, lattice_count

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _write_out(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _read_document(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise jsonio.ParseError(path, str(exc)) from None
    return jsonio.load_document(text)


def cmd_analyze(args) -> int:
    doc = _read_document(args.input)
    P = jsonio.polygon_from_json(doc, "polygon")
    q = ehrhart(P)
    ps = q.period_sequence()
    b = boundary_count(P, 1)
    I = lattice_count(P, 1) - b
    applicable, holds = cons.integral_hull_proposition_check(P, I=I, b=b)
    A = area(P)
    out = {
        "polygon": jsonio.polygon_to_json(P),
        "area": jsonio.fraction_to_ratio(A),
        "interior_points": I,
        "boundary_points": b,
        "ehrhart": jsonio.quasi_to_json(q),
        "period_sequence": [ps.s2, ps.s1, ps.s0],
        "quasi_period": ps.quasi_period,
        "is_pip": ps.quasi_period == 1,
        "mcmullen_indices": list(mcmullen_indices(P)),
        "pick_holds": A == I + Fraction(b, 2) - 1,
        "scott": {
            "admissible_as_integral": cons.scott_admissible(I, b),
            "inequality_holds": cons.scott_inequality_holds(I, b),
            "integral_hull_proposition": {"applicable": applicable, "holds": holds},
        },
    }
    _write_out(jsonio.dumps(out), args.output)
    return EXIT_OK


# the options each family takes; I, s and t are required where taken
_FAMILY_OPTIONS = {"pip-b1": ("I", "trace"), "pip-b2": ("I",), "heptagon": ("s", "decomposition"),
                   "triangle-q": ("t", "anchor"), "glued": ("s", "t")}


def _options(args, command: str, table: dict, key: str, required=()) -> tuple:
    """The options that table[key] takes.  Each option in the table is None
    when left out; raise ValueError naming one that is given but not taken,
    or taken and `required` but left out."""
    takes = table[key]
    for name in dict.fromkeys(o for opts in table.values() for o in opts):
        given = getattr(args, name) is not None
        if given and name not in takes:
            raise ValueError(f"{command} {key} does not take --{name.replace('_', '-')}")
        if not given and name in takes and name in required:
            raise ValueError(f"{command} {key}: missing required --{name}")
    return takes


def cmd_construct(args) -> int:
    fam = args.family
    _options(args, "construct", _FAMILY_OPTIONS, fam, required=("I", "s", "t"))
    if fam == "pip-b2":
        doc = jsonio.polygon_to_json(cons.pip_b2(args.I))
    elif fam == "pip-b1":
        trace = cons.pip_b1(args.I)
        doc = jsonio.trace_to_json(trace) if args.trace \
            else jsonio.polygon_to_json(trace.final)
    elif fam == "heptagon":
        if args.decomposition:
            doc = _decomposition_document(args.s)
        else:
            doc = jsonio.polygon_to_json(cons.heptagon(args.s))
    elif fam == "triangle-q":
        anchor = "0,0" if args.anchor is None else args.anchor
        try:
            ax, ay = (int(c) for c in anchor.split(","))
        except ValueError:
            raise ValueError(f"construct triangle-q: --anchor takes x,y with integers "
                             f"x and y, got {anchor!r}") from None
        doc = jsonio.polygon_to_json(cons.triangle_q((ax, ay), args.t))
    else:  # glued
        doc = jsonio.polygon_to_json(cons.glued(args.s, args.t))
    _write_out(jsonio.dumps(doc), args.output)
    return EXIT_OK


def _decomposition_document(s: int) -> dict:
    dec = cons.heptagon_decomposition(s)
    failed = [name for name, ok in dec["checks"].items() if not ok]
    if failed:
        raise cons.ConstructionMismatch(
            f"heptagon decomposition for s={s} fails {', '.join(failed)}")
    T1, T2, T3 = dec["triangles"]
    U1T1, U2T2 = dec["mapped"]
    return {
        "panels": [
            {"label": f"H (s={s})",
             "region": jsonio.polygon_to_json(dec["heptagon"]),
             "pieces": [jsonio.polygon_to_json(p)
                        for p in (dec["rectangle"], T1, T2, T3)]},
            {"label": "H'",
             "region": jsonio.polygon_to_json(dec["h_prime"]),
             "pieces": [jsonio.polygon_to_json(p)
                        for p in (dec["rectangle"], U1T1, U2T2, T3)]},
        ],
    }


# the options each suite takes; the suite's own signature holds their defaults
_SUITE_OPTIONS = {"pip": ("max_I", "max_n"), "heptagon": ("max_s",),
                  "glue": ("max_s", "max_t"), "mcmullen": ("trials", "seed"),
                  "transforms": ("max_I",)}


def cmd_verify(args) -> int:
    kwargs = {name: getattr(args, name)
              for name in _options(args, "verify", _SUITE_OPTIONS, args.suite)
              if getattr(args, name) is not None}
    report = verify.SUITES[args.suite](**kwargs)
    _write_out(jsonio.dumps(report), args.output)
    return EXIT_OK if report["passed"] else EXIT_FAIL


def cmd_search(args) -> int:
    report = cons.scott_pip_search(args.seed, args.trials,
                                   args.max_denominator, args.coord_bound)
    _write_out(jsonio.dumps(jsonio.search_report_to_json(report)), args.output)
    return EXIT_FAIL if report.counterexamples else EXIT_OK


def _panel_from_json(obj, path: str, default_label: str = "") -> svg.Panel:
    if not isinstance(obj, dict):
        raise jsonio.ParseError(path, f"expected an object, got {type(obj).__name__}")
    label = obj.get("label", default_label)
    if not isinstance(label, str):
        raise jsonio.ParseError(f"{path}.label",
                                f"expected a string, got {type(label).__name__}")
    region = jsonio.region_from_json(obj.get("region", obj), f"{path}.region")
    lines = [jsonio.splitting_line_from_json(ln, f"{path}.splitting_lines[{i}]")
             for i, ln in enumerate(jsonio.list_from_json(obj, "splitting_lines", path))]
    pieces = [jsonio.polygon_from_json(p, f"{path}.pieces[{i}]")
              for i, p in enumerate(jsonio.list_from_json(obj, "pieces", path))]
    return svg.Panel(region, label, lines, pieces)


def cmd_render(args) -> int:
    doc = _read_document(args.input)
    if not isinstance(doc, dict):
        raise jsonio.ParseError("document", "expected a JSON object")
    if "panels" in doc:
        panels = [_panel_from_json(p, f"panels[{i}]")
                  for i, p in enumerate(jsonio.list_from_json(doc, "panels", "document"))]
    elif "steps" in doc:
        panels = [_panel_from_json(step, f"steps[{i}]", f"step {i}")
                  for i, step in enumerate(jsonio.list_from_json(doc, "steps", "document"))]
    else:
        panels = [_panel_from_json(doc, "document")]
    _write_out(svg.render_panels(panels), args.output)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every `main` call, built by the first one.  Each parse
    makes a fresh namespace, and the subcommands look up what they call
    (`verify.SUITES` included) when they run, so calls share no state."""
    ap = argparse.ArgumentParser(
        prog="ehrpoly",
        description="Exact Ehrhart quasi-polynomials of rational polygons")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze a polygon JSON file")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("construct", help="emit a constructed family member")
    p.add_argument("family", choices=list(_FAMILY_OPTIONS))
    # no defaults here: an option left out is None, which `_options` reads
    p.add_argument("--I", type=int, help="number of interior lattice points")
    p.add_argument("--s", type=int, help="linear-coefficient period (>= 2)")
    p.add_argument("--t", type=int, help="constant-coefficient period")
    p.add_argument("--anchor", help="lattice anchor for triangle-q (default 0,0)")
    p.add_argument("--trace", action="store_true", default=None,
                   help="emit the full construction trace (pip-b1)")
    p.add_argument("--decomposition", action="store_true", default=None,
                   help="emit the subdivision panels (heptagon)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="run an invariant suite")
    p.add_argument("suite", choices=sorted(verify.SUITES))
    # no defaults here: an option left out leaves the suite's own default
    p.add_argument("--max-I", dest="max_I", type=int)
    p.add_argument("--max-n", dest="max_n", type=int)
    p.add_argument("--max-s", dest="max_s", type=int)
    p.add_argument("--max-t", dest="max_t", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="search PIPs for Scott counterexamples")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--max-denominator", dest="max_denominator", type=int, default=4)
    p.add_argument("--coord-bound", dest="coord_bound", type=int, default=4)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("render", help="render polygon/region/trace JSON to SVG")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_render)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except cons.ConstructionMismatch as exc:
        print(f"construction verification failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except VerificationFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
