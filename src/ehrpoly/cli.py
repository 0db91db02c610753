"""Command-line front end.

Subcommands:

    analyze    polygon JSON -> quasi-polynomial, periods, PIP/Pick/Scott status
    construct  emit a named family (pip-b1, pip-b2, heptagon, triangle-q, glued)
    verify     run a named invariant suite at given bounds
    search     seeded random search for Scott counterexamples among PIPs
    render     polygon/region/trace JSON -> SVG figure

Each construct family and verify suite has its own parser, which takes
only its options, after its name and spelled in full; a verify suite's
options are its function's parameters.

Exit codes: 0 success, 1 verification failure / counterexample found,
2 usage, parse or invalid-input error, Ehrhart tables too large for
memory included (argparse exits 2 itself on an option the target does
not take or a required one left out).  Output is canonical JSON
(sorted keys), identical bytes for identical invocations.
"""
from __future__ import annotations

import argparse
import functools
import inspect
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
    applicable, holds = cons.integral_hull_proposition_check(P)
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


# each family's options, with the arguments that define them
_FAMILY_OPTIONS = {"pip-b1": ("I", "trace"), "pip-b2": ("I",), "heptagon": ("s", "decomposition"),
                   "triangle-q": ("t", "anchor"), "glued": ("s", "t")}
_OPTION_ARGUMENTS = {
    "I": dict(type=int, required=True, help="number of interior lattice points"),
    "s": dict(type=int, required=True, help="linear-coefficient period (>= 2)"),
    "t": dict(type=int, required=True, help="constant-coefficient period"),
    "anchor": dict(default="0,0", help="lattice anchor for triangle-q (default 0,0)"),
    "trace": dict(action="store_true", help="emit the full construction trace (pip-b1)"),
    "decomposition": dict(action="store_true", help="emit the subdivision panels (heptagon)"),
}


def cmd_construct(args) -> int:
    fam = args.family
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
        try:
            ax, ay = (int(c) for c in args.anchor.split(","))
        except ValueError:
            raise ValueError(f"construct triangle-q: --anchor takes x,y with integers "
                             f"x and y, got {args.anchor!r}") from None
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


def cmd_verify(args) -> int:
    suite = verify.SUITES[args.suite]
    # a bound left out is not in args, so it keeps the suite's own default
    kwargs = {name: getattr(args, name) for name in inspect.signature(suite).parameters
              if hasattr(args, name)}
    report = suite(**kwargs)
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
    p.set_defaults(func=cmd_analyze, parsers=[("analyze", p)])

    p = sub.add_parser("construct", help="emit a constructed family member")
    p.set_defaults(func=cmd_construct)
    targets = p.add_subparsers(dest="family", required=True)
    for family, options in _FAMILY_OPTIONS.items():
        f = targets.add_parser(family, allow_abbrev=False)
        for name in options:
            f.add_argument(f"--{name}", **_OPTION_ARGUMENTS[name])
        f.add_argument("-o", "--output", default=None)
        f.set_defaults(parsers=[("construct", p), (family, f)])

    p = sub.add_parser("verify", help="run an invariant suite")
    p.set_defaults(func=cmd_verify)
    targets = p.add_subparsers(dest="suite", required=True)
    for name, suite in sorted(verify.SUITES.items()):
        # the suite's signature is the one list of its bounds and their defaults
        f = targets.add_parser(name, allow_abbrev=False, argument_default=argparse.SUPPRESS)
        for param in inspect.signature(suite).parameters.values():
            f.add_argument(f"--{param.name.replace('_', '-')}", dest=param.name, type=int,
                           help=f"default {param.default}")
        f.add_argument("-o", "--output", default=None)
        f.set_defaults(parsers=[("verify", p), (name, f)])

    p = sub.add_parser("search", help="search PIPs for Scott counterexamples")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--max-denominator", dest="max_denominator", type=int, default=4)
    p.add_argument("--coord-bound", dest="coord_bound", type=int, default=4)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_search, parsers=[("search", p)])

    p = sub.add_parser("render", help="render polygon/region/trace JSON to SVG")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_render, parsers=[("render", p)])
    return ap


def main(argv=None) -> int:
    # argparse hands leftover arguments up to the root parser; the parser they
    # were given to reports them.  argv[k] is token k of the subcommand chain
    # unless parser k (the root for k = 0) was given arguments before it
    argv = sys.argv[1:] if argv is None else list(argv)
    args, extras = build_parser().parse_known_args(argv)
    if extras:
        tokens, parsers = zip(*args.parsers)
        k = next((k for k, token in enumerate(tokens) if argv[k] != token), len(tokens))
        given = argv[k:argv.index(tokens[k], k)] if k < len(tokens) else extras
        (build_parser(), *parsers)[k].error(f"unrecognized arguments: {' '.join(given)}")
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
