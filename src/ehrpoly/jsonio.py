"""Exact JSON interchange for polygons, regions, quasi-polynomials, traces.

All numbers that could be non-integral rationals are serialized as decimal
strings so output is byte-identical across platforms and arbitrary
precision survives the round trip:

* coordinate: ``["num", "den"]`` (two decimal strings, den > 0, reduced);
  read back, each is a JSON integer or ASCII digits with an optional
  leading ``-``
* vertex:     ``[x, y]`` of two coordinates
* polygon:    ``{"vertices": [vertex, ...]}``
* region:     polygon plus ``"removed": [{"open": vertex, "closed": vertex}]``
* quasi-polynomial: coefficient tables as ``"num/den"`` strings in residue
  order 1, 2, ..., D-1, 0 (residue 0 is stored last, at position D).

Parsing errors always name the offending field path.
"""
from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

from .constructions import ConstructionTrace, SearchReport
from .ehrhart import EhrhartQuasiPolynomial
from .geometry import Point, Polygon
from .regions import HalfOpenSegment, SemiOpenRegion


class ParseError(ValueError):
    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def fraction_to_pair(f: Fraction) -> list[str]:
    return [str(f.numerator), str(f.denominator)]


def fraction_to_ratio(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _parse_int(s, path: str) -> int:
    """A JSON integer, or a string `-?[0-9]+`: not the underscores, spaces,
    `+` signs and non-ASCII digits that `int` also reads."""
    if isinstance(s, bool) or not isinstance(s, (str, int)):
        raise ParseError(path, f"expected an integer string, got {s!r}")
    if isinstance(s, int):
        return s
    digits = s.removeprefix("-")
    if digits.isascii() and digits.isdigit():
        try:
            return int(s)
        except ValueError:  # more digits than int() converts
            pass
    limit = sys.get_int_max_str_digits()
    if limit and len(s) > limit:
        # too long for int() to read, and too long to echo
        raise ParseError(path, f"a string of {len(s)} characters, longer than the "
                               f"{limit} digits an integer may have")
    raise ParseError(path, f"not an integer: {s!r}")


def pair_to_fraction(obj, path: str) -> Fraction:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise ParseError(path, f'expected ["num", "den"], got {obj!r}')
    num = _parse_int(obj[0], f"{path}[0]")
    den = _parse_int(obj[1], f"{path}[1]")
    if den <= 0:
        raise ParseError(f"{path}[1]", f"denominator must be positive, got {den}")
    return Fraction(num, den)


def vertex_to_json(p: Point) -> list:
    return [fraction_to_pair(p[0]), fraction_to_pair(p[1])]


def vertex_from_json(obj, path: str) -> Point:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise ParseError(path, f"expected [x, y], got {obj!r}")
    return (pair_to_fraction(obj[0], f"{path}[0]"),
            pair_to_fraction(obj[1], f"{path}[1]"))


def _coordinate_to_json(c: int, Q: int) -> list[str]:
    """`fraction_to_pair` of c / Q, for an integer c and Q > 0, with one gcd."""
    g = math.gcd(c, Q)
    return [str(c // g), str(Q // g)]


def polygon_to_json(P: Polygon) -> dict:
    """The vertices, written from the integer vertices `_V` over `_Q`."""
    Q = P._Q
    return {"vertices": [[_coordinate_to_json(x, Q), _coordinate_to_json(y, Q)]
                         for x, y in P._V]}


def polygon_from_json(obj, path: str = "polygon") -> Polygon:
    if not isinstance(obj, dict):
        raise ParseError(path, f"expected an object, got {type(obj).__name__}")
    if "vertices" not in obj:
        raise ParseError(f"{path}.vertices", "missing")
    raw = obj["vertices"]
    if not isinstance(raw, list):
        raise ParseError(f"{path}.vertices", "expected a list")
    verts = [vertex_from_json(v, f"{path}.vertices[{i}]") for i, v in enumerate(raw)]
    try:
        return Polygon(verts)
    except ValueError as exc:
        raise ParseError(f"{path}.vertices", str(exc)) from None


def region_to_json(R: SemiOpenRegion) -> dict:
    """The polygon, and each removed segment's ends from `_a` and `_b` over `_Q`."""
    out = polygon_to_json(R.closed)
    if R.removed:
        out["removed"] = [
            {end: [_coordinate_to_json(x, s._Q), _coordinate_to_json(y, s._Q)]
             for end, (x, y) in (("open", s._a), ("closed", s._b))}
            for s in R.removed]
    return out


def list_from_json(obj: dict, key: str, path: str) -> list:
    """The list at obj[key], or [] when the key is absent."""
    raw = obj.get(key, [])
    if not isinstance(raw, list):
        raise ParseError(f"{path}.{key}", f"expected a list, got {type(raw).__name__}")
    return raw


def region_from_json(obj, path: str = "region") -> SemiOpenRegion:
    P = polygon_from_json(obj, path)
    removed = []
    for i, raw in enumerate(list_from_json(obj, "removed", path)):
        p = f"{path}.removed[{i}]"
        if not isinstance(raw, dict) or "open" not in raw or "closed" not in raw:
            raise ParseError(p, 'expected {"open": vertex, "closed": vertex}')
        ends = (vertex_from_json(raw["open"], f"{p}.open"),
                vertex_from_json(raw["closed"], f"{p}.closed"))
        try:
            removed.append(HalfOpenSegment(*ends))
        except ValueError as exc:
            raise ParseError(p, str(exc)) from None
    try:
        return SemiOpenRegion(P, removed)
    except ValueError as exc:
        raise ParseError(f"{path}.removed", str(exc)) from None


def _table_to_json(table: tuple[int, ...], den: int, period: int) -> list[str]:
    """The entries table[r] / den in residue order 1..D-1 then 0, per the
    documented layout; each of the first `period` entries is reduced and
    written once, and the rest repeat them."""
    first = []
    for x in table[:period]:
        g = math.gcd(x, den)
        first.append(f"{x // g}/{den // g}")
    return [first[r % period] for r in range(1, len(table) + 1)]


def quasi_to_json(q: EhrhartQuasiPolynomial) -> dict:
    ps = q.period_sequence()
    return {
        "modulus": q.modulus,
        "c2": _table_to_json(q.a2, q.den, ps.s2),
        "c1": _table_to_json(q.a1, q.den, ps.s1),
        "c0": _table_to_json(q.a0, q.den, ps.s0),
        "period_sequence": [ps.s2, ps.s1, ps.s0],
        "quasi_period": ps.quasi_period,
    }


def trace_to_json(trace: ConstructionTrace) -> dict:
    steps = []
    for s in trace.steps:
        steps.append({
            "label": s.label,
            "region": region_to_json(s.region),
            "splitting_lines": [
                {"anchor": vertex_to_json(a), "direction": [str(d[0]), str(d[1])]}
                for a, d in s.splitting_lines],
            "ehrhart": quasi_to_json(s.quasi),
        })
    return {"steps": steps, "final": polygon_to_json(trace.final)}


def splitting_line_from_json(obj, path: str) -> tuple[Point, tuple[int, int]]:
    if not isinstance(obj, dict) or "anchor" not in obj or "direction" not in obj:
        raise ParseError(path, 'expected {"anchor": vertex, "direction": ["dx", "dy"]}')
    d = obj["direction"]
    if not isinstance(d, list) or len(d) != 2:
        raise ParseError(f"{path}.direction", f'expected ["dx", "dy"], got {d!r}')
    direction = tuple(_parse_int(x, f"{path}.direction[{i}]") for i, x in enumerate(d))
    if direction == (0, 0):
        raise ParseError(f"{path}.direction", "the zero vector is not a direction")
    return vertex_from_json(obj["anchor"], f"{path}.anchor"), direction


def search_report_to_json(r: SearchReport) -> dict:
    return {
        "seed": r.seed,
        "trials": r.trials,
        "max_denominator": r.max_denominator,
        "coord_bound": r.coord_bound,
        "polygons_tested": r.polygons_tested,
        "pips_found": r.pips_found,
        "census": {f"({i},{b})": c for (i, b), c in sorted(r.census.items())},
        "counterexamples": [polygon_to_json(P) for P in r.counterexamples],
        "counterexamples_weak": [polygon_to_json(P) for P in r.counterexamples_weak],
    }


def dumps(obj) -> str:
    """Canonical JSON: sorted keys, 2-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def load_document(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or a number too long to convert
        raise ParseError("document", f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("document", "invalid JSON: nested too deeply") from None
