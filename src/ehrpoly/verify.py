"""Named verification suites over the library's invariants.

Each suite returns a report dict: {"suite", "passed", "checks": [...]} with
one entry per named check; the first failure carries a serialized
counterexample.  A bound below the first value its suite iterates over
would leave checks that pass vacuously, so it raises ValueError.  The CLI
`verify` subcommand drives these, and `tests/test_cli.py` runs each
through it; the acceptance suite checks the same claims on its own.
"""
from __future__ import annotations

from fractions import Fraction

from . import constructions as cons
from . import geometry as geo
from .ehrhart import ehrhart, ehrhart_interpolated, is_pip, mcmullen_indices, period_sequence
from .jsonio import polygon_to_json
from .sampling import polygon_corpus
from .unimodular import _map_scaled, skew, skew_minus, skew_plus


class _Suite:
    def __init__(self, name: str):
        self.name = name
        self.checks: list[dict] = []

    def check(self, name: str, ok: bool, detail=None):
        entry = {"name": name, "passed": bool(ok)}
        if not ok and detail is not None:
            entry["counterexample"] = detail
        self.checks.append(entry)

    def report(self) -> dict:
        return {
            "suite": self.name,
            "passed": all(c["passed"] for c in self.checks),
            "checks": self.checks,
        }


def verify_pip(max_I: int = 5, max_n: int = 12) -> dict:
    """The b in {1, 2} pseudo-integral families and their count laws."""
    geo._require_int("max_I", max_I, 1)
    geo._require_int("max_n", max_n, 1)
    s = _Suite("pip")
    members = []  # (I, polygon) of both families, for the pick/scaling checks
    for I in range(1, max_I + 1):
        kite = cons.pip_b2(I)
        half = cons.pip_b2_half(I)
        ok_counts = (geo.interior_count(kite, 1), geo.boundary_count(kite, 1)) == (I, 2)
        s.check(f"b2[I={I}] signature (I,2)", ok_counts, polygon_to_json(kite))
        s.check(f"b2[I={I}] quasi-period 1", is_pip(kite))
        closed_ok = all(
            geo.lattice_count(kite, n) == I * n * n + n + 1
            for n in range(1, max_n + 1))
        s.check(f"b2[I={I}] count = I*n^2 + n + 1", closed_ok)
        # doubling identity: kite count = 2 * half count - points on the axis
        dbl_ok = all(
            geo.lattice_count(kite, n)
            == 2 * geo.lattice_count(half, n) - (n * (I + 1) + 1)
            for n in range(1, max_n + 1))
        s.check(f"b2[I={I}] doubling identity", dbl_ok)
        s.check(f"b2[I={I}] doubling constant at n=1 is I+2",
                geo.lattice_count(kite, 1) == 2 * geo.lattice_count(half, 1) - (I + 2))

        trace = cons.pip_b1(I)  # raises ConstructionMismatch on bad closed forms
        P = trace.final
        s.check(f"b1[I={I}] signature (I,1)",
                (geo.interior_count(P, 1), geo.boundary_count(P, 1)) == (I, 1),
                polygon_to_json(P))
        s.check(f"b1[I={I}] quasi-period 1", is_pip(P))
        bound = 3 * (2 * I + 1)
        closed_ok = all(
            geo.lattice_count(P, n) * 2 == (2 * I - 1) * n * n + n + 2
            for n in range(1, bound + 1))
        s.check(f"b1[I={I}] count = (I-1/2)n^2 + n/2 + 1", closed_ok)
        s.check(f"b1[I={I}] chain preserves counts", trace.counts_preserved())
        members += [(I, kite), (I, P)]
    for I, P in members:
        Ic, b = geo.interior_count(P, 1), geo.boundary_count(P, 1)
        s.check(f"pick/scaling I={I} b={b}",
                geo.area(P) == Ic + Fraction(b, 2) - 1
                and all(geo.boundary_count(P, n) == n * b for n in range(1, max_n + 1)))
    return s.report()


def verify_heptagon(max_s: int = 5) -> dict:
    geo._require_int("max_s", max_s, 2)
    s = _Suite("heptagon")
    for sv in range(2, max_s + 1):
        dec = cons.heptagon_decomposition(sv)
        ps = dec["quasi"][0].period_sequence()
        s.check(f"H({sv}) period sequence (1,{sv},1)",
                (ps.s2, ps.s1, ps.s0) == (1, sv, 1), polygon_to_json(dec["heptagon"]))
        for name, ok in dec["checks"].items():
            s.check(f"H({sv}) {name}", ok)
    return s.report()


def verify_glue(max_s: int = 5, max_t: int = 5) -> dict:
    geo._require_int("max_s", max_s, 2)
    geo._require_int("max_t", max_t, 2)
    s = _Suite("glue")
    for sv in range(2, max_s + 1):
        for tv in range(2, max_t + 1):
            P = cons.glued(sv, tv)
            ps = period_sequence(P)
            s.check(f"glued({sv},{tv}) period sequence (1,{sv},{tv})",
                    (ps.s2, ps.s1, ps.s0) == (1, sv, tv), polygon_to_json(P))
            s.check(f"glued({sv},{tv}) count identity",
                    cons.glued_count_identity(sv, tv))
    for tv in range(2, max_t + 1):
        Q = cons.triangle_q((0, 0), tv)
        ps = period_sequence(Q)
        s.check(f"Q({tv}) period sequence (1,1,{tv})",
                (ps.s2, ps.s1, ps.s0) == (1, 1, tv), polygon_to_json(Q))
    return s.report()


def verify_mcmullen(trials: int = 100, seed: int = 2024) -> dict:
    """Coefficient periods divide the face indices on a random corpus of
    polygons with denominators up to 6 and coordinates within 5.

    The engine takes the leading coefficient to be the area, so the area
    check compares its tables with the interpolating fit, which only counts.
    """
    geo._require_int("trials", trials, 1)
    s = _Suite("mcmullen")
    corpus = polygon_corpus(seed, trials, max_denominator=6, coord_bound=5)
    bad_div = []
    bad_chain = []
    bad_area = []
    for P in corpus:
        p2, p1, p0 = mcmullen_indices(P)
        q = ehrhart(P)
        ps = q.period_sequence()
        if not (p1 % p2 == 0 and p0 % p1 == 0):
            bad_chain.append(P)
        if not (p2 % ps.s2 == 0 and p1 % ps.s1 == 0 and p0 % ps.s0 == 0):
            bad_div.append(P)
        if q != ehrhart_interpolated(P):
            bad_area.append(P)
    s.check(f"s_i | p_i on {len(corpus)} polygons", not bad_div,
            polygon_to_json(bad_div[0]) if bad_div else None)
    s.check("p2 | p1 | p0", not bad_chain,
            polygon_to_json(bad_chain[0]) if bad_chain else None)
    s.check("leading coefficient is the area, period 1", not bad_area,
            polygon_to_json(bad_area[0]) if bad_area else None)
    return s.report()


def verify_transforms(max_I: int = 5) -> dict:
    """Skew transform algebra and lattice preservation along the chains.

    The direction checks map integer points over one denominator each: the
    grid (x/3, y/2) over 6, the line points k r_p / 7 over 7, and r_p and
    the origin over 1.
    """
    geo._require_int("max_I", max_I, 1)
    s = _Suite("transforms")
    dirs = [(1, 0), (0, -1), (2, 3), (-3, 5), (Fraction(3, 2), Fraction(3, 4)),
            (-1, -1), (7, -2)]
    grid = [(2 * x, 3 * y) for x in range(-6, 7, 2) for y in range(-4, 5, 2)]
    for r in dirs:
        U = skew(r)
        s.check(f"skew{r} determinant 1", U.det == 1)
        rp = geo.primitive(r)
        s.check(f"skew{r} fixes its line", _map_scaled(U, 1, [rp, (0, 0)]) == [rp, (0, 0)])
        s.check(f"skew{r} = skew(primitive)", U == skew(rp))
        plus, minus = skew_plus(r), skew_minus(r)
        neg_plus = skew_plus((-r[0], -r[1]))
        s.check(f"skew_minus{r} inverts skew_plus(-r)",
                minus._apply_scaled(6, neg_plus._apply_scaled(6, grid)) == grid)
        line_pts = [(k * rp[0], k * rp[1]) for k in range(-10, 10)]
        s.check(f"U^+{r} continuous across its line",
                _map_scaled(plus.positive_side_map, 7, line_pts)
                == _map_scaled(plus.negative_side_map, 7, line_pts))
    for I in range(1, max_I + 1):
        trace = cons.pip_b1(I)
        bound = 3 * trace.max_denominator()
        s.check(f"pip_b1({I}) chain lattice-preserving up to n={bound}",
                trace.counts_preserved())
    return s.report()


SUITES = {
    "pip": verify_pip,
    "heptagon": verify_heptagon,
    "glue": verify_glue,
    "mcmullen": verify_mcmullen,
    "transforms": verify_transforms,
}
