"""Seeded request streams and output checks for the three workloads.

Every workload is a closed loop with one client: a list of requests, each a
CLI invocation of ``ehrpoly.cli.main``, sent one after another.

* ``search``: ``search --seed <derived> --trials <10..160>`` at the default
  bounds.
  The many-small-polygons path; its polygons come from ``ehrpoly.sampling``
  on purpose, because that generator is the feature under test.  It never
  runs ``integral_hull``, ``unimodular`` or ``regions.segment_count`` (the
  semi-open regions); ``ehrhart`` still calls ``regions.region_count``.
* ``analyze``: ``analyze <file>`` on polygons this module draws with its own
  ``random.Random``.  Area and denominator are each log-uniform and are
  paired by a fixed design that leaves them uncorrelated, so
  ``integral_hull`` (driven by area) and ``ehrhart`` (driven by the
  denominator D) separate.  This is the only workload that runs
  ``integral_hull``.
* ``certify``: the paper's constructions (the b = 1 PIP chain and its
  rendered trace, the heptagon subdivision, the glued polygons) and the
  ``verify`` suites at moderate bounds.  The only workload that runs
  ``unimodular``, the semi-open regions (``regions.segment_count``),
  ``verify`` and ``svg``.  The
  ``mcmullen`` suite is left out: it samples through ``ehrpoly.sampling``,
  which belongs to ``search``.

The analyze and certify inputs depend only on the seed and on stdlib
``random``, never on ``ehrpoly.sampling``.  Requests come in blocks that
spread evenly over the workload's input ranges, so runs of whole blocks see
the same mix of sizes whatever the seed.

Outputs are checked after timing with the library's own oracles, not
against pinned bytes.  ``record`` turns one response into the compact form
the check needs; ``check`` raises ``CheckFailed`` when it is wrong.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

SEARCH_TRIALS = (10, 160)
SEARCH_MAX_DENOMINATOR = 4
SEARCH_COORD_BOUND = 4
SEARCH_BLOCK = 8
SEARCH_BLOCKS = 512

# The largest analyze request (area 5e3 with D = 1000, 7 vertices) takes
# about 1 s on a 2-vCPU x86-64 VM with CPython 3.11.
ANALYZE_AREA = (10.0, 5.0e3)
ANALYZE_DENOMINATOR = (1, 1000)
ANALYZE_VERTICES = (3, 7)
ANALYZE_BLOCK = 20
ANALYZE_BLOCKS = 50
ANALYZE_CHECK_N = (1, 2, 3)
GOLDEN = (math.sqrt(5) - 1) / 2

CERTIFY_BLOCKS = 256
CERTIFY_PIP_I = (1, 6)
CERTIFY_HEPTAGON_S = (2, 8)
CERTIFY_GLUED_ST = (2, 8)
CERTIFY_VERIFY = {
    "pip": (("--max-I", (1, 3)),),
    "heptagon": (("--max-s", (2, 6)),),
    "glue": (("--max-s", (2, 4)), ("--max-t", (2, 4))),
    "transforms": (("--max-I", (1, 3)),),
}


class CheckFailed(Exception):
    """A response that is not what the program should have produced."""


@dataclass(frozen=True)
class Request:
    """One CLI call; `render` names a file to receive its stdout, which a
    second call, ``render <file> -``, then turns into an SVG."""

    key: str
    argv: tuple[str, ...]
    render: str | None = None


def canonical(obj) -> str:
    """The documented canonical JSON form: sorted keys, indent 2, newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def digest(outputs) -> str:
    h = hashlib.sha256()
    for text in outputs:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def _ratio(s: str) -> Fraction:
    num, den = s.split("/")
    return Fraction(int(num), int(den))


def _shoelace(vertices) -> Fraction:
    m = len(vertices)
    return sum(vertices[i][0] * vertices[(i + 1) % m][1]
               - vertices[(i + 1) % m][0] * vertices[i][1]
               for i in range(m)) / 2


def _vertices(doc) -> list[tuple[Fraction, Fraction]]:
    return [tuple(Fraction(int(c[0]), int(c[1])) for c in v) for v in doc["vertices"]]


# ---------------------------------------------------------------------------
# search


def _spread(lo: float, hi: float, j: int, k: int, offset: float, b: int) -> float:
    """Block b's draw in log-stratum j of k on [lo, hi).  The point
    ``offset + b * GOLDEN (mod 1)`` is uniform within the stratum for a
    random offset, yet any run of consecutive blocks covers it evenly."""
    return lo * (hi / lo) ** ((j + (offset + b * GOLDEN) % 1.0) / k)


def search_requests(seed: int, workdir: Path) -> tuple[Request, list[Request]]:
    """Trial counts are log-uniform over `SEARCH_TRIALS`, one per stratum in
    each block, so that the latency distribution has no single mode for a
    swing in machine speed to move its median across."""
    rng = random.Random(f"search:{seed}")
    offsets = [rng.random() for _ in range(SEARCH_BLOCK)]

    def request(name: str, trials: int) -> Request:
        argv = ("search", "--seed", str(rng.getrandbits(32)), "--trials", str(trials),
                "--max-denominator", str(SEARCH_MAX_DENOMINATOR),
                "--coord-bound", str(SEARCH_COORD_BOUND))
        return Request(name, argv)

    lo, hi = SEARCH_TRIALS
    warmup = request("warmup", lo)
    reqs = []
    for b in range(SEARCH_BLOCKS):
        block = [request(f"search-{b:03d}-{j}",
                         int(_spread(lo, hi + 1, j, SEARCH_BLOCK, offsets[j], b)))
                 for j in range(SEARCH_BLOCK)]
        rng.shuffle(block)
        reqs.extend(block)
    return warmup, reqs


def search_record(req: Request, code: int, outputs: list[str]):
    doc = json.loads(outputs[0])
    return (code, doc["seed"], doc["trials"], doc["polygons_tested"],
            doc["pips_found"], sum(doc["census"].values()), len(doc["counterexamples"]))


def search_check(req: Request, record) -> None:
    code, out_seed, trials, tested, pips, census, counterexamples = record
    if (str(out_seed), str(trials)) != (req.argv[2], req.argv[4]):
        raise CheckFailed(f"report echoes seed {out_seed}, trials {trials}")
    if not census == pips <= tested <= trials:
        raise CheckFailed(f"census {census}, pips {pips}, tested {tested}, "
                          f"trials {trials} out of order")
    if code != (1 if counterexamples else 0):
        raise CheckFailed(f"exit code {code} with {counterexamples} counterexamples")


# ---------------------------------------------------------------------------
# analyze


def _hull(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Strictly convex hull, counterclockwise, by monotone chain."""
    pts = sorted(set(points))

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[int, int]] = []
    upper: list[tuple[int, int]] = []
    for p in pts:
        while len(lower) >= 2 and turn(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and turn(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def analyze_polygon(rng: random.Random, target_area: float, D: int, k: int):
    """Convex polygon with vertices on the grid (1/D)Z^2, coordinate
    denominator exactly D and area close to `target_area`.

    Returns the integer numerators over D, counterclockwise.
    """
    while True:
        angles = [2.0 * math.pi * (i + rng.uniform(0.15, 0.85)) / k for i in range(k)]
        radii = [rng.uniform(0.7, 1.0) for _ in range(k)]
        shape = [(r * math.cos(a), r * math.sin(a)) for a, r in zip(angles, radii)]
        unit_area = abs(sum(shape[i][0] * shape[i - 1][1] - shape[i - 1][0] * shape[i][1]
                            for i in range(k))) / 2
        scale = math.sqrt(target_area / unit_area) * D
        ox, oy = rng.uniform(0, D), rng.uniform(0, D)
        verts = _hull([(round(x * scale + ox), round(y * scale + oy)) for x, y in shape])
        if len(verts) < 3:
            continue
        if math.lcm(*(D // math.gcd(c, D) for v in verts for c in v)) == D:
            return verts


def _polygon_doc(verts, D: int) -> dict:
    return {"vertices": [[[str(Fraction(c, D).numerator), str(Fraction(c, D).denominator)]
                          for c in v] for v in verts]}


def _design(k: int) -> list[int]:
    """A fixed permutation of range(k), the same for every seed."""
    return random.Random(f"analyze-design:{k}").sample(range(k), k)


def analyze_requests(seed: int, workdir: Path) -> tuple[Request, list[Request]]:
    """Writes the polygon files under `workdir` and returns the requests.

    Each block draws one area from each of `ANALYZE_BLOCK` log-strata and one
    D from each D log-stratum; `_spread` places the draws inside the strata.
    Which area stratum meets which D stratum and vertex count is a fixed
    design, so every block holds the same ladder of request sizes and the
    latency quantiles of whole blocks hardly depend on the seed.  The seed
    draws the shapes, their offsets from the lattice and the order of
    requests in a block.
    """
    rng = random.Random(f"analyze:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    lo_k, hi_k = ANALYZE_VERTICES
    lo_d, hi_d = ANALYZE_DENOMINATOR
    by_d, by_k = _design(ANALYZE_BLOCK), _design(ANALYZE_BLOCK)[::-1]
    area_offset = [rng.random() for _ in range(ANALYZE_BLOCK)]
    d_offset = [rng.random() for _ in range(ANALYZE_BLOCK)]

    def request(name: str, area: float, D: int, k: int) -> Request:
        verts = analyze_polygon(rng, area, D, k)
        path = workdir / f"{name}.json"
        path.write_text(canonical(_polygon_doc(verts, D)))
        return Request(name, ("analyze", str(path)))

    warmup = request("warmup", ANALYZE_AREA[0], lo_d, lo_k)
    reqs = []
    for b in range(ANALYZE_BLOCKS):
        block = []
        for j, dj in enumerate(by_d):
            area = _spread(*ANALYZE_AREA, j, ANALYZE_BLOCK, area_offset[j], b)
            D = int(_spread(lo_d, hi_d + 1, dj, ANALYZE_BLOCK, d_offset[dj], b))
            block.append(request(f"poly-{b:03d}-{j:02d}", area, D,
                                 lo_k + by_k[j] % (hi_k - lo_k + 1)))
        rng.shuffle(block)
        reqs.extend(block)
    return warmup, reqs


def analyze_record(req: Request, code: int, outputs: list[str]):
    doc = json.loads(outputs[0])
    q = doc["ehrhart"]
    D = q["modulus"]
    # tables are stored in residue order 1, ..., D-1, 0
    tables = {name: [_ratio(s) for s in q[name]] for name in ("c2", "c1", "c0")}
    periods = tuple(_minimal_period(tables[name]) for name in ("c2", "c1", "c0"))

    def value(n: int) -> Fraction:
        i = (n - 1) % D
        return tables["c2"][i] * n * n + tables["c1"][i] * n + tables["c0"][i]

    return {
        "code": code,
        "polygon": doc["polygon"],
        "area": _ratio(doc["area"]),
        "c2": set(tables["c2"]),
        "values": {n: value(n) for n in (-1, *ANALYZE_CHECK_N)},
        "periods": periods,
        "reported_periods": (tuple(q["period_sequence"]), q["quasi_period"],
                             tuple(doc["period_sequence"]), doc["quasi_period"]),
        "I": doc["interior_points"],
        "b": doc["boundary_points"],
        "is_pip": doc["is_pip"],
        "pick_holds": doc["pick_holds"],
    }


def _minimal_period(table) -> int:
    D = len(table)
    return next(p for p in range(1, D + 1)
                if D % p == 0 and all(table[i] == table[(i + p) % D] for i in range(D)))


def analyze_check(req: Request, rec) -> None:
    from ehrpoly.geometry import Polygon, lattice_count_rowscan

    def fail(what: str):
        raise CheckFailed(f"{what}")

    if rec["code"] != 0:
        fail(f"exit code {rec['code']}")
    sent = json.loads(Path(req.argv[1]).read_text())
    verts = _vertices(sent)
    if sorted(verts) != sorted(_vertices(rec["polygon"])):
        fail("echoed polygon differs from the input")
    A = _shoelace(verts)
    if rec["area"] != A or rec["c2"] != {A}:
        fail("area or leading coefficient differs from the shoelace area")
    P = Polygon(verts)
    for n in ANALYZE_CHECK_N:
        if rec["values"][n] != lattice_count_rowscan(P, n):
            fail(f"quasi-polynomial at n={n} differs from lattice_count_rowscan")
    I, b = rec["I"], rec["b"]
    if I + b != rec["values"][1]:
        fail("interior + boundary differs from the count at n=1")
    if I != rec["values"][-1]:
        fail("interior count breaks Ehrhart-Macdonald reciprocity")
    s2, s1, s0 = rec["periods"]
    qp = math.lcm(s2, s1, s0)
    if rec["reported_periods"] != ((s2, s1, s0), qp, (s2, s1, s0), qp):
        fail("reported periods differ from the coefficient tables")
    if rec["is_pip"] != (qp == 1):
        fail("is_pip disagrees with quasi_period == 1")
    if rec["pick_holds"] != (A == I + Fraction(b, 2) - 1):
        fail("pick_holds misreports Pick's identity")
    if rec["is_pip"] and not rec["pick_holds"]:
        fail("a pseudo-integral polygon breaks Pick's identity")


# ---------------------------------------------------------------------------
# certify


def _cycle(rng: random.Random, values):
    """Endless stream over `values`, each pass in a fresh random order, so
    every value comes up equally often in any run of whole passes."""
    values = list(values)
    while True:
        rng.shuffle(values)
        yield from values


def certify_requests(seed: int, workdir: Path) -> tuple[Request, list[Request]]:
    """One block per round: each construction and each verify suite once,
    in random order, with parameters cycling through their ranges."""
    rng = random.Random(f"certify:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    pip_i = _cycle(rng, range(CERTIFY_PIP_I[0], CERTIFY_PIP_I[1] + 1))
    hept_s = _cycle(rng, range(CERTIFY_HEPTAGON_S[0], CERTIFY_HEPTAGON_S[1] + 1))
    glued_st = _cycle(rng, itertools.product(range(CERTIFY_GLUED_ST[0], CERTIFY_GLUED_ST[1] + 1),
                                             repeat=2))
    suites = {suite: _cycle(rng, itertools.product(*(range(lo, hi + 1)
                                                     for _, (lo, hi) in flags)))
              for suite, flags in CERTIFY_VERIFY.items()}

    def pip_b1() -> Request:
        I = next(pip_i)
        return Request(f"pip-b1-{I}", ("construct", "pip-b1", "--I", str(I), "--trace"),
                       render=str(workdir / f"pip-b1-{I}.json"))

    def heptagon() -> Request:
        s = next(hept_s)
        return Request(f"heptagon-{s}", ("construct", "heptagon", "--s", str(s),
                                         "--decomposition"))

    def glued() -> Request:
        s, t = next(glued_st)
        return Request(f"glued-{s}-{t}", ("construct", "glued", "--s", str(s), "--t", str(t)))

    def verify(suite: str) -> Request:
        argv = ["verify", suite]
        for (flag, _), value in zip(CERTIFY_VERIFY[suite], next(suites[suite])):
            argv += [flag, str(value)]
        return Request(" ".join(argv), tuple(argv))

    warmup = glued()
    reqs = []
    for _ in range(CERTIFY_BLOCKS):
        block = [pip_b1(), heptagon(), glued(), *(verify(s) for s in CERTIFY_VERIFY)]
        rng.shuffle(block)
        reqs.extend(block)
    return warmup, reqs


def certify_record(req: Request, code: int, outputs: list[str]):
    return (code, tuple(outputs))


def _check_round_trip(req: Request, text: str):
    doc = json.loads(text)
    if canonical(doc) != text:
        raise CheckFailed(f"output is not canonical JSON")
    return doc


def _check_polygon(req: Request, doc) -> "Polygon":
    from ehrpoly.jsonio import polygon_from_json, polygon_to_json
    P = polygon_from_json(doc, req.key)
    if polygon_to_json(P) != doc:
        raise CheckFailed(f"polygon does not round-trip")
    return P


def certify_check(req: Request, record) -> None:
    from ehrpoly.geometry import lattice_count_naive

    code, outputs = record
    if code != 0:
        raise CheckFailed(f"exit code {code}")
    doc = _check_round_trip(req, outputs[0])
    kind = req.argv[0] if req.argv[0] == "verify" else req.argv[1]
    if kind == "verify":
        if not (doc["passed"] and all(c["passed"] for c in doc["checks"])) \
                or doc["suite"] != req.argv[1] or not doc["checks"]:
            raise CheckFailed(f"suite did not pass")
    elif kind == "pip-b1":
        I = int(req.argv[3])
        P = _check_polygon(req, doc["final"])
        xlo, ylo, xhi, yhi = (math.floor(c) if i < 2 else math.ceil(c)
                              for i, c in enumerate(P.bounding_box()))
        grid = [(x, y) for x in range(xlo, xhi + 1) for y in range(ylo, yhi + 1)]
        inside = sum(P.contains_strict((Fraction(x), Fraction(y))) for x, y in grid)
        if (inside, lattice_count_naive(P, 1) - inside) != (I, 1):
            raise CheckFailed(f"signature is not ({I}, 1)")
        if len(doc["steps"]) != 4:
            raise CheckFailed(f"trace has {len(doc['steps'])} steps")
        try:
            root = ET.fromstring(outputs[1])
        except ET.ParseError as exc:
            raise CheckFailed(f"SVG is not well formed: {exc}") from None
        if root.tag != "{http://www.w3.org/2000/svg}svg":
            raise CheckFailed(f"SVG root is {root.tag}")
    elif kind == "heptagon":
        if len(doc["panels"]) != 2:
            raise CheckFailed(f"expected 2 panels")
        for panel in doc["panels"]:
            region = _shoelace(_vertices(panel["region"]))
            if sum(_shoelace(_vertices(p)) for p in panel["pieces"]) != region:
                raise CheckFailed(f"pieces of {panel['label']} do not tile it")
    elif kind == "glued":
        s, t = int(req.argv[3]), int(req.argv[5])
        P = _check_polygon(req, doc)
        den = math.lcm(*(c.denominator for v in P.vertices for c in v))
        if den != math.lcm(s, t):
            raise CheckFailed(f"denominator {den}, expected lcm(s, t)")


# name -> (make requests, record a response, check a record, block size)
WORKLOADS = {
    "search": (search_requests, search_record, search_check, SEARCH_BLOCK),
    "analyze": (analyze_requests, analyze_record, analyze_check, ANALYZE_BLOCK),
    "certify": (certify_requests, certify_record, certify_check, 3 + len(CERTIFY_VERIFY)),
}
