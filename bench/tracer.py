"""Spans around calls into each ehrpoly module, recorded from outside.

`Tracer.enable(True)` replaces every binding of each traced function across
the ``ehrpoly`` modules (including the copies that ``from .x import f``
made, and values of module-level dicts such as ``verify.SUITES``) with a
wrapper that records a span: layer name, start, end, parent span and request
id; `enable(False)` puts the originals back.  Spans live in flat arrays and
are written out by `write`.

A call made directly from a span of the same name is folded into it, so a
layer that calls itself (``region_from_json`` -> ``polygon_from_json``)
counts once.  Self time is a span's duration minus that of its children.
"""
from __future__ import annotations

import functools
import importlib
import operator
import sys
from array import array
from pathlib import Path
from time import perf_counter

# layer name -> (module, function names); several functions may share a name
LAYERS = {
    "geometry.lattice_count": ("geometry", ("lattice_count",)),
    "geometry.floor_sum": ("geometry", ("floor_sum",)),
    "geometry.boundary_count": ("geometry", ("boundary_count",)),
    "geometry.convex_hull": ("geometry", ("convex_hull",)),
    "geometry.integral_hull": ("geometry", ("integral_hull",)),
    "geometry.lattice_points": ("geometry", ("lattice_points",)),
    "ehrhart.ehrhart": ("ehrhart", ("ehrhart",)),
    "ehrhart.is_pip": ("ehrhart", ("is_pip",)),
    "ehrhart.period_sequence": ("ehrhart", ("EhrhartQuasiPolynomial.period_sequence",)),
    "ehrhart.mcmullen_indices": ("ehrhart", ("mcmullen_indices",)),
    "regions.region_count": ("regions", ("region_count",)),
    "regions.segment_count": ("regions", ("segment_count",)),
    "unimodular.apply_piecewise": ("unimodular", ("apply_piecewise",)),
    "unimodular.apply_disjoint": ("unimodular", ("apply_disjoint",)),
    "unimodular.iterate": ("unimodular", ("iterate",)),
    "constructions.scott_pip_search": ("constructions", ("scott_pip_search",)),
    "constructions.pip_b1": ("constructions", ("pip_b1",)),
    "constructions.heptagon_decomposition": ("constructions", ("heptagon_decomposition",)),
    "constructions.glued": ("constructions", ("glued",)),
    "constructions.integral_hull_proposition_check":
        ("constructions", ("integral_hull_proposition_check",)),
    "verify.pip": ("verify", ("verify_pip",)),
    "verify.heptagon": ("verify", ("verify_heptagon",)),
    "verify.glue": ("verify", ("verify_glue",)),
    "verify.transforms": ("verify", ("verify_transforms",)),
    "sampling.random_polygon": ("sampling", ("random_polygon",)),
    "jsonio.dumps": ("jsonio", ("dumps",)),
    "jsonio.parse": ("jsonio", ("load_document", "polygon_from_json",
                                "region_from_json", "vertex_from_json")),
    "svg.render_panels": ("svg", ("render_panels",)),
    "cli.main": ("cli", ("main",)),
}

# measures of each layer's spans: calls, total ms and self ms unless listed
MEASURES = dict.fromkeys(LAYERS, ("calls", "ms", "self_ms"))
MEASURES.update({
    "verify.pip": ("ms",), "verify.heptagon": ("ms",),
    "verify.glue": ("ms",), "verify.transforms": ("ms",),
    "cli.main": ("self_ms",),
})
# counts taken at the layer boundaries, and the tracing overhead
COUNTERS = ("geometry.lattice_points.points", "ehrhart.ehrhart.counts",
            "sampling.useful_ratio", "jsonio.bytes_out", "trace.overhead_ratio")


def metric_names() -> list[str]:
    """Every per-layer metric name."""
    return [f"{layer}.{m}" for layer, ms in MEASURES.items() for m in ms] + list(COUNTERS)


def metric_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes_out"):
        return "bytes"
    if name.endswith(".counts"):
        return "count/call"
    return "count"


class Tracer:
    """Wrappers for every traced binding, swapped in and out by `enable`."""

    def __init__(self):
        self.names = list(LAYERS)
        self.layer = array("i")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_request = -1
        self.points = 0
        self.draws = 0
        self.useful_draws = 0
        self.bytes_out = 0
        self.patches = self._patches()

    def _patches(self) -> list[tuple]:
        """(container, key, original, wrapped, setter) for every binding."""
        import ehrpoly  # noqa: F401  (loads every submodule)
        modules = [m for name, m in sys.modules.items()
                   if name == "ehrpoly" or name.startswith("ehrpoly.")]
        after = {
            "geometry.lattice_points": self._count_points,
            "sampling.random_polygon": self._count_draw,
            "jsonio.dumps": self._count_bytes,
        }
        patches = []
        for layer_id, (layer, (modname, funcs)) in enumerate(LAYERS.items()):
            mod = importlib.import_module(f"ehrpoly.{modname}")
            for fname in funcs:
                if "." in fname:
                    cls_name, meth = fname.split(".")
                    cls = getattr(mod, cls_name)
                    original = getattr(cls, meth)
                    patches.append((cls, meth, original,
                                    self._wrap(layer_id, original, after.get(layer)), setattr))
                    continue
                original = getattr(mod, fname)
                wrapped = self._wrap(layer_id, original, after.get(layer))
                for m in modules:
                    for attr, value in vars(m).items():
                        if value is original:
                            patches.append((m, attr, original, wrapped, setattr))
                        elif isinstance(value, dict):
                            patches.extend((value, k, original, wrapped, operator.setitem)
                                           for k, v in value.items() if v is original)
        return patches

    def enable(self, on: bool) -> None:
        for container, key, original, wrapped, put in self.patches:
            put(container, key, wrapped if on else original)

    def reset(self) -> None:
        """Drops every span and count; call between requests."""
        for a in (self.layer, self.parent, self.request, self.start, self.end):
            del a[:]
        self.points = self.draws = self.useful_draws = self.bytes_out = 0

    def _wrap(self, layer_id: int, fn, after):
        layer, parent_of, request_of = self.layer, self.parent, self.request
        start_of, end_of, stack = self.start, self.end, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent >= 0 and layer[parent] == layer_id:
                return fn(*args, **kwargs)
            i = len(layer)
            layer.append(layer_id)
            parent_of.append(parent)
            request_of.append(self.current_request)
            end_of.append(0.0)
            stack.append(i)
            start_of.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_of[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _count_points(self, result) -> None:
        self.points += len(result)

    def _count_draw(self, result) -> None:
        self.draws += 1
        self.useful_draws += result is not None

    def _count_bytes(self, result) -> None:
        self.bytes_out += len(result.encode())

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        n = len(self.layer)
        k = len(self.names)
        calls = [0] * k
        total = [0.0] * k
        child = [0.0] * n
        for i in range(n):
            d = self.end[i] - self.start[i]
            calls[self.layer[i]] += 1
            total[self.layer[i]] += d
            p = self.parent[i]
            if p >= 0:
                child[p] += d
        own = [0.0] * k
        for i in range(n):
            own[self.layer[i]] += self.end[i] - self.start[i] - child[i]

        ehr = self.names.index("ehrhart.ehrhart")
        rc = self.names.index("regions.region_count")
        under_ehrhart = array("b", bytes(n))
        counts = 0
        for i in range(n):
            p = self.parent[i]
            inside = p >= 0 and (self.layer[p] == ehr or under_ehrhart[p])
            under_ehrhart[i] = inside
            counts += inside and self.layer[i] == rc

        out = {}
        for layer_id, layer in enumerate(self.names):
            for m in MEASURES[layer]:
                if m == "calls":
                    out[f"{layer}.calls"] = calls[layer_id]
                elif m == "ms":
                    out[f"{layer}.ms"] = total[layer_id] * 1e3
                elif m == "self_ms":
                    out[f"{layer}.self_ms"] = own[layer_id] * 1e3
        out["geometry.lattice_points.points"] = self.points
        out["ehrhart.ehrhart.counts"] = counts / calls[ehr] if calls[ehr] else 0.0
        out["sampling.useful_ratio"] = self.useful_draws / self.draws if self.draws else 0.0
        out["jsonio.bytes_out"] = self.bytes_out
        return out

    def write(self, path: Path) -> None:
        """Spans as tab-separated lines: layer, start, end (seconds on the
        perf_counter clock), parent span index (-1 at the root), request."""
        with open(path, "w") as fh:
            fh.write("layer\tstart\tend\tparent\trequest\n")
            for i in range(len(self.layer)):
                fh.write(f"{self.names[self.layer[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.request[i]}\n")
