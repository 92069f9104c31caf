"""Span tracer for the per-layer metrics of the thetalab benchmark.

The tracer wraps the public functions and a few hot methods of each thetalab
module from outside the package.  Each wrapped call records one span (name,
start, end, parent) in flat arrays that live until the run ends; self time
is a span's duration minus the durations of its direct children.  Patching
replaces the module attribute, every other thetalab namespace that bound the
same object with ``from .x import y``, and module-level dicts holding it, so
callers that resolve the name at call time reach the wrapper.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = ("complexes", "subdivisions", "homology", "invariants", "polynomials",
          "harness", "cli")

# Methods traced with a span, by module and class.
TRACED_METHODS = {
    "complexes": {"SimplicialComplex": ("from_facets", "link")},
    "subdivisions": {"Triangulation": ("__init__", "validate", "restriction")},
    "polynomials": {"IntPoly": ("__add__", "__sub__", "__neg__", "__mul__",
                                "__rmul__", "__pow__", "shift")},
}
INTPOLY_OPS = tuple(f"polynomials.IntPoly.{m}"
                    for m in TRACED_METHODS["polynomials"]["IntPoly"])
BUILDERS = tuple(f"subdivisions.{f}" for f in (
    "identity", "barycentric", "antiprism", "stellar", "edgewise", "compose"))

# Per-layer metrics: name -> (kind, span names).  "calls" counts spans,
# "self" sums self time, "layer" sums self time over a whole module.
SPAN_METRICS = {
    "subdivisions.init.calls": ("calls", ("subdivisions.Triangulation.__init__",)),
    "subdivisions.init.self_s": ("self", ("subdivisions.Triangulation.__init__",)),
    "subdivisions.validate.self_s": ("self", ("subdivisions.Triangulation.validate",)),
    "subdivisions.restriction.calls": ("calls", ("subdivisions.Triangulation.restriction",)),
    "subdivisions.restriction.self_s": ("self", ("subdivisions.Triangulation.restriction",)),
    "subdivisions.build.self_s": ("self", BUILDERS),
    "subdivisions.self_s": ("layer", ("subdivisions",)),
    "complexes.from_facets.calls": ("calls", ("complexes.SimplicialComplex.from_facets",)),
    "complexes.from_facets.self_s": ("self", ("complexes.SimplicialComplex.from_facets",)),
    "complexes.link.calls": ("calls", ("complexes.SimplicialComplex.link",)),
    "complexes.link.self_s": ("self", ("complexes.SimplicialComplex.link",)),
    "complexes.self_s": ("layer", ("complexes",)),
    "homology.betti.calls": ("calls", ("homology.betti",)),
    "homology.betti.self_s": ("self", ("homology.betti",)),
    "homology.ball.calls": ("calls", ("homology.is_homology_ball",)),
    "homology.ball.self_s": ("self", ("homology.is_homology_ball",)),
    "homology.sphere.self_s": ("self", ("homology.is_homology_sphere",)),
    "homology.cm.self_s": ("self", ("homology.is_cohen_macaulay",
                                    "homology.is_cohen_macaulay_star")),
    "homology.self_s": ("layer", ("homology",)),
    "invariants.local_h.self_s": ("self", ("invariants.local_h",)),
    "invariants.h_poly.calls": ("calls", ("invariants.h_poly",)),
    "invariants.h_poly.self_s": ("self", ("invariants.h_poly",)),
    "invariants.theta.calls": ("calls", ("invariants.theta",)),
    "invariants.theta.self_s": ("self", ("invariants.theta",)),
    "invariants.self_s": ("layer", ("invariants",)),
    "polynomials.intpoly_ops.calls": ("calls", INTPOLY_OPS),
    "polynomials.self_s": ("layer", ("polynomials",)),
    "harness.self_s": ("layer", ("harness",)),
    "harness.verified_boundary.calls": ("calls", ("harness.verified_boundary",)),
    "cli.main.self_s": ("self", ("cli.main",)),
}
# Counts kept by hooks rather than spans.
COUNT_METRICS = ("subdivisions.faces_built", "complexes.faces.calls",
                 "homology.matrix_cells", "cli.output_bytes")


class Tracer:
    """Records spans around wrapped calls of one single-threaded run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, name, fn, after=None):
        """fn wrapped so that each call records a span; after(args, result)
        runs once the span has closed, to update counts."""
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, name, fn):
        """fn wrapped so that each call only bumps a counter (no span)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------ installing

    def install(self) -> None:
        """Wrap every traced function of the imported thetalab modules."""
        mods = {layer: importlib.import_module(f"thetalab.{layer}")
                for layer in LAYERS}
        namespaces = [m for n, m in sys.modules.items()
                      if n == "thetalab" or n.startswith("thetalab.")]
        complex_cls = mods["complexes"].SimplicialComplex
        self._faces = complex_cls.faces
        replaced: dict[int, object] = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or inspect.isclass(obj)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                replaced[id(obj)] = self.spanned(f"{layer}.{attr}", obj,
                                                 self._after(layer, attr))
            for cls_name, methods in TRACED_METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    name = f"{layer}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self.spanned(name, raw.__func__))
                    else:
                        wrapped = self.spanned(name, raw, self._after(layer, meth))
                    setattr(cls, meth, wrapped)
        complex_cls.faces = self.counted("complexes.faces.calls", self._faces)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in replaced:
                    setattr(ns, attr, replaced[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in replaced:
                            obj[key] = replaced[id(value)]

    def _after(self, layer: str, attr: str):
        counts, faces = self.counts, self._faces
        if (layer, attr) == ("subdivisions", "__init__"):
            def faces_built(args, _result):
                counts["subdivisions.faces_built"] += len(faces(args[0].total))
            return faces_built
        if (layer, attr) == ("homology", "betti"):
            def matrix_cells(args, _result):
                f = args[0].f_vector()
                counts["homology.matrix_cells"] += sum(
                    f[i] * f[i + 1] for i in range(len(f) - 1))
            return matrix_cells
        return None

    # ------------------------------------------------------------- reporting

    def metrics(self) -> dict[str, float]:
        """Additive per-layer metrics of this process, zero where a layer did
        no work; combine() turns those of a workload's processes into the
        reported metrics."""
        if len(self._stack) != 1:
            raise RuntimeError("metrics read while a traced call is open")
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = Counter()
        self_s: dict[str, float] = {}
        vb_missed: set[int] = set()
        names = self.names
        for i in range(n):
            name = names[self.name_id[i]]
            calls[name] += 1
            self_s[name] = self_s.get(name, 0.0) + (
                self.end[i] - self.start[i] - child[i])
            p = self.parent[i]
            if p >= 0 and names[self.name_id[p]] == "harness.verified_boundary":
                vb_missed.add(p)
        out: dict[str, float] = {}
        for metric, (kind, keys) in SPAN_METRICS.items():
            if kind == "calls":
                out[metric] = sum(calls[k] for k in keys)
            elif kind == "self":
                out[metric] = sum(self_s.get(k, 0.0) for k in keys)
            else:
                prefix = keys[0] + "."
                out[metric] = sum(v for k, v in self_s.items()
                                  if k.startswith(prefix))
        for metric in COUNT_METRICS:
            out[metric] = self.counts[metric]
        # A verified_boundary call is a memo hit when it reached no other
        # traced layer: a miss runs homology, the screen or from_facets.
        out[VB_HITS] = calls["harness.verified_boundary"] - len(vb_missed)
        return out


VB_HITS = "harness.verified_boundary.hits"


def combine(runs: list[dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics of a workload traced over one or more processes."""
    total: dict[str, float] = {}
    for metrics in runs:
        for name, value in metrics.items():
            total[name] = total.get(name, 0) + value
    hits = total.pop(VB_HITS, 0)
    calls = total.get("harness.verified_boundary.calls", 0)
    total["harness.ball_memo_hit_ratio"] = hits / calls if calls else 0.0
    return total


def unit(metric: str) -> str:
    if metric.endswith((".calls", "faces_built", "matrix_cells")):
        return "count"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_ratio"):
        return "ratio"
    return "s"
