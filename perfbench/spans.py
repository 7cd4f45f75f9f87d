"""Spans around the public functions of each nksl3 layer, for the traced run.

The wrappers are installed from the benchmark, not from the program: each
public function named in `TRACED` is replaced by a wrapper that records a
span (name, start, end, parent), and the wrapper is rebound in every nksl3
module and class that holds the original, so a name imported directly
(`from .nkgeom import curvature`) is traced as well.  Spans stay in memory
in flat arrays and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = ("exactfield", "linalg", "liealg", "nkgeom", "surfaces",
          "classify", "cli")

# (module, owner inside the module or None, attribute, span name)
TRACED = (
    ("exactfield", "FieldElem", "__mul__", "exactfield.mul"),
    ("exactfield", "FieldElem", "inv", "exactfield.inv"),
    ("linalg", None, "echelon", "linalg.echelon"),
    ("linalg", None, "rank", "linalg.rank"),
    ("linalg", None, "solve_in_span", "linalg.solve_in_span"),
    ("linalg", None, "invert", "linalg.invert"),
    ("linalg", None, "signature", "linalg.signature"),
    ("liealg", None, "bracket", "liealg.bracket"),
    ("liealg", None, "decompose", "liealg.decompose"),
    ("liealg", None, "metric", "liealg.metric"),
    ("liealg", None, "m_component", "liealg.m_component"),
    ("liealg", None, "dphi", "liealg.dphi"),
    ("liealg", None, "ad_numeric", "liealg.ad_numeric"),
    ("liealg", None, "structure_constants", "liealg.structure_constants"),
    ("liealg", "MVec", "to_matrix", "liealg.to_matrix"),
    ("liealg", "FullVec", "to_matrix", "liealg.to_matrix"),
    ("nkgeom", None, "curvature", "nkgeom.curvature"),
    ("nkgeom", None, "curvature_oracle", "nkgeom.curvature_oracle"),
    ("nkgeom", None, "oracle_sign", "nkgeom.oracle_sign"),
    ("nkgeom", None, "ricci", "nkgeom.ricci"),
    ("nkgeom", None, "einstein_constant", "nkgeom.einstein_constant"),
    ("nkgeom", None, "nabla", "nkgeom.nabla"),
    ("nkgeom", None, "nabla_tensor", "nkgeom.nabla_tensor"),
    ("nkgeom", None, "sectional", "nkgeom.sectional"),
    ("surfaces", None, "certify", "surfaces.certify"),
    ("surfaces", None, "exp_check", "surfaces.exp_check"),
    ("surfaces", None, "expm", "surfaces.expm"),
    ("surfaces", None, "coset_deviation", "surfaces.coset_deviation"),
    ("surfaces", None, "sff", "surfaces.sff"),
    ("surfaces", None, "generated_algebra_dimension",
     "surfaces.generated_algebra_dimension"),
    ("classify", None, "tangency_test", "classify.tangency_test"),
    ("classify", None, "in_span", "classify.in_span"),
    ("classify", None, "rational_tangency", "classify.rational_tangency"),
    ("classify", None, "curvature_table", "classify.curvature_table"),
    ("classify", None, "pin_case4", "classify.pin_case4"),
    ("classify", None, "eliminate_case2", "classify.eliminate_case2"),
    ("classify", None, "match_survivors", "classify.match_survivors"),
    ("cli", None, "main", "cli.main"),
    ("cli", None, "run", "cli.run"),
)


class Tracer:
    """Spans kept in flat arrays: span i has name id `name[i]`, times
    `start[i]`, `end[i]` (seconds from the tracer's origin) and the index
    of its enclosing span `parent[i]` (−1 at the root)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self._origin = time.perf_counter()
        self.curvature_calls = 0
        self.curvature_repeats = 0
        self._curvature_seen: set = set()

    def wrap(self, span_name: str, fn):
        nid = self._ids.setdefault(span_name, len(self._ids))
        if nid == len(self.names):
            self.names.append(span_name)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack, clock, origin = self._stack, time.perf_counter, self._origin

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock() - origin)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock() - origin
                stack.pop()
        return wrapper

    def observe_curvature(self, fn):
        """Count the curvature calls whose arguments were already seen."""
        @functools.wraps(fn)
        def observed(x, y, z):
            key = (x.coeffs, y.coeffs, z.coeffs)
            self.curvature_calls += 1
            if key in self._curvature_seen:
                self.curvature_repeats += 1
            else:
                self._curvature_seen.add(key)
            return fn(x, y, z)
        return observed

    def summary(self, wanted_inclusive: set[str]) -> tuple[Counter, Counter,
                                                            Counter, Counter]:
        """Span counts and outermost inclusive seconds per span name, and
        span counts and self seconds per layer.  A span's self time is its
        duration minus the durations of its child spans."""
        names, parents = self.names, self.parent
        duration = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(duration)
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += duration[i]
        calls, inclusive, layer_calls, layer_self = (Counter(), Counter(),
                                                     Counter(), Counter())
        for i, nid in enumerate(self.name):
            span = names[nid]
            layer = span.split(".", 1)[0]
            calls[span] += 1
            layer_calls[layer] += 1
            layer_self[layer] += duration[i] - child[i]
            if span in wanted_inclusive:
                p = parents[i]
                while p >= 0 and self.name[p] != nid:
                    p = parents[p]
                if p < 0:
                    inclusive[span] += duration[i]
        return calls, inclusive, layer_calls, layer_self

    def write(self, path) -> None:
        payload = {"names": self.names, "name": self.name.tolist(),
                   "start": self.start.tolist(), "end": self.end.tolist(),
                   "parent": self.parent.tolist()}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            json.dump(payload, handle)


def _rebind(original, replacement) -> None:
    """Replace every binding of `original` in the nksl3 modules and in the
    classes they define."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "nksl3"
                                  or module_name.startswith("nksl3.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
            elif (isinstance(value, type) and value.__module__ == module_name):
                for attr, member in list(vars(value).items()):
                    if member is original:
                        setattr(value, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the functions in `TRACED` and every CLI check thunk."""
    import importlib
    for module_name, owner, attr, span_name in TRACED:
        module = importlib.import_module(f"nksl3.{module_name}")
        holder = getattr(module, owner) if owner else module
        original = vars(holder)[attr] if owner else getattr(module, attr)
        wrapped = tracer.wrap(span_name, original)
        if span_name == "nkgeom.curvature":
            wrapped = tracer.observe_curvature(wrapped)
        _rebind(original, wrapped)

    cli = importlib.import_module("nksl3.cli")
    build_checks = cli.build_checks

    def traced_build_checks(spec):
        return [(name, anchor, tracer.wrap(f"cli.check.{name}", thunk))
                for name, anchor, thunk in build_checks(spec)]
    cli.build_checks = traced_build_checks


def layer_metrics(tracer: Tracer, metric_names: list[str]) -> dict[str, float]:
    """The per-layer metrics that come from spans, by name:
    `<layer>.calls` and `<layer>.self_s`, `<span>.calls` and `<span>.s`
    (outermost inclusive seconds), and `nkgeom.curvature.repeat_share`.
    Names of other forms are left to the caller."""
    wanted = {name[:-2] for name in metric_names if name.endswith(".s")}
    calls, inclusive, layer_calls, layer_self = tracer.summary(wanted)
    values: dict[str, float] = {}
    for name in metric_names:
        stem, _, kind = name.rpartition(".")
        if stem in LAYERS and kind == "calls":
            values[name] = layer_calls[stem]
        elif stem in LAYERS and kind == "self_s":
            values[name] = layer_self[stem]
        elif name == "nkgeom.curvature.repeat_share":
            values[name] = (tracer.curvature_repeats
                            / max(tracer.curvature_calls, 1))
        elif kind == "calls":
            values[name] = calls[stem]
        elif kind == "s" and stem.split(".", 1)[0] in LAYERS:
            values[name] = inclusive[stem]
    return values
