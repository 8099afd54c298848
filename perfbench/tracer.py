"""Per-layer tracing from outside the library.

``Tracer.install()`` wraps the public functions of each isomean layer.  A
function imported elsewhere with ``from … import`` is a second binding of
the same object, so every module of the package is searched and each
binding is replaced where it is looked up.  Methods are replaced on their
class.

Each wrapped call records a span (layer name, start, end, parent span).
Spans are kept in memory in flat arrays and written out once, at the end.
A layer's self time is its spans' total duration minus the time covered by
their child spans.  Counters are kept at the same boundaries.

A call of a layer from inside the same layer (``differentiate`` recursing
into itself) is not a new span: it is part of the outer one.
"""
from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

# Layer spans: (metric prefix, module, attribute, class or None).
SPANS = (
    ("parse", "isomean.parse", "parse", None),
    ("expr.compile_numpy", "isomean.expr", "compile_numpy", None),
    ("expr.differentiate", "isomean.expr", "differentiate", None),
    ("classify.monotonicity", "isomean.classify", "classify_monotonicity", None),
    ("classify.convexity", "isomean.classify", "classify_convexity", None),
    ("frame.generator_map", "isomean.frame", "generator_map", None),
    ("frame.value_many", "isomean.frame", "value_many", "GeneratorMap"),
    ("frame.derivative_many", "isomean.frame", "derivative_many", "GeneratorMap"),
    ("frame.invert", "isomean.frame", "invert", "GeneratorMap"),
    ("invert.invert_monotone", "isomean.invert", "invert_monotone", None),
    ("quadrature.integrate", "isomean.quadrature", "integrate", None),
    ("quadrature.endpoint_limit", "isomean.quadrature", "endpoint_limit", None),
    ("funmean.dvi_mean", "isomean.funmean", "dvi_mean", None),
    ("compare.compare_function_means", "isomean.compare", "compare_function_means", None),
    ("nummean.iso_mean", "isomean.nummean", "iso_mean", None),
    ("bivariate.cauchy", "isomean.bivariate", "cauchy_mean_report", None),
    ("bivariate.antiderivative", "isomean.bivariate", "__init__", "Antiderivative"),
    ("bivariate.antiderivative", "isomean.bivariate", "__call__", "Antiderivative"),
)

# The per-layer metrics a traced run reports, with their units.
METRICS = (
    ("parse.calls", "count"),
    ("parse.self_s", "s"),
    ("expr.compile_numpy.calls", "count"),
    ("expr.compile_numpy.self_s", "s"),
    ("expr.compiled.points", "count"),
    ("expr.compiled.self_s", "s"),
    ("expr.differentiate.self_s", "s"),
    ("expr.evaluate.calls", "count"),
    ("classify.monotonicity.self_s", "s"),
    ("classify.convexity.self_s", "s"),
    ("frame.generator_map.calls", "count"),
    ("frame.generator_map.self_s", "s"),
    ("frame.value_many.points", "count"),
    ("frame.value_many.self_s", "s"),
    ("frame.derivative_many.points", "count"),
    ("frame.derivative_many.self_s", "s"),
    ("frame.invert.calls", "count"),
    ("invert.invert_monotone.self_s", "s"),
    ("invert.invert_monotone.fevals", "count"),
    ("quadrature.integrate.calls", "count"),
    ("quadrature.integrate.self_s", "s"),
    ("quadrature.integrand_calls", "count"),
    ("quadrature.integrand_points", "count"),
    ("quadrature.endpoint_limit.calls", "count"),
    ("quadrature.endpoint_limit.windows", "count"),
    ("quadrature.endpoint_limit.stage_raw", "count"),
    ("quadrature.endpoint_limit.stage_noise_floor", "count"),
    ("quadrature.endpoint_limit.stage_extrapolated", "count"),
    ("quadrature.screen.flagged", "count"),
    ("funmean.dvi_mean.self_s", "s"),
    ("funmean.route.direct", "count"),
    ("funmean.route.limit", "count"),
    ("funmean.route.fallback", "count"),
    ("compare.compare_function_means.self_s", "s"),
    ("compare.decided", "count"),
    ("nummean.iso_mean.self_s", "s"),
    ("bivariate.cauchy.self_s", "s"),
    ("bivariate.antiderivative.self_s", "s"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # One entry per span, in start order.
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, name id, child time]
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._routes: list[dict] = []  # one context per active dvi_mean
        self._limit_depth = 0

    # -- spans -----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        """Wrap fn in a span named ``name``."""
        nid = self._id(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack and stack[-1][1] == nid:
                return fn(*args, **kwargs)
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            start = clock()
            self.span_start.append(start)
            self.span_end.append(start)
            stack.append([idx, nid, 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.span_end[idx] = end
                _, _, child = stack.pop()
                duration = end - start
                self.self_s[name] += duration - child
                if stack:
                    stack[-1][2] += duration
            return result

        return traced

    def reset(self):
        """Forget everything recorded so far (after warm-up)."""
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        self.self_s.clear()
        self.counts.clear()

    # -- installation ----------------------------------------------------

    def _replace(self, original, wrapped):
        """Rebind every module-level name of the package bound to original."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "isomean" or mod_name.startswith("isomean.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    def install(self):
        wrappers = {
            "parse": self._counted("parse"),
            "expr.compile_numpy": self._compile_numpy,
            "frame.generator_map": self._counted("frame.generator_map"),
            "frame.value_many": self._points("frame.value_many"),
            "frame.derivative_many": self._points("frame.derivative_many"),
            "frame.invert": self._counted("frame.invert"),
            "invert.invert_monotone": self._invert_monotone,
            "quadrature.integrate": self._integrate,
            "quadrature.endpoint_limit": self._endpoint_limit,
            "funmean.dvi_mean": self._dvi_mean,
            "compare.compare_function_means": self._compare,
        }
        for name, mod_name, attr, cls_name in SPANS:
            mod = sys.modules[mod_name]
            owner = getattr(mod, cls_name) if cls_name else mod
            original = getattr(owner, attr)
            make = wrappers.get(name)
            wrapped = make(original) if make else self.span(name, original)
            if cls_name:
                setattr(owner, attr, wrapped)
            else:
                self._replace(original, wrapped)
        self._wrap_plain("isomean.expr", "evaluate", "expr.evaluate.calls")
        self._wrap_screen()

    # -- wrappers with counters -------------------------------------------

    def _counted(self, name):
        def make(fn):
            inner = self.span(name, fn)

            def counted(*args, **kwargs):
                self.counts[f"{name}.calls"] += 1
                return inner(*args, **kwargs)

            return counted

        return make

    def _points(self, name):
        def make(fn):
            inner = self.span(name, fn)

            def counted(*args):
                self.counts[f"{name}.points"] += int(np.size(args[-1]))
                return inner(*args)

            return counted

        return make

    def _compile_numpy(self, fn):
        compile_counted = self._counted("expr.compile_numpy")(fn)
        wrap_compiled = self._points("expr.compiled")

        def compile_numpy(e):
            return wrap_compiled(compile_counted(e))

        return compile_numpy

    def _invert_monotone(self, fn):
        inner = self.span("invert.invert_monotone", fn)

        def invert_monotone(fval, *args, **kwargs):
            def counted(x):
                self.counts["invert.invert_monotone.fevals"] += 1
                return fval(x)

            return inner(counted, *args, **kwargs)

        return invert_monotone

    def _integrate(self, fn):
        inner = self.span("quadrature.integrate", fn)

        def integrate(integrand, *args, **kwargs):
            self.counts["quadrature.integrate.calls"] += 1
            if self._routes and self._limit_depth == 0:
                self._routes[-1]["direct"] += 1

            def counted(xs):
                self.counts["quadrature.integrand_calls"] += 1
                self.counts["quadrature.integrand_points"] += int(np.size(xs))
                return integrand(xs)

            return inner(counted, *args, **kwargs)

        return integrate

    def _endpoint_limit(self, fn):
        inner = self.span("quadrature.endpoint_limit", fn)

        def endpoint_limit(value_on, *args, **kwargs):
            self.counts["quadrature.endpoint_limit.calls"] += 1
            if self._routes:
                self._routes[-1]["limit"] += 1

            def counted(ak, bk):
                self.counts["quadrature.endpoint_limit.windows"] += 1
                return value_on(ak, bk)

            self._limit_depth += 1
            try:
                result = inner(counted, *args, **kwargs)
            finally:
                self._limit_depth -= 1
            stage = result[2].replace("-", "_")
            self.counts[f"quadrature.endpoint_limit.stage_{stage}"] += 1
            return result

        return endpoint_limit

    def _dvi_mean(self, fn):
        """Route of each mean, from what the call did:
        direct: quadrature, and no limit was tried;
        limit: the endpoint limit, and no whole-window quadrature before it;
        fallback: one route failed and the other answered."""
        inner = self.span("funmean.dvi_mean", fn)

        def dvi_mean(problem):
            self._routes.append({"direct": 0, "limit": 0})
            try:
                result = inner(problem)
            finally:
                ctx = self._routes.pop()
            if result.method == "quadrature":
                route = "fallback" if ctx["limit"] else "direct"
            elif result.method == "quadrature+endpoint-limit":
                route = "fallback" if ctx["direct"] else "limit"
            else:
                return result
            self.counts[f"funmean.route.{route}"] += 1
            return result

        return dvi_mean

    def _compare(self, fn):
        inner = self.span("compare.compare_function_means", fn)

        def compare_function_means(scenario):
            verdict = inner(scenario)
            if verdict.relation != "Undecided":
                self.counts["compare.decided"] += 1
            return verdict

        return compare_function_means

    def _wrap_plain(self, mod_name, attr, counter):
        original = getattr(sys.modules[mod_name], attr)

        def counted(*args, **kwargs):
            self.counts[counter] += 1
            return original(*args, **kwargs)

        self._replace(original, counted)

    def _wrap_screen(self):
        original = sys.modules["isomean.quadrature"].is_improper_near

        def is_improper_near(*args, **kwargs):
            flagged = original(*args, **kwargs)
            if flagged:
                self.counts["quadrature.screen.flagged"] += 1
            return flagged

        self._replace(original, is_improper_near)

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for name, _unit in METRICS:
            if name.endswith(".self_s"):
                layer = name[: -len(".self_s")]
                out[name] = self.self_s.get(layer, 0.0)
            else:
                out[name] = self.counts.get(name, 0)
        return out

    def write(self, path):
        """Write every span and the aggregates as one gzip-compressed JSON document."""
        doc = {
            "names": self.names,
            "columns": ["name", "parent", "start_s", "end_s"],
            "spans": {
                "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "start_s": self.span_start.tolist(),
                "end_s": self.span_end.tolist(),
            },
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
