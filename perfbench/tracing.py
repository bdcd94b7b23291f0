"""Span tracing for the benchmark's traced run.

``Tracer.install`` wraps a fixed set of afd functions and methods (the
``TARGETS`` below) so that every call records one span: which target, which
span called it, and when it started and ended.  Spans stay in memory in
compact arrays; ``Tracer.summary`` turns them into per-layer counts and self
times once the traced passes are over.  An untraced run never imports this
module, so its timings carry no wrapper cost.

A span's self time is its duration minus the durations of its direct child
spans.  Recursive calls (``poly_gcd`` through ``_content_pp``) are children
of the outer call, so summing self time over all spans of a target counts
every interval exactly once.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter

# (metric stem, module, attribute path).  The stem's first component is the
# layer: the afd module that defines the target.
TARGETS = (
    ("scalars.poly_gcd", "afd.scalars", "poly_gcd"),
    ("scalars.RatFunc.make", "afd.scalars", "RatFunc.make"),
    ("scalars.MultiPoly.mul", "afd.scalars", "MultiPoly.__mul__"),
    ("scalars.MultiPoly.exact_div", "afd.scalars", "MultiPoly.exact_div"),
    ("scalars.ExtElem.mul", "afd.scalars", "ExtElem.__mul__"),
    ("scalars.ExtElem.inverse", "afd.scalars", "ExtElem.inverse"),
    ("expr.parse_scalar", "afd.expr", "parse_scalar"),
    ("expr.render_scalar", "afd.expr", "render_scalar"),
    ("manifest.load_manifest", "afd.manifest", "load_manifest"),
    ("algebraifold.apply", "afd.algebraifold", "Algebraifold.apply"),
    ("tensors.metric_inverse", "afd.tensors", "metric_inverse"),
    ("tensors.lie_derivative", "afd.tensors", "lie_derivative"),
    ("curvature.levi_civita", "afd.curvature", "levi_civita"),
    ("curvature.curvature_tensor", "afd.curvature", "curvature_tensor"),
    ("curvature.ricci", "afd.curvature", "ricci"),
    ("curvature.covariant_derivative", "afd.curvature",
     "covariant_derivative"),
    ("curvature.koszul_rhs", "afd.curvature", "koszul_rhs"),
    ("maps.geodesic_residual", "afd.maps", "geodesic_residual"),
    ("maps.AlgebraifoldHom.build", "afd.maps", "AlgebraifoldHom.build"),
    ("report.run_command", "afd.report", "run_command"),
    ("report.emit_report", "afd.report", "emit_report"),
)

# Scalar kernels whose returned polynomials feed the size maxima.
SIZED = frozenset({"scalars.poly_gcd", "scalars.RatFunc.make",
                   "scalars.MultiPoly.mul", "scalars.MultiPoly.exact_div"})

GCD = "scalars.poly_gcd"


class SpanLog:
    """Spans in parallel arrays; span ids are indices, parents precede
    children, and a root span has parent -1."""

    def __init__(self):
        self.target = array("h")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")

    def __len__(self):
        return len(self.target)

    def add(self, target, parent, start, end):
        self.target.append(target)
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.target) - 1

    def self_times(self):
        """Per span: its duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[span] - self.start[span]
        return own

    def outermost(self, target):
        """Ids of spans of ``target`` with no ancestor span of ``target``."""
        inside = [False] * len(self)
        found = []
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                inside[span] = (inside[parent]
                                or self.target[parent] == target)
            if self.target[span] == target and not inside[span]:
                found.append(span)
        return found


class Tracer:
    """Installs span-recording wrappers and summarizes what they saw.

    Span times use a clock that stops while the tracer measures polynomial
    sizes, so that bookkeeping never lands in any span's self time.
    """

    def __init__(self):
        self.log = SpanLog()
        self.stems = [stem for stem, _, _ in TARGETS]
        self.max_terms = 0
        self.max_coeff_bits = 0
        self.constant_gcds = set()
        self._paused = 0.0
        self._stack = [-1]
        self._patches = []

    # -- installation

    def install(self):
        """Wrap every target wherever afd or a loaded script looks it up."""
        for target, (_, module_name, path) in enumerate(TARGETS):
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(target, raw.__func__))
                else:
                    wrapped = self._wrap(target, raw)
                self._patch(owner, attr, wrapped)
                continue
            original = getattr(module, path)
            wrapped = self._wrap(target, original)
            # ``from .x import f`` copies the name into each importer, so
            # patch every namespace that holds the original function.
            for namespace in list(sys.modules.values()):
                if getattr(namespace, "__dict__", {}).get(path) is original:
                    self._patch(namespace, path, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, target, fn):
        log, stack = self.log, self._stack
        sized = self.stems[target] in SIZED
        is_gcd = self.stems[target] == GCD
        tracer = self

        def traced(*args, **kwargs):
            span = log.add(target, stack[-1], perf_counter() - tracer._paused,
                           0.0)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                log.end[span] = perf_counter() - tracer._paused
                stack.pop()
            if sized and result is not None:
                paused_at = perf_counter()
                tracer._observe(result)
                if is_gcd and result.is_const:
                    tracer.constant_gcds.add(span)
                tracer._paused += perf_counter() - paused_at
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, value):
        polys = (value.num, value.den) if hasattr(value, "den") else (value,)
        for poly in polys:
            terms = poly.terms
            if len(terms) > self.max_terms:
                self.max_terms = len(terms)
            for coeff in terms.values():
                bits = max(coeff.numerator.bit_length(),
                           coeff.denominator.bit_length())
                if bits > self.max_coeff_bits:
                    self.max_coeff_bits = bits

    # -- summary

    def summary(self, passes):
        """Per-pass counts and self times for every target, plus maxima."""
        log = self.log
        calls = [0] * len(TARGETS)
        self_s = [0.0] * len(TARGETS)
        for target, own in zip(log.target, log.self_times()):
            calls[target] += 1
            self_s[target] += own
        metrics = {}
        for target, stem in enumerate(self.stems):
            metrics[f"{stem}.calls"] = (calls[target] / passes, "count")
            metrics[f"{stem}.self_s"] = (self_s[target] / passes, "s")
        outer = log.outermost(self.stems.index(GCD))
        trivial = sum(1 for span in outer if span in self.constant_gcds)
        metrics["scalars.poly_gcd.top_calls"] = (len(outer) / passes, "count")
        metrics["scalars.poly_gcd.trivial_ratio"] = (
            trivial / len(outer) if outer else 0.0, "ratio")
        metrics["scalars.max_terms"] = (self.max_terms, "count")
        metrics["scalars.max_coeff_bits"] = (self.max_coeff_bits, "bits")
        return metrics
