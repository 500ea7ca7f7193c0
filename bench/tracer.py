"""In-memory spans around the public functions of every ``fucik`` module.

The library itself carries no instrumentation, so the traced run wraps it
from the outside.  :meth:`Tracer.install` replaces every public function
(and every public method of a public class) defined in a ``fucik.*``
module by a wrapper that records a span: name, layer, start, end, parent
span and thread.  The layer is the defining module's short name.

Three bindings need care:

* ``closedform``, ``grammatrix``, ``paleywiener`` and ``cli`` bind
  ``build``, ``breakpoints`` and ``inner_numeric`` through
  ``from ... import``; every module namespace (and the package's) is
  therefore scanned and each binding of a wrapped object is replaced,
  not only the defining one.
* ``FucikEigenfunction.__call__`` and ``inner_numeric`` resolve
  ``evaluate`` and ``integrate`` as module globals, so every call goes
  through the wrappers once the defining modules are patched.
* Gram assembly runs its quadrature entries in a thread pool.  Those
  threads start with an empty span stack, so a span opened there adopts
  the innermost span open on the installing thread (``build_gram``,
  which blocks until the pool drains).  Sibling spans then overlap in
  time, and self time subtracts the union of child intervals rather than
  their sum.

:meth:`Tracer.uninstall` restores every original binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict

import numpy as np

#: library modules in pipeline order; their short names are the layer names
LAYERS = ("spectrum", "eigenfunction", "closedform", "quadrature",
          "grammatrix", "nearness", "paleywiener", "cli")

FALLBACK_TAG = "near_diagonal_fallback"


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "thread", "work", "tag")

    def __init__(self, name, layer, start, parent, thread):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.work = 0
        self.tag = None


def _evaluate_points(span, args, kwargs):
    x = args[1] if len(args) > 1 else kwargs["x"]
    span.work = int(np.size(x))
    return args, kwargs


def _integrand_points(span, args, kwargs):
    # counts integrand evaluation points by wrapping the evaluator; the
    # nodes, panels and summation order stay those of the original call
    from fucik.quadrature import PiecewiseIntegrand

    g = args[0] if args else kwargs.pop("g")
    inner = g.evaluator

    def counted(x):
        span.work += int(np.size(x))
        return inner(x)

    return (PiecewiseIntegrand(counted, g.breakpoints),) + tuple(args[1:]), kwargs


def _gram_entries(span, args, kwargs):
    order = args[1] if len(args) > 1 else kwargs["N"]
    span.work = order * (order + 1) // 2
    return args, kwargs


#: per-function work counters, keyed by (layer, span name)
_BEFORE = {
    ("eigenfunction", "evaluate"): _evaluate_points,
    ("quadrature", "integrate"): _integrand_points,
    ("grammatrix", "build_gram"): _gram_entries,
}


class Tracer:
    """Span recorder; install around a traced phase, uninstall after it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._home_stack = None
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, name: str, fn):
        before = _BEFORE.get((layer, name))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                home = tracer._home_stack
                parent = home[-1] if home else None
            span = Span(name, layer, time.perf_counter(), parent, threading.get_ident())
            tracer.spans.append(span)
            stack.append(span)
            try:
                if before is not None:
                    args, kwargs = before(span, args, kwargs)
                result = fn(*args, **kwargs)
                span.tag = getattr(result, "formula_case", None)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function and method of the ``fucik.*`` modules."""
        import fucik

        modules = {layer: importlib.import_module(f"fucik.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    for meth_name, meth in list(vars(obj).items()):
                        if not meth_name.startswith("_") and inspect.isfunction(meth):
                            self._set(obj, meth_name,
                                      self._wrap(layer, f"{obj.__name__}.{meth_name}", meth))
                elif inspect.isfunction(inspect.unwrap(obj)):
                    wrappers[id(obj)] = (obj, self._wrap(layer, attr, obj))
        for namespace in (fucik, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(namespace, attr, hit[1])
        self._home_stack = self._stack()

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        self._home_stack = None

    def take(self) -> list[Span]:
        """Return and forget the spans recorded so far."""
        spans, self.spans = self.spans, []
        return spans


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _under(span: Span, name: str) -> bool:
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


class LayerTotals:
    """Per-layer counters summed over the ops of a traced phase."""

    def __init__(self):
        self.ops = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.evaluate_calls = 0
        self.points_evaluated = 0
        self.integrate_calls = 0
        self.integrand_points = 0
        self.tagged_results = 0
        self.fallback_results = 0
        self.assembly_s = 0.0
        self.entries = 0
        self.quad_entries = 0
        self.gram_quad_busy_s = 0.0
        self.eigensolve_s = 0.0
        self.payload_bytes = 0

    def add_op(self, spans: list[Span], payload_bytes: int) -> None:
        self.ops += 1
        self.payload_bytes += payload_bytes
        children = defaultdict(list)
        for s in spans:
            if s.parent is not None:
                children[id(s.parent)].append(s)
        for s in spans:
            kids = children.get(id(s))
            covered = 0.0
            if kids:
                covered = _union_length(
                    (max(k.start, s.start), min(k.end, s.end)) for k in kids)
            self.calls[s.layer] += 1
            self.self_s[s.layer] += (s.end - s.start) - covered
            if s.tag is not None:
                self.tagged_results += 1
                self.fallback_results += s.tag == FALLBACK_TAG
            if s.name == "evaluate":
                self.evaluate_calls += 1
                self.points_evaluated += s.work
            elif s.name == "integrate":
                self.integrate_calls += 1
                self.integrand_points += s.work
                if _under(s, "build_gram"):
                    self.gram_quad_busy_s += s.end - s.start
            elif s.name == "build_gram":
                self.assembly_s += s.end - s.start
                self.entries += s.work
            elif s.name == "jacobi_eigenvalues":
                self.eigensolve_s += s.end - s.start
            if s.name == "inner_numeric" and s.parent is not None \
                    and s.parent.name == "build_gram":
                self.quad_entries += 1

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-op means (counts and ms), plus the two ratios."""
        ops = max(self.ops, 1)
        out: dict[str, tuple[float, str]] = {}

        def per_op(name, value, unit):
            out[name] = (value / ops, unit)

        per_op("spectrum.calls", self.calls["spectrum"], "count/op")
        per_op("spectrum.self_ms", 1e3 * self.self_s["spectrum"], "ms/op")
        per_op("eigenfunction.evaluate_calls", self.evaluate_calls, "count/op")
        per_op("eigenfunction.points_evaluated", self.points_evaluated, "count/op")
        per_op("eigenfunction.self_ms", 1e3 * self.self_s["eigenfunction"], "ms/op")
        per_op("closedform.calls", self.calls["closedform"], "count/op")
        per_op("closedform.self_ms", 1e3 * self.self_s["closedform"], "ms/op")
        out["closedform.fallback_ratio"] = (
            self.fallback_results / self.tagged_results if self.tagged_results else 0.0,
            "ratio")
        per_op("quadrature.integrate_calls", self.integrate_calls, "count/op")
        per_op("quadrature.integrand_points", self.integrand_points, "count/op")
        per_op("quadrature.self_ms", 1e3 * self.self_s["quadrature"], "ms/op")
        per_op("grammatrix.assembly_ms", 1e3 * self.assembly_s, "ms/op")
        per_op("grammatrix.entries", self.entries, "count/op")
        per_op("grammatrix.quad_entries", self.quad_entries, "count/op")
        out["grammatrix.quad_busy_over_wall"] = (
            self.gram_quad_busy_s / self.assembly_s if self.assembly_s else 0.0, "ratio")
        per_op("grammatrix.eigensolve_ms", 1e3 * self.eigensolve_s, "ms/op")
        per_op("nearness.calls", self.calls["nearness"], "count/op")
        per_op("nearness.self_ms", 1e3 * self.self_s["nearness"], "ms/op")
        per_op("paleywiener.calls", self.calls["paleywiener"], "count/op")
        per_op("paleywiener.self_ms", 1e3 * self.self_s["paleywiener"], "ms/op")
        per_op("cli.self_ms", 1e3 * self.self_s["cli"], "ms/op")
        per_op("cli.payload_bytes", self.payload_bytes, "B/op")
        return out


def spans_to_records(spans: list[Span], op: int) -> list[dict]:
    """JSON-ready records of one op's spans; parents are given by position."""
    index = {id(s): i for i, s in enumerate(spans)}
    return [{"id": index[id(s)], "op": op, "name": s.name, "layer": s.layer,
             "start": s.start, "end": s.end, "parent": index.get(id(s.parent)),
             "thread": s.thread} for s in spans]
