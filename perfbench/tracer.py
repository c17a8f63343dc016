"""Per-layer spans for holoquant, recorded from outside the library.

``Tracer.install`` wraps every public function of the seven layer modules
at every place a holoquant module binds it: modules import each other's
functions by name (``transform`` and ``quantize`` both bind
``gauss_hermite``), so wrapping only the defining module would miss those
calls.  ``holoquant.quantize`` is reached through ``sys.modules`` because
the package attribute of that name is the ``quantize`` function.

A span is one call: its layer, function name, start, end and parent span.
Spans of one request share the request's index; the request itself is a
root span of the pseudo-layer ``request`` whose self time is whatever no
wrapped function covered.  Self time is a span's duration minus its
children's durations, so the self times of a request sum to its duration.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("quadrature", "fock", "holospace", "transform", "quantize", "su2", "cli")
REQUEST = "request"
# the metrics a traced run reports as its result, in order
PER_LAYER_METRICS = tuple(
    "%s.%s" % (layer, kind) for layer in LAYERS
    for kind in ("calls", "self_s", "share", "peak_alloc_mb")) + (
    "quadrature.nodes_built", "quadrature.distinct_ratio",
    "cli.emit_s", "cli.emit_mb", "cli.dispatch_s", "trace.overhead_rps")


def unit(metric):
    kind = metric.rsplit(".", 1)[1]
    if kind in ("calls", "nodes_built"):
        return "count"
    if kind in ("share", "distinct_ratio"):
        return "fraction"
    if kind.endswith("_mb"):
        return "MB"
    if kind.endswith("_rps"):
        return "1/s"
    return "s"


def layer_module(layer):
    import holoquant.cli  # noqa: F401  (imports every layer module)
    return sys.modules["holoquant." + layer]


def public_functions(module):
    """Functions the module defines and exports (``__all__``, else no ``_``)."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = []
    for name in names:
        value = getattr(module, name, None)
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            out.append(value)
    return out


class Span:
    __slots__ = ("id", "parent", "request", "layer", "name", "start", "end",
                 "base", "top", "peak", "note")

    def __init__(self, id_, parent, request, layer, name):
        self.id = id_
        self.parent = parent
        self.request = request
        self.layer = layer
        self.name = name
        self.peak = 0
        self.note = None

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {"id": self.id, "parent": self.parent, "request": self.request,
                "layer": self.layer, "name": self.name, "start": self.start,
                "end": self.end, "peak_bytes": self.peak, "note": self.note}


class Tracer:
    """Records spans while installed; ``memory=True`` adds per-call
    tracemalloc peaks (the caller starts and stops tracemalloc)."""

    def __init__(self, memory=False):
        self.memory = memory
        self.spans = []
        self._stack = []
        self._patched = []
        self._request = None

    # -------------------------------------------------------- install
    def install(self):
        wrappers = {}
        for layer in LAYERS:
            for fn in public_functions(layer_module(layer)):
                wrappers[id(fn)] = self._wrap(fn, layer)
        for name, module in list(sys.modules.items()):
            if name != "holoquant" and not name.startswith("holoquant."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, layer):
        tracer = self
        name = fn.__name__
        if layer == "quadrature":
            # every public quadrature function builds a rule: note its
            # argument tuple and node count
            def note(args, kwargs, result):
                return [repr((name, args, sorted(kwargs.items()))), len(result)]
        elif layer == "cli" and name == "emit":
            def note(args, kwargs, result):
                return len(result)
        else:
            note = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return traced

    # ---------------------------------------------------------- spans
    def _open(self, layer, name):
        stack = self._stack
        span = Span(len(self.spans), stack[-1].id if stack else None,
                    self._request, layer, name)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if stack:
                stack[-1].top = max(stack[-1].top, peak)
            tracemalloc.reset_peak()
            span.base = span.top = current
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        stack = self._stack
        stack.pop()
        if self.memory:
            span.top = max(span.top, tracemalloc.get_traced_memory()[1])
            span.peak = span.top - span.base
            if stack:
                stack[-1].top = max(stack[-1].top, span.top)
            tracemalloc.reset_peak()

    def request(self, index, call):
        """Run one request as a root span; returns the call's result."""
        self._request = index
        span = self._open(REQUEST, REQUEST)
        try:
            return call()
        finally:
            self._close(span)
            self._request = None

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


def self_times(spans):
    """Self time of every span: duration minus its children's durations."""
    child = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.duration
    return {span.id: span.duration - child[span.id] for span in spans}


def layer_metrics(spans, memory_spans=()):
    """Per-layer metrics from one traced phase (and one tracemalloc phase)."""
    own = self_times(spans)
    total = sum(s.duration for s in spans if s.parent is None)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for span in spans:
        calls[span.layer] += 1
        self_s[span.layer] += own[span.id]
    peak = defaultdict(int)
    for span in memory_spans:
        peak[span.layer] = max(peak[span.layer], span.peak)
    out = {}
    for layer in LAYERS + (REQUEST,):
        out[layer + ".calls"] = calls[layer]
        out[layer + ".self_s"] = self_s[layer]
        out[layer + ".share"] = self_s[layer] / total if total else 0.0
        out[layer + ".peak_alloc_mb"] = peak[layer] / 1e6
    builds = [s.note for s in spans
              if s.layer == "quadrature" and s.note is not None]
    out["quadrature.nodes_built"] = sum(n for _, n in builds)
    out["quadrature.distinct_ratio"] = (
        len({key for key, _ in builds}) / len(builds) if builds else 0.0)
    emits = [s for s in spans if s.layer == "cli" and s.name == "emit"]
    out["cli.emit_s"] = sum(own[s.id] for s in emits)
    out["cli.emit_mb"] = sum(s.note for s in emits if s.note) / 1e6
    out["cli.dispatch_s"] = out["cli.self_s"] - out["cli.emit_s"]
    out["request.total_s"] = total
    return out
