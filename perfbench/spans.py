"""In-memory span tracer for the benchmark's traced run.

The tracer wraps, from outside the package, the public functions of every
``mdprolate`` module plus the heavy ``numpy.linalg`` solvers, and records
one span per call: name, start, end, parent span, op id and thread.  Spans
stay in memory until :meth:`Tracer.dump` writes them out.

Wiring rules:

* ``cli``, ``dictionary`` and ``verify`` import functions by name, so a
  function is rebound in every ``mdprolate`` module that holds it, not only
  in the module that defines it.  :meth:`Tracer.installed` restores every
  binding on exit.
* Work submitted to a ``ThreadPoolExecutor`` created by ``cli`` or
  ``verify`` runs under the span that submitted it, so worker spans attach
  to the op that launched them.
* Self time is a span's duration minus the union of its children's
  intervals clipped to the span, so it is never negative.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

LAYERS = ("cli", "bands", "prolate", "operator", "parallelepiped",
          "dictionary", "verify", "reports")
LINALG = ("eigh", "eigvalsh", "svd")
# Per-element helpers: a span would cost more than the work it times
# (format_float runs once per CSV cell), so their time stays with the caller.
UNTRACED = {"reports.format_float", "operator.vec", "operator.ivec"}
# Public methods traced alongside the module-level functions.
METHODS = (("dictionary", "Dictionary", "gram"),)
POOL_MODULES = ("cli", "verify")


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    thread: int


def _eig_bytes(args, _result) -> int:
    """Input matrix size computed from its dtype and shape."""
    return np.asarray(args[0]).nbytes


def _matrix_bytes(_args, result) -> int:
    return result.matrix.nbytes


# span name -> [(counter name, fn(args, result) -> amount, or None for 1)]
COUNTERS = {
    "linalg.eigh": [("linalg.eig.calls", None), ("linalg.eig.input_bytes", _eig_bytes)],
    "linalg.eigvalsh": [("linalg.eig.calls", None),
                        ("linalg.eig.input_bytes", _eig_bytes)],
    "operator.materialize_cubic": [("operator.materialize_cubic.bytes", _matrix_bytes)],
    "parallelepiped.pp_materialize": [("parallelepiped.pp_materialize.bytes",
                                       _matrix_bytes)],
    "operator.spectrum": [("operator.eigvecs_computed",
                           lambda _args, result: result.eigenvalues.size)],
    "operator.apply_cubic": [("operator.apply_cubic.calls", None)],
    "prolate.dpss": [("prolate.dpss.calls", None)],
    "dictionary.sample_signal": [("dictionary.sample_signal.calls", None)],
    "dictionary.project": [("dictionary.project.calls", None)],
    "reports.write_text_atomic": [("reports.files_written", None),
                                  ("reports.bytes_written",
                                   lambda args, _result: os.path.getsize(args[0]))],
}


class Tracer:
    """Collects spans and counters for ops run while it is installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple[int | None, str], float] = defaultdict(float)
        self.op: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, name: str, fn):
        counters = COUNTERS.get(name, ())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            op = self.op
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent, op,
                                       threading.get_ident()))
            for counter, amount in counters:
                value = 1 if amount is None else amount(args, result)
                with self._lock:
                    self.counts[(op, counter)] += value
            return result
        return traced

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            """Runs each job under the span current at submit time."""

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def job():
                    stack = tracer._stack()
                    saved = list(stack)
                    stack[:] = [] if parent is None else [parent]
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        stack[:] = saved
                return super().submit(job)
        return TracedPool

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function for the duration of the block."""
        modules = {layer: importlib.import_module(f"mdprolate.{layer}")
                   for layer in LAYERS}
        package = importlib.import_module("mdprolate")
        targets = {}  # id(original) -> (original, wrapper)
        for layer, module in modules.items():
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr, None)
                name = f"{layer}.{attr}"
                if (callable(obj) and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == module.__name__
                        and name not in UNTRACED):
                    targets[id(obj)] = (obj, self.wrap(name, obj))
        saved = []  # (namespace object, attribute, original)
        for namespace in (*modules.values(), package):
            for attr, obj in list(vars(namespace).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    saved.append((namespace, attr, obj))
                    setattr(namespace, attr, hit[1])
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[method]
            saved.append((cls, method, original))
            setattr(cls, method, self.wrap(f"{layer}.{method}", original))
        for solver in LINALG:
            original = getattr(np.linalg, solver)
            saved.append((np.linalg, solver, original))
            setattr(np.linalg, solver, self.wrap(f"linalg.{solver}", original))
        pool = self._pool_class()
        for layer in POOL_MODULES:
            saved.append((modules[layer], "ThreadPoolExecutor",
                          modules[layer].ThreadPoolExecutor))
            modules[layer].ThreadPoolExecutor = pool
        try:
            yield self
        finally:
            for namespace, attr, original in reversed(saved):
                setattr(namespace, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> self time (duration minus covered child intervals)."""
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        out = {}
        for span in self.spans:
            out[span.id] = (span.end - span.start) - _covered(
                span.start, span.end, children.get(span.id, ()))
        return out

    def summary(self, ops) -> dict[str, float]:
        """Per-op means over ``ops`` of self time per span name and per
        layer, plus every counter."""
        ops = set(ops)
        selfs = self.self_times()
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.op in ops:
                layer = span.name.split(".", 1)[0]
                totals[f"{span.name}.self_s"] += selfs[span.id]
                totals[f"{layer}.self_s"] += selfs[span.id]
        for (op, counter), value in self.counts.items():
            if op in ops:
                totals[counter] += value
        return {key: value / max(len(ops), 1) for key, value in totals.items()}

    def dump(self, path, header: dict) -> None:
        """Write the header line, then one JSON object per span."""
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps({
                    "id": span.id, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent, "op": span.op,
                    "thread": span.thread, "self_s": selfs[span.id]}) + "\n")


def _covered(start: float, end: float, spans) -> float:
    """Length of the union of the spans' intervals clipped to [start, end]."""
    intervals = sorted((max(s.start, start), min(s.end, end)) for s in spans)
    covered, reach = 0.0, start
    for lo, hi in intervals:
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered
