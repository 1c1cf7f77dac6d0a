"""In-memory span tracer for the rrteig benchmark, built from the
benchmark's own files: it wraps the library's public functions from the
outside and changes no file of the library.

Every public module-level function of the layer modules is replaced, in
every ``rrteig`` namespace that binds it, by a wrapper that records one
span (name, start, end, parent, op id).  ``cli`` imports its callees with
``from .x import f``, so patching only the defining module would miss
those calls.  scipy's ``splu`` and ``eigsh`` are wrapped too: they give
the factor and iterate spans, the L+U fill and the matvec count.

Attribution limit: methods (``FieldSample`` evaluators,
``PostprocessedField.eval_cell``), closures and private helpers are not
wrapped.  Their time counts in the self time of the public function that
called them.  The scipy spans sit inside their caller's module self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("mesh", "assembly", "eigensolve", "exact", "postprocess",
          "analysis", "equivalence", "cli")

ATTRIBUTION = (
    "spans wrap public module-level rrteig functions and scipy splu/eigsh; "
    "methods (FieldSample evaluators, PostprocessedField.eval_cell), "
    "closures and private helpers count in their caller's self time; "
    "factor/iterate spans count inside their module's self time"
)


def layer_metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.self_s", "s"), (f"{layer}.calls", "count"),
                (f"{layer}.errors", "count")]
    out += [
        ("eigensolve.cells", "count"),
        ("eigensolve.factor_s", "s"),
        ("eigensolve.factor_calls", "count"),
        ("eigensolve.factor_nnz", "count"),
        ("eigensolve.iterate_s", "s"),
        ("eigensolve.iterate_calls", "count"),
        ("eigensolve.matvecs", "count"),
        ("cli.emit_s", "s"),
        ("cli.emit_bytes", "bytes"),
    ]
    return out


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "error", "count")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.error = None  # RRTError class name when one left the span
        self.count = None  # work count of the call (cells, nnz, matvecs, bytes)


class Tracer:
    """Records spans while ``active(op)`` is entered; inert otherwise."""

    def __init__(self):
        import scipy.sparse.linalg as spla
        from rrteig.errors import RRTError

        self._rrt_error = RRTError
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = None
        self._patches = []

        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"rrteig.{layer}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        namespaces = [sys.modules["rrteig"]] + [
            sys.modules[m] for m in sorted(sys.modules)
            if m.startswith("rrteig.")
        ]
        for ns in namespaces:
            for name, obj in vars(ns).items():
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patches.append((ns, name, obj, wrappers[id(obj)]))
        self._patches.append(
            (spla, "splu", spla.splu, self._wrap("scipy.splu", spla.splu)))
        self._patches.append(
            (spla, "eigsh", spla.eigsh, self._wrap_eigsh(spla.eigsh, spla)))

    @contextmanager
    def active(self, op: int):
        """Patch the wrappers in for one traced op, then restore."""
        self._op = op
        for ns, name, _, wrapper in self._patches:
            setattr(ns, name, wrapper)
        try:
            yield
        finally:
            for ns, name, original, _ in self._patches:
                setattr(ns, name, original)
            self._op = None

    def _call(self, name, fn, args, kwargs, count=None):
        stack = self._stack
        span = Span(name, stack[-1] if stack else None, self._op)
        stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except self._rrt_error as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = perf_counter()
            stack.pop()
        if count is not None:
            span.count = count(args, result)
        return result

    def _wrap(self, name, fn):
        count = _COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs, count)

        return wrapper

    def _wrap_eigsh(self, eigsh, spla):
        @functools.wraps(eigsh)
        def wrapper(A, *args, **kwargs):
            base = spla.aslinearoperator(A)
            calls = [0]

            def matvec(x):
                calls[0] += 1
                return base.matvec(x)

            counted = spla.LinearOperator(base.shape, matvec=matvec,
                                          dtype=base.dtype)
            return self._call("scipy.eigsh", eigsh, (counted,) + args,
                              kwargs, lambda _a, _r: calls[0])

        return wrapper

    # ------------------------------------------------------------------
    # aggregation

    def _layer(self, idx):
        """Nearest layer-module span at or above ``idx`` (its layer name)."""
        while idx is not None:
            layer = self.spans[idx].name.split(".")[0]
            if layer in LAYERS:
                return idx, layer
            idx = self.spans[idx].parent
        return None, None

    def op_metrics(self, op: int) -> dict:
        """Per-layer metrics of one traced op."""
        m = {name: 0.0 if unit == "s" else 0
             for name, unit in layer_metric_names()}
        child = {}  # layer span -> time of its child layer spans
        # children follow their parent in the list: visit them first
        for i in reversed(range(len(self.spans))):
            s = self.spans[i]
            if s.op != op:
                continue
            dur = s.end - s.start
            layer = s.name.split(".")[0]
            owner, owner_layer = self._layer(s.parent)
            if layer in LAYERS:
                if owner is not None:
                    child[owner] = child.get(owner, 0.0) + dur
                m[f"{layer}.self_s"] += dur - child.get(i, 0.0)
                m[f"{layer}.calls"] += 1
                if s.error is not None and owner_layer != layer:
                    m[f"{layer}.errors"] += 1
                if s.name == "eigensolve.solve_mixed_eigs":
                    m["eigensolve.cells"] += s.count or 0
                elif s.name == "cli.emit_tables":
                    m["cli.emit_s"] += dur
                    m["cli.emit_bytes"] += s.count or 0
            elif owner_layer == "eigensolve":
                kind = "factor" if s.name == "scipy.splu" else "iterate"
                m[f"eigensolve.{kind}_s"] += dur
                m[f"eigensolve.{kind}_calls"] += 1
                m["eigensolve.factor_nnz" if kind == "factor"
                  else "eigensolve.matvecs"] += s.count or 0
        return m

    def dump(self, path):
        """Write every span as one JSON line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, "error": s.error,
                    "count": s.count,
                }) + "\n")


def median_metrics(per_op: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in per_op) for k in per_op[0]}


_COUNTS = {
    # SuperLU.nnz is the stored L+U fill, supernodal padding included
    "scipy.splu": lambda _a, lu: lu.nnz,
    "eigensolve.solve_mixed_eigs": lambda args, _r: args[0].layout.n_cell,
    "cli.emit_tables": lambda _a, paths: sum(os.path.getsize(p) for p in paths),
}
