"""Spans and counters around hamlab's layers, installed from outside.

The tracer replaces module attributes: every public function defined in a
layer module is swapped for a wrapper that records a span, in that module
and in every other hamlab module that imported the same function object
(``cli`` binds ``write_csv`` by name, for example).  Internal calls look the
name up in the module globals, so ``bound_states -> schrodinger_a`` is seen
too.  Two counters need more than a span: ``CanonicalState`` constructions,
counted through the class's ``__post_init__``, and ``solve_ivp`` right-hand
side evaluations, counted by wrapping the ``solve_ivp`` name inside ``kdv``.

Spans stay in memory as ``[name, verdict, start, end, parent]`` lists;
self time is a span's duration minus the time its child spans cover.
Nothing under ``src/`` is modified; ``uninstall`` restores every attribute.
"""

from __future__ import annotations

import functools
import inspect
import os
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("canonical", "string", "line", "kdv", "cli", "csvio")

# Private names that carry a per-layer metric of their own.
EXTRA = {"cli": ("_source_revision",)}
# Per-cell helper: a span per CSV value would cost more than the work it
# measures; its time shows as csvio.write_csv self time.
SKIP = {"csvio": ("format_value",)}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_steps(counters, args, kwargs, result):
    counters["kdv.kdv_evolve.steps"] += int(_arg(args, kwargs, 2, "n_steps"))


def _count_roots(counters, args, kwargs, result):
    counters["kdv.bound_states.roots"] += len(result)


def _count_bytes(counters, args, kwargs, result):
    counters["csvio.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


# Counters read from a call's arguments or result, after its span closes.
AFTER = {
    "kdv.kdv_evolve": _count_steps,
    "kdv.bound_states": _count_roots,
    "csvio.write_csv": _count_bytes,
    "csvio.write_json": _count_bytes,
}


class Tracer:
    """Span recorder for one process; ``install`` patches, ``uninstall`` undoes."""

    def __init__(self, package):
        self.package = package
        self.modules = [package] + [getattr(package, layer) for layer in LAYERS]
        self.spans = []
        self.counters = Counter()
        self.verdict = None
        self._stack = []
        self._undo = []

    def _span_wrapper(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        after = AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.verdict, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if after is not None:
                after(counters, args, kwargs, result)
            return result

        return traced

    def _solve_ivp_wrapper(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            sol = fn(*args, **kwargs)
            counters["kdv.jost.rhs_evals"] += int(sol.nfev)
            return sol

        return counted

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        replace = {}
        for layer in LAYERS:
            mod = getattr(self.package, layer)
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in EXTRA.get(layer, ()):
                    continue
                if attr in SKIP.get(layer, ()):
                    continue
                replace[id(obj)] = self._span_wrapper(f"{layer}.{attr.lstrip('_')}", obj)
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    self._set(mod, attr, replace[id(obj)])
        kdv = self.package.kdv
        self._set(kdv, "solve_ivp", self._solve_ivp_wrapper(kdv.solve_ivp))

        state_cls = self.package.canonical.CanonicalState
        post_init = state_cls.__post_init__
        counters = self.counters

        def counted_post_init(state):
            counters["canonical.state_builds"] += 1
            post_init(state)

        self._set(state_cls, "__post_init__", counted_post_init)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self):
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        covered = [0.0] * len(self.spans)
        for name, verdict, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, verdict, start, end, parent) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - covered[i]
        return dict(out)

    def child_calls(self, child, parent):
        """Number of ``child`` spans whose direct parent is a ``parent`` span."""
        return sum(
            1
            for name, _, _, _, p in self.spans
            if name == child and p >= 0 and self.spans[p][0] == parent
        )
