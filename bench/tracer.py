"""Spans around the public functions of the spinlattice modules, recorded
from outside the package.

``Tracer.install`` wraps every public function and public method that a
layer module defines, and rebinds each wrapper wherever the original is
bound: a name imported with ``from .x import y`` is a separate binding in
every module that imports it.  ``Tracer.uninstall`` restores the originals.
A span records its job id, parent span, name, start and end; spans stay in
memory until ``write`` saves them.
"""

import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy
import scipy.linalg

PACKAGE = "spinlattice"
LAYERS = ("cli", "serialize", "triples", "linalg", "lattice", "transfer",
          "weyl", "inverse", "evolution", "verify")

# Element-wise helpers called tens of thousands of times per job; their cost
# stays in the caller's self time instead of doubling the span count.
UNTRACED = {"linalg": {"as_matrix", "eye", "frob", "herm"}}

# Spans named after what they compute rather than after the Python name.
ALIASES = {
    "weyl.__call__": "weyl.phi",
    "inverse.__call__": "inverse.phi",
    "weyl.summability_diagnostic": "weyl.summability",
}


class _CountingStream:
    """Forwards writes to a text stream and counts the characters written."""

    def __init__(self, stream):
        self.stream = stream
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return self.stream.write(text)


class Tracer:
    def __init__(self):
        self.spans = []        # (job, parent index, name, start, end)
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._undo = []

    def _wrap(self, fn, name, name_of=None, post=None, pre=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span_name = name_of(args, kwargs) if name_of else name
            token = pre(args) if pre else None
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (self.job, stack[-1] if stack else -1,
                                span_name, start, end)
            if post:
                post(token, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _hooks(self, name, fn):
        """Counters kept at a span boundary beyond calls and time, and spans
        that split by argument."""
        counts = self.counts
        if name == "lattice.generate":
            def post(_, state):
                counts["lattice.states_built"] += 1
            return fn, {"post": post}
        if name == "inverse.solve_riccati":
            def post(_, solution):
                counts["inverse.newton_iterations"] += solution.newton_iterations
            return fn, {"post": post}
        if name == "transfer.w":
            # a call that grows the per-instance cache computed a new W(n, lam)
            def pre(args):
                return args[0], len(args[0]._cache)

            def post(token, _):
                transfer, before = token
                counts["transfer.w.distinct"] += len(transfer._cache) - before
            return fn, {"pre": pre, "post": post}
        if name == "serialize.dumps":
            def post(_, text):
                counts["serialize.out_bytes"] += len(text.encode())
            return fn, {"post": post}
        if name == "serialize.write_csv":
            def write_csv(stream, header, rows):
                counting = _CountingStream(stream)
                try:
                    return fn(counting, header, rows)
                finally:
                    counts["serialize.out_bytes"] += counting.chars
            return write_csv, {}
        if name == "evolution.evolve_sigma0":
            # evolve_sigma0(triple, t, method="sylvester", ...)
            def name_of(args, kwargs):
                method = args[2] if len(args) > 2 else "sylvester"
                return f"{name}_{kwargs.get('method', method)}"
            return fn, {"name_of": name_of}
        return fn, {}

    def _targets(self):
        """(owner, attribute, function, span name) for each traced callable."""
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            skip = UNTRACED.get(layer, ())
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or attr in skip:
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield module, attr, obj, f"{layer}.{attr}"
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (
                                meth == "__call__" or not meth.startswith("_")):
                            yield obj, meth, fn, f"{layer}.{meth}"

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self):
        functions = {}
        for owner, attr, original, name in list(self._targets()):
            name = ALIASES.get(name, name)
            fn, hooks = self._hooks(name, original)
            wrapper = self._wrap(fn, name, **hooks)
            if inspect.isclass(owner):
                self._set(owner, attr, wrapper)
            else:
                functions[original] = wrapper
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != PACKAGE:
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in functions:
                    self._set(module, attr, functions[obj])
        verify = sys.modules[f"{PACKAGE}.verify"]
        for registry in (verify._GENERAL_CHECKS, verify._EVOLUTION_CHECKS):
            for check, fn in list(registry.items()):
                self._set(registry, check, self._wrap(fn, f"verify.check.{check}"))
        self._set(numpy.linalg, "eigvals",
                  self._wrap(numpy.linalg.eigvals, "linalg.eigvals"))
        self._set(scipy.linalg, "expm",
                  self._wrap(scipy.linalg.expm, "evolution.expm"))

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    def take(self):
        """Spans and counts recorded since the last call; resets both."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def summarize(spans):
    """Per span name: calls, inclusive seconds and self seconds.

    Self time is a span's duration minus the durations of its child spans.
    """
    child = [0.0] * len(spans)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, total, own = Counter(), defaultdict(float), defaultdict(float)
    for index, (_, _, name, start, end) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - child[index]
    return calls, total, own


def write(path, spans):
    """Save spans as CSV rows: index, job, parent index, name, start, end."""
    with open(path, "w") as handle:
        handle.write("index,job,parent,name,start,end\n")
        for index, (job, parent, name, start, end) in enumerate(spans):
            handle.write(f"{index},{job},{parent},{name},{start!r},{end!r}\n")
