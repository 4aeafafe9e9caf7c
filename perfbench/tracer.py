"""Outside-in span tracing of tracelab's layers, with no edit to tracelab.

`Tracer.install()` wraps every public entry point of the layer modules:
module-level functions, the public methods of their classes, and the
arithmetic operators of `Matrix`.  Modules import each other's functions by
name (`homological` holds its own `kernel`, `verifier` its own `trace`), so
each wrapper replaces the original in every `tracelab.*` namespace that holds
it, and in function defaults such as `suite_section1(trace_fn=trace)`.
`uninstall()` puts every original back.

A span is (name, parent span, start, end), kept in flat arrays; a span's self
time is its duration minus the durations of its direct children.  The
scalar classes (`FpValue` and the two field classes) are not wrapped: a span
per scalar operation would cost more than the operation, so scalar time is
counted in the linalg span that performs it.
"""

from __future__ import annotations

import sys
import time
from array import array

LAYERS = ("linalg", "artin", "homological", "semigroup", "verifier", "cli", "textio")
SCALAR_CLASSES = {"FpValue", "RationalField", "PrimeField"}
OPERATORS = {"__matmul__", "__add__", "__sub__", "__neg__"}
MARK = "__perfbench_span__"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _cells(args, kwargs, result):
    m = _arg(args, kwargs, 0, "m")
    return m.nrows * m.ncols


def _solve_cells(args, kwargs, result):
    m, rhs = _arg(args, kwargs, 0, "m"), _arg(args, kwargs, 1, "rhs")
    return m.nrows * (m.ncols + rhs.ncols)


def _from_vectors_cells(args, kwargs, result):
    # Called through the classmethod, so args[0] is the class.
    return len(_arg(args, kwargs, 3, "vectors")) * _arg(args, kwargs, 2, "ambient_dim")


def _matmul_cells(args, kwargs, result):
    a, b = args
    return a.nrows * a.ncols * b.ncols


def _dim_product(args, kwargs, result):
    return args[0].dim * args[1].dim


def _checks(args, kwargs, result):
    return result.checks


# Work done by one call, for the entry points whose work is counted.
WORK = {
    "linalg.kernel": _cells,
    "linalg.rank": _cells,
    "linalg.reduce": _cells,
    "linalg.solve": _solve_cells,
    "linalg.Subspace.from_vectors": _from_vectors_cells,
    "linalg.Matrix.__matmul__": _matmul_cells,
    "homological.hom_module": _dim_product,
    "homological.tensor_product": _dim_product,
    "verifier.suite_section1": _checks,
    "verifier.suite_section2": _checks,
    "verifier.suite_section3": _checks,
}
# Entry points whose calls are also tested for an argument pair seen before.
REPEAT_KEYED = {"homological.hom_module"}

# Per-layer metric groups: metric prefix -> span names it covers.
GROUPS = {
    "linalg.apply": ("linalg.Matrix.apply",),
    "linalg.elim": (
        "linalg.kernel",
        "linalg.rank",
        "linalg.reduce",
        "linalg.solve",
        "linalg.Subspace.from_vectors",
    ),
    "linalg.matmul": ("linalg.Matrix.__matmul__",),
    "artin.element_action": ("artin.ModuleRep.element_action",),
    "artin.build_algebra": ("artin.build_algebra",),
    "artin.span_submodule": ("artin.span_submodule",),
    "artin.as_module": ("artin.Submodule.as_module",),
    "artin.torsion_submodule": ("artin.torsion_submodule",),
    "homological.hom_module": ("homological.hom_module",),
    "homological.tensor_product": ("homological.tensor_product",),
    "semigroup.sumset": ("semigroup.sumset",),
    "semigroup.colon": ("semigroup.colon",),
    "semigroup.power_m": ("semigroup.power_m",),
}
# The group metrics reported, as (group, suffix).
GROUP_METRICS = (
    ("linalg.apply", "calls"),
    ("linalg.apply", "self_s"),
    ("linalg.elim", "calls"),
    ("linalg.elim", "cells"),
    ("linalg.elim", "self_s"),
    ("linalg.matmul", "calls"),
    ("linalg.matmul", "cells"),
    ("linalg.matmul", "self_s"),
    ("artin.element_action", "calls"),
    ("artin.element_action", "self_s"),
    ("artin.build_algebra", "calls"),
    ("artin.build_algebra", "self_s"),
    ("artin.span_submodule", "calls"),
    ("artin.span_submodule", "self_s"),
    ("artin.as_module", "calls"),
    ("artin.torsion_submodule", "calls"),
    ("homological.hom_module", "calls"),
    ("homological.hom_module", "unknowns"),
    ("homological.hom_module", "self_s"),
    ("homological.tensor_product", "calls"),
    ("homological.tensor_product", "kron_dim"),
    ("homological.tensor_product", "self_s"),
    ("semigroup.sumset", "calls"),
    ("semigroup.sumset", "self_s"),
    ("semigroup.colon", "calls"),
    ("semigroup.colon", "self_s"),
    ("semigroup.power_m", "calls"),
)


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio") or metric.endswith("overhead"):
        return "ratio"
    return "count"


def _tracelab_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "tracelab" or name.startswith("tracelab.")]


class Tracer:
    """Installs span wrappers on tracelab and turns the spans into metrics."""

    def __init__(self):
        self.span_names = []  # name id -> span name
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.works = {}  # span index -> work count, for counted entry points
        self.repeats = {}  # span name -> calls with an argument pair seen before
        self._seen_pairs = {}
        self._keepalive = []  # arguments of repeat-keyed calls, so ids stay unique
        self._stack = [-1]
        self._restore = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, span_name):
        nid = len(self.span_names)
        self.span_names.append(span_name)
        names, parents, starts, ends, stack = self.names, self.parents, self.starts, self.ends, self._stack
        clock = time.perf_counter
        work = WORK.get(span_name)
        if work is None:

            def wrapper(*args, **kwargs):
                idx = len(names)
                names.append(nid)
                parents.append(stack[-1])
                starts.append(0.0)
                ends.append(0.0)
                stack.append(idx)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    starts[idx] = t0
                    stack.pop()

        else:
            works = self.works
            repeat_keyed = span_name in REPEAT_KEYED
            if repeat_keyed:
                seen = self._seen_pairs.setdefault(span_name, set())
                self.repeats[span_name] = 0

            def wrapper(*args, **kwargs):
                idx = len(names)
                names.append(nid)
                parents.append(stack[-1])
                starts.append(0.0)
                ends.append(0.0)
                stack.append(idx)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    starts[idx] = t0
                    stack.pop()
                works[idx] = work(args, kwargs, result)
                if repeat_keyed:
                    key = (id(args[0]), id(args[1]))
                    if key in seen:
                        self.repeats[span_name] += 1
                    else:
                        seen.add(key)
                        self._keepalive.append(args[:2])
                return result

        setattr(wrapper, MARK, span_name)
        wrapper.__wrapped__ = fn
        return wrapper

    def _entry_points(self, module):
        """(owner, attribute, original, span name) for the module's public entry points."""
        layer = module.__name__.rsplit(".", 1)[-1]
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, type):
                if obj.__name__ in SCALAR_CLASSES or issubclass(obj, BaseException):
                    continue
                for attr, raw in list(vars(obj).items()):
                    if attr.startswith("_") and attr not in OPERATORS:
                        continue
                    if isinstance(raw, (classmethod, staticmethod)) or callable(raw):
                        yield obj, attr, raw, "%s.%s.%s" % (layer, obj.__name__, attr)
            elif callable(obj):
                yield module, name, obj, "%s.%s" % (layer, name)

    def install(self):
        modules = _tracelab_modules()
        by_name = {m.__name__: m for m in modules}
        replacements = {}  # id(original module-level callable) -> (original, wrapper)
        for layer in LAYERS:
            module = by_name["tracelab." + layer]
            for owner, attr, raw, span_name in self._entry_points(module):
                if owner is module:
                    replacements[id(raw)] = (raw, self._wrap(raw, span_name))
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(raw.__func__, span_name))
                else:
                    wrapped = self._wrap(raw, span_name)
                self._replace(owner, attr, raw, wrapped)

        def wrapper_of(value):
            hit = replacements.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        for module in modules:
            for name, value in list(vars(module).items()):
                if wrapper_of(value) is not None:
                    self._replace(module, name, value, wrapper_of(value))
        for fn in self._functions(modules):
            defaults = fn.__defaults__ or ()
            if any(wrapper_of(d) is not None for d in defaults):
                self._replace(fn, "__defaults__", defaults, tuple(wrapper_of(d) or d for d in defaults))

    def _replace(self, owner, attr, original, value):
        self._restore.append((owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            setattr(*self._restore.pop())

    @staticmethod
    def _functions(modules):
        for module in modules:
            for value in list(vars(module).values()):
                fn = getattr(value, "__wrapped__", value)
                if hasattr(fn, "__defaults__") and getattr(fn, "__module__", None) == module.__name__:
                    yield fn

    @staticmethod
    def leftover_wrappers():
        """Places in tracelab that still hold a span wrapper."""
        modules = _tracelab_modules()
        found = []

        def marked(obj):
            return hasattr(getattr(obj, "__func__", obj), MARK)

        for module in modules:
            for name, value in vars(module).items():
                if marked(value):
                    found.append("%s.%s" % (module.__name__, name))
                if isinstance(value, type):
                    for attr, raw in vars(value).items():
                        if marked(raw):
                            found.append("%s.%s.%s" % (module.__name__, value.__name__, attr))
        for fn in Tracer._functions(modules):
            if any(marked(d) for d in fn.__defaults__ or ()):
                found.append("defaults of %s.%s" % (fn.__module__, fn.__name__))
        return found

    # -- metrics ----------------------------------------------------------------

    def span_totals(self):
        """Per span name: (calls, total duration, self time, work)."""
        n = len(self.names)
        child = [0.0] * n
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        totals = {}
        for i in range(n):
            name = self.span_names[names[i]]
            dur = ends[i] - starts[i]
            entry = totals.setdefault(name, [0, 0.0, 0.0, 0])
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - child[i]
            entry[3] += self.works.get(i, 0)
        return totals

    def root_time(self):
        """Total duration of the spans that have no parent span."""
        return sum(self.ends[i] - self.starts[i] for i in range(len(self.names)) if self.parents[i] < 0)

    def metrics(self):
        """Every per-layer metric, by name, as plain numbers."""
        totals = self.span_totals()
        out = {}
        for group, suffix in GROUP_METRICS:
            entries = [totals[name] for name in GROUPS[group] if name in totals]
            if suffix == "calls":
                value = sum(e[0] for e in entries)
            elif suffix == "self_s":
                value = sum(e[2] for e in entries)
            else:
                value = sum(e[3] for e in entries)
            out["%s.%s" % (group, suffix)] = value
        hom_calls = out["homological.hom_module.calls"]
        repeats = self.repeats.get("homological.hom_module", 0)
        out["homological.hom_module.repeat_ratio"] = repeats / hom_calls if hom_calls else 0.0
        for layer in LAYERS:
            out["%s.self_s" % layer] = sum(e[2] for name, e in totals.items() if name.split(".", 1)[0] == layer)
        out["verifier.checks"] = sum(totals.get("verifier.suite_section%d" % i, (0, 0.0, 0.0, 0))[3] for i in (1, 2, 3))
        for i in (1, 2, 3):
            out["verifier.section%d_s" % i] = totals.get("verifier.suite_section%d" % i, (0, 0.0))[1]
        return out
