"""Per-layer tracing from outside the package.

``Tracer.installed()`` replaces each traced courantkit function with a
wrapper that records a span (name, start, end, parent span, job id) and, for
a few functions, the distinct argument tuples it saw.  Scalar construction,
multiplication and addition run millions of times per pass, so they are
counted but get no span.

A function imported with ``from courantkit.structure import bracket`` is a
separate binding in the importing module, so every courantkit module that
holds a traced function is rebound, not only the one that defines it.  On
exit every binding is put back, and ``installed()`` checks both directions.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# module -> functions that get a span each call
SPANNED = {
    "exact": ("rref", "solve_rational", "kernel_basis"),
    "structure": ("bracket", "anchor_apply", "d0", "pairing", "jacobiator"),
    "kerforms": ("tilde_split", "tilde_split_basis", "pair_sections",
                 "pair_basis", "cov_derivative", "contract"),
    "axioms": ("check_axioms",),
    "linfty": ("verify_linfty",),
    "cohomology": ("cochain_basis", "differential_matrix", "complex_summary"),
    "dirac": ("check_dirac", "express_in_generators", "induced_htla",
              "search_coordinate_dirac"),
    "rand": ("rand_section",),
    "fileio": ("load_spec", "dumps_canonical"),
    "cli": ("main",),
}
# spanned methods: (module, class, attribute, metric name)
SPANNED_METHODS = (("exact", "Matrix", "det", "exact.det"),)
# counted only: metric name -> Scalar attributes that share the counter
COUNTED = {
    "exact.Scalar.new": ("__init__",),
    "exact.Scalar.mul": ("__mul__", "__rmul__"),
    "exact.Scalar.add": ("__add__", "__radd__"),
}
# functions whose distinct argument tuples are recorded
DISTINCT = frozenset({"structure.bracket", "cohomology.cochain_basis",
                      "cohomology.differential_matrix"})
# the callable tilde_split returns gets this span name
SPLIT_APPLY = "kerforms.tilde_split.apply"

NAME, START, END, PARENT, JOB = range(5)

# the per-layer figures: traced function -> fields reported for it
FIELDS = {
    "exact.Scalar.new": ("calls",), "exact.Scalar.mul": ("calls",),
    "exact.Scalar.add": ("calls",),
    "exact.rref": ("calls", "self_s"), "exact.solve_rational": ("calls", "self_s"),
    "exact.det": ("calls", "self_s"), "exact.kernel_basis": ("calls",),
    "structure.bracket": ("calls", "self_s", "distinct_ratio"),
    "structure.anchor_apply": ("calls", "self_s"),
    "structure.d0": ("calls", "self_s"),
    "structure.pairing": ("calls", "self_s"),
    "structure.jacobiator": ("calls", "self_s"),
    "kerforms.tilde_split": ("calls",),
    "kerforms.tilde_split.apply": ("calls", "self_s"),
    "kerforms.tilde_split_basis": ("calls", "self_s"),
    "kerforms.pair_sections": ("calls", "self_s"),
    "kerforms.cov_derivative": ("calls", "self_s"),
    "kerforms.pair_basis": ("calls",), "kerforms.contract": ("calls",),
    "axioms.check_axioms": ("self_s",), "linfty.verify_linfty": ("self_s",),
    "rand.rand_section": ("self_s",),
    "cohomology.cochain_basis": ("calls", "distinct_ratio"),
    "cohomology.differential_matrix": ("calls", "distinct_ratio", "self_s"),
    "cohomology.complex_summary": ("self_s",),
    "dirac.check_dirac": ("calls", "self_s"),
    "dirac.express_in_generators": ("calls", "self_s"),
    "dirac.induced_htla": ("self_s",),
    "fileio.load_spec": ("self_s",), "fileio.dumps_canonical": ("self_s",),
    "cli.main": ("self_s",),
}
UNITS = {"calls": "count", "self_s": "s", "distinct_ratio": "ratio"}
# layer -> the modules whose spanned functions it sums
LAYERS = {"exact": ("exact",), "structure": ("structure",),
          "kerforms": ("kerforms",), "rand": ("rand",),
          "suites": ("axioms", "linfty", "cohomology", "dirac"),
          "io": ("fileio", "cli")}


def _arg_key(value):
    """Hashable stand-in for one argument; specs are keyed by identity."""
    try:
        hash(value)
    except TypeError:
        return ("id", id(value))
    return value


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "courantkit" or name.startswith("courantkit."))]


class Tracer:
    """Spans and counts of one traced pass; owns no global state until
    ``installed()`` is entered."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self.job: int | None = None
        self._stack: list[int] = []

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name: str, fn, wrap_result=None):
        spans, stack = self.spans, self._stack
        keep_args = name in DISTINCT
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if keep_args:
                self.distinct[name].add(
                    (self.job,) + tuple(_arg_key(a) for a in args)
                    + tuple(sorted((k, _arg_key(v)) for k, v in kwargs.items())))
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.job]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            return wrap_result(result) if wrap_result else result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation ----------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every traced function in every courantkit module; restore on
        exit.  Raises RuntimeError if a binding escapes either step."""
        import courantkit.exact as exact

        modules = _package_modules()
        replacements: dict[int, object] = {}   # id(original) -> wrapper
        originals: dict[int, object] = {}
        wrappers: dict[int, object] = {}
        for module_name, names in SPANNED.items():
            module = sys.modules[f"courantkit.{module_name}"]
            for attr in names:
                fn = getattr(module, attr)
                qualified = f"{module_name}.{attr}"
                wrap_result = None
                if qualified == "kerforms.tilde_split":
                    wrap_result = lambda split: self._spanned(SPLIT_APPLY, split)
                replacements[id(fn)] = self._spanned(qualified, fn, wrap_result)
                originals[id(fn)] = fn

        restore: list[tuple[object, str, object]] = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None and originals[id(value)] is value:
                    restore.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for module_name, cls_name, attr, metric in SPANNED_METHODS:
            cls = getattr(sys.modules[f"courantkit.{module_name}"], cls_name)
            fn = cls.__dict__[attr]
            originals[id(fn)] = fn
            restore.append((cls, attr, fn))
            wrapper = self._spanned(metric, fn)
            wrappers[id(wrapper)] = wrapper
            setattr(cls, attr, wrapper)
        for metric, attrs in COUNTED.items():
            fn = exact.Scalar.__dict__[attrs[0]]
            wrapper = self._counted(metric, fn)
            wrappers[id(wrapper)] = wrapper
            for attr in attrs:
                original = exact.Scalar.__dict__[attr]
                originals[id(original)] = original
                restore.append((exact.Scalar, attr, original))
                setattr(exact.Scalar, attr, wrapper)
        try:
            leftover = _references(modules, originals)
            if leftover:
                raise RuntimeError(f"unwrapped references remain: {leftover}")
            yield self
        finally:
            for owner, attr, value in reversed(restore):
                setattr(owner, attr, value)
            wrappers.update((id(w), w) for w in replacements.values())
            stale = _references(modules, wrappers)
            if stale:
                raise RuntimeError(f"wrappers left installed: {stale}")

    # -- results ---------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict]:
        """name -> {"calls", "self_s", "distinct"} over the recorded spans."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        totals: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for span, children in zip(self.spans, child_time):
            entry = totals[span[NAME]]
            entry["calls"] += 1
            entry["self_s"] += span[END] - span[START] - children
        for name, count in self.counts.items():
            totals[name]["calls"] = count
        for name, keys in self.distinct.items():
            totals[name]["distinct"] = len(keys)
        return dict(totals)


def _references(modules, targets: dict[int, object]) -> list[str]:
    """Names in the modules and their classes that are bound to a target."""
    def bound(value) -> bool:
        return id(value) in targets and targets[id(value)] is value

    found = []
    for module in modules:
        for attr, value in vars(module).items():
            if bound(value):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                found += [f"{module.__name__}.{attr}.{cattr}"
                          for cattr, cvalue in vars(value).items() if bound(cvalue)]
    return found


def layer_metrics(totals: dict[str, dict]) -> dict[str, tuple[float, str]]:
    """metric name -> (value, unit): FIELDS of every traced function and the
    self time of every layer.  A never-called function reads 0 throughout,
    its distinct_ratio included."""
    metrics = {}
    for fn, fields in FIELDS.items():
        entry = totals.get(fn, {"calls": 0, "self_s": 0.0})
        for field in fields:
            if field == "distinct_ratio":
                value = entry.get("distinct", 0) / entry["calls"] if entry["calls"] else 0.0
            else:
                value = entry[field]
            metrics[f"{fn}.{field}"] = (value, UNITS[field])
    for layer, modules in LAYERS.items():
        metrics[f"layer.{layer}.self_s"] = (
            sum(t["self_s"] for fn, t in totals.items()
                if fn.split(".")[0] in modules), "s")
    return metrics
