"""Per-layer tracing from outside the engine.

The tracer rebinds the listed public functions in every `toricqh` module
namespace that holds them, plus a few class methods, and restores every
binding on exit.  Spanned functions record (name, start, end, parent, op)
in memory; a function's self time is its span time minus the time of its
direct child spans.  High-frequency kernels are only counted: a span on
them would cost more than the work it measures.
"""

import functools
import importlib
import json
import sys
import time
from collections import Counter

ORACLE_CHECKS = ("check_associativity", "check_homomorphism",
                 "check_inverse_law", "check_vertex_independence",
                 "check_classical_limit", "check_grading_and_betti",
                 "check_relations_vanish", "check_leading_terms")

# module -> functions wrapped with a span (calls and self time)
SPANNED = {
    "polytope": ("validate_delzant", "centroid", "normalize",
                 "primitive_sets"),
    "cohomology": ("build_ring", "restrict_to_face"),
    "quantum": ("fano_presentation", "nef_presentation", "quantum_nf",
                "qinv"),
    "seidel": ("seidel_element", "verify_leading_term", "build_dictionary",
               "to_homology_report"),
    "actions": ("fixed_components", "q_pair", "isotropy_components",
                "global_isotropy_bound"),
    "obstructions": ("analyze", "chain_bound"),
    "oracle": ORACLE_CHECKS,
    "exprparse": ("parse_expression",),
    "cli": ("main", "load_polytope", "load_y_table", "lift_expression"),
}

# module -> functions that are only counted
COUNTED = {
    "polynomials": ("grevlex_key",),
    "linalg": ("in_span", "rank", "solve_rational"),
    "quantum": ("qprod", "qpow"),
    "seidel": ("facet_seidel",),
    "actions": ("isotropy_order",),
}

# (module, class, attribute, metric name): counted class methods
COUNTED_METHODS = (
    ("cohomology", "ClassicalRing", "nf_traced", "ClassicalRing.nf_traced"),
    ("novikov", "NovScalar", "invert", "NovScalar.invert"),
    ("novikov", "NovScalar", "__mul__", "NovScalar.mul"),
    ("novikov", "NovScalar", "__rmul__", "NovScalar.mul"),
    ("novikov", "NovScalar", "__add__", "NovScalar.add"),
)

WRAPPED_MARK = "__perfbench_wrapped__"


def metric_names():
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for module, funcs in SPANNED.items():
        for f in funcs:
            names += [f"{module}.{f}.self_s", f"{module}.{f}.calls"]
    for module, funcs in COUNTED.items():
        names += [f"{module}.{f}.calls" for f in funcs]
    for module, _, _, name in COUNTED_METHODS:
        if f"{module}.{name}.calls" not in names:
            names.append(f"{module}.{name}.calls")
    names += ["quantum.nf_traced_per_quantum_nf", "trace_overhead"]
    return names


def _toricqh_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "toricqh"
                                  or name.startswith("toricqh."))]


class Tracer:
    """Use as a context manager around the traced phase; set `op` to the
    id of the op being run so spans can be grouped by op."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.calls = Counter()
        self.op = None
        self._stack = []
        self._saved = []  # (owner, attribute, original value)

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, name, fn):
        spans, stack, calls = self.spans, self._stack, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1,
                          self.op])
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = spans[index]
                span[1] = start
                span[2] = end

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    # -- install / restore --------------------------------------------------

    def _rebind(self, original, wrapper):
        """Replace `original` wherever a toricqh module namespace holds it."""
        for mod in _toricqh_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self):
        for module, funcs in SPANNED.items():
            mod = importlib.import_module(f"toricqh.{module}")
            for f in funcs:
                fn = getattr(mod, f)
                self._rebind(fn, self._spanned(f"{module}.{f}", fn))
        for module, funcs in COUNTED.items():
            mod = importlib.import_module(f"toricqh.{module}")
            for f in funcs:
                fn = getattr(mod, f)
                self._rebind(fn, self._counted(f"{module}.{f}", fn))
        for module, cls_name, attr, name in COUNTED_METHODS:
            cls = getattr(importlib.import_module(f"toricqh.{module}"),
                          cls_name)
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._counted(f"{module}.{name}", original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results ------------------------------------------------------------

    def self_times(self):
        """Name -> summed self time (span time minus direct child spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def metrics(self, overhead):
        """Every per-layer metric, zero where the layer did no work."""
        selfs = self.self_times()
        values = {}
        for name in metric_names():
            base, _, kind = name.rpartition(".")
            if kind == "self_s":
                values[name] = selfs.get(base, 0.0)
            elif kind == "calls":
                values[name] = self.calls.get(base, 0)
        nf = self.calls.get("quantum.quantum_nf", 0)
        values["quantum.nf_traced_per_quantum_nf"] = (
            self.calls.get("cohomology.ClassicalRing.nf_traced", 0) / nf
            if nf else 0.0)
        values["trace_overhead"] = overhead
        return values

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


def leftover_wrappers():
    """Names in toricqh modules and classes that still hold a wrapper."""
    found = []
    for mod in _toricqh_modules():
        for attr, value in vars(mod).items():
            if getattr(value, WRAPPED_MARK, False):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type):
                for cattr, cvalue in vars(value).items():
                    if getattr(cvalue, WRAPPED_MARK, False):
                        found.append(f"{mod.__name__}.{attr}.{cattr}")
    return found
