"""Per-layer tracing from outside the package.

Spans wrap each layer's entry points; exact_algebra calls, which run tens of
thousands of times per operation, only bump counters and add their time to
the enclosing span.  Wrappers replace every binding of a wrapped function:
module globals (``verma._nf_atoms``, ``construct.act``, ...) and class
aliases (``Poly.__rmul__`` is the same function as ``Poly.__mul__``).  After
patching no binding of an original may remain, and ``restore`` puts every
original back.

A call made while the same span or counter is already active counts as a
call but adds no busy time.  Self time is a span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# span name -> (module, dotted attribute) of each wrapped entry point
SPANS = {
    "cli.run": [("cli", "run")],
    "construct.build": [("construct", a) for a in (
        "theta_even_eps", "theta_even_delta", "theta_gl", "theta_odd_alg", "theta_odd",
        "theta_glmn_distinguished", "theta_for_root", "theta_borel", "theta_power",
        "case1_decompose", "case2_decompose")],
    "construct.body": [("construct", "ShapovalovElement.body"), ("construct", "_sum_terms")],
    "construct.evaluate": [("construct", "ShapovalovElement.evaluate")],
    "construct.verma_vector": [("construct", "ShapovalovElement.verma_vector")],
    "construct.check": [("construct", a) for a in (
        "verify_highest_weight", "verify_highest_weight_symbolic", "square_isotropic_check",
        "lemma1768_check", "kac_coefficient")],
    "hessenberg.det_lr": [("hessenberg", "det_lr")],
    "verma.act": [("verma", "act")],
    "verma.solve": [("verma", "solve_in_span"), ("verma", "coefficients_in_word_basis")],
    "pbw.uea_mul": [("pbw", "UEAElement.__mul__")],
    "pbw.normal_order": [("pbw", "normal_order")],
    "pbw.nf": [("pbw", "_nf_atoms")],
}

# counter name -> entry point in exact_algebra
COUNTERS = {
    "add": "Poly.__add__",
    "sub": "Poly.__sub__",
    "rsub": "Poly.__rsub__",
    "neg": "Poly.__neg__",
    "mul": "Poly.__mul__",
    "pow": "Poly.__pow__",
    "subs": "Poly.subs",
    "shifted": "Poly.shifted",
    "eval_at": "eval_at",
    "reduce_mod": "reduce_mod",
}


def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "shapovalov" or name.startswith("shapovalov."))]


def _namespaces():
    """Every module and class dict of the package that can hold a binding."""
    out = []
    for mod in _package_modules():
        out.append(mod)
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__.startswith("shapovalov"):
                out.append(value)
    return list({id(ns): ns for ns in out}.values())


def _resolve(module, dotted):
    """The function at shapovalov.<module>.<dotted>, or None if it is gone."""
    obj = sys.modules.get(f"shapovalov.{module}")
    *path, last = dotted.split(".")
    for part in path:
        obj = getattr(obj, part, None)
    value = vars(obj).get(last) if path and obj is not None else getattr(obj, last, None)
    return value.fget if isinstance(value, property) else value


def _bindings(original):
    """(namespace, name, value) for every binding of original."""
    found = []
    for ns in _namespaces():
        for name, value in list(vars(ns).items()):
            if value is original or (isinstance(value, property) and value.fget is original):
                found.append((ns, name, value))
    return found


class Tracer:
    def __init__(self):
        self.op = None
        self.spans = []                        # [name, start, end, parent, op]
        self.stack = []                        # open span indices
        self.child = []                        # child-span time of each open span
        self.active = defaultdict(int)         # re-entrancy depth per span/counter
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.algebra_in = defaultdict(float)   # exact_algebra time per enclosing span
        self.algebra_depth = 0
        self.algebra_busy = 0.0
        self.nf = defaultdict(int)
        self._patched = []                     # (namespace, name, original value)
        self.missing = []                      # targets that no longer exist

    # -- wrappers ----------------------------------------------------------
    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op]
            self.spans.append(rec)
            self.stack.append(idx)
            self.child.append(0.0)
            outer = not self.active[name]
            self.active[name] += 1
            rec[1] = start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = end = perf_counter()
                dur = end - start
                self.active[name] -= 1
                self.stack.pop()
                self.calls[name] += 1
                self.self_time[name] += dur - self.child.pop()
                if outer:
                    self.busy[name] += dur
                if self.child:
                    self.child[-1] += dur

        return wrapper

    def _nf_span(self, fn, pbw):
        span = self._span("pbw.nf", fn)
        poly = sys.modules["shapovalov.exact_algebra"].Poly

        def wrapper(*args, **kwargs):
            atoms = args[1] if len(args) > 1 else kwargs["atoms"]
            pick_last = args[2] if len(args) > 2 else kwargs.get("pick_last", False)
            cache = getattr(pbw, "_NF_CACHE", None)
            sized = hasattr(cache, "__len__")
            pure = not pick_last and not any(isinstance(a, poly) for a in atoms)
            before = len(cache) if sized else 0
            out = span(*args, **kwargs)
            self.nf["terms_out"] += len(out)
            if pure:
                self.nf["pure_calls"] += 1
                if sized:
                    self.nf["misses" if len(cache) > before else "hits"] += 1
            return out

        return wrapper

    def _counter(self, name, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            outer = not self.active[name]
            top = not self.algebra_depth
            if not outer and not top:
                self.algebra_depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.algebra_depth -= 1
            self.active[name] += 1
            self.algebra_depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                self.algebra_depth -= 1
                self.active[name] -= 1
                if outer:
                    self.busy[name] += dur
                if top:
                    self.algebra_busy += dur
                    if self.stack:
                        self.algebra_in[self.spans[self.stack[-1]][0]] += dur

        return wrapper

    # -- install / restore ---------------------------------------------------
    def install(self):
        """Wrap every target.  A target that no longer exists is listed in
        ``missing``; a span or counter left with no target at all fails."""
        pbw = sys.modules["shapovalov.pbw"]
        targets = []
        entries = [(name, module, dotted) for name, items in SPANS.items()
                   for module, dotted in items]
        entries += [(f"exact_algebra.{name}", "exact_algebra", dotted)
                    for name, dotted in COUNTERS.items()]
        for name, module, dotted in entries:
            fn = _resolve(module, dotted)
            if fn is None:
                self.missing.append(f"shapovalov.{module}.{dotted}")
                continue
            if name == "pbw.nf":
                wrap = self._nf_span(fn, pbw)
            elif name.startswith("exact_algebra."):
                wrap = self._counter(name, fn)
            else:
                wrap = self._span(name, fn)
            targets.append((name, fn, wrap))
        unwrapped = {name for name, _, _ in entries} - {name for name, _, _ in targets}
        if unwrapped:
            raise LookupError(f"no trace target left for {sorted(unwrapped)}: {self.missing}")
        targets = [(fn, wrap) for _, fn, wrap in targets]
        for fn, wrap in targets:
            for ns, attr, value in _bindings(fn):
                new = property(wrap, value.fset, value.fdel, value.__doc__) \
                    if isinstance(value, property) else wrap
                setattr(ns, attr, new)
                self._patched.append((ns, attr, value))
        missed = [fn.__qualname__ for fn, _ in targets if _bindings(fn)]
        if missed:
            self.restore()
            raise RuntimeError(f"bindings left unwrapped: {missed}")

    def restore(self):
        while self._patched:
            ns, attr, value = self._patched.pop()
            setattr(ns, attr, value)

    def cache_entries(self):
        cache = getattr(sys.modules["shapovalov.pbw"], "_NF_CACHE", None)
        return len(cache) if hasattr(cache, "__len__") else None

    # -- report --------------------------------------------------------------
    def summary(self):
        """Aggregates that a parent can sum over child processes."""
        sized = self.cache_entries() is not None
        return {
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "self": dict(self.self_time),
            "algebra_in": dict(self.algebra_in),
            "algebra_busy": self.algebra_busy,
            "nf": dict(self.nf),
            "cache_sized": sized,
            "cache_entries": self.cache_entries(),
            "spans": len(self.spans),
            "missing_targets": self.missing,
        }
