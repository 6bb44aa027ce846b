"""Per-layer spans, installed from outside the program.

`Tracer.install()` replaces every public function of each layer module of
ttow (and the public methods of the classes defined there) by a wrapper,
in every ttow module namespace that holds it, so that names imported with
`from .linalg import rref` are reached too.  A call from one layer into
another opens a span; a call inside the same layer does not.  A layer's
self time is the time of its spans minus the part covered by child spans
in other layers.  Nothing in `src/` knows about this.
"""

import importlib
import inspect
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

# The src/ttow modules, by layer of the system.  Modules left out (fields,
# polys, complexes, characters, fixtures, errors) count toward the layer
# that calls them.
LAYERS = ("linalg", "tensors", "operators", "galois", "groebner",
          "annihilator", "singularity", "categories", "cli", "jsonio")

METRICS = [
    ("linalg.calls", "count"), ("linalg.qq_self_s", "s"), ("linalg.modp_self_s", "s"),
    ("linalg.rows_in", "rows"), ("linalg.rank_out", "rows"),
    ("tensors.calls", "count"), ("tensors.self_s", "s"),
    ("operators.calls", "count"), ("operators.self_s", "s"),
    ("galois.self_s", "s"), ("galois.product_check_s", "s"), ("galois.closure_calls", "count"),
    ("groebner.calls", "count"), ("groebner.buchberger_calls", "count"),
    ("groebner.self_s", "s"), ("groebner.gb_size_out", "count"),
    ("annihilator.self_s", "s"), ("singularity.self_s", "s"), ("categories.self_s", "s"),
    ("cli.self_s", "s"), ("jsonio.self_s", "s"),
    ("trace.overhead_pct", "%"),  # set by the worker, from Tracer.cost_s()
]


def _linalg_kind(args):
    """'qq' or 'modp' from a call's field argument, else from its first scalar."""
    for x in args:
        kind = getattr(x, "kind", None)
        if kind in ("rational", "prime"):
            return "qq" if kind == "rational" else "modp"
    x = args[0] if args else 0
    while isinstance(x, (list, tuple)) and x:
        x = x[0]
    return "qq" if isinstance(x, Fraction) else "modp"


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [layer, time covered by child spans]
        self.values = defaultdict(float)
        self.calls = Counter()  # spans opened, by layer
        self.passes = 0  # wrapped calls made inside their own layer
        self._elim_depth = 0
        self._patched = []  # (owner, attribute name, original)

    # -- spans ----------------------------------------------------------------

    def _wrap(self, fn, layer, probe=None):
        stack = self.stack
        inner = fn if probe is None else (lambda *a, **k: probe(fn, a, k))

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                self.passes += 1
                return inner(*args, **kwargs)
            span = [layer, 0.0]
            key = f"linalg.{_linalg_kind(args)}_self_s" if layer == "linalg" else layer + ".self_s"
            stack.append(span)
            self.calls[layer] += 1
            t0 = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self.values[key] += dur - span[1]
                if stack:
                    stack[-1][1] += dur

        traced.__wrapped__ = fn
        return traced

    # -- the wrappers' own cost ------------------------------------------------

    @staticmethod
    def _unit_costs(n=20000, repeats=5):
        """Seconds a wrapper adds to one call: (linalg span, other span,
        pass-through inside a layer), each the least of `repeats` timings of
        `n` calls of a wrapped no-op against the bare no-op."""
        scratch = Tracer()

        def noop(*args):
            return None

        def per_call(fn):
            args = ([[Fraction(1)]],)  # the longest path of _linalg_kind
            best = float("inf")
            for _ in range(repeats):
                t0 = perf_counter()
                for _ in range(n):
                    fn(*args)
                best = min(best, perf_counter() - t0)
            return best / n

        bare = per_call(noop)
        linalg_span = per_call(scratch._wrap(noop, "linalg")) - bare
        other = scratch._wrap(noop, "tensors")
        other_span = per_call(other) - bare
        scratch.stack.append(["tensors", 0.0])
        passed = per_call(other) - bare
        return linalg_span, other_span, passed

    def cost_s(self):
        """Estimated seconds that the wrappers added to what they traced: the
        spans opened and the calls passed through, at their measured unit
        costs.  The probes' own counting is left out."""
        linalg_span, other_span, passed = self._unit_costs()
        other_spans = sum(self.calls.values()) - self.calls["linalg"]
        return (self.calls["linalg"] * linalg_span + other_spans * other_span
                + self.passes * passed)

    # -- probes: counts made where the work happens, also inside a layer ------

    def _elimination(self, fn, args, kwargs):
        outer = self._elim_depth == 0
        self._elim_depth += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            self._elim_depth -= 1
        if outer:
            self.values["linalg.rows_in"] += len(args[0])
            self.values["linalg.rank_out"] += len(result[1])
        return result

    def _count(self, name):
        def probe(fn, args, kwargs):
            self.values[name] += 1
            return fn(*args, **kwargs)
        return probe

    def _timed(self, name):
        def probe(fn, args, kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.values[name] += perf_counter() - t0
        return probe

    def _buchberger(self, fn, args, kwargs):
        gb = fn(*args, **kwargs)
        self.values["groebner.buchberger_calls"] += 1
        self.values["groebner.gb_size_out"] += len(gb)
        return gb

    def _probes(self):
        return {
            ("linalg", "rref"): self._elimination,
            ("linalg", "np_rref"): self._elimination,
            ("galois", "ten_closure"): self._count("galois.closure_calls"),
            ("galois", "check_product_closure"): self._timed("galois.product_check_s"),
            ("groebner", "buchberger"): self._buchberger,
        }

    # -- installation ---------------------------------------------------------

    def _set(self, owner, name, value):
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self):
        probes = self._probes()
        replace = {}
        for layer in LAYERS:
            mod = importlib.import_module("ttow." + layer)
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replace[obj] = self._wrap(obj, layer, probes.get((layer, name)))
                elif inspect.isclass(obj):
                    for attr, val in list(vars(obj).items()):
                        if attr.startswith("_") and attr != "__init__":
                            continue
                        if inspect.isfunction(val):
                            self._set(obj, attr, self._wrap(val, layer))
                        elif isinstance(val, (classmethod, staticmethod)):
                            self._set(obj, attr, type(val)(self._wrap(val.__func__, layer)))
        for mod in [m for n, m in sys.modules.items() if n == "ttow" or n.startswith("ttow.")]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replace:
                    self._set(mod, name, replace[obj])
        return self

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def metrics(self):
        """The per-layer figures, by metric name."""
        out = dict(self.values)
        for layer in LAYERS:
            out[layer + ".calls"] = self.calls[layer]
        return {name: out.get(name, 0) for name, _ in METRICS}
