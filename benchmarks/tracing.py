"""Per-layer spans, recorded from outside the program.

`Tracer.install()` wraps the public functions of each qchar layer in a
timing wrapper, patching the name in every qchar module that imported it,
the builtins table of the expression language, and the QSeries operators
on the class. Cached builders are rebuilt as lru_cache(wrapper(function)),
so a cache hit never enters the wrapper and stays as cheap as untraced.

Spans (layer, start, end, parent span, CLI call index) are kept in memory
and written out once at the end. Time spent in the wrappers' own
bookkeeping is taken off the tracer's clock, so span durations and the
traced wall time measure the program, not the tracer. `summarize()`
derives per-layer self time: a span's duration minus its children's.
"""

import functools
import importlib
import json
import sys
import time
from bisect import bisect_left

# (module, public functions) per layer; the layer name is the module name.
# quasiparticle_char gets a layer name of its own because it carries most
# of the L2 work.
LAYER_FUNCTIONS = {
    "qseries.build": ("qseries", ("euler_phi", "dist_product", "pochhammer",
                                  "gauss_sum", "inv_euler_phi")),
    "characters": ("characters", (
        "sector_sum", "fock_sector_char", "sector_pair_product",
        "sector_closed_form", "recurrence_step", "vacuum_identity_sides",
        "basic_char", "family_char", "growth_report", "compare_series")),
    "characters.quasiparticle": ("characters", ("quasiparticle_char",)),
    "oracle": ("oracle", ("oracle_vs_quasiparticle", "enumerate_charge_series",
                          "reachable_charges")),
    "bivariate": ("bivariate", ("cs_mul", "fock_char_product",
                                "jacobi_triple_sides", "inverse_product_sides",
                                "compare_charge_series", "coeff_z")),
    "cli": ("cli", ("main",)),
    "expr": ("expr", ("parse", "eval_expr", "evaluate")),
}

# (layer, module, lru-cached function) whose cache_info() is reported
CACHES = (
    ("qseries", "qseries", "euler_phi"),
    ("qseries", "qseries", "dist_product"),
    ("qseries", "qseries", "inv_euler_phi"),
    ("qseries", "qseries", "gauss_sum"),
    ("characters", "characters", "_charge_buckets"),
    ("characters", "characters", "_boson_pair_base"),
)


def _nonzero_exps(series):
    return [t for t, c in enumerate(series.coeffs) if c]


def coeff_products(a, b) -> int:
    """Coefficient products the schoolbook product a * b performs: pairs of
    nonzero terms whose exponent sum lies below the product's order."""
    if isinstance(b, int):
        return len(a.coeffs) - a.coeffs.count(0) if b else 0
    n = min(a.min_exp + b.order, b.min_exp + a.order) - (a.min_exp + b.min_exp)
    b_exps = _nonzero_exps(b)
    return sum(bisect_left(b_exps, n - t) for t in _nonzero_exps(a) if t < n)


class Tracer:
    def __init__(self):
        self.spans = []
        self.call_id = -1
        self.skew = 0.0  # bookkeeping time taken off the clock so far
        self.coeff_products = 0
        self._stack = []
        self._caches = []

    def clock(self) -> float:
        return time.perf_counter() - self.skew

    def wrap(self, layer: str, fn, count=None):
        spans, stack, perf = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = perf()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if count is not None:
                tracer.coeff_products += count(*args)
            t1 = perf()
            tracer.skew += t1 - t0
            start = t1 - tracer.skew
            try:
                return fn(*args, **kwargs)
            finally:
                t2 = perf()
                stack.pop()
                spans[index] = (layer, start, t2 - tracer.skew, parent,
                                tracer.call_id)
                tracer.skew += perf() - t2

        return timed

    def install(self) -> None:
        modules = {name: importlib.import_module(f"qchar.{name}") for name in
                   ("qseries", "characters", "oracle", "bivariate", "cli", "expr")}
        cached = {(module, name) for _, module, name in CACHES}
        replace = {}  # id(original) -> (original, wrapped); keeps originals alive
        for layer, (module, names) in LAYER_FUNCTIONS.items():
            for name in names:
                fn = getattr(modules[module], name)
                if (module, name) in cached:
                    maxsize = fn.cache_parameters()["maxsize"]
                    new = functools.lru_cache(maxsize=maxsize)(
                        self.wrap(layer, fn.__wrapped__))
                else:
                    new = self.wrap(layer, fn)
                replace[id(fn)] = (fn, new)

        cls = modules["qseries"].QSeries
        mul = self.wrap("qseries.mul", cls.__mul__, count=coeff_products)
        add = self.wrap("qseries.add", cls.__add__)
        cls.__mul__ = cls.__rmul__ = mul
        cls.__add__ = cls.__radd__ = add
        cls.invert = self.wrap("qseries.invert", cls.invert)

        for modname, module in list(sys.modules.items()):
            if modname == "qchar" or modname.startswith("qchar."):
                for attr, value in list(vars(module).items()):
                    if id(value) in replace:
                        setattr(module, attr, replace[id(value)][1])
        builtins = modules["expr"].BUILTINS
        for key, (arity, fn) in list(builtins.items()):
            if id(fn) in replace:
                builtins[key] = (arity, replace[id(fn)][1])
        self._caches = [(layer, getattr(modules[module], name))
                        for layer, module, name in CACHES]

    def cache_stats(self) -> dict:
        stats = {}
        for layer, fn in self._caches:
            info = fn.cache_info()
            for field in ("hits", "misses", "currsize"):
                key = f"{layer}.{field}"
                stats[key] = stats.get(key, 0) + getattr(info, field)
        return stats

    def write(self, path, wall_s: float) -> None:
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        doc = {
            "names": names,
            "fields": ["layer", "start", "end", "parent", "call"],
            "spans": [[index[s[0]], *s[1:]] for s in self.spans],
            "wall_s": wall_s,
            "coeff_products": self.coeff_products,
            "caches": self.cache_stats(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def summarize(doc: dict) -> dict:
    """Per-layer metrics from a written span file."""
    names, spans = doc["names"], doc["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = dict.fromkeys(names, 0.0)
    calls = dict.fromkeys(names, 0)
    bivariate_inclusive = mul_under_bivariate = 0.0
    for i, (layer, start, end, parent, _) in enumerate(spans):
        name = names[layer]
        duration = end - start
        self_s[name] += duration - child[i]
        calls[name] += 1
        parent_name = names[spans[parent][0]] if parent >= 0 else None
        if name == "bivariate" and parent_name != "bivariate":
            bivariate_inclusive += duration
        if name == "qseries.mul" and parent_name == "bivariate":
            mul_under_bivariate += duration

    def total(prefix, table):
        return sum(v for k, v in table.items()
                   if k == prefix or k.startswith(prefix + "."))

    caches = doc["caches"]
    q_lookups = caches["qseries.hits"] + caches["qseries.misses"]
    layers_s = sum(self_s.values())
    return {
        "qseries.self_s": total("qseries", self_s),
        "qseries.mul.calls": calls.get("qseries.mul", 0),
        "qseries.mul.self_s": self_s.get("qseries.mul", 0.0),
        "qseries.mul.coeff_products": doc["coeff_products"],
        "qseries.add.calls": calls.get("qseries.add", 0),
        "qseries.add.self_s": self_s.get("qseries.add", 0.0),
        "qseries.invert.calls": calls.get("qseries.invert", 0),
        "qseries.invert.self_s": self_s.get("qseries.invert", 0.0),
        "qseries.build.calls": calls.get("qseries.build", 0),
        "qseries.build.self_s": self_s.get("qseries.build", 0.0),
        "qseries.cache.hits": caches["qseries.hits"],
        "qseries.cache.misses": caches["qseries.misses"],
        "qseries.cache.hit_ratio": (caches["qseries.hits"] / q_lookups
                                    if q_lookups else 0.0),
        "qseries.cache.entries": caches["qseries.currsize"],
        "characters.self_s": total("characters", self_s),
        "characters.calls": total("characters", calls),
        "characters.quasiparticle.self_s":
            self_s.get("characters.quasiparticle", 0.0),
        "characters.cache.hits": caches["characters.hits"],
        "characters.cache.misses": caches["characters.misses"],
        "oracle.self_s": self_s.get("oracle", 0.0),
        "oracle.calls": calls.get("oracle", 0),
        "bivariate.self_s": self_s.get("bivariate", 0.0),
        "bivariate.calls": calls.get("bivariate", 0),
        "bivariate.mul_share": (mul_under_bivariate / bivariate_inclusive
                                if bivariate_inclusive else 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
        "cli.calls": calls.get("cli", 0),
        "expr.self_s": self_s.get("expr", 0.0),
        "expr.calls": calls.get("expr", 0),
        "bench.self_s": doc["wall_s"] - layers_s,
        "trace.wall_s": doc["wall_s"],
        "trace.spans": len(spans),
    }
