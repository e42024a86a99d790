"""Per-layer tracing of casson4, installed from outside the library.

Wrappers go around public functions of each casson4 module.  A name that
one module imports from another is a second reference to the same
function object, so every reference found in any casson4 module (globals,
class attributes, and dict/tuple dispatch tables) is replaced; patching
only the defining module would miss calls such as
``casson4.seifert.certified_signature``.

Span layers keep one record per call (name, start, end, parent, job) in
memory.  Hot leaves keep only a call count and summed time.  A layer's
self time is its span minus its child spans and the leaf time directly
under it.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# layer name -> functions it covers, as "module.attribute" under casson4
SPAN_LAYERS = {
    "seifert.alexander_polynomial": ("seifert.alexander_polynomial",),
    "seifert.tl_signature": ("seifert.tl_signature",),
    "seifert.signature_spectrum": ("seifert.signature_spectrum",),
    "seifert.arf_invariant": ("seifert.arf_invariant",),
    "inertia.certified_signature": ("inertia.certified_signature",),
    "gf2.symplectic_basis": ("gf2.symplectic_basis",),
    "laurent.second_derivative_at_one": ("laurent.second_derivative_at_one",),
    "spheres.check_casson_rohlin": ("spheres.check_casson_rohlin",),
    "equivariant.furuta_ohta_mapping_torus": ("equivariant.furuta_ohta_mapping_torus",),
    "floer.lefschetz": ("floer.lefschetz",),
    "floer.deduce_sign_pattern": ("floer.deduce_sign_pattern",),
    "bundles.circle_bundle_report": ("bundles.circle_bundle_report",),
    "tori.four_orbit_count": ("tori.four_orbit_count",),
    "tori.donaldson_mod2": ("tori.donaldson_mod2",),
    "tori.admissible": ("tori.admissible",),
    "tori.bundle_exists": ("tori.bundle_exists",),
    "cli.load_input": ("cli.load_input",),
    "cli.handler": tuple(
        f"cli.cmd_{c}"
        for c in ("knot", "sphere", "mapping_torus", "floer", "torus4", "circle_bundle")
    ),
    "cli.render": ("cli.InvariantReport.render_json", "cli.InvariantReport.render_human"),
}
LEAF_LAYERS = {
    "cyclotomic.mul": ("cyclotomic.CycElt.__mul__",),
    "cyclotomic.inverse": ("cyclotomic.CycElt.inverse",),
    "cyclotomic.real_enclosure": ("cyclotomic.CycElt.real_enclosure",),
    "seifert.integer_determinant": ("seifert.integer_determinant",),
    "inertia.certified_sign": ("inertia.certified_sign",),
}
# span layer -> substring naming the lru cache behind it in the same module
CACHED_LAYERS = {
    "seifert.alexander_polynomial": "alexander",
    "seifert.tl_signature": "tl",
    "seifert.arf_invariant": "arf",
}
COUNTERS = (
    "inertia.elimination_s",
    "inertia.pivots",
    "inertia.sign_max_prec",
    "inertia.sign_refine_rounds",
    "cyclotomic.field_orders",
    "cache.entries",
)


def metric_names() -> list[str]:
    """Every per-layer metric a traced pass reports, in output order."""
    names = []
    for layer in SPAN_LAYERS:
        names += [f"{layer}.calls", f"{layer}.s", f"{layer}.self_s"]
        if layer in CACHED_LAYERS:
            names.append(f"{layer}.hit_ratio")
    for layer in LEAF_LAYERS:
        names += [f"{layer}.calls", f"{layer}.s"]
    return names + list(COUNTERS)


def _casson4_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "casson4" or n.startswith("casson4.")]


def _resolve(target: str):
    """(owner, attribute name, raw attribute) for "module.attr[.attr]"."""
    module, _, path = target.partition(".")
    owner = importlib.import_module(f"casson4.{module}")
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name, vars(owner)[name]


def _holders(orig):
    """A setter for every place in casson4 that refers to ``orig``."""
    for module in _casson4_modules():
        for key, value in list(vars(module).items()):
            if value is orig:
                yield functools.partial(setattr, module, key)
            elif isinstance(value, type) and value.__module__.startswith("casson4"):
                for attr, member in list(vars(value).items()):
                    if member is orig:
                        yield functools.partial(setattr, value, attr)
            elif isinstance(value, dict):  # dispatch tables
                for k, v in list(value.items()):
                    if v is orig:
                        yield functools.partial(value.__setitem__, k)
                    elif isinstance(v, tuple) and any(x is orig for x in v):
                        yield lambda new, d=value, k=k, v=v: d.__setitem__(
                            k, tuple(new if x is orig else x for x in v)
                        )


def replace_everywhere(orig, wrapped) -> int:
    """Swap every reference to ``orig`` in casson4 for ``wrapped``."""
    setters = list(_holders(orig))
    for setter in setters:
        setter(wrapped)
    return len(setters)


def remaining_references(orig) -> int:
    """How many references to ``orig`` a replacement left behind."""
    return sum(1 for _ in _holders(orig))


def lru_caches() -> dict[str, object]:
    """Every functools cache in casson4, by qualified name."""
    out = {}
    for module in _casson4_modules():
        for key, value in vars(module).items():
            if callable(value) and hasattr(value, "cache_info") and value not in out.values():
                out[f"{module.__name__}.{key}"] = value
    return out


class Tracer:
    """Spans, leaf counters and derived counts for one pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, job]
        self.stack: list[int] = []
        self.job = -1
        self.calls: Counter = Counter()
        self.time: defaultdict = defaultdict(float)
        self.leaf_depth = 0
        self.leaf_under: defaultdict = defaultdict(float)  # span index -> leaf time
        self.pivots = 0
        self.max_prec = 0
        self.refine_rounds = 0
        self.orders: set = set()
        self.originals: list = []

    # --- wrappers ---

    def span(self, name, fn, post=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if post is not None:
                post(result)
            return result

        return wrapper

    def leaf(self, name, fn, pre=None, post=None):
        calls, time, stack = self.calls, self.time, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = pre() if pre is not None else None
            self.leaf_depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.leaf_depth -= 1
                calls[name] += 1
                time[name] += elapsed
                if self.leaf_depth == 0 and stack:
                    self.leaf_under[stack[-1]] += elapsed
            if post is not None:
                post(result, token)
            return result

        return wrapper

    def _count_pivots(self, inertia):
        n_plus, n_minus, _ = inertia
        self.pivots += n_plus + n_minus

    def _sign_pre(self):
        return self.calls["cyclotomic.real_enclosure"]

    def _sign_post(self, result, enclosures_before):
        self.max_prec = max(self.max_prec, getattr(result.witness, "precision", 0))
        rounds = self.calls["cyclotomic.real_enclosure"] - enclosures_before
        self.refine_rounds += max(rounds - 1, 0)

    def install(self) -> list[str]:
        """Wrap every layer; returns the targets that could not be found."""
        missing = []
        for kind, table in (("span", SPAN_LAYERS), ("leaf", LEAF_LAYERS)):
            for name, targets in table.items():
                for target in targets:
                    try:
                        _, _, orig = _resolve(target)
                    except (AttributeError, KeyError, ImportError):
                        missing.append(target)
                        continue
                    if kind == "span":
                        post = self._count_pivots if name == "inertia.certified_signature" else None
                        wrapped = self.span(name, orig, post)
                    elif name == "inertia.certified_sign":
                        wrapped = self.leaf(name, orig, self._sign_pre, self._sign_post)
                    else:
                        wrapped = self.leaf(name, orig)
                    replace_everywhere(orig, wrapped)
                    self.originals.append(orig)
        self._count_field_orders()
        return missing

    def _count_field_orders(self):
        from casson4.cyclotomic import CyclotomicField

        new = vars(CyclotomicField)["__new__"]
        fn = new.__func__ if isinstance(new, staticmethod) else new
        orders = self.orders

        def counted_new(cls, n, *args, **kwargs):
            orders.add(n)
            return fn(cls, n, *args, **kwargs)

        CyclotomicField.__new__ = staticmethod(counted_new)

    # --- results ---

    def metrics(self) -> dict[str, float]:
        spans = self.spans
        child = defaultdict(float)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, inclusive, self_s = Counter(), defaultdict(float), defaultdict(float)
        for index, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child[index] - self.leaf_under[index]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:  # outermost span of this layer
                inclusive[name] += end - start
        caches = lru_caches()
        out = {}
        for layer in SPAN_LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.s"] = inclusive[layer]
            out[f"{layer}.self_s"] = self_s[layer]
            if layer in CACHED_LAYERS:
                out[f"{layer}.hit_ratio"] = hit_ratio(caches, layer)
        for layer in LEAF_LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.s"] = self.time[layer]
        out["inertia.elimination_s"] = (
            inclusive["inertia.certified_signature"] - self.time["inertia.certified_sign"]
        )
        out["inertia.pivots"] = self.pivots
        out["inertia.sign_max_prec"] = self.max_prec
        out["inertia.sign_refine_rounds"] = self.refine_rounds
        out["cyclotomic.field_orders"] = len(self.orders)
        out["cache.entries"] = sum(c.cache_info().currsize for c in caches.values())
        return out


def cache_infos() -> dict[str, list[int]]:
    """Raw cache_info() of every casson4 cache: hits, misses, maxsize, size."""
    return {name: list(c.cache_info()) for name, c in lru_caches().items()}


def hit_ratio(caches: dict, layer: str) -> float:
    """hits / (hits + misses) of the cache behind a layer, from cache_info()."""
    module = "casson4." + layer.split(".")[0]
    key = CACHED_LAYERS[layer]
    for name, cache in caches.items():
        if name.startswith(module + ".") and key in name.rsplit(".", 1)[1]:
            info = cache.cache_info()
            lookups = info.hits + info.misses
            return info.hits / lookups if lookups else 0.0
    return 0.0
