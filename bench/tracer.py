"""Wrapper-based tracer for the toeplitz_lab layers.

The tracer replaces the public functions and methods of each package module
with thin wrappers, without editing any program file.  Every namespace that
binds a wrapped object is patched (the defining module, ``from .x import``
bindings in sibling modules, the package ``__init__``), and class methods are
patched on the class itself.  ``uninstall`` puts every original back.

Two kinds of wrapper exist:

* span wrappers record ``[name, start, end, parent]`` for each call, kept in
  memory and written out once at the end;
* count wrappers only increment a counter.  They go on the hot scalar
  primitives (group multiplication, point lookups, ...) where a span per
  call would cost more than the call itself.  Time spent inside a counted
  primitive is therefore charged to the self time of the span that called it.

Generator functions are counted, never spanned: a span around a generator
call would end before the generator runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter

LAYERS = ("lattice", "toeplitz", "williams", "periods", "measures",
          "pullback", "independence", "decks", "verify")

# Scalar primitives that some workload calls 30,000 times or more per pass
# (counted on the seed code).  A span per call would cost more than the call,
# so these feed a counter instead; several primitives may share one.  Those
# mapped to None are left unwrapped: no metric reports them, and counting
# them would double the tracing overhead.  Either way their time is charged
# to the self time of the calling span.
HOT = {
    "lattice.SubgroupChain.member_vec": "lattice.member_vec.calls",
    "lattice.GroupSpec.mul": "lattice.group_mul.calls",
    "lattice.GroupSpec.inv": "lattice.group_mul.calls",
    "lattice.GroupSpec.conj": "lattice.group_mul.calls",
    "toeplitz.Construction.stratum": "toeplitz.stratum.calls",
    "toeplitz.Construction.symbol_from_level": "toeplitz.symbol_from_level.calls",
    "toeplitz.EtaWindow.get": "toeplitz.window_get.calls",
    "williams.ZPatch.symbol": "williams.symbol.calls",
    "lattice.SubgroupChain.level": None,
    "lattice.DomainChain.rep": None,
    "lattice.matvec": None,
    "lattice.vec_add": None,
    "toeplitz.Construction.alpha": None,
    "toeplitz.EtaWindow.level_of": None,
    "williams.ZPatch.level": None,
    "williams.ZPatch.in_window": None,
    "williams.ZPatch.index": None,
    "pullback.HomSpec.phi": None,
}

# Constructors worth a span: building an occurrence oracle.
SPANNED_INITS = ("independence.ZOracle", "independence.GOracle",
                 "independence.PullbackOracle")


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent index]
        self.stack: list[int] = [-1]
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(tracer, args,
        result, computed)`` runs after a successful call."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        # an lru_cache'd function tells a computed result from a cache hit
        cache_info = getattr(fn, "cache_info", None) if after else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            misses = cache_info().misses if cache_info else 0
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                computed = cache_info is None or cache_info().misses > misses
                after(self, args, result, computed)
            return result

        return wrapper

    def counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method of the layer modules."""
        modules = [importlib.import_module(f"toeplitz_lab.{layer}") for layer in LAYERS]
        namespaces = [importlib.import_module("toeplitz_lab")] + modules
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        self._install_class(name, obj)
                elif callable(obj):
                    wrapped = self._wrap(name, obj)
                    for ns in namespaces:
                        for key, val in list(vars(ns).items()):
                            if val is obj:
                                self._set(ns, key, wrapped)

    def _install_class(self, cname: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            name = f"{cname}.{attr}"
            if attr == "__init__" and cname in SPANNED_INITS:
                self._set(cls, attr, self.span(name, obj, HOOKS.get(name)))
            elif attr.startswith("_"):
                continue
            elif isinstance(obj, (staticmethod, classmethod)):
                self._set(cls, attr, type(obj)(self._wrap(name, obj.__func__)))
            elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                self._set(cls, attr, self._wrap(name, obj))

    def _wrap(self, name: str, fn):
        if name in HOT:
            return fn if HOT[name] is None else self.counter(HOT[name], fn)
        if inspect.isgeneratorfunction(fn):
            return self.counter(f"{name}.calls", fn)
        return self.span(name, fn, HOOKS.get(name))

    def _set(self, target, attr: str, value) -> None:
        old = vars(target)[attr]
        if value is not old:
            self._patched.append((target, attr, old))
            setattr(target, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            target, attr, value = self._patched.pop()
            setattr(target, attr, value)

    # -- output -------------------------------------------------------------------

    def dump(self, path) -> None:
        """Write the spans (name table plus rows) and counters as JSON."""
        names: dict[str, int] = {}
        rows = [[names.setdefault(n, len(names)), s, e, p] for n, s, e, p in self.spans]
        doc = {"fields": ["name", "start", "end", "parent"],
               "names": list(names), "spans": rows, "counts": dict(self.counts)}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# -- span arithmetic -------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Children run inside their parent's interval on one thread, so the part of
    the parent they cover is the sum of their durations.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_self_seconds(spans) -> dict[str, float]:
    out: dict[str, float] = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own
    return out


def outermost_seconds(spans, names) -> float:
    """Total duration of spans with one of ``names`` that are not nested in
    another such span, so recursion is not counted twice."""
    names = set(names)
    total = 0.0
    for name, start, end, parent in spans:
        if name not in names:
            continue
        p = parent
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            total += end - start
    return total


def span_count(spans, names) -> int:
    names = set(names)
    return sum(1 for s in spans if s[0] in names)


# -- the per-layer metrics -----------------------------------------------------


def _miss_cells(key: str):
    def after(tracer, args, result, computed):
        if computed:
            tracer.counts[key] += len(result)
    return after


def _generate_cells(tracer, args, result, computed):
    tracer.counts["williams.generate.cells"] += len(result.symbols)


def _fiber(tracer, args, result, computed):
    c = tracer.counts
    c["periods.fiber.points"] += 1
    c["periods.fiber.approximants"] += result.approximant_count
    c["periods.fiber.realized"] += result.count
    c["periods.fiber.candidates"] += result.candidate_count


def _cell_symbols(tracer, args, result, computed):
    from toeplitz_lab import measures

    cons, n = args[0], args[1]
    fresh_count = inspect.unwrap(measures.fresh_count)  # no span from the hook
    tracer.counts["measures.cell_symbols.cells"] += len(result) * fresh_count(cons, n)


def _search_steps(tracer, args, result, computed):
    tracer.counts["independence.search.steps"] += result.steps


HOOKS = {
    "lattice.DomainChain.box_coords": _miss_cells("lattice.box_coords.cells"),
    "toeplitz.Construction.level_array": _miss_cells("toeplitz.level_array.cells"),
    "williams.generate": _generate_cells,
    "periods.enumerate_fiber": _fiber,
    "measures.cell_symbols": _cell_symbols,
    "independence.find_independence_set": _search_steps,
}

_SITE_VALUES = tuple(f"independence.{c}.site_values"
                     for c in ("ZOracle", "GOracle", "PullbackOracle"))

# metric -> span names whose outermost calls it sums (seconds, inclusive)
SPAN_METRICS = {
    "toeplitz.level_array.s": ("toeplitz.Construction.level_array",),
    "toeplitz.fresh_cells.s": ("toeplitz.Construction.fresh_cells",),
    "toeplitz.fresh_cells_recursion.s": ("toeplitz.Construction.fresh_cells_recursion",),
    "williams.fiber_patches.s": ("williams.fiber_patches",),
    "periods.enumerate_fiber.s": ("periods.enumerate_fiber",),
    "periods.tower_pieces.s": ("periods.tower_pieces",),
    "periods.window_data.s": ("periods.window_data",),
    "periods.per_set_empirical.s": ("periods.per_set_empirical",),
    "periods.subgroup_elements_in_window.s": ("periods.subgroup_elements_in_window",),
    "measures.cell_symbols.s": ("measures.cell_symbols",),
    "measures.verify_transition.s": ("measures.verify_transition",),
    "measures.mu_freq_counted.s": ("measures.mu_freq_counted",),
    "measures.complexity_profile.s": ("measures.complexity_profile",),
    "independence.search.s": ("independence.find_independence_set",),
    "independence.site_values.s": _SITE_VALUES,
    "independence.check_certificate.s": ("independence.check_certificate",),
    "independence.oracle_build.s": tuple(f"{c}.__init__" for c in SPANNED_INITS),
    "pullback.equivariance_check.s": ("pullback.equivariance_check",),
    "decks.load.s": ("decks.bundled_deck", "decks.construction", "decks.load_deck"),
}

# one metric per acceptance check family; tower-pieces reads the cache that
# fiber-scan filled, so the census cost shows on fiber-scan
VERIFY_FAMILIES = {
    "fresh-dual": "check_fresh_dual",
    "strata-partition": "check_strata_partition",
    "density-product": "check_density_product",
    "matrix-recursions": "check_matrix_recursions",
    "marker-mass": "check_marker_mass",
    "class-mass": "check_class_mass",
    "fiber-scan": "check_fiber_scans",
    "tower-pieces": "check_tower_pieces",
    "independence": "check_independence",
    "pullback-suite": "check_pullback",
    "conjugation": "check_conjugation",
    "complexity": "check_complexity",
}
SPAN_METRICS.update({f"verify.{family}.s": (f"verify.{fn}",)
                     for family, fn in VERIFY_FAMILIES.items()})

COUNT_METRICS = (
    "lattice.member_vec.calls", "lattice.group_mul.calls",
    "lattice.box_coords.cells", "toeplitz.level_array.cells",
    "toeplitz.stratum.calls", "toeplitz.window_get.calls",
    "toeplitz.symbol_from_level.calls", "williams.symbol.calls",
    "williams.generate.cells", "periods.fiber.points",
    "periods.fiber.approximants", "measures.cell_symbols.cells",
    "independence.search.steps",
)

SELF_LAYERS = ("lattice", "toeplitz", "williams", "periods", "measures",
               "independence", "pullback", "verify")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced pass as ``name -> (value, unit)``."""
    spans = tracer.spans
    out: dict[str, tuple[float, str]] = {}
    own = layer_self_seconds(spans)
    for layer in SELF_LAYERS:
        out[f"{layer}.self_s"] = (own.get(layer, 0.0), "s")
    for metric, names in SPAN_METRICS.items():
        out[metric] = (outermost_seconds(spans, names), "s")
    for metric in COUNT_METRICS:
        out[metric] = (tracer.counts[metric], "count")
    out["independence.site_values.calls"] = (span_count(spans, _SITE_VALUES), "count")
    cand = tracer.counts["periods.fiber.candidates"]
    ratio = tracer.counts["periods.fiber.realized"] / cand if cand else 0.0
    out["periods.fiber.realized_ratio"] = (ratio, "ratio")
    return out
