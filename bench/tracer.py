"""Outside-in layer tracing for the hyperlab benchmark.

`BOUNDARIES` lists, as data, the library functions whose calls are timed.
`Tracer.install()` replaces each one with a timing wrapper wherever a
hyperlab module binds it: module globals (including `from ... import`
aliases), class attributes, and entries of module-level lists such as
`harness.IDEAL_CHECKS`.  No file under `src/` is touched, and
`uninstall()` puts every original back.

A span is `[boundary index, start, end, parent span index]`, kept in
memory and written once by `write()`.  A boundary that no longer exists
is reported by name in `absent`, never as a zero.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from math import comb

# (layer, "module:attribute").  The attribute may be `Class.method`, or
# `NAME[*]` for every function held in the module-level list NAME.
BOUNDARIES: list[tuple[str, str]] = [
    ("harness.run_ring", "hyperlab.harness:run_ring"),
    ("harness.golden", "hyperlab.harness:run_golden_examples"),
    ("harness.contexts", "hyperlab.harness:build_ring_context"),
    ("harness.uv_matrices", "hyperlab.harness:compute_uv_matrices"),
    ("harness.ideal_checks", "hyperlab.harness:IDEAL_CHECKS[*]"),
    ("harness.ideal_checks", "hyperlab.harness:check_equal_radical_intersections"),
    ("harness.ideal_checks", "hyperlab.harness:record_radical_comparison_on_non_c"),
    ("harness.quotient_checks", "hyperlab.harness:run_quotient_checks"),
    ("harness.localization_checks", "hyperlab.harness:run_localization_checks"),
    ("harness.matrix_checks", "hyperlab.harness:run_matrix_checks"),
    ("core.validate", "hyperlab.core:FiniteHyperring.validate"),
    ("ideals.lattice", "hyperlab.ideals:enumerate_hyperideals"),
    ("ideals.radicals", "hyperlab.ideals:radical_nilpotent"),
    ("ideals.radicals", "hyperlab.ideals:radical_prime_intersection"),
    ("ideals.c_deciders", "hyperlab.ideals:is_c_hyperideal"),
    ("ideals.c_deciders", "hyperlab.ideals:is_strong_c_hyperideal"),
    ("classify.multiset_products", "hyperlab.classify:multiset_products"),
    ("classify.uv_decider", "hyperlab.classify:is_uv_absorbing_primary"),
    ("classify.uv_decider", "hyperlab.classify:is_uv_absorbing_prime"),
    ("classify.uv_decider", "hyperlab.classify:is_uv_absorbing_i_primary"),
    ("classify.pair_deciders", "hyperlab.classify:is_prime"),
    ("classify.pair_deciders", "hyperlab.classify:is_primary"),
    ("classify.pair_deciders", "hyperlab.classify:is_1_absorbing_primary"),
    ("classify.pair_deciders", "hyperlab.classify:is_divided"),
    ("construct.quotient", "hyperlab.construct:quotient"),
    ("construct.localize", "hyperlab.construct:localize"),
    ("construct.mcs", "hyperlab.construct:canonical_mcs_list"),
    ("construct.mcs", "hyperlab.construct:is_mcs"),
    ("construct.mcs", "hyperlab.construct:mcs_closure"),
    ("zphi.window_scan", "hyperlab.zphi:bounded_uv_check"),
    ("zphi.replay", "hyperlab.zphi:replay_int_counterexample"),
]

# Layers whose spans are ring constructions: a context built under one of
# them is a derived-ring context.
CONSTRUCTION_LAYERS = ("harness.quotient_checks", "harness.localization_checks", "harness.matrix_checks")


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_uv_matrices(tr: "Tracer", args, kwargs, result) -> None:
    # Computed, not observed: every nonunit multiset of size 2..u_max,
    # times the number of target ideals.
    ring, targets, u_max = (_arg(args, kwargs, i, k) for i, k in enumerate(("ring", "targets", "u_max")))
    pool = bin(ring.unit_report().nonunits).count("1")
    tr.count("harness.uv_matrices.multisets", len(targets) * sum(comb(pool + u - 1, u) for u in range(2, u_max + 1)))


def _count_context(tr: "Tracer", args, kwargs, result) -> None:
    tr.context_keys.add(_arg(args, kwargs, 0, "ring").table_key())


def _count_window_scan(tr: "Tracer", args, kwargs, result) -> None:
    tr.count("zphi.window_scan.multisets", result.tested)


def _count_refusal(tr: "Tracer", exc: BaseException) -> None:
    if type(exc).__name__ == "ConstructionError":
        tr.count("construct.localize.refused", 1)


ON_RETURN = {
    "harness.uv_matrices": _count_uv_matrices,
    "harness.contexts": _count_context,
    "zphi.window_scan": _count_window_scan,
}
ON_RAISE = {"construct.localize": _count_refusal}
COUNTERS = ("harness.uv_matrices.multisets", "construct.localize.refused", "zphi.window_scan.multisets")


def _resolve(target: str) -> list:
    """The function objects a boundary names; raises LookupError if gone."""
    modname, _, attr = target.partition(":")
    module = sys.modules.get(modname)
    if module is None:
        raise LookupError(target)
    if attr.endswith("[*]"):
        table = getattr(module, attr[:-3], None)
        fns = [x for item in table or () for x in (item if isinstance(item, tuple) else (item,)) if callable(x)]
        if not fns:
            raise LookupError(target)
        return fns
    obj = module
    for part in attr.split("."):
        if not hasattr(obj, part):
            raise LookupError(target)
        obj = getattr(obj, part)
    return [obj]


class Tracer:
    """Wraps the boundaries, records spans and counters, and turns them
    into per-layer metrics."""

    def __init__(self, boundaries: list[tuple[str, str]] = BOUNDARIES):
        self.boundaries = boundaries
        self.names: list[str] = []  # span name per wrapped function
        self.layers: list[str] = []  # layer per wrapped function
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        self.counters: dict[str, int] = {}
        self.context_keys: set[bytes] = set()
        self.absent: list[str] = []
        self._wrappers: dict[int, object] | None = None
        self._patches: list[tuple] = []

    def count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _wrapper(self, fn, layer: str):
        idx = len(self.names)
        self.names.append(f"{fn.__module__}.{fn.__qualname__}")
        self.layers.append(layer)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        on_return, on_raise = ON_RETURN.get(layer), ON_RAISE.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [idx, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                stack.pop()
                if on_raise:
                    on_raise(self, exc)
                raise
            span[2] = clock()
            stack.pop()
            if on_return:
                on_return(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every boundary in every loaded hyperlab module.  Installing
        again after `uninstall()` reuses the same wrappers and span list."""
        if self._wrappers is None:
            self._wrappers = {}
            for layer, target in self.boundaries:
                try:
                    fns = _resolve(target)
                except LookupError:
                    self.absent.append(target)
                    continue
                for fn in fns:
                    if id(fn) not in self._wrappers:
                        self._wrappers[id(fn)] = self._wrapper(fn, layer)
        wrappers = self._wrappers
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "hyperlab"]
        for module in modules:
            classes = [v for v in vars(module).values() if isinstance(v, type) and v.__module__ == module.__name__]
            for holder in [module] + classes:
                for key, value in list(vars(holder).items()):
                    if id(value) in wrappers:
                        self._patches.append((holder, key, value))
                        setattr(holder, key, wrappers[id(value)])
                    elif isinstance(value, list):
                        self._patch_list(value, wrappers)

    def _patch_list(self, table: list, wrappers: dict) -> None:
        for i, item in enumerate(table):
            if isinstance(item, tuple) and any(id(x) in wrappers for x in item):
                self._patches.append((table, i, item))
                table[i] = tuple(wrappers.get(id(x), x) for x in item)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._patches):
            if isinstance(holder, list):
                holder[key] = value
            else:
                setattr(holder, key, value)
        self._patches.clear()

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer self seconds and call counts, plus the derived ratios,
        for a traced section that took `wall_s` seconds."""
        present = {layer for layer, target in self.boundaries if target not in self.absent}
        out: dict[str, float] = {}
        for layer in present:
            out[layer + ".self_s"] = 0.0
            out[layer + ".calls"] = 0
        own = self.self_times()
        top = 0.0
        derived = 0.0
        for k, (idx, start, end, parent) in enumerate(self.spans):
            layer = self.layers[idx]
            out[layer + ".self_s"] += own[k]
            out[layer + ".calls"] += 1
            if parent < 0:
                top += end - start
            elif layer == "harness.contexts" and self._under_construction(parent):
                derived += end - start
        for key in COUNTERS:
            if key.rsplit(".", 1)[0] in present:
                out[key] = self.counters.get(key, 0)
        if "construct.localize" in present:
            calls = out["construct.localize.calls"]
            refused = out["construct.localize.refused"]
            out["construct.localize.built_ratio"] = (calls - refused) / calls if calls else 0.0
        if "harness.contexts" in present:
            built = out["harness.contexts.calls"]
            out["harness.contexts.built"] = built
            out["harness.contexts.distinct"] = len(self.context_keys)
            out["harness.contexts.distinct_ratio"] = len(self.context_keys) / built if built else 0.0
            out["harness.derived_contexts.s"] = derived
        if "zphi.window_scan" in present:
            multisets = out["zphi.window_scan.multisets"]
            scan = sum(e - s for i, s, e, _ in self.spans if self.layers[i] == "zphi.window_scan")
            out["zphi.window_scan.multisets_per_s"] = multisets / scan if scan else 0.0
        out["trace.untraced_self_s"] = wall_s - top
        out["trace.spans"] = len(self.spans)
        return out

    def _under_construction(self, k: int) -> bool:
        while k >= 0:
            if self.layers[self.spans[k][0]] in CONSTRUCTION_LAYERS:
                return True
            k = self.spans[k][3]
        return False

    def write(self, path, **header) -> None:
        """Write every span, once, as JSON: names and layers by index."""
        with open(path, "w") as fh:
            json.dump({**header, "absent": self.absent, "names": self.names, "layers": self.layers,
                       "span_fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
