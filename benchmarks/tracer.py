"""Span tracer that wraps package functions from outside the package.

Each call of a wrapped function records a span (name, start, end, parent
span, operation index) in memory.  A target is `module.function` or
`module.Class.method` inside `orbifold24`.  A function is replaced in every
`orbifold24` module namespace that binds it, because modules import each
other's functions by name; patching only the defining module would miss
those calls.  A target that no longer exists is reported as missing.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Dict, List, Optional, Tuple

PACKAGE = "orbifold24"

# Every function whose spans or cache counters feed a per-layer metric,
# plus the case drivers between cli.main and the layers, so that self time
# lands in the layer that spends it.
TARGETS = (
    "cli.main",
    "report.Report.to_json",
    "cases.run_case",
    "cases.verify_tables",
    "cases.lattice_data",
    "cases.lattice_fixed_type",
    "latticevoa.identify_type",
    "latticevoa.count_orthogonal_subsystems",
    "latticevoa.glue_automorphism_group_order",
    "latticevoa.weight_one_algebra",
    "latticevoa.assemble_niemeier",
    "latticevoa.build_isometry",
    "latticevoa.standard_lift",
    "latticevoa.fixed_subalgebra",
    "latticevoa.twisted_ground_energy",
    "exactmath.float_eigen",
    "schellekens.enumerate_candidates",
    "schellekens.filter_candidates",
    "schellekens.admits_order3_with_fixed",
    "schellekens.order3_fixed_options",
    "twistbound.invariant_norm",
    "twistbound.shift_ok",
    "twistbound.min_twisted_weight",
    "twistbound.tuple_space_size",
    "affinerep.enumerate_level_weights",
    "affinerep.inner_fixed_subalgebra",
    "affinerep.sigma_order_on_category",
    "affinerep.n_min",
    "rootdata.build_root_system",
    "rootdata.weight_system",
    "qmodular.hauptmodul_f",
    "qmodular.f_power_at_S",
    "qmodular.derive_dimension_formula",
)

# Targets that only dispatch to the layers; all other targets are layers.
DRIVERS = ("cli.main", "cases.run_case", "cases.verify_tables")

Span = Tuple[str, float, float, int, int]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.stack: List[int] = []
        self.op = -1  # index of the operation being run, shared by its spans
        self.missing: List[str] = []
        self.bindings: Dict[str, int] = {}
        self._caches: Dict[str, Tuple[object, Tuple[int, int]]] = {}

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent, self.op)
                stack.pop()

        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap each target; the package must already be imported."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for target in targets:
            mod_name, *path = target.split(".")
            try:
                owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
                for attr in path[:-1]:
                    owner = getattr(owner, attr)
                fn = getattr(owner, path[-1])
            except (ImportError, AttributeError, IndexError):
                self.missing.append(target)
                continue
            wrapper = self._wrap(target, fn)
            if hasattr(fn, "cache_info"):
                info = fn.cache_info()
                self._caches[target] = (fn, (info.hits, info.misses))
            if len(path) > 1:  # a method: the class is its one binding
                setattr(owner, path[-1], wrapper)
                self.bindings[target] = 1
                continue
            count = 0
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        count += 1
            self.bindings[target] = count

    def summary(self) -> dict:
        """Per target: calls, inclusive and self seconds, cache deltas."""
        done = [s for s in self.spans if s is not None]
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in done:
            if parent >= 0:
                child[parent] += end - start
        stats: Dict[str, dict] = {}
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, parent, _ = span
            st = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            st["calls"] += 1
            st["total_s"] += end - start
            st["self_s"] += end - start - child[idx]
        for target, (fn, (hits0, misses0)) in self._caches.items():
            info = fn.cache_info()
            st = stats.setdefault(target, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            st["hits"] = info.hits - hits0
            st["misses"] = info.misses - misses0
        return {
            "functions": stats,
            "spans": len(done),
            "missing": list(self.missing),
            "bindings": dict(self.bindings),
        }
