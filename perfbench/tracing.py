"""Per-layer tracing from outside the solvers.

Each traced function is wrapped, and the wrapper is installed by rebinding
every attribute of every loaded ``klinkage.*`` module that *is* the
original function, because the solver modules import by name
(``linkage_semicomplete.is_k_strong``, ``connectivity`` calling
``_kernel.local_connectivity``).  Methods are rebound on their class.
Self time is inclusive time minus the inclusive time of traced children.
A function that no longer exists is reported as absent, not as an error.

Per-bit helpers (``iter_bits``, ``has_arc``) are deliberately not traced:
they run millions of times and the wrapper would dominate.
"""

from __future__ import annotations

import importlib
import sys
import time

# layer (module under klinkage) -> traced functions; "Class.method" names
# a method.  Order is the report order.
TRACED = {
    "digraph": ("spanning_tournament", "is_semicomplete", "is_l_quasi_transitive",
                "Digraph.shortest_path"),
    "_kernel": ("local_connectivity",),
    "connectivity": ("is_k_strong", "min_vertex_menger", "menger_set_paths"),
    "dominators": ("nearly_in_dominating_set", "nearly_in_dominating_vertex",
                   "verify_nearly_in_dominating_set", "is_c_good"),
    "linkage_semicomplete": ("solve_semicomplete", "anchor_connectors", "partition_terminals"),
    "linkage_composition": ("solve_composition", "strip_intra_part_arcs", "fill_parts",
                            "minimalize_path"),
    "linkage_lqt": ("solve_lqt", "build_auxiliary", "independent_short_paths",
                    "find_short_anchor_pair", "verify_short_anchor"),
    "verify": ("verify_linkage",),
    "jsonio": ("digraph_from_obj",),
}


def _flow(result) -> int:
    return int(result)


def _pool_paths(pool) -> int:
    return len(pool.forward) + len(pool.backward)


def _true(result) -> int:
    return 1 if result else 0


# per-function counters taken from return values: (metric suffix, counter,
# and whether the metric is a share of calls rather than a sum)
COUNTERS = {
    "kernel.local_connectivity": ("augmentations", _flow, False),
    "linkage_lqt.independent_short_paths": ("paths", _pool_paths, False),
    "dominators.is_c_good": ("true_ratio", _true, True),
    "linkage_lqt.verify_short_anchor": ("true_ratio", _true, True),
}


def metric_name(layer: str, qual: str) -> str:
    # metric names must start with a letter or digit: _kernel reports as kernel
    return f"{layer.lstrip('_')}.{qual.rsplit('.', 1)[-1]}"


def traced_names() -> list[str]:
    return [metric_name(layer, qual) for layer, quals in TRACED.items() for qual in quals]


class Tracer:
    """Wraps the TRACED functions; ``stats[name] = [calls, incl_s, self_s, count]``."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self._stack: list[float] = []
        self._bindings: list[tuple[object, str, object, object]] = []

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        counter = COUNTERS.get(name, (None, None, None))[1]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if counter is not None:
                stat[3] += counter(result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every reference to a traced function to its wrapper."""
        if not self._bindings:
            wrappers = self._wrap_all()  # imports every traced module first
            modules = [m for key, m in list(sys.modules.items())
                       if m is not None and (key == "klinkage" or key.startswith("klinkage."))]
            classes = {id(v): v for m in modules for v in vars(m).values()
                       if isinstance(v, type) and v.__module__.startswith("klinkage")}
            owners = modules + list(classes.values())
            for original, wrapper in wrappers:
                for owner in owners:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            self._bindings.append((owner, attr, original, wrapper))
        for owner, attr, _original, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._bindings:
            setattr(owner, attr, original)

    def _wrap_all(self) -> list[tuple[object, object]]:
        """(original, wrapper) for every traced function that exists."""
        pairs = []
        for layer, quals in TRACED.items():
            for qual in quals:
                name = metric_name(layer, qual)
                try:
                    owner = importlib.import_module(f"klinkage.{layer}")
                    for part in qual.split("."):
                        owner = getattr(owner, part)
                except (ImportError, AttributeError):
                    continue  # absent: its metrics read None
                pairs.append((owner, self._wrap(name, owner)))
        return pairs

    def metrics(self) -> dict[str, float | int | None]:
        """Flat per-layer metrics; absent functions map to None."""
        out: dict[str, float | int | None] = {}
        for name in traced_names():
            calls, incl, self_s, count = self.stats.get(name, (None,) * 4)
            out[f"{name}.calls"] = calls
            out[f"{name}.incl_s"] = incl
            out[f"{name}.self_s"] = self_s
            if name in COUNTERS:
                suffix, _counter, share = COUNTERS[name]
                if calls is None:
                    value = None
                elif share:
                    value = count / calls if calls else 0.0
                else:
                    value = count
                out[f"{name}.{suffix}"] = value
        return out

    def total_self_s(self) -> float:
        return sum(stat[2] for stat in self.stats.values())
