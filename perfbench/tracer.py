"""Per-layer spans around the library's entry points, installed from outside.

The library binds its functions by name (`from .intlinalg import solve`), so
patching only the defining module would miss most calls.  `Tracer.install`
replaces an entry point in every `butterflies.*` namespace that binds it,
and `uninstall` puts the originals back.

Spans are aggregated as they close: per entry point the call count, the
total time (outermost spans only, so recursion is not counted twice) and
the self time (span time minus the time of the spans it caused).  A
snapshot is plain JSON data, so the CLI workload's child processes can
send theirs to the parent, which merges them.
"""

from __future__ import annotations

import functools
import statistics
import sys
from time import perf_counter

PACKAGE = "butterflies"

ENTRY_POINTS = {
    "intlinalg": ("snf", "hnf", "solve"),
    "fgab": ("map_check", "simplify", "kernel", "cokernel", "subquotient",
             "is_exact_at", "hom_solve"),
    "twocomplex": ("homology",),
    "butterfly": ("compose", "two_morphism_find", "homology_action", "validate"),
    "exactness": ("is_exact", "les"),
    "derived": ("biext_groups",),
    "jsonio": ("parse_document", "emit"),
    "cli": ("main",),
}
# span name -> (class, method) for entry points that are methods
METHODS = {"fgab.map_check": ("FgAbMap", "__post_init__")}
# span name -> metric suffix for the share of calls that returned an answer
OUTCOMES = {
    "intlinalg.solve": "solved_ratio",
    "fgab.hom_solve": "solved_ratio",
    "butterfly.two_morphism_find": "found_ratio",
}
BITS_FROM = ("intlinalg.snf", "intlinalg.hnf")
CACHE_RATIOS = ("intlinalg.snf", "intlinalg.hnf", "intlinalg.col_echelon",
                "twocomplex.homology")
CACHE_MODULES = ("intlinalg", "fgab", "twocomplex", "butterfly")

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in ENTRY_POINTS.items() for fn in fns)


def library_modules() -> dict:
    """Short name -> module, for every imported butterflies.* module."""
    prefix = PACKAGE + "."
    return {name[len(prefix):]: mod for name, mod in sys.modules.items()
            if name.startswith(prefix) and mod is not None}


def lru_caches() -> dict:
    """'<module>.<function>' -> lru_cache object, for each cache where it is defined."""
    out = {}
    for short, mod in library_modules().items():
        for attr, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__:
                out[f"{short}.{attr.lstrip('_')}"] = obj
    return out


def clear_caches() -> None:
    for cache in lru_caches().values():
        cache.cache_clear()


def cache_stats() -> dict:
    """'<module>.<function>' -> [hits, misses, entries] since the last clear."""
    return {name: [ci.hits, ci.misses, ci.currsize]
            for name, ci in ((n, c.cache_info()) for n, c in lru_caches().items())}


def empty_snapshot() -> dict:
    return {"spans": {name: [0, 0.0, 0.0] for name in SPAN_NAMES},
            "answered": {name: 0 for name in OUTCOMES},
            "max_entry_bits": 0, "matrix_new": 0,
            "caches": {}, "cache_entries": {m: 0 for m in CACHE_MODULES},
            "import_s": []}


class Tracer:
    """Aggregating spans on the library's entry points; see the module doc."""

    def __init__(self):
        self.snap = empty_snapshot()
        self._stack = []      # child-time accumulators of the open spans
        self._patches = []    # (owner, attribute, original), in install order

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        mods = library_modules()
        namespaces = list(mods.values()) + [sys.modules[PACKAGE]]
        for name in SPAN_NAMES:
            short, fn = name.split(".")
            if name in METHODS:
                cls_name, meth = METHODS[name]
                cls = getattr(mods[short], cls_name)
                self._patch(cls, meth, self._span(name, vars(cls)[meth]))
                continue
            original = getattr(mods[short], fn)
            wrapper = self._span(name, original)
            for ns in namespaces:
                for attr, val in list(vars(ns).items()):
                    if val is original:
                        self._patch(ns, attr, wrapper)
        matrix_cls = mods["intlinalg"].IntMatrix
        original_init = matrix_cls.__init__
        snap = self.snap

        def counting_init(obj, *args, **kwargs):
            snap["matrix_new"] += 1
            original_init(obj, *args, **kwargs)

        self._patch(matrix_cls, "__init__", counting_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- spans -------------------------------------------------------------------

    def _span(self, name: str, fn):
        rec = self.snap["spans"][name]
        snap = self.snap
        stack = self._stack
        depth = [0]
        answered = name in OUTCOMES
        bits = name in BITS_FROM

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            depth[0] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                depth[0] -= 1
                if stack:
                    stack[-1][0] += dt
                rec[0] += 1
                rec[2] += dt - child[0]
                if not depth[0]:
                    rec[1] += dt
            if answered and result is not None:
                snap["answered"][name] += 1
            if bits:
                top = max((abs(e) for m in result for e in m.entries), default=0)
                snap["max_entry_bits"] = max(snap["max_entry_bits"], top.bit_length())
            return result

        return wrapper

    def finish(self) -> dict:
        """Uninstall and return the snapshot, with the caches' state added."""
        self.uninstall()
        stats = cache_stats()
        self.snap["caches"] = {name: s[:2] for name, s in stats.items()}
        for mod in CACHE_MODULES:
            self.snap["cache_entries"][mod] = sum(
                s[2] for name, s in stats.items() if name.split(".")[0] == mod)
        return self.snap


def merge(snaps: list) -> dict:
    """Combine snapshots of separate processes: counts and times add, cache
    entries and entry bits take the maximum over processes."""
    out = empty_snapshot()
    for s in snaps:
        for name, rec in s["spans"].items():
            acc = out["spans"][name]
            for k in range(3):
                acc[k] += rec[k]
        for name, n in s["answered"].items():
            out["answered"][name] += n
        out["max_entry_bits"] = max(out["max_entry_bits"], s["max_entry_bits"])
        out["matrix_new"] += s["matrix_new"]
        for name, (hits, misses) in s["caches"].items():
            acc = out["caches"].setdefault(name, [0, 0])
            acc[0] += hits
            acc[1] += misses
        for mod, n in s["cache_entries"].items():
            out["cache_entries"][mod] = max(out["cache_entries"][mod], n)
        out["import_s"].extend(s["import_s"])
    return out


def _ratio(num: int, den: int) -> float:
    """num / den, and 0.0 when nothing was attempted."""
    return num / den if den else 0.0


def layer_metrics(snap: dict, busy_s: float, overhead_frac: float) -> dict:
    """The per-layer metrics of one traced phase: name -> (value, unit).

    busy_s, the phase's summed op time, is the base of each layer's share.
    """
    out = {}
    for name, (calls, total, self_s) in snap["spans"].items():
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
        out[f"{name}.total_s"] = (total, "s")
    for name in CACHE_RATIOS:
        hits, misses = snap["caches"].get(name, (0, 0))
        out[f"{name}.cache_hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    for name, suffix in OUTCOMES.items():
        out[f"{name}.{suffix}"] = (_ratio(snap["answered"][name], snap["spans"][name][0]), "ratio")
    out["intlinalg.max_entry_bits"] = (snap["max_entry_bits"], "bits")
    out["intlinalg.matrix_new.calls"] = (snap["matrix_new"], "count")
    for mod in CACHE_MODULES:
        out[f"{mod}.cache_entries"] = (snap["cache_entries"][mod], "count")
    imports = snap["import_s"]
    out["cli.import_s"] = (statistics.median(imports) if imports else 0.0, "s")
    out["trace.busy_s"] = (busy_s, "s")
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    return out

