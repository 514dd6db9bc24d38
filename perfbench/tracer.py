"""Outside-in tracer: wraps library functions at every binding, from outside.

A function imported with ``from .x import f`` is bound in several module
namespaces, and the registry captures some of them in ``PATH_MAPS`` and
``CHAIN_MAPS``.  Patching only the defining module would miss those calls,
so ``install`` replaces every binding that is the original object, and
``uninstall`` puts each one back.  The constructor of ``RationalDyckPath``
is traced through the class's ``__init__``.

Each wrapper records a span per call; a function's self time is its span
minus the spans of traced functions it called.  Spans are kept as running
sums in memory, not as a log.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
import time

PACKAGE = "ratdyck"

TRACED = [
    "paths.RationalDyckPath", "paths.enumerate_paths", "paths.count_paths",
    "paths.count_paths_dp", "paths.young_rows", "paths.path_from_young_rows",
    "matchings.pm", "matchings.dpm", "matchings.pm_inverse",
    "promotion.toggle", "promotion.promotion", "promotion.dual_promotion",
    "promotion.evacuation", "promotion.evacuation_fast", "promotion.dual_evacuation_fast",
    "rowmotion.rowmotion", "rowmotion.rowmotion_inverse", "rowmotion.rowvacuation",
    "rowmotion.dual_rowvacuation", "rowmotion.rowmotion_structural",
    "matching_map.mat", "matching_map.mat_inverse", "matching_map.admissible",
    "matching_map.k_sequence",
    "noncrossing.enumerate_chains", "noncrossing.ncp_to_dyck", "noncrossing.dyck_to_ncp",
    "perms.dyck1", "perms.dyck2", "perms.dyck3", "perms.e_p", "perms.e_p_inverse",
    "tilings.max_tiling", "tilings.kappa", "tilings.rsk_hat_inverse", "tilings.rsk_hat_path",
    "registry.verify", "registry.orbit_table", "registry.apply_map",
    "golden.golden_suite",
]

# Functions whose distinct first arguments are counted: the share of calls on
# a new argument caps what memoizing the function could save.
DISTINCT = ["matchings.pm", "matching_map.mat", "matching_map.mat_inverse",
            "promotion.evacuation_fast", "promotion.promotion"]

# A call's useful outcome: a toggle that swapped (returned a new path), an
# admissibility test that accepted.
_OUTCOMES = {
    "promotion.toggle": lambda args, result: result is not args[1],
    "matching_map.admissible": lambda args, result: bool(result),
}

CACHES = ["paths._step_sequences", "noncrossing.enumerate_ncps",
          "noncrossing.enumerate_chains", "noncrossing._chain_table"]


def resolve(qualname: str):
    """The object named ``module.attr`` inside the package.  Modules come from
    ``importlib``, because the package namespace shadows ``promotion`` and
    ``rowmotion`` with functions."""
    module, attr = qualname.split(".")
    return getattr(importlib.import_module(f"{PACKAGE}.{module}"), attr)


class Stat:
    __slots__ = ("calls", "self_s", "incl_s", "hits", "args")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.hits = 0  # useful outcomes, for functions with an outcome ratio
        self.args: set | None = None


class Tracer:
    def __init__(self) -> None:
        self.stats = {name: Stat() for name in TRACED}
        self.per_identity: dict[str, list] = {}
        self._undo: list = []
        self._children: list[float] = []  # child-span sums of the open spans
        self._caches = {name: resolve(name) for name in CACHES}
        self._cache_counts: dict[str, tuple[int, int]] = {}

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        children = self._children
        clock = time.perf_counter
        outcome = _OUTCOMES.get(name)
        if name in DISTINCT:
            stat.args = set()
        distinct = stat.args
        per_identity = self.per_identity if name == "registry.verify" else None

        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                inner = children.pop()
                stat.calls += 1
                stat.self_s += span - inner
                stat.incl_s += span
                if children:
                    children[-1] += span
            if outcome is not None and outcome(args, result):
                stat.hits += 1
            if distinct is not None:
                distinct.add(args[0])
            if per_identity is not None:
                entry = per_identity.setdefault(args[0], [0, 0.0])
                entry[0] += 1
                entry[1] += span
            return result

        return traced

    def _count_caches(self, sign: int) -> None:
        # hits and lookups between install and uninstall, so work done
        # after the traced span (the output checks) is left out
        for name, cache in self._caches.items():
            info = cache.cache_info()
            hits, lookups = self._cache_counts.get(name, (0, 0))
            self._cache_counts[name] = (hits + sign * info.hits,
                                        lookups + sign * (info.hits + info.misses))

    def install(self) -> None:
        self._count_caches(-1)
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        registry = importlib.import_module(f"{PACKAGE}.registry")
        for name in TRACED:
            original = resolve(name)
            if isinstance(original, type):
                cls = original
                init = cls.__init__
                cls.__init__ = self._wrap(name, init)
                self._undo.append(lambda cls=cls, init=init: setattr(cls, "__init__", init))
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append(
                            lambda m=module, a=attr, v=value: setattr(m, a, v))
            for key, entry in list(registry.PATH_MAPS.items()):
                fields = {f: wrapper for f in ("fn", "inverse") if getattr(entry, f) is original}
                if fields:
                    registry.PATH_MAPS[key] = dataclasses.replace(entry, **fields)
                    self._undo.append(lambda k=key, e=entry: registry.PATH_MAPS.__setitem__(k, e))
            for key, pair in list(registry.CHAIN_MAPS.items()):
                if original in pair:
                    registry.CHAIN_MAPS[key] = tuple(wrapper if f is original else f for f in pair)
                    self._undo.append(lambda k=key, p=pair: registry.CHAIN_MAPS.__setitem__(k, p))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()
        self._count_caches(+1)

    def report(self) -> dict:
        """Per-function counts and times, the outcome and distinct ratios
        with their bases, and the hit ratio of every process-wide cache."""
        out = {}
        for name, st in self.stats.items():
            out[name] = {"calls": st.calls, "self_s": st.self_s, "incl_s": st.incl_s}
            if name in _OUTCOMES:
                out[name]["hits"] = st.hits
            if st.args is not None:
                out[name]["distinct"] = len(st.args)
        caches = {name: {"hits": hits, "lookups": lookups}
                  for name, (hits, lookups) in self._cache_counts.items()}
        return {"functions": out, "caches": caches, "per_identity": self.per_identity}
