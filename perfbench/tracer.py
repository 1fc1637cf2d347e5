"""In-memory spans around np-atlas's public functions, for the traced run.

``Tracer.install`` replaces each target function at every module binding that
holds it (``np_atlas.bott.bbw_cohomology``, ``np_atlas.geometry.bbw_cohomology``,
the package re-export, ...), so calls between modules are seen as well as
calls from the benchmark.  A span is (name, parent, start, end) in four flat
arrays; nothing is written until ``write`` is called after the timed loop.
Spans nest on one stack, which assumes a single thread: the runner leaves
NP_ATLAS_THREADS unset.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from pathlib import Path

# Every public function the per-layer metrics name, as "<module>.<function>".
LAYER_FUNCTIONS = (
    "partitions.weyl_dimension",
    "bott.bbw_cohomology",
    "schur.lr_coefficient",
    "schur.tensor_decompose",
    "schur.filtration_quotients",
    "plethysm.wedge_of_wedge2",
    "plethysm.wedge_of_sym2",
    "geometry.restriction_surjectivity_check",
    "syzygy.np_threshold",
    "syzygy.np_certify",
    "syzygy.g2_np_certify",
    "syzygy.schur_complex_term",
    "cli.main",
)
# Functions whose distinct first arguments are counted, to show repeated work.
DISTINCT_ARGS = ("bott.bbw_cohomology",)
# lru_cache'd functions whose hit ratio is read from cache_info().
CACHED_FUNCTIONS = ("schur.lr_coefficient", "schur._mult_in_product")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.errors: list[int] = []
        self.distinct: dict[int, set] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count_distinct: bool = False):
        """Return fn wrapped in a span named ``name``."""
        nid = len(self.names)
        self.names.append(name)
        self.errors.append(0)
        seen = self.distinct.setdefault(nid, set()) if count_distinct else None
        stack, clock = self._stack, self.clock
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if seen is not None:
                seen.add(args[0])
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[nid] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self, package: str = "np_atlas", targets=LAYER_FUNCTIONS) -> None:
        """Wrap each target at every binding in the package's loaded modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for target in targets:
            module_name, func = target.rsplit(".", 1)
            original = getattr(sys.modules[f"{package}.{module_name}"], func)
            wrapper = self.wrap(target, original, count_distinct=target in DISTINCT_ARGS)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    @staticmethod
    def hit_ratios(package: str = "np_atlas") -> dict[str, float]:
        """Hits over lookups of each cached function, read after ``uninstall``;
        0 for a function without a cache."""
        out = {}
        for target in CACHED_FUNCTIONS:
            module_name, func = target.rsplit(".", 1)
            fn = getattr(sys.modules[f"{package}.{module_name}"], func)
            info = fn.cache_info() if hasattr(fn, "cache_info") else None
            lookups = info.hits + info.misses if info else 0
            out[target] = info.hits / lookups if lookups else 0.0
        return out

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def summary(self) -> dict[str, dict]:
        """Per name: calls, errors, self_s and (where counted) distinct.

        A span's self time is its duration minus its children's durations;
        spans nest properly on one thread, so children never overlap.
        """
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "self_s": 0.0, "errors": self.errors[nid]}
               for nid, name in enumerate(self.names)}
        for i, nid in enumerate(self.name_of):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += self.end[i] - self.start[i] - child[i]
        for nid, seen in self.distinct.items():
            out[self.names[nid]]["distinct"] = len(seen)
        return out

    def write(self, path: Path) -> None:
        """Write spans as gzipped TSV: name, parent index, start and end in ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name\tparent\tstart_ns\tend_ns\n")
            for i, nid in enumerate(self.name_of):
                fh.write(f"{self.names[nid]}\t{self.parent[i]}\t"
                         f"{round(self.start[i] * 1e9)}\t{round(self.end[i] * 1e9)}\n")
