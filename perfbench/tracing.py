"""Spans and counters recorded from outside the scalenets package.

Each target is a public function or method, wrapped at the module attribute
its caller resolves at call time. `cech` and `wssd` bind some names with
`from .x import y`, so those names are wrapped in the importing module as
well as in the defining one.

Three kinds of wrapper:

    SPAN   one span per call: name, start, end, parent span.
    LEAF   called thousands of times per pass; calls are timed one by one
           but kept as one aggregate per (name, parent) so memory stays
           bounded. A LEAF target must not call another wrapped target.
    COUNT  call count only, no timing, so the caller's self time keeps the
           cost (used for `descend_to_level`, which dominates call counts
           inside the rel fill).

A layer's self time is its span time minus the time of its direct child
spans and leaf aggregates. A target that no longer exists is reported as
missing instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

SPAN, LEAF, COUNT = "span", "leaf", "count"


def _lsh_index_counts(args, result, counts):
    params = args[0].params
    counts["lsh.indexes"] += 1
    counts["lsh.tables"] += params.l
    counts["lsh.concat_k"] = max(counts["lsh.concat_k"], params.k)


def _lsh_query_counts(args, result, counts):
    counts["lsh.queries"] += 1
    counts["lsh.candidates_scanned"] += result.candidates_scanned
    counts["lsh.neighbours_reported"] += len(result.neighbours)


def _wssd_counts(args, result, counts):
    counts["wssd.tuples_tier1"] += len(result.tiers.get(1, ()))
    counts["wssd.tuples_tier2"] += len(result.tiers.get(2, ()))
    for key in ("skipped", "capped", "fallback_all_roots"):
        counts["wssd." + key] += result.stats[key]


def _filtration_counts(args, result, counts):
    counts["cech.slices"] += len(result.slices)
    counts["cech.simplices"] += sum(len(s.simplices) for s in result.slices)


def _calls(key):
    def count(args, result, counts):
        counts[key] += 1

    return count


def _size(key, attr=None):
    def count(args, result, counts):
        counts[key] += len(getattr(result, attr) if attr else result)

    return count


# (span name, kind, counter or None, [(module, attribute path), ...]); the
# attribute path may name a class method as "Class.method".
TARGETS = [
    ("cli.build_forest", SPAN, None, [("scalenets.cli", "cmd_build_forest")]),
    ("cli.wspd", SPAN, None, [("scalenets.cli", "cmd_wspd")]),
    ("cli.dim_estimate", SPAN, None, [("scalenets.cli", "cmd_dim_estimate")]),
    ("forest.build", SPAN, None,
     [("scalenets.forest", "build_forest"), ("scalenets.cech", "build_forest")]),
    ("forest.net", SPAN, None, [("scalenets.forest", "build_net")]),
    ("forest.root_rel", SPAN, None, [("scalenets.forest", "build_root_rel")]),
    ("forest.cluster_tree", SPAN, _calls("forest.cluster_trees"),
     [("scalenets.forest", "build_cluster_tree")]),
    ("forest.rel_fill", SPAN, None, [("scalenets.forest", "augment_rel")]),
    ("forest.read", SPAN, None, [("scalenets.forest", "read_forest")]),
    ("forest.write", SPAN, None, [("scalenets.forest", "write_forest")]),
    ("forest.roots_within_7t", SPAN, None,
     [("scalenets.forest", "NetForest.roots_within_7t")]),
    ("forest.vcell", LEAF, _calls("forest.vcell_calls"),
     [("scalenets.forest", "vcell"), ("scalenets.cech", "vcell")]),
    ("forest.descend", COUNT, _calls("forest.descend_calls"),
     [("scalenets.forest", "descend_to_level"), ("scalenets.wssd", "descend_to_level")]),
    ("lsh.index_build", SPAN, _lsh_index_counts, [("scalenets.lsh", "LshIndex.__init__")]),
    ("lsh.query", LEAF, _lsh_query_counts, [("scalenets.lsh", "LshIndex.query")]),
    ("lsh.all_near_pairs", SPAN, _size("lsh.near_pairs"),
     [("scalenets.lsh", "LshIndex.all_near_pairs")]),
    ("geometry.read_points", SPAN, None, [("scalenets.geometry", "read_points")]),
    ("geometry.exact_nn_build", SPAN, None,
     [("scalenets.geometry", "ExactNearNeighbours.__init__")]),
    ("geometry.exact_nn_query", LEAF, _calls("geometry.exact_nn_queries"),
     [("scalenets.geometry", "ExactNearNeighbours.__call__")]),
    ("geometry.exact_nn_query", SPAN, None,
     [("scalenets.geometry", "ExactNearNeighbours.all_near_pairs")]),
    ("geometry.exact_meb", LEAF, _calls("geometry.exact_meb_calls"),
     [("scalenets.geometry", "exact_meb"), ("scalenets.cech", "exact_meb"),
      ("scalenets.wssd", "exact_meb")]),
    ("wspd.gen", SPAN, _size("wspd.pairs", "pairs"),
     [("scalenets.wspd", "gen_wspd"), ("scalenets.wssd", "gen_wspd")]),
    ("wspd.write", SPAN, None, [("scalenets.wspd", "write_wspd")]),
    ("wssd.gen", SPAN, _wssd_counts,
     [("scalenets.wssd", "gen_wssd"), ("scalenets.cech", "gen_wssd")]),
    ("cech.pipeline", SPAN, None, [("scalenets.cech", "build_cech_pipeline")]),
    ("cech.filtration", SPAN, _filtration_counts, [("scalenets.cech", "build_filtration")]),
    ("dimension.estimate", SPAN, None, [("scalenets.dimension", "estimate_dim")]),
]


def _resolve(module_name: str, path: str):
    """(owner, attribute name, current value), or None when gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(value):
        return None
    return owner, attr, value


class Tracer:
    """In-memory spans for one run; wrappers are installed per traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.leaves: dict[tuple[str, int | None], list] = {}  # -> [calls, seconds]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: set[str] = set()  # "module:attribute" of vanished targets
        self.bad_counters: set[str] = set()  # span names whose counter failed
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def _count(self, name, counter, args, result):
        try:
            counter(args, result, self.counts)
        except (AttributeError, KeyError, TypeError):
            self.bad_counters.add(name)

    def _wrap(self, name, kind, counter, fn):
        if kind == COUNT:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self._count(name, counter, args, result)
                return result
        elif kind == LEAF:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                result = fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                key = (name, self.stack[-1] if self.stack else None)
                agg = self.leaves.setdefault(key, [0, 0.0])
                agg[0] += 1
                agg[1] += elapsed
                if counter:
                    self._count(name, counter, args, result)
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index = self.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(index)
                if counter:
                    self._count(name, counter, args, result)
                return result
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for name, kind, counter, sites in TARGETS:
            for module_name, path in sites:
                found = _resolve(module_name, path)
                if found is None:
                    self.missing.add(f"{module_name}:{path}")
                    continue
                owner, attr, fn = found
                self._patched.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, kind, counter, fn))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    # -- analysis ----------------------------------------------------------

    def missing_layers(self) -> list[str]:
        """Span names whose every target vanished, or whose counter failed."""
        gone = [
            name
            for name, _, _, sites in TARGETS
            if all(f"{module}:{attr}" in self.missing for module, attr in sites)
        ]
        return gone + sorted(self.bad_counters)

    def self_times(self, root: int) -> dict[str, float]:
        """Self seconds per span name over the subtree of span `root`."""
        inside = {root}
        child = Counter()
        out: Counter = Counter()
        for i in range(root + 1, len(self.spans)):
            name, start, end, parent = self.spans[i]
            if parent not in inside:
                continue
            inside.add(i)
            child[parent] += end - start
        for (name, parent), (_, seconds) in self.leaves.items():
            if parent in inside:
                child[parent] += seconds
                out[name] += seconds
        for i in inside:
            name, start, end, _ = self.spans[i]
            out[name] += (end - start) - child[i]
        return dict(out)

    def top_level_seconds(self, root: int) -> float:
        """Summed durations of the direct children of span `root`."""
        total = sum(end - start for _, start, end, parent in self.spans if parent == root)
        total += sum(s for (_, parent), (_, s) in self.leaves.items() if parent == root)
        return total

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
            ],
            "leaf_aggregates": [
                {"name": n, "parent": p, "calls": c, "seconds": s}
                for (n, p), (c, s) in self.leaves.items()
            ],
            "missing_targets": sorted(self.missing),
            "failed_counters": sorted(self.bad_counters),
        }
