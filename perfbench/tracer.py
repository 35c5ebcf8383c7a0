"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each covercount layer module from
outside the package.  Every call through a wrapper records a span (name,
start, end, parent span) in flat arrays kept in memory until the process
ends.  A span's self time is its duration minus the durations of its
direct children; spans of one thread never overlap, so the children cover
exactly the sum of their durations.

The modules import one another's functions by name (census calls the
``beta`` it imported from characters, cli calls the ``census_table`` it
imported from classes), so every binding of a function is replaced, each
with the same wrapper, and the span is named after the module that defines
the function.  The three oracle kernel entry points are wrapped on
``covercount.oracle._kernels``, whichever backend that is, and named
``oracle.<entry>``.
"""

import functools
import importlib
import time
from array import array
from math import factorial

LAYER_MODULES = ("cli", "classes", "census", "characters", "abelian", "numtheory", "oracle")

# cli is wrapped at its entry point only.  The cmd_* handlers are reached
# through argparse's dispatch from main, so argument handling and the
# formatting of large integers count as main's self time.
ENTRY_ONLY = {"cli": ("main",)}

KERNEL_ENTRIES = ("count_relation_tuples", "count_transitive_orbits", "count_orientation_split")

# The per-layer metrics a traced run reports, with their units.  A function
# that never runs on a workload reports 0 calls, 0 s and a hit ratio of 0.
PER_LAYER = {
    "characters.hook_product.calls": "count",
    "characters.hook_product.self_s": "s",
    "characters.partitions.items": "count",
    "characters.partitions.self_s": "s",
    "characters.beta.calls": "count",
    "characters.beta.self_s": "s",
    "characters.beta.hit_ratio": "ratio",
    "census.hall_t.calls": "count",
    "census.hall_t.self_s": "s",
    "census.hall_t.hit_ratio": "ratio",
    "census.r_nu_recursive.calls": "count",
    "census.r_nu_recursive.self_s": "s",
    "census.r_nu_recursive.hit_ratio": "ratio",
    "census.count_subgroups.self_s": "s",
    "census.covering_fiber.self_s": "s",
    "classes.census_table.self_s": "s",
    "classes.count_classes.calls": "count",
    "classes.count_classes.self_s": "s",
    "numtheory.calls": "count",
    "numtheory.self_s": "s",
    "abelian.epi_count.calls": "count",
    "oracle.count_relation_tuples.self_s": "s",
    "oracle.count_transitive_orbits.self_s": "s",
    "oracle.count_orientation_split.self_s": "s",
    "oracle.tuples_visited": "count",
    "oracle.transitive_tuples": "count",
    "oracle.orbits": "count",
    "oracle.useful_ratio": "ratio",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _kernel_counter(transitive, orbits=None):
    # Every kernel entry point takes (..., generator count, n) and visits
    # all (n!)^generators tuples.
    def count(counts, args, result):
        gens, n = args[-2], args[-1]
        _add(counts, "oracle.tuples_visited", factorial(n) ** gens)
        _add(counts, "oracle.transitive_tuples", transitive(result))
        if orbits is not None:
            _add(counts, "oracle.orbits", orbits(result))

    return count


COUNTERS = {
    "characters.partitions": lambda counts, args, result: _add(
        counts, "characters.partitions.items", len(result)
    ),
    "oracle.count_relation_tuples": _kernel_counter(lambda r: r[1]),
    "oracle.count_transitive_orbits": _kernel_counter(lambda r: r[0], lambda r: r[1]),
    "oracle.count_orientation_split": _kernel_counter(sum),
}


class Tracer:
    """Records nested spans and counts; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counts = {}
        self._stack = [-1]

    def wrap(self, name, func, count=None):
        """A wrapper that records one span named `name` per call of func."""
        name_id = len(self.names)
        self.names.append(name)
        clock, stack = self.clock, self._stack
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        if hasattr(func, "cache_info"):
            traced.cache_info = func.cache_info
        return traced

    def self_times(self):
        """Each span's duration minus the durations of its direct children."""
        starts, ends, parents = self.starts, self.ends, self.parents
        own = [ends[i] - starts[i] for i in range(len(starts))]
        for i, parent in enumerate(parents):
            if parent >= 0:
                own[parent] -= ends[i] - starts[i]
        return own

    def by_name(self):
        """{span name: (calls, self time)}, for every wrapped name."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for name_id, own in zip(self.name_ids, self.self_times()):
            calls[name_id] += 1
            self_s[name_id] += own
        return {name: (calls[i], self_s[i]) for i, name in enumerate(self.names)}

    def top_level_s(self):
        """Time covered by spans that have no parent."""
        return sum(
            self.ends[i] - self.starts[i] for i, parent in enumerate(self.parents) if parent < 0
        )

    def dump(self):
        """Spans and counts as a JSON-ready dict."""
        return {
            "names": self.names,
            "spans": [
                [self.name_ids[i], self.starts[i], self.ends[i], self.parents[i]]
                for i in range(len(self.starts))
            ],
            "counts": self.counts,
        }


def instrument(tracer):
    """Wrap every layer's public functions at every binding.

    Returns (caches, restore): the lru-cached originals by span name, and a
    function that puts every original binding back.
    """
    wrappers = {}
    caches = {}
    replaced = []

    def replace(owner, attr, wrapper):
        replaced.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    for short in LAYER_MODULES:
        module = importlib.import_module(f"covercount.{short}")
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or isinstance(value, type) or not callable(value):
                continue
            home = getattr(value, "__module__", None) or ""
            if not home.startswith("covercount."):
                continue
            home_short = home.rsplit(".", 1)[1]
            entries = ENTRY_ONLY.get(home_short)
            if entries is not None and value.__name__ not in entries:
                continue
            if value not in wrappers:
                name = f"{home_short}.{value.__name__}"
                wrappers[value] = tracer.wrap(name, value, COUNTERS.get(name))
                if hasattr(value, "cache_info"):
                    caches[name] = value
            replace(module, attr, wrappers[value])

    kernels = importlib.import_module("covercount.oracle")._kernels
    for entry in KERNEL_ENTRIES:
        name = f"oracle.{entry}"
        replace(kernels, entry, tracer.wrap(name, getattr(kernels, entry), COUNTERS.get(name)))

    def restore():
        for owner, attr, original in reversed(replaced):
            setattr(owner, attr, original)

    return caches, restore


def layer_metrics(tracer, caches):
    """Every per-layer figure the trace gives, by metric name.

    Includes calls and self time of every wrapped function, module totals,
    cache hit ratios and the kernel counts.  PER_LAYER names the subset a
    run reports; trace.overhead_s needs an untraced run and is added by
    the caller.
    """
    metrics = {}
    for name, (calls, self_s) in tracer.by_name().items():
        module = name.split(".", 1)[0]
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
        metrics[f"{module}.calls"] = metrics.get(f"{module}.calls", 0) + calls
        metrics[f"{module}.self_s"] = metrics.get(f"{module}.self_s", 0.0) + self_s
    for name, cached in caches.items():
        info = cached.cache_info()
        lookups = info.hits + info.misses
        metrics[f"{name}.hit_ratio"] = info.hits / lookups if lookups else 0.0
    for key in ("characters.partitions.items", "oracle.tuples_visited",
                "oracle.transitive_tuples", "oracle.orbits"):
        metrics[key] = tracer.counts.get(key, 0)
    visited = metrics["oracle.tuples_visited"]
    metrics["oracle.useful_ratio"] = metrics["oracle.transitive_tuples"] / visited if visited else 0.0
    return metrics
