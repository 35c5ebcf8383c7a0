#!/usr/bin/env python3
"""Benchmark the oracle's coset-table search against the tuple kernels.

Each case runs one tuple-kernel entry point, then the coset-table search
at the same relation, generator count and index, and checks that the two
agree (the search's counts times (n-1)! are the kernels' transitive tuple
counts), so this doubles as a consistency check.  The default set keeps
the kernels under a minute in total; pass --full for larger cases where
they take several minutes.

    PYTHONPATH=src python benchmarks/bench_oracle.py [--full]
"""

import argparse
import time
from math import factorial

from covercount import _pykernels
from covercount.oracle import _coset_search

# (label, entry point name, args)
CASES = [
    ("free:2 n=5 count", "count_relation_tuples", (_pykernels.REL_FREE, 2, 5)),
    ("free:2 n=6 count", "count_relation_tuples", (_pykernels.REL_FREE, 2, 6)),
    ("orient:2 n=4 count", "count_relation_tuples", (_pykernels.REL_COMMUTATOR, 4, 4)),
    ("nonorient:3 n=4 count", "count_relation_tuples", (_pykernels.REL_SQUARES, 3, 4)),
    ("free:2 n=5 orbits", "count_transitive_orbits", (_pykernels.REL_FREE, 2, 5)),
    ("orient:2 n=3 orbits", "count_transitive_orbits", (_pykernels.REL_COMMUTATOR, 4, 3)),
    ("nonorient:2 n=6 split", "count_orientation_split", (2, 6)),
]

FULL_CASES = [
    ("free:2 n=7 count", "count_relation_tuples", (_pykernels.REL_FREE, 2, 7)),
    ("free:2 n=6 orbits", "count_transitive_orbits", (_pykernels.REL_FREE, 2, 6)),
    ("nonorient:3 n=5 split", "count_orientation_split", (3, 5)),
]


def run_case(entry, args):
    start = time.perf_counter()
    result = getattr(_pykernels, entry)(*args)
    return result, time.perf_counter() - start


def run_search(entry, args):
    """The search's counts in the kernel's terms, and the search's time.

    count_relation_tuples also counts intransitive tuples, which the search
    never visits, so only its transitive count is compared.
    """
    if entry == "count_orientation_split":
        rel, (gens, n) = _pykernels.REL_SQUARES, args
    else:
        rel, gens, n = args
    _coset_search.cache_clear()
    start = time.perf_counter()
    subgroups, classes, orientable = _coset_search(rel, gens, n)
    seconds = time.perf_counter() - start
    base = factorial(n - 1)
    if entry == "count_relation_tuples":
        return subgroups * base, seconds
    if entry == "count_transitive_orbits":
        return (subgroups * base, classes), seconds
    return (orientable * base, (subgroups - orientable) * base), seconds


def comparable(entry, result):
    return result[1] if entry == "count_relation_tuples" else result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="include the larger cases")
    options = parser.parse_args()

    cases = CASES + (FULL_CASES if options.full else [])
    print(f"{'case':26} {'kernels':>10} {'coset':>10}  result")
    for label, entry, args in cases:
        kernel_result, kernel_time = run_case(entry, args)
        search_result, search_time = run_search(entry, args)
        if comparable(entry, kernel_result) != search_result:
            raise SystemExit(f"coset search mismatch on {label}: {kernel_result} vs {search_result}")
        print(f"{label:26} {kernel_time:9.3f}s {search_time:9.3f}s  {kernel_result}")


if __name__ == "__main__":
    main()
