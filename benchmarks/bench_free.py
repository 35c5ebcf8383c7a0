#!/usr/bin/env python3
"""Time cold free_subgroups(m, r) at the index of each deep free-group case.

Each run is a fresh interpreter that imports covercount from this
checkout's src/ (the import is not timed) and then computes
free_subgroups(m, r) with the package's caches and recursion tables empty,
so the whole table M(1), ..., M(m) is built in the timed call.  The report
gives, per case, the median and quartiles of the runs, the largest peak
RSS (ru_maxrss) of any run, and a sha256 of the list M(1), ..., M(m); every
run must give the same digest, so a change that alters a value cannot pass
as a speed-up.  The cases are the deepest free-group calls of the
free-deep workload in perfbench/workloads.py.  Stdlib only.

    python3 benchmarks/bench_free.py [--repeats 5]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (m, r): index and free rank.
CASES = [(400, 2), (250, 3), (300, 6)]

CHILD = """
import hashlib, json, resource, sys, time
from covercount.census import free_subgroups
m, r = int(sys.argv[1]), int(sys.argv[2])
start = time.perf_counter()
free_subgroups(m, r)
seconds = time.perf_counter() - start
values = [free_subgroups(k, r) for k in range(1, m + 1)]
digest = hashlib.sha256(repr(values).encode()).hexdigest()
rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"seconds": seconds, "sha256": digest, "rss_mib": rss_mib}))
"""


def run_once(m, r):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(m), str(r)],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    result = json.loads(out)
    return result["seconds"], result["sha256"], result["rss_mib"]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5, help="fresh processes per case")
    options = parser.parse_args()
    if options.repeats < 1:
        parser.error("--repeats must be at least 1")

    print(f"cold free_subgroups(m, r), {options.repeats} fresh processes per case")
    for m, r in CASES:
        times, digests, rss = [], set(), []
        for _ in range(options.repeats):
            seconds, digest, rss_mib = run_once(m, r)
            times.append(seconds)
            digests.add(digest)
            rss.append(rss_mib)
        if len(digests) != 1:
            raise SystemExit(f"m={m} r={r}: runs disagree, digests {sorted(digests)}")
        if len(times) > 1:
            q1, _, q3 = statistics.quantiles(times, n=4)
            spread = f" (q1 {q1:.4f}, q3 {q3:.4f})"
        else:
            spread = ""
        print(
            f"m={m} r={r}: median {statistics.median(times):.4f} s{spread}"
            f"  max RSS {max(rss):.1f} MiB  sha256 {digests.pop()}"
        )


if __name__ == "__main__":
    main()
