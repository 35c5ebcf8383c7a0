#!/usr/bin/env python3
"""Time cold beta(k, nu) sums over a sweep of exponents.

Each run is a fresh interpreter that imports covercount from this
checkout's src/ (the import is not timed) and then computes beta(k, nu) for
every nu in NUS and every k up to the bound, with the package's caches
empty, as a table over several surface genera does.  The report gives the
median and quartiles of the runs for each bound, the largest peak RSS
(ru_maxrss) of any run, and a sha256 of the computed values; every run must
give the same digest, so a change that alters a value cannot pass as a
speed-up.  Stdlib only.

    python3 benchmarks/bench_characters.py [--repeats 5]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

NUS = (0, 1, 2, 3, 4, 6)
BOUNDS = (28, 40)

CHILD = """
import hashlib, json, resource, sys, time
from covercount.characters import beta
nus, bound = json.loads(sys.argv[1]), int(sys.argv[2])
start = time.perf_counter()
values = [beta(k, nu) for nu in nus for k in range(1, bound + 1)]
seconds = time.perf_counter() - start
digest = hashlib.sha256(repr(values).encode()).hexdigest()
rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"seconds": seconds, "sha256": digest, "rss_mib": rss_mib}))
"""


def run_once(bound):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(NUS), str(bound)],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    result = json.loads(out)
    return result["seconds"], result["sha256"], result["rss_mib"]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5, help="fresh processes per bound")
    options = parser.parse_args()
    if options.repeats < 1:
        parser.error("--repeats must be at least 1")

    print(f"cold beta(k, nu) for nu in {NUS}, {options.repeats} fresh processes per bound")
    for bound in BOUNDS:
        times, digests, rss = [], set(), []
        for _ in range(options.repeats):
            seconds, digest, rss_mib = run_once(bound)
            times.append(seconds)
            digests.add(digest)
            rss.append(rss_mib)
        if len(digests) != 1:
            raise SystemExit(f"k <= {bound}: runs disagree, digests {sorted(digests)}")
        if len(times) > 1:
            q1, _, q3 = statistics.quantiles(times, n=4)
            spread = f" (q1 {q1:.4f}, q3 {q3:.4f})"
        else:
            spread = ""
        print(
            f"k <= {bound}: median {statistics.median(times):.4f} s{spread}"
            f"  max RSS {max(rss):.1f} MiB  sha256 {digests.pop()}"
        )


if __name__ == "__main__":
    main()
