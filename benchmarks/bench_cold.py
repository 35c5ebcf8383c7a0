#!/usr/bin/env python3
"""Time covercount's layers cold, each run in a fresh interpreter.

Every run is a fresh interpreter that imports covercount from one of two
temporary copies of this checkout's src/covercount, so the checkout itself
gets no __pycache__:

  source    never gets bytecode, so each import compiles the package;
  bytecode  one untimed import writes its __pycache__, which every later
            run reads.

Every timed run sets PYTHONDONTWRITEBYTECODE=1.  The cases, in CASES:

  import     `import covercount`, from each copy;
  beta       beta(k, nu) for nu in NUS and every k up to 28, and up to 40;
  free       free_subgroups(m, r) with empty tables, so the whole table
             M(1), ..., M(m) is built, at (400, 2), (250, 3) and (300, 6),
             the deepest free-group calls of perfbench's free-deep workload;
  table      census_table(Free(r), m) at (400, 2), cold, so both the
             recursion and the class counts of every row run;
  oracle     the coset search, _coset_search, cold, for free:2, orient:2
             and nonorient:3 at every n up to (5, 4, 5), the 14 searches
             of perfbench's oracle-verify workload.

Each child prints one JSON line: when its timed job started on the
time.perf_counter() clock (the same clock in every process), how long the
job took, its peak RSS (ru_maxrss) and a sha256 of repr(values): the beta
values, the list M(1), ..., M(m), the table's column N(1), ..., N(m), the
searches' (M, N, M+) triples, or the sorted modules the import loaded
beyond those of a bare interpreter.
Every run of a case must give the same digest, so a change that alters a
value cannot pass as a speed-up.  In each repeat every case runs once, in
turn, so slow drift hits all cases alike.

Times are taken as perfbench/run.py takes them: the harness pins itself,
and so every child, to one CPU and keeps perfbench's speed probe running
beside them, and each run's time is also scaled to the probe's reference
speed by run.scaled().  The report's first line names the CPU, and probe
scaling does not make two CPUs comparable, so a before/after must run both
sides on the same CPU.  A run with no probe sample near it has no scaled
time and is left out of the scaled series.  Per case the report gives the
raw and the scaled median and quartiles, the largest peak RSS and the
digest; then the modules the import loads.  Stdlib and perfbench/run.py
only.

    python3 benchmarks/bench_cold.py [--repeats 5]
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "covercount"
sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402  perfbench's speed probe and scaling

NUS = (0, 1, 2, 3, 4, 6)

# Each snippet sets start, seconds and values.  Only `sys` and `time` are
# imported before it, as in perfbench's set-up probe.
IMPORT = """
bare = set(sys.modules)
start = time.perf_counter()
import covercount
seconds = time.perf_counter() - start
values = sorted(set(sys.modules) - bare)
"""
BETA = f"""
from covercount.characters import beta
bound = int(sys.argv[1])
start = time.perf_counter()
values = [beta(k, nu) for nu in {NUS} for k in range(1, bound + 1)]
seconds = time.perf_counter() - start
"""
FREE = """
from covercount.census import free_subgroups
m, r = int(sys.argv[1]), int(sys.argv[2])
start = time.perf_counter()
free_subgroups(m, r)
seconds = time.perf_counter() - start
values = [free_subgroups(k, r) for k in range(1, m + 1)]
"""
TABLE = """
from covercount.census import Free
from covercount.classes import census_table
m, r = int(sys.argv[1]), int(sys.argv[2])
start = time.perf_counter()
table = census_table(Free(r), m)
seconds = time.perf_counter() - start
values = [row.conjugacy_classes for row in table]
"""
ORACLE = """
from covercount.census import Free, NonOrientableSurface, OrientableSurface
from covercount.oracle import _coset_search, _presentation
kinds = (Free(2), OrientableSurface(2), NonOrientableSurface(3))
searches = [(kind, n) for kind, top in zip(kinds, sys.argv[1:]) for n in range(1, int(top) + 1)]
start = time.perf_counter()
values = [_coset_search(*_presentation(kind), n) for kind, n in searches]
seconds = time.perf_counter() - start
"""
REPORT = """
import hashlib, json, resource
print(json.dumps({
    "start": start,
    "seconds": seconds,
    "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "sha256": hashlib.sha256(repr(values).encode()).hexdigest(),
}))
"""

# (label, copy, snippet, arguments)
CASES = [
    ("import from source", "source", IMPORT, ()),
    ("import from bytecode", "bytecode", IMPORT, ()),
    ("beta k <= 28", "bytecode", BETA, (28,)),
    ("beta k <= 40", "bytecode", BETA, (40,)),
    ("free (400, 2)", "bytecode", FREE, (400, 2)),
    ("free (250, 3)", "bytecode", FREE, (250, 3)),
    ("free (300, 6)", "bytecode", FREE, (300, 6)),
    ("census_table (400, 2)", "bytecode", TABLE, (400, 2)),
    ("oracle (5, 4, 5)", "bytecode", ORACLE, (5, 4, 5)),
]


def child(snippet, path, args=(), write_bytecode=False):
    """stdout of snippet run in a fresh interpreter that imports from path."""
    env = dict(os.environ, PYTHONPATH=str(path), PYTHONDONTWRITEBYTECODE="1")
    if write_bytecode:
        del env["PYTHONDONTWRITEBYTECODE"]
    return subprocess.run(
        [sys.executable, "-c", "import sys, time\n" + snippet, *map(str, args)],
        env=env, check=True, capture_output=True, text=True,
    ).stdout


def run_once(snippet, path, args=()):
    """One timed child's record: start, seconds, rss_mib and sha256."""
    return json.loads(child(snippet + REPORT, path, args))


def spread(times):
    """Median and quartiles of times, in milliseconds."""
    if len(times) < 2:
        return "too few runs"
    q1, median, q3 = statistics.quantiles([1000 * t for t in times], n=4, method="inclusive")
    return f"median {median:.2f} ms (q1 {q1:.2f}, q3 {q3:.2f})"


def scaled_times(records, samples):
    """Scaled times of the runs that had a probe sample near them."""
    times = []
    for record in records:
        try:
            times.append(run.scaled(record["seconds"], record["start"], samples))
        except statistics.StatisticsError:
            pass
    return times


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5, help="fresh runs per case")
    options = parser.parse_args(argv)
    if options.repeats < 2:
        parser.error("--repeats must be at least 2, for quartiles")

    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    records = {label: [] for label, *_ in CASES}
    with tempfile.TemporaryDirectory() as scratch:
        copies = {name: Path(scratch, name) for name in ("source", "bytecode")}
        ignore = shutil.ignore_patterns("__pycache__")
        for path in copies.values():
            shutil.copytree(PACKAGE, path / "covercount", ignore=ignore)
        child("import covercount", copies["bytecode"], write_bytecode=True)
        with run.speed_probe() as samples:
            for _ in range(options.repeats):
                for label, copy, snippet, args in CASES:
                    records[label].append(run_once(snippet, copies[copy], args))
        modules = child(IMPORT + "print(*values)", copies["source"]).split()

    print(f"cold runs, {options.repeats} per case, pinned to CPU {cpu}, "
          f"{len(samples)} probe samples")
    for label, runs in records.items():
        digests = {r["sha256"] for r in runs}
        if len(digests) != 1:
            raise SystemExit(f"{label}: runs disagree, digests {sorted(digests)}")
        scaled = scaled_times(runs, samples)
        print(
            f"{label}: raw {spread([r['seconds'] for r in runs])}; "
            f"scaled {spread(scaled)}, {len(runs) - len(scaled)} runs dropped; "
            f"max RSS {max(r['rss_mib'] for r in runs):.1f} MiB; sha256 {digests.pop()}"
        )
    print(f"modules the import loads beyond a bare interpreter ({len(modules)}): "
          + " ".join(modules))


if __name__ == "__main__":
    main()
