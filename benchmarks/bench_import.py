#!/usr/bin/env python3
"""Time a cold `import covercount` in fresh interpreters.

Each run is a fresh interpreter that times `import covercount` with
time.perf_counter, as perfbench's setup_s probe does.  Two series run
alternately, each from its own copy of this checkout's src/covercount in a
temporary directory, so the checkout itself gets no __pycache__:

  source    PYTHONDONTWRITEBYTECODE=1 and no bytecode in the copy, so every
            import compiles the package from source (perfbench inherits the
            variable, and then its setup_s moves with source bytes);
  bytecode  PYTHONDONTWRITEBYTECODE unset: one untimed import writes the
            copy's __pycache__, and every timed import reads it.

Per series the report gives the median and quartiles in milliseconds.  It
then lists the modules the import loads beyond those a bare interpreter
(`python3 -c pass`) has loaded.  Stdlib only.

    python3 benchmarks/bench_import.py [--repeats 21]
"""

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "covercount"

TIMED = "import time; t = time.perf_counter(); import covercount; print(time.perf_counter() - t)"
LOADED = "import sys{}; print('\\n'.join(sorted(sys.modules)))"


def run(code, path, write_bytecode):
    """stdout of code run in a fresh interpreter that imports from path."""
    env = dict(os.environ, PYTHONPATH=str(path))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if not write_bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    ).stdout


def import_seconds(path, write_bytecode):
    return float(run(TIMED, path, write_bytecode))


def loaded_modules(path):
    """Modules that `import covercount` adds to a bare interpreter's."""
    bare = set(run(LOADED.format(""), path, False).split())
    return sorted(set(run(LOADED.format(", covercount"), path, False).split()) - bare)


def summary(times):
    ms = [1000 * t for t in times]
    q1, median, q3 = statistics.quantiles(ms, n=4, method="inclusive")
    return f"median {median:.2f} ms (q1 {q1:.2f}, q3 {q3:.2f})"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=21, help="fresh imports per series")
    options = parser.parse_args()
    if options.repeats < 2:
        parser.error("--repeats must be at least 2")

    with tempfile.TemporaryDirectory() as scratch:
        copies = {}
        for series in ("source", "bytecode"):
            copies[series] = Path(scratch, series)
            shutil.copytree(
                PACKAGE,
                copies[series] / "covercount",
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        import_seconds(copies["bytecode"], True)
        times = {"source": [], "bytecode": []}
        for _ in range(options.repeats):
            for series, path in copies.items():
                times[series].append(import_seconds(path, series == "bytecode"))
        modules = loaded_modules(copies["source"])

    print(f"cold import covercount, {options.repeats} fresh interpreters per series")
    for series, series_times in times.items():
        print(f"{series}: {summary(series_times)}")
    stdlib = [name for name in modules if name.split(".")[0] != "covercount"]
    print(f"modules loaded beyond a bare interpreter ({len(modules)}):")
    print("  covercount: " + " ".join(name for name in modules if name not in stdlib))
    print("  stdlib: " + (" ".join(stdlib) or "(none)"))


if __name__ == "__main__":
    main()
