"""One workload process: a workload's operations in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py --workload NAME --seed N [--spans-out FILE]

Runs every operation of the workload through ``covercount.cli.main`` with
stdout captured, in the order the seed gives, and prints one JSON object:
each operation's exit status, error, stdout sha256, start and time, the
time from the first operation to the last (wall_s), the peak RSS of this
process, and the size of every lru cache in the package before the first
operation.
With --spans-out the layer modules are wrapped by the tracer, and the
spans and counts are written to that file at the end.

A repeat inside one process would time cache lookups, so run.py starts
a new worker for every repetition.
"""

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import sys
import time

from workloads import WORKLOADS, op_key, ordered_ops


def cache_sizes():
    """currsize of every lru cache bound in a loaded covercount module."""
    sizes = {}
    for name, module in list(sys.modules.items()):
        if name != "covercount" and not name.startswith("covercount."):
            continue
        for attr, value in vars(module).items():
            info = getattr(value, "cache_info", None)
            if callable(info):
                sizes[f"{name}.{attr}"] = info().currsize
    return sizes


def run_op(main, argv):
    """Run one operation; returns its record."""
    buffer = io.StringIO()
    status, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            status = main(list(argv))
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    digest = hashlib.sha256(buffer.getvalue().encode()).hexdigest()
    return {"op": op_key(argv), "status": status, "error": error, "sha256": digest,
            "start": start, "seconds": seconds}


def main(argv=None):
    parser = argparse.ArgumentParser(description="run one workload process")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans-out", help="trace the layers and write spans here")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import covercount
    import covercount.cli

    import_s = time.perf_counter() - start

    caches_before = cache_sizes()
    tracer = None
    if args.spans_out:
        from tracer import Tracer, instrument, layer_metrics

        tracer = Tracer()
        caches, _ = instrument(tracer)

    cli_main = covercount.cli.main
    ops = []
    start = time.perf_counter()
    for op in ordered_ops(args.workload, args.seed):
        ops.append(run_op(cli_main, op))
    wall_s = time.perf_counter() - start

    record = {
        "ops": ops,
        "wall_s": wall_s,
        "import_s": import_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "caches_before": caches_before,
        "backend": covercount.kernel_backend(),
        "python": platform.python_version(),
    }
    if tracer is not None:
        record["layers"] = layer_metrics(tracer, caches)
        record["outside_spans_s"] = wall_s - tracer.top_level_s()
        with open(args.spans_out, "w") as out:
            json.dump(tracer.dump(), out, separators=(",", ":"))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
