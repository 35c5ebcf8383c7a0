"""covercount benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload surface-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; covercount is imported from src/, nothing
is built.  Every repetition of a workload is a fresh worker process
(worker.py), because the package's lru caches would otherwise turn a repeat
into cache lookups; processes run one at a time, back to back (a closed
loop with one client).  Workers are started until the next one would end
after --seconds.  Every operation's stdout digest is checked against
expected.json; an operation fails if it raises, exits non-zero or prints
anything else.

--trace 0 reports the end-to-end metrics, medians over the workers:
  wall_s        summed time of the workload's operations, import excluded,
                at the reference speed (below)
  setup_s       cold `import covercount` in a fresh interpreter (median of
                SETUP_PROBES launches before each worker), at the reference
                speed
  peak_rss_mib  ru_maxrss of a worker
  success_rate  operations that passed / operations attempted

The host's cores are shared with other machines' work, and how fast they
run Python changes by up to 2x within a second.  So run.py pins itself and
every process it starts to one CPU, and an untraced run keeps probe.py
running beside the workers on that CPU.  The probe times a fixed
half-millisecond job that never imports covercount, about every 10 ms.
Each operation's time, and each set-up probe's, is multiplied by
PROBE_REF_S / (mean CPU time of the probe's job from PROBE_MARGIN_S before
it starts to PROBE_MARGIN_S after it ends): the time it would have taken
on a CPU that runs the probe's job in PROBE_REF_S.  A change to covercount moves the
scaled times as much as the raw ones; a busy host moves them far less.
The raw medians are printed and stored too.

--trace 1 alternates traced and untraced workers and reports the
per-layer metrics of tracer.PER_LAYER, plus trace.overhead_s (median
traced wall_s minus median untraced wall_s).  The traced workers' spans
go to results/<workload>.spans.json.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Every run also writes its samples and its set-up
(Python version, kernel backend, nproc, git commit, source digest, seed)
to results/.  Numbers from the cython and python kernel backends are
different series and must never be compared.
"""

import argparse
import bisect
import contextlib
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_MODULES, PER_LAYER
from workloads import WORKLOADS, op_key, ordered_ops

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB", "success_rate": "ratio"}

SETUP_PROBES = 3
SETUP_PROBE = (
    "import time; t = time.perf_counter(); import covercount; "
    "print(t, time.perf_counter() - t)"
)
PROBE_REF_S = 0.0005
PROBE_MARGIN_S = 0.1

# A worker that has not finished by then counts as failed; every run must
# end within 180 s.
DEADLINE_S = 170


def source_digest():
    """sha256 over the package's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "covercount").glob("*.py*")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def probe_setup(count, deadline):
    """Cold imports of covercount, one fresh interpreter each: a list of
    [start, seconds] pairs."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], env=child_env(), capture_output=True,
            text=True, timeout=max(1.0, deadline - time.perf_counter()), check=True,
        )
        times.append([float(field) for field in proc.stdout.split()])
    return times


@contextlib.contextmanager
def speed_probe():
    """Run probe.py while the block runs.  The list it yields receives the
    probe's [start, seconds] samples when the block ends; it stays empty if
    the probe failed."""
    samples = []
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "probe.py")], stdout=subprocess.PIPE, text=True
    )
    try:
        yield samples
    finally:
        proc.terminate()
        try:
            out, _ = proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode == 0:
        samples.extend(json.loads(out))


def load_expected():
    """{operation key: expected stdout sha256}, from expected.json."""
    ops = json.loads((BENCH / "expected.json").read_text())["ops"]
    return {key: entry["sha256"] for key, entry in ops.items()}


def launch_worker(workload, seed, deadline, spans_out=None):
    """Run one worker; returns its record, or a record of why it failed."""
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if spans_out is not None:
        argv += ["--spans-out", str(spans_out)]
    try:
        proc = subprocess.run(
            argv, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired:
        return {"crashed": "timed out"}
    if proc.returncode != 0:
        return {"crashed": f"exit status {proc.returncode}: {proc.stderr[-2000:]}"}
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return {"crashed": f"no result line: {proc.stdout[-2000:]}"}


def score(record, workload, expected):
    """(attempted, failed, problems) for one worker record.

    An operation fails if it raised, exited non-zero, printed output whose
    sha256 differs from expected, or never reported.  A worker whose caches
    were not empty before its first operation did not start cold, which
    makes the run incorrect without failing an operation.
    """
    attempted = len(WORKLOADS[workload])
    if "crashed" in record:
        return attempted, attempted, [f"worker failed: {record['crashed']}"]
    problems = []
    passed = 0
    for op in record["ops"]:
        if op["error"] is not None:
            problems.append(f"{op['op']}: {op['error']}")
        elif op["status"] != 0:
            problems.append(f"{op['op']}: exit status {op['status']}")
        elif op["sha256"] != expected.get(op["op"]):
            problems.append(f"{op['op']}: stdout digest {op['sha256']} differs from expected")
        else:
            passed += 1
    warm = {name: size for name, size in record["caches_before"].items() if size}
    if warm:
        problems.append(f"worker did not start cold: {warm}")
    return attempted, attempted - passed, problems


def sample_workers(workload, seed, seconds, deadline, traced=False):
    """Workers back to back until the next would end after `seconds`.

    Untraced runs start only untraced workers, each after SETUP_PROBES
    set-up probes, so that both kinds of sample spread over the whole run.
    Traced runs alternate traced and untraced workers, starting with a
    traced one, run at least one of each and probe nothing.  Returns the
    worker records, each with the set-up times probed before it.
    """
    records = []
    start = time.perf_counter()
    while True:
        trace_this = traced and len(records) % 2 == 0
        spans_out = RESULTS / f"{workload}.spans.json" if trace_this else None
        began = time.perf_counter()
        setup = [] if traced else probe_setup(SETUP_PROBES, deadline)
        record = launch_worker(workload, seed, deadline, spans_out)
        record["traced"] = trace_this
        record["setup_s"] = setup
        records.append(record)
        took = time.perf_counter() - began
        enough = not traced or len(records) >= 2
        if "crashed" in record or (enough and time.perf_counter() - start + took > seconds):
            return records


def median(values):
    """Median of a list; None when it is empty."""
    return statistics.median(values) if values else None


def median_of(records, key):
    """Median of one field over worker records; None when there are none."""
    return median([r[key] for r in records])


def scaled(seconds, start, samples):
    """`seconds` that began at `start`, at the reference speed: scaled by
    the mean probe time from PROBE_MARGIN_S before to PROBE_MARGIN_S after.
    Raises StatisticsError if the probe took no sample in that window.
    `samples` are the probe's [start, seconds] pairs, in time order."""
    lo = bisect.bisect_left(samples, [start - PROBE_MARGIN_S])
    hi = bisect.bisect_right(samples, [start + seconds + PROBE_MARGIN_S])
    return seconds * PROBE_REF_S / statistics.fmean(probe for _, probe in samples[lo:hi])


def end_to_end(records, samples, attempted, failed):
    """The END_TO_END metrics of untraced worker records, and the raw
    (unscaled) medians of the two times."""
    wall = [sum(scaled(op["seconds"], op["start"], samples) for op in r["ops"]) for r in records]
    setup = [scaled(t, start, samples) for r in records for start, t in r["setup_s"]]
    metrics = {
        "wall_s": median(wall),
        "setup_s": median(setup),
        "peak_rss_mib": median_of(records, "peak_rss_mib"),
        "success_rate": (attempted - failed) / attempted,
    }
    raw_setup = [t for r in records for _, t in r["setup_s"]]
    raw = {"wall_s": median_of(records, "wall_s"), "setup_s": median(raw_setup)}
    return metrics, raw


def traced_metrics(records, problems):
    """The PER_LAYER metrics of a traced run: times are medians over the
    traced workers, counts must be equal in all of them."""
    traced = [r for r in records if r["traced"] and "layers" in r]
    untraced = [r for r in records if not r["traced"] and "wall_s" in r]
    if not traced or not untraced:
        problems.append("traced run needs a traced and an untraced worker")
        return dict.fromkeys(PER_LAYER)
    metrics = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            value = median_of(traced, "wall_s") - median_of(untraced, "wall_s")
        elif name.endswith("_s"):
            value = statistics.median(r["layers"].get(name, 0.0) for r in traced)
        else:
            values = {r["layers"].get(name, 0) for r in traced}
            if len(values) != 1:
                problems.append(f"{name} differs between traced workers: {sorted(values)}")
            value = traced[0]["layers"].get(name, 0)
        metrics[name] = value
    return metrics


def layer_table(record):
    """Calls, self time and share of wall_s per layer and wrapped function."""
    layers, wall = record["layers"], record["wall_s"]
    lines = [f"  {'layer':44} {'calls':>9} {'self_s':>9} {'share':>7}"]

    def row(label, calls, own):
        lines.append(f"  {label:44} {calls:9d} {own:9.4f} {own / wall:7.1%}")

    for module in LAYER_MODULES:
        row(module, layers[f"{module}.calls"], layers[f"{module}.self_s"])
        for key in sorted(layers):
            name = key[: -len(".calls")]
            if key.startswith(f"{module}.") and key.endswith(".calls") and name.count(".") == 1:
                if layers[key]:
                    row(f"  {name}", layers[key], layers[f"{name}.self_s"])
    row("(worker, outside spans)", 0, record["outside_spans_s"])
    return "\n".join(lines)


def show(value):
    return "-" if value is None else f"{value:.6g}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "covercount" / "__init__.py").is_file():
        sys.exit(f"error: no covercount sources under {SRC}; run from the root of a checkout")
    expected = load_expected()
    missing = [op_key(op) for op in WORKLOADS[args.workload] if op_key(op) not in expected]
    if missing:
        sys.exit(f"error: no expected digest for {missing}")
    RESULTS.mkdir(exist_ok=True)
    deadline = time.perf_counter() + DEADLINE_S
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    if args.trace:
        samples = []
        records = sample_workers(args.workload, args.seed, args.seconds, deadline, traced=True)
    else:
        with speed_probe() as samples:
            records = sample_workers(args.workload, args.seed, args.seconds, deadline)

    attempted = failed = 0
    problems = []
    for record in records:
        a, f, p = score(record, args.workload, expected)
        attempted, failed, problems = attempted + a, failed + f, problems + p
    done = [r for r in records if "crashed" not in r]
    untraced = [r for r in done if not r["traced"]]
    raw = {}
    if args.trace:
        metrics = traced_metrics(done, problems)
        units = PER_LAYER
    else:
        if samples:
            metrics, raw = end_to_end(untraced, samples, attempted, failed)
        else:
            problems.append("the speed probe failed")
            metrics = dict.fromkeys(END_TO_END)
        units = END_TO_END
    backends = sorted({r["backend"] for r in done})
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "order": [op_key(op) for op in ordered_ops(args.workload, args.seed)],
        "python": platform.python_version(),
        "kernel_backend": backends[0] if len(backends) == 1 else backends,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workers": len(records),
        "error_rate": failed / attempted,
        "cpu": cpu,
        "probe_ref_s": PROBE_REF_S,
        "probe_samples": len(samples),
        "raw_medians": raw,
    }
    result = {
        "correct": failed == 0 and not problems and None not in metrics.values(),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    out = RESULTS / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    out.write_text(json.dumps(
        {"meta": meta, "problems": problems, "workers": records, "probe": samples,
         "result": result}, indent=1,
    ))

    print("# " + json.dumps(meta))
    for problem in problems:
        print(f"# problem: {problem}")
    if args.trace:
        traced = [r for r in done if r["traced"] and "layers" in r]
        if traced:
            print(f"# per-layer table, {args.workload}, first traced worker "
                  f"(wall_s {traced[0]['wall_s']:.4f}):")
            print(layer_table(traced[0]))
    for name, unit in units.items():
        print(f"{name:40} {show(metrics[name]):>14} {unit}")
    print(f"{'error_rate':40} {show(meta['error_rate']):>14} ratio")
    for name, value in raw.items():
        print(f"{name + ' (raw, unscaled)':40} {show(value):>14} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
