"""Tests of the benchmark's own logic: spans, scoring, cold start and contract.

    python3 -m pytest perfbench/tests
"""

import itertools
import json
import shutil
import subprocess
import sys
import time

import pytest

import run
import tracer
import workloads
from conftest import BENCH


def tick_clock():
    """A clock that advances one tick per reading.

    Under it a span's self time is exactly 1 + its number of direct
    children: one tick between its start and its first child, one after
    each child.
    """
    return itertools.count().__next__


def test_self_time_subtracts_direct_children():
    t = tracer.Tracer(clock=tick_clock())
    leaf = t.wrap("m.leaf", lambda: None)
    mid = t.wrap("m.mid", lambda: (leaf(), leaf()))
    top = t.wrap("m.top", lambda: (mid(), leaf()))
    top()
    assert list(t.parents) == [-1, 0, 1, 1, 0]
    assert t.by_name() == {"m.leaf": (3, 3.0), "m.mid": (1, 3.0), "m.top": (1, 3.0)}
    assert t.top_level_s() == 9.0
    assert sum(t.self_times()) == t.top_level_s()


def test_span_ends_when_the_call_raises():
    t = tracer.Tracer(clock=tick_clock())

    def fail():
        raise ValueError("boom")

    outer = t.wrap("m.outer", lambda: pytest.raises(ValueError, t.wrap("m.fail", fail)))
    outer()
    assert list(t.parents) == [-1, 0]
    assert t.by_name() == {"m.fail": (1, 1.0), "m.outer": (1, 2.0)}


@pytest.fixture
def traced_package():
    t = tracer.Tracer(clock=tick_clock())
    caches, restore = tracer.instrument(t)
    for cached in caches.values():
        cached.cache_clear()
    try:
        yield t, caches
    finally:
        restore()
        for cached in caches.values():
            cached.cache_clear()


def test_self_time_through_r_nu_recursive_self_recursion(traced_package):
    import covercount.census as census

    t, caches = traced_package
    assert census.r_nu_recursive(3, 0) == 4
    # r(3) calls beta(3), beta(2), r(1), beta(1), r(2): self 6 ticks.
    # r(2) calls beta(2), beta(1), r(1), all cache hits: self 4 ticks.
    # Each r(1) has no children: 1 tick each.
    assert t.by_name()["census.r_nu_recursive"] == (4, 12.0)
    assert t.by_name()["characters.beta"][0] == 5
    assert sum(t.self_times()) == t.top_level_s()
    metrics = tracer.layer_metrics(t, caches)
    assert metrics["census.r_nu_recursive.hit_ratio"] == 1 / 4
    assert metrics["characters.beta.hit_ratio"] == 2 / 5
    assert metrics["characters.partitions.items"] == 1 + 2 + 3


def test_every_binding_shares_one_wrapper(traced_package):
    import covercount.census as census
    import covercount.classes as classes
    import covercount.cli as cli

    assert census.count_subgroups is classes.count_subgroups is cli.count_subgroups
    assert cli.census_table is classes.census_table
    assert census.count_subgroups.__wrapped__.__module__ == "covercount.census"


def test_restore_puts_the_originals_back():
    import covercount.census as census
    import covercount.oracle as oracle

    before = (census.beta, census.hall_t, oracle._kernels.count_relation_tuples)
    _, restore = tracer.instrument(tracer.Tracer())
    assert census.beta is not before[0]
    restore()
    assert (census.beta, census.hall_t, oracle._kernels.count_relation_tuples) == before


def test_kernel_counts(traced_package):
    from covercount import Free, NonOrientableSurface, oracle

    t, caches = traced_package
    assert oracle.oracle_count_subgroups(Free(2), 3) == 13
    assert oracle.oracle_orientable_split(3, 2) == (1, 6)
    metrics = tracer.layer_metrics(t, caches)
    # free:2 n=3: 6^2 tuples, 13 * 2! transitive; nonorient:3 n=2: 2^3 tuples.
    assert metrics["oracle.tuples_visited"] == 36 + 8
    assert metrics["oracle.transitive_tuples"] == 26 + 7
    assert metrics["oracle.count_relation_tuples.calls"] == 1
    assert metrics["oracle.count_orientation_split.calls"] == 1
    assert metrics["oracle.useful_ratio"] == 33 / 44
    assert oracle.oracle_count_classes(NonOrientableSurface(3), 2) == 7
    assert tracer.layer_metrics(t, caches)["oracle.orbits"] == 7


def fake_record(workload, expected):
    ops = [
        {"op": workloads.op_key(argv), "status": 0, "error": None,
         "sha256": expected[workloads.op_key(argv)], "seconds": 0.1}
        for argv in workloads.ordered_ops(workload, 0)
    ]
    return {"ops": ops, "caches_before": {"covercount.characters.beta": 0}}


def test_matching_digests_pass():
    expected = run.load_expected()
    for workload in workloads.WORKLOADS:
        attempted = len(workloads.WORKLOADS[workload])
        assert run.score(fake_record(workload, expected), workload, expected) == (attempted, 0, [])


def test_wrong_digest_counts_as_one_failed_operation():
    expected = run.load_expected()
    record = fake_record("free-deep", expected)
    record["ops"][1]["sha256"] = "0" * 64
    attempted, failed, problems = run.score(record, "free-deep", expected)
    assert (attempted, failed) == (3, 1)
    assert len(problems) == 1 and "digest" in problems[0]


def test_error_exit_status_and_missing_operations_fail():
    expected = run.load_expected()
    record = fake_record("oracle-verify", expected)
    record["ops"][0]["error"] = "ConsistencyError: boom"
    record["ops"][1]["status"] = 1
    del record["ops"][2]
    assert run.score(record, "oracle-verify", expected)[:2] == (3, 3)
    assert run.score({"crashed": "exit status 1"}, "oracle-verify", expected)[:2] == (3, 3)


def test_warm_worker_is_a_problem_but_no_failed_operation():
    expected = run.load_expected()
    record = fake_record("surface-sweep", expected)
    record["caches_before"]["covercount.characters.beta"] = 5
    attempted, failed, problems = run.score(record, "surface-sweep", expected)
    assert (attempted, failed) == (8, 0)
    assert "cold" in problems[0]


def test_traced_counts_must_repeat():
    layers = {name: 0 for name in tracer.PER_LAYER}
    records = [
        {"traced": True, "wall_s": 2.0, "layers": dict(layers)},
        {"traced": False, "wall_s": 1.5},
        {"traced": True, "wall_s": 2.2, "layers": dict(layers, **{"census.hall_t.calls": 1})},
    ]
    problems = []
    metrics = run.traced_metrics(records, problems)
    assert metrics["trace.overhead_s"] == pytest.approx(0.6)
    assert problems == ["census.hall_t.calls differs between traced workers: [0, 1]"]


def test_times_are_scaled_by_the_probe_samples_around_them():
    ref, margin = run.PROBE_REF_S, run.PROBE_MARGIN_S
    # The CPU runs at the reference speed until t = 10, then at half of it.
    samples = [[t / 100, ref if t < 1000 else 2 * ref] for t in range(0, 2000)]

    def op(start, seconds):
        return {"start": start, "seconds": seconds}

    records = [
        {"ops": [op(1.0, 1.0), op(2.0, 1.0)], "wall_s": 2.0, "setup_s": [[0.5, 0.03]],
         "peak_rss_mib": 20.0},
        {"ops": [op(11.0, 4.0)], "wall_s": 4.0, "setup_s": [[10.5, 0.06], [10.6, 0.06]],
         "peak_rss_mib": 22.0},
    ]
    assert run.scaled(4.0, 11.0, samples) == pytest.approx(2.0)
    # A window that straddles the change averages the samples in it.
    straddle = run.scaled(1.0, 9.0 + margin, samples)
    assert 0.5 < straddle < 1.0
    metrics, raw = run.end_to_end(records, samples, attempted=3, failed=0)
    assert metrics["wall_s"] == pytest.approx(2.0)
    assert metrics["setup_s"] == pytest.approx(0.03)
    assert metrics["peak_rss_mib"] == 21.0
    assert metrics["success_rate"] == 1.0
    assert raw == {"wall_s": 3.0, "setup_s": 0.06}


def test_speed_probe_samples_and_never_imports_covercount():
    with run.speed_probe() as samples:
        time.sleep(0.3)
    assert len(samples) > 5
    assert all(seconds > 0 for _, seconds in samples)
    assert [t for t, _ in samples] == sorted(t for t, _ in samples)
    proc = subprocess.Popen(
        [sys.executable, "-X", "importtime", str(BENCH / "probe.py")], env=run.child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    time.sleep(0.3)
    proc.terminate()
    out, err = proc.communicate(timeout=10)
    assert json.loads(out)
    assert "covercount" not in err


def test_spot_checks_catch_wrong_readme_values():
    table = ["table", "--group", "free:2", "--max-index", "400"]
    assert workloads.spot_check(table, "n,M,N\n6,3447,1\n") == []
    assert workloads.spot_check(table, "n,M,N\n6,3448,1\n") != []
    verify = ["verify", "--group", "free:2", "--max-index", "2"]
    assert workloads.spot_check(verify, "n=1 PASS M=1 N=1\nn=2 PASS M=3 N=3\n") == []
    assert workloads.spot_check(verify, "n=1 PASS M=1 N=1\nn=2 FAIL M=3!=4 N=3\n") != []
    split = ["table", "--group", "nonorient:3", "--max-index", "28"]
    good = "n,M,M_plus,M_minus,N\n3,34,0,34,14\n4,?,?,?,89\n"
    assert workloads.spot_check(split, good) == []
    assert workloads.spot_check(split, good.replace("3,34,0,34,14", "3,34,1,33,14")) != []


def test_every_operation_has_an_expected_digest():
    expected = run.load_expected()
    keys = {workloads.op_key(op) for ops in workloads.WORKLOADS.values() for op in ops}
    assert keys == set(expected)


def test_seed_shuffles_order_only():
    for workload, ops in workloads.WORKLOADS.items():
        orders = {tuple(map(tuple, workloads.ordered_ops(workload, seed))) for seed in range(20)}
        assert len(orders) > 1
        assert all(sorted(order) == sorted(map(tuple, ops)) for order in orders)
        assert workloads.ordered_ops(workload, 7) == workloads.ordered_ops(workload, 7)


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER


def run_worker(tmp_path, workload, traced):
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", "0"]
    if traced:
        argv += ["--spans-out", str(tmp_path / "spans.json")]
    proc = subprocess.run(argv, env=run.child_env(), capture_output=True, text=True,
                          check=True, timeout=120)
    return json.loads(proc.stdout.splitlines()[-1])


def test_worker_starts_cold_and_passes(tmp_path):
    record = run_worker(tmp_path, "free-deep", traced=False)
    assert record["caches_before"]["covercount.characters.beta"] == 0
    assert not any(record["caches_before"].values())
    assert run.score(record, "free-deep", run.load_expected()) == (3, 0, [])


def test_traced_free_deep_bypasses_characters_and_oracle(tmp_path):
    record = run_worker(tmp_path, "free-deep", traced=True)
    layers = record["layers"]
    assert run.score(record, "free-deep", run.load_expected()) == (3, 0, [])
    assert layers["characters.hook_product.calls"] == 0
    assert layers["characters.beta.calls"] == 0
    assert layers["oracle.tuples_visited"] == 0
    assert layers["census.hall_t.calls"] > 100_000
    assert layers["cli.main.calls"] == 3
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert len(spans["spans"]) == sum(
        v for k, v in layers.items() if k.endswith(".calls") and k.count(".") == 2
    )


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "free-deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
