"""Smoke test for benchmarks/bench_cold.py: it still loads, its children give
the digests of this process's values, its report covers every case without
writing bytecode into the checkout, and it exits when a case's runs
disagree.  Also pins the digests it prints for its cheap cases."""

import hashlib
import importlib.util
import itertools
import os
from pathlib import Path

import pytest

from covercount.census import Free, NonOrientableSurface, OrientableSurface, free_subgroups
from covercount.characters import beta
from covercount.classes import census_table
from covercount.oracle import _coset_search, _presentation

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_cold.py"
NUS = (0, 1, 2, 3, 4, 6)


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_cold", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digest(values):
    return hashlib.sha256(repr(values).encode()).hexdigest()


def beta_values(bound):
    return [beta(k, nu) for nu in NUS for k in range(1, bound + 1)]


def free_values(m, r):
    return [free_subgroups(k, r) for k in range(1, m + 1)]


def table_values(m, r):
    return [row.conjugacy_classes for row in census_table(Free(r), m)]


def oracle_values(*tops):
    kinds = (Free(2), OrientableSurface(2), NonOrientableSurface(3))
    return [
        _coset_search(*_presentation(kind), n)
        for kind, top in zip(kinds, tops)
        for n in range(1, top + 1)
    ]


@pytest.mark.parametrize(
    "values, args, expected",
    [
        (beta_values, (28,), "eaee1b299eebf70d44a80008caaba5000dda56b22d31af6fbbe40eb306a682a4"),
        (free_values, (400, 2), "053c1826b7a14b1186617cb3fa64882ae900e4583a1f71a41d2011a5302313ae"),
        (free_values, (250, 3), "b9ff846cd748e59178d29ef5361c946f3a2b741122c20c499401311c9138f828"),
        (free_values, (300, 6), "bbde71eaf404cabcf0f839f606dc03c56a6381c60e470f0ce13628c24c326304"),
        (table_values, (400, 2), "3349f68fe6babc3d97a320578a56b81aa96b290ca6d9f06b2000554e3cd39758"),
        (oracle_values, (5, 4, 5), "9cde7c2a373ab9eaad612efffe386af8a0d02a466faecde8a723a84e60d5d5ef"),
    ],
    ids=["beta-28", "free-400-2", "free-250-3", "free-300-6", "table-400-2", "oracle-5-4-5"],
)
def test_benchmark_digests_are_pinned(values, args, expected):
    assert digest(values(*args)) == expected


@pytest.mark.parametrize(
    "snippet, values, args",
    [
        ("BETA", beta_values, (6,)),
        ("FREE", free_values, (12, 3)),
        ("TABLE", table_values, (12, 3)),
        ("ORACLE", oracle_values, (3, 2, 3)),
    ],
    ids=["beta", "free", "table", "oracle"],
)
def test_child_digest_is_the_value_list(bench, snippet, values, args):
    record = bench.run_once(getattr(bench, snippet), bench.PACKAGE.parent, args)
    assert record["sha256"] == digest(values(*args))
    assert record["seconds"] >= 0 and record["rss_mib"] > 0
    assert bench.scaled_times([record], []) == []


def test_child_times_and_lists_the_import(bench):
    src = bench.PACKAGE.parent
    record = bench.run_once(bench.IMPORT, src)
    assert record["seconds"] > 0
    modules = bench.child(bench.IMPORT + "print(*values)", src).split()
    assert record["sha256"] == digest(modules)
    assert {"covercount", "covercount.census", "covercount.errors"} <= set(modules)
    assert "covercount.oracle" not in modules and "dataclasses" not in modules


@pytest.fixture
def cpus():
    """The harness pins its process to one CPU; give pytest its CPUs back."""
    cpus = os.sched_getaffinity(0)
    yield
    os.sched_setaffinity(0, cpus)


def report(bench, monkeypatch, capsys, cases):
    """main's output lines for cases, checked to give one line per case."""
    monkeypatch.setattr(bench, "CASES", cases)
    bench.main(["--repeats", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[1:-1]] == [label for label, *_ in cases]
    assert all(": raw median " in line and "; scaled " in line for line in lines[1:-1])
    return lines


def assert_exits_on_disagreement(bench, monkeypatch):
    count = itertools.count()

    def differing(snippet, path, args):
        return {"start": 0.0, "seconds": 0.0, "rss_mib": 1.0, "sha256": str(next(count))}

    monkeypatch.setattr(bench, "run_once", differing)
    with pytest.raises(SystemExit, match="disagree"):
        bench.main(["--repeats", "2"])


def test_main_reports_both_series_and_the_modules(bench, cpus, monkeypatch, capsys):
    pycache = bench.PACKAGE / "__pycache__"
    before = sorted(pycache.glob("*"))
    cpu = min(os.sched_getaffinity(0))
    lines = report(bench, monkeypatch, capsys, bench.CASES[:2])
    assert lines[0].startswith(f"cold runs, 2 per case, pinned to CPU {cpu}, ")
    assert " covercount.census " in lines[-1] and "covercount.oracle" not in lines[-1]
    assert sorted(pycache.glob("*")) == before
    with pytest.raises(SystemExit):
        bench.main(["--repeats", "1"])


def test_main_reports_each_bound_and_exits_on_disagreement(bench, cpus, monkeypatch, capsys):
    cases = [("beta k <= 4", "bytecode", bench.BETA, (4,)),
             ("beta k <= 5", "source", bench.BETA, (5,))]
    report(bench, monkeypatch, capsys, cases)
    assert_exits_on_disagreement(bench, monkeypatch)


def test_main_reports_each_case_and_exits_on_disagreement(bench, cpus, monkeypatch, capsys):
    cases = [("free (10, 2)", "source", bench.FREE, (10, 2)),
             ("free (12, 3)", "bytecode", bench.FREE, (12, 3))]
    report(bench, monkeypatch, capsys, cases)
    assert_exits_on_disagreement(bench, monkeypatch)
