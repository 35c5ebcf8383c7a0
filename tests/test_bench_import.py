"""Smoke test for benchmarks/bench_import.py: it still loads, a child times
and lists the import of this covercount, and the report gives both series
without writing bytecode into the checkout."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_import.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_import", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_child_times_and_lists_the_import(bench):
    src = bench.PACKAGE.parent
    assert bench.import_seconds(src, False) > 0
    modules = bench.loaded_modules(src)
    assert {"covercount", "covercount.census", "covercount.errors"} <= set(modules)
    assert "covercount.oracle" not in modules and "dataclasses" not in modules


def test_main_reports_both_series_and_the_modules(bench, monkeypatch, capsys):
    pycache = bench.PACKAGE / "__pycache__"
    existed = pycache.exists()
    monkeypatch.setattr("sys.argv", ["bench_import.py", "--repeats", "2"])
    bench.main()
    out = capsys.readouterr().out
    assert "source: median" in out and "bytecode: median" in out
    assert "  covercount: covercount " in out
    assert pycache.exists() == existed
    monkeypatch.setattr("sys.argv", ["bench_import.py", "--repeats", "1"])
    with pytest.raises(SystemExit):
        bench.main()
