"""Smoke test for benchmarks/bench_oracle.py: it still loads, its tuple
kernels and coset-table search agree on one small case per entry point, and
it exits when they disagree."""

import importlib.util
from pathlib import Path

import pytest

from covercount._pykernels import REL_COMMUTATOR, REL_FREE

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_oracle.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_oracle", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "entry, args",
    [
        ("count_relation_tuples", (REL_FREE, 2, 4)),
        ("count_transitive_orbits", (REL_COMMUTATOR, 2, 3)),
        ("count_orientation_split", (3, 4)),
    ],
)
def test_kernels_and_search_agree(bench, entry, args):
    kernel_result, kernel_time = bench.run_case(entry, args)
    search_result, search_time = bench.run_search(entry, args)
    assert kernel_time >= 0 and search_time >= 0
    assert bench.comparable(entry, kernel_result) == search_result


def test_main_exits_on_disagreement(bench, monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["bench_oracle.py"])
    case = ("free:2 n=3 orbits", "count_transitive_orbits", (REL_FREE, 2, 3))
    monkeypatch.setattr(bench, "CASES", [case])
    bench.main()
    assert "free:2 n=3 orbits" in capsys.readouterr().out
    monkeypatch.setattr(bench, "run_search", lambda entry, args: ((0, 0), 0.0))
    with pytest.raises(SystemExit, match="mismatch"):
        bench.main()
