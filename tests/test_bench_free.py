"""Smoke test for benchmarks/bench_free.py: it still loads, a fresh child
computes the same M list as this process, and the report refuses runs that
disagree."""

import hashlib
import importlib.util
from itertools import cycle
from pathlib import Path

import pytest

from covercount.census import free_subgroups

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_free.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_free", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_child_digest_is_the_m_list(bench):
    seconds, digest, rss_mib = bench.run_once(12, 3)
    values = [free_subgroups(k, 3) for k in range(1, 13)]
    assert digest == hashlib.sha256(repr(values).encode()).hexdigest()
    assert seconds >= 0 and rss_mib > 0


def test_main_reports_each_case_and_exits_on_disagreement(bench, monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["bench_free.py", "--repeats", "2"])
    monkeypatch.setattr(bench, "CASES", [(10, 2)])
    bench.main()
    assert "m=10 r=2: median" in capsys.readouterr().out
    digests = cycle(["a", "b"])
    monkeypatch.setattr(bench, "run_once", lambda m, r: (0.0, next(digests), 1.0))
    with pytest.raises(SystemExit, match="disagree"):
        bench.main()
