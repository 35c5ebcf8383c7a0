"""Smoke test for benchmarks/bench_characters.py: it still loads, a fresh
child computes the same beta values as this process, and the report refuses
runs that disagree."""

import hashlib
import importlib.util
from itertools import cycle
from pathlib import Path

import pytest

from covercount.characters import beta

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_characters.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_characters", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_child_digest_is_the_beta_list(bench):
    seconds, digest, rss_mib = bench.run_once(6)
    values = [beta(k, nu) for nu in bench.NUS for k in range(1, 7)]
    assert digest == hashlib.sha256(repr(values).encode()).hexdigest()
    assert seconds >= 0 and rss_mib > 0


def test_main_reports_each_bound_and_exits_on_disagreement(bench, monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["bench_characters.py", "--repeats", "2"])
    monkeypatch.setattr(bench, "BOUNDS", (5,))
    bench.main()
    assert "k <= 5: median" in capsys.readouterr().out
    digests = cycle(["a", "b"])
    monkeypatch.setattr(bench, "run_once", lambda bound: (0.0, next(digests), 1.0))
    with pytest.raises(SystemExit, match="disagree"):
        bench.main()
