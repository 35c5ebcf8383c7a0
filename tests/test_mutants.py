"""benchmarks/mutants.py stays applicable: every mutant's text occurs once
in its file and every named killer exists.  No mutant is run here."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "benchmarks" / "mutants.py"


@pytest.fixture(scope="module")
def mutants():
    spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_mutant_text_occurs_once(mutants):
    for name, (path, old, new, _) in mutants.MUTANTS.items():
        text = (ROOT / path).read_text()
        assert text.count(old) == 1, name
        assert mutants.apply(text, old, new) != text, name


def test_each_named_killer_is_a_test(mutants):
    for name, (*_, killer) in mutants.MUTANTS.items():
        if killer is None:
            continue
        path, test = killer.split("::")
        function = re.match(r"\w+", test).group()
        assert f"\ndef {function}(" in (ROOT / path).read_text(), name


def test_tier1_leaves_this_file_out(mutants):
    # Run in the mutated copy, test_each_mutant_text_occurs_once would fail
    # on every mutant and report a survivor as killed.
    assert "--ignore=tests/test_mutants.py" in mutants.TIER1
    assert Path(__file__).resolve() == ROOT / "tests" / "test_mutants.py"


def test_apply_refuses_an_ambiguous_or_missing_text(mutants):
    with pytest.raises(ValueError, match="occurs 2 times"):
        mutants.apply("if x:\nif x:\n", "if x:", "if False:")
    with pytest.raises(ValueError, match="occurs 0 times"):
        mutants.apply("if y:\n", "if x:", "if False:")


def test_first_failure_reads_the_summary_line(mutants):
    output = "F\nFAILED tests/test_a.py::test_b[N <= M] - AssertionError\n1 failed\n"
    assert mutants.first_failure(output) == "tests/test_a.py::test_b[N <= M]"
    assert mutants.first_failure("ERROR tests/test_c.py\n") == "tests/test_c.py"
    assert mutants.first_failure("12 passed\n") is None
