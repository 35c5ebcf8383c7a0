import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from covercount import _pykernels, cli, oracle
from covercount.census import FiberClass, Free, NonOrientableSurface, OrientableSurface
from covercount.classes import CensusRow
from covercount.cli import main, parse_group_spec
from covercount.errors import ConsistencyError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_group_spec():
    assert parse_group_spec("free:2") == Free(2)
    assert parse_group_spec("orient:3") == OrientableSurface(3)
    assert parse_group_spec("nonorient:4") == NonOrientableSurface(4)
    for bad in ("free", "free:", "free:x", "banana:2", "free:0", "orient:0", "nonorient:1"):
        with pytest.raises(ValueError):
            parse_group_spec(bad)
    for kind in (Free(1), Free(5), OrientableSurface(2), NonOrientableSurface(2)):
        assert parse_group_spec(str(kind)) == kind


def test_parser_is_built_once(capsys):
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    for index, out in (("3", "13\n"), ("4", "71\n")):
        assert run_cli(capsys, "count", "--group", "free:2", "--index", index) == (0, out, "")
    assert cli.build_parser() is parser


def test_count_subgroups(capsys):
    code, out, _ = run_cli(capsys, "count", "--group", "free:2", "--index", "3")
    assert code == 0
    assert out == "13\n"


def test_count_classes(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--group", "orient:1", "--index", "6", "--what", "classes"
    )
    assert code == 0
    assert out == "12\n"


def test_count_split(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--group", "nonorient:3", "--index", "2", "--what", "split"
    )
    assert code == 0
    assert out == "1 6\n"


def test_count_split_rejected_for_free_groups(capsys):
    code, out, err = run_cli(
        capsys, "count", "--group", "free:2", "--index", "2", "--what", "split"
    )
    assert code == 2
    assert out == ""
    assert "split" in err


def test_count_bad_group(capsys):
    code, _, err = run_cli(capsys, "count", "--group", "free:0", "--index", "2")
    assert code == 2
    assert "free rank" in err


def test_count_bad_index(capsys):
    code, _, err = run_cli(capsys, "count", "--group", "free:2", "--index", "0")
    assert code == 2
    assert "--index" in err


def test_table_bad_max_index(capsys):
    code, _, err = run_cli(capsys, "table", "--group", "free:2", "--max-index", "0")
    assert code == 2
    assert "--max-index" in err


def test_bad_order_and_verify_max_index_exit_two(capsys):
    code, out, err = run_cli(capsys, "epi", "--rank", "1", "--order", "0")
    assert (code, out) == (2, "")
    assert "--order" in err
    code, out, err = run_cli(capsys, "verify", "--group", "free:2", "--max-index", "-1")
    assert (code, out) == (2, "")
    assert "--max-index" in err


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--group", "free:2", "--max-index", "3")
    assert code == 0
    assert out == "n,M,N\n1,1,1\n2,3,3\n3,13,7\n"


def test_table_csv_nonorientable(capsys):
    code, out, _ = run_cli(capsys, "table", "--group", "nonorient:2", "--max-index", "2")
    assert code == 0
    assert out == "n,M,M_plus,M_minus,N\n1,1,0,1,1\n2,3,1,2,3\n"


def test_table_json(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--group", "orient:2", "--max-index", "1", "--format", "json"
    )
    assert code == 0
    assert out == '[{"n":1,"M":1,"N":1}]\n'


def test_table_json_matches_csv_values(capsys):
    code, csv_out, _ = run_cli(capsys, "table", "--group", "nonorient:3", "--max-index", "4")
    assert code == 0
    code, json_out, _ = run_cli(
        capsys, "table", "--group", "nonorient:3", "--max-index", "4", "--format", "json"
    )
    assert code == 0
    lines = csv_out.strip().split("\n")
    header = lines[0].split(",")
    records = json.loads(json_out)
    assert header == ["n", "M", "M_plus", "M_minus", "N"]
    assert [list(r) for r in records] == [header] * len(records)
    for line, record in zip(lines[1:], records):
        assert line == ",".join(str(record[c]) for c in header)


def test_table_deterministic(capsys):
    first = run_cli(capsys, "table", "--group", "free:3", "--max-index", "5")
    second = run_cli(capsys, "table", "--group", "free:3", "--max-index", "5")
    assert first == second


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--group", "free:2", "--max-index", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4
    assert lines[0] == "n=1 PASS M=1 N=1"
    assert lines[3] == "n=4 PASS M=71 N=26"


def test_verify_includes_split_for_nonorientable(capsys):
    code, out, _ = run_cli(capsys, "verify", "--group", "nonorient:3", "--max-index", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1] == "n=2 PASS M=7 M+=1 M-=6 N=7"


def test_verify_reports_a_split_mismatch(capsys, monkeypatch):
    # One orientable index-2 subgroup too many in the oracle's rows, which
    # verify reads.
    real = oracle.oracle_table

    def wrong(kind, n_max):
        rows = list(real(kind, n_max))
        two = rows[1]
        rows[1] = CensusRow(2, two.subgroups, two.conjugacy_classes,
                            two.orientable_subgroups + 1, two.nonorientable_subgroups)
        return tuple(rows)

    monkeypatch.setattr(oracle, "oracle_table", wrong)
    code, out, _ = run_cli(capsys, "verify", "--group", "nonorient:3", "--max-index", "3")
    assert code == 1
    assert out.strip().split("\n") == [
        "n=1 PASS M=1 M+=0 M-=1 N=1",
        "n=2 FAIL M=7 M+=1!=2 M-=6 N=7",
        "n=3 PASS M=34 M+=0 M-=34 N=14",
    ]


def test_verify_reports_mismatches(capsys, monkeypatch):
    # The wrong fiber goes where census_table reads M and N, the formula
    # side of verify: three more index-3 subgroups, one conjugacy class of
    # them, which no row check can see.
    real = Free.fiber

    def wrong(self, m):
        fiber = real(self, m)
        if m == 3:
            (one,) = fiber
            fiber = [FiberClass(one.signature, one.multiplicity + 3)]
        return fiber

    monkeypatch.setattr(Free, "fiber", wrong)
    code, out, _ = run_cli(capsys, "verify", "--group", "free:2", "--max-index", "3")
    assert code == 1
    lines = out.strip().split("\n")
    assert lines[2] == "n=3 FAIL M=16!=13 N=8!=7"
    assert lines[0].startswith("n=1 PASS")


def test_verify_compares_the_index_too(capsys, monkeypatch):
    # The oracle's rows numbered from 2: every count agrees with the
    # formula's row, only n does not.
    real = oracle.oracle_table

    def shifted(kind, n_max):
        return tuple(
            CensusRow(row.n + 1, row.subgroups, row.conjugacy_classes) for row in real(kind, n_max)
        )

    monkeypatch.setattr(oracle, "oracle_table", shifted)
    code, out, _ = run_cli(capsys, "verify", "--group", "free:2", "--max-index", "3")
    assert code == 1
    assert out.splitlines() == [
        "n=1!=2 FAIL M=1 N=1",
        "n=2!=3 FAIL M=3 N=3",
        "n=3!=4 FAIL M=13 N=7",
    ]


def test_verify_makes_one_coset_search_per_group(capsys, monkeypatch):
    # The three operations of perfbench's oracle-verify workload: each reads
    # every index from one search at its --max-index.
    real = oracle._coset_search
    searches = []

    def spy(rel, gens, n):
        searches.append((rel, gens, n))
        return real(rel, gens, n)

    monkeypatch.setattr(oracle, "_coset_search", spy)
    for group, n_max, presentation in (
        ("free:2", 5, (_pykernels.REL_FREE, 2)),
        ("orient:2", 4, (_pykernels.REL_COMMUTATOR, 4)),
        ("nonorient:3", 5, (_pykernels.REL_SQUARES, 3)),
    ):
        searches.clear()
        code, out, _ = run_cli(capsys, "verify", "--group", group, "--max-index", str(n_max))
        assert code == 0
        assert [line.split()[:2] for line in out.splitlines()] == [
            [f"n={n}", "PASS"] for n in range(1, n_max + 1)
        ]
        assert searches == [(*presentation, n_max)], group


def test_count_classes_gets_the_row_checks(capsys, monkeypatch):
    # No epimorphisms: N = 0 breaks M <= n N, which count --what classes
    # reports as table does, an internal fault.
    import covercount.classes as classes

    monkeypatch.setattr(classes, "_epi_count", lambda *args: 0)
    for argv in (["count", "--what", "classes", "--index", "3"], ["table", "--max-index", "3"]):
        code, out, err = run_cli(capsys, *argv, "--group", "free:2")
        assert (code, out) == (3, "")
        assert err.startswith("internal error: subgroup/class bounds violated in CensusRow(n=")


def test_verify_reads_one_census_table(capsys, monkeypatch):
    # The formula side is one census_table pass: verify itself makes no
    # one-index count and asks for no split.
    def refuse(kind, n):
        raise AssertionError(f"one-index count of {kind} at {n}")

    monkeypatch.setattr(cli, "count_subgroups", refuse)
    monkeypatch.setattr(cli, "count_classes", refuse)
    tables, running, outside = [], [], []
    real_table, real_split = cli.census_table, NonOrientableSurface.split

    def counted_table(kind, n_max):
        tables.append((kind, n_max))
        running.append(kind)
        try:
            return real_table(kind, n_max)
        finally:
            running.pop()

    def counted_split(self, m):
        if not running:
            outside.append(m)
        return real_split(self, m)

    monkeypatch.setattr(cli, "census_table", counted_table)
    monkeypatch.setattr(NonOrientableSurface, "split", counted_split)
    code, out, _ = run_cli(capsys, "verify", "--group", "nonorient:3", "--max-index", "4")
    assert code == 0
    assert out.splitlines()[-1] == "n=4 PASS M=227 M+=15 M-=212 N=89"
    assert tables == [(NonOrientableSurface(3), 4)]
    assert outside == []


def test_verify_lines_equal_the_table_rows(capsys):
    columns = {"n": "n", "M": "M", "M+": "M_plus", "M-": "M_minus", "N": "N"}
    for group in ("nonorient:3", "free:2", "orient:1"):
        _, table, _ = run_cli(capsys, "table", "--group", group, "--max-index", "4")
        code, out, _ = run_cli(capsys, "verify", "--group", group, "--max-index", "4")
        assert code == 0
        header, *rows = table.splitlines()
        for line, row in zip(out.splitlines(), rows, strict=True):
            n, status, *fields = line.split()
            assert status == "PASS"
            labels, values = zip(*(field.split("=") for field in [n, *fields]))
            assert ",".join(columns[label] for label in labels) == header, group
            assert ",".join(values) == row, group


def test_internal_fault_exits_three(capsys, monkeypatch):
    import covercount.cli as cli_module

    def broken(kind, n):
        raise ConsistencyError("cross-check failed")

    monkeypatch.setattr(cli_module, "count_subgroups", broken)
    code, out, err = run_cli(capsys, "count", "--group", "free:2", "--index", "3")
    assert code == 3
    assert out == ""
    assert err == "internal error: cross-check failed\n"


@pytest.mark.parametrize(
    "exc, status, message",
    [
        (MemoryError(), 2, "error: out of memory"),
        (RuntimeError("lost a branch"), 3, "RuntimeError: lost a branch"),
        (TypeError("not a kind"), 3, "TypeError: not a kind"),
    ],
    ids=["MemoryError", "RuntimeError", "TypeError"],
)
def test_unexpected_exceptions_have_their_own_status(
    capsys, monkeypatch, default_digit_limit, exc, status, message
):
    # Exit 1 stays reserved for a failed verify; any other exception that
    # escapes a subcommand is an internal fault and leaves its traceback.
    def broken(kind, n):
        raise exc

    monkeypatch.setattr(cli, "count_subgroups", broken)
    sys.set_int_max_str_digits(5000)
    code, out, err = run_cli(capsys, "count", "--group", "free:2", "--index", "3")
    assert (code, out) == (status, "")
    assert err.splitlines()[-1] == message
    assert err.startswith("Traceback (most recent call last):") == (status == 3)
    assert sys.get_int_max_str_digits() == 5000


def test_verify_infeasible_request(capsys, monkeypatch):
    # A small node limit: under the real one free:2 n=50 would search for
    # seconds before it is refused.
    monkeypatch.setattr(oracle, "NODE_LIMIT", 400)
    code, out, err = run_cli(capsys, "verify", "--group", "free:2", "--max-index", "50")
    assert code == 2
    assert out == ""
    assert err.startswith("error: free:2 at index 50: ")
    assert "exceeds the limit of 400 nodes" in err


def test_verify_refuses_a_search_deeper_than_the_recursion_limit(capsys):
    # free:1's search recurses once per coset, 200 deep at index 200: with
    # the limit 100 frames above the caller's depth it is refused like an
    # overrun node limit, not reported as an internal fault.
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        code, out, err = run_cli(capsys, "verify", "--group", "free:1", "--max-index", "200")
    finally:
        sys.setrecursionlimit(saved)
    assert (code, out) == (2, "")
    assert err == (
        "error: free:1 at index 200: the coset search is deeper than "
        f"Python's recursion limit of {depth + 100}\n"
    )


def test_verify_refuses_before_printing_any_index(capsys, monkeypatch):
    # free:2 searches 94 nodes at index 4 and 381 at index 5, so only the
    # last index is over the limit; no line for indices 1 to 4 is printed.
    monkeypatch.setattr(oracle, "NODE_LIMIT", 94)
    code, out, err = run_cli(capsys, "verify", "--group", "free:2", "--max-index", "5")
    assert (code, out) == (2, "")
    assert err.startswith("error: free:2 at index 5: ")
    code, out, err = run_cli(capsys, "verify", "--group", "free:2", "--max-index", "4")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "n=4 PASS M=71 N=26"


def test_epi_command(capsys):
    code, out, _ = run_cli(capsys, "epi", "--rank", "2", "--order", "2")
    assert code == 0
    assert out == "3\n"
    code, out, _ = run_cli(capsys, "epi", "--torsion", "2", "--rank", "1", "--order", "2")
    assert code == 0
    assert out == "3\n"
    code, out, _ = run_cli(capsys, "epi", "--torsion", "2,4", "--rank", "0", "--order", "4")
    assert code == 0
    assert out == "4\n"
    code, out, _ = run_cli(capsys, "epi", "--order", "1")
    assert code == 0
    assert out == "1\n"


@pytest.fixture
def default_digit_limit():
    # CPython's default limit on int-to-str conversion, whatever the
    # environment set; skipped where the interpreter has no such limit.
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("no int-to-str digit limit")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


@contextlib.contextmanager
def unlimited_digits():
    # For reading the output back; main must print it under the limit.
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def test_epi_prints_results_past_the_digit_limit(capsys, default_digit_limit):
    code, out, err = run_cli(capsys, "epi", "--rank", "15000", "--order", "2")
    assert (code, err) == (0, "")
    digits = out.strip()
    assert len(digits) == 4516
    with unlimited_digits():
        assert int(digits) == 2**15000 - 1


def test_table_json_prints_results_past_the_digit_limit(capsys, default_digit_limit):
    # M(50) of free:70 is about 50 * (50!)^69 and has 4,452 digits.
    code, out, err = run_cli(
        capsys, "table", "--group", "free:70", "--max-index", "50", "--format", "json"
    )
    assert (code, err) == (0, "")
    with unlimited_digits():
        records = json.loads(out)
        assert len(str(records[-1]["M"])) == 4452
    assert [record["n"] for record in records] == list(range(1, 51))


def test_main_restores_the_digit_limit(capsys, default_digit_limit):
    sys.set_int_max_str_digits(5000)
    assert run_cli(capsys, "epi", "--rank", "15000", "--order", "2")[0] == 0
    assert sys.get_int_max_str_digits() == 5000
    assert run_cli(capsys, "count", "--group", "free:2", "--index", "0")[0] == 2
    assert sys.get_int_max_str_digits() == 5000


def test_epi_rejects_bad_torsion(capsys):
    code, _, err = run_cli(capsys, "epi", "--torsion", "1", "--rank", "1", "--order", "2")
    assert code == 2
    assert "torsion" in err
    code, _, err = run_cli(capsys, "epi", "--torsion", "2,x", "--rank", "1", "--order", "2")
    assert code == 2
    assert "torsion" in err


def test_unknown_arguments_exit_two():
    with pytest.raises(SystemExit) as info:
        main(["count", "--group", "free:2"])
    assert info.value.code == 2


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "covercount", "count", "--group", "free:2", "--index", "4"],
        env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent)),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "71\n"
