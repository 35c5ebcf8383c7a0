#!/usr/bin/env python3
"""Apply fixed source mutants one at a time and see whether tier-1 kills them.

Each entry of MUTANTS disables one check of src/covercount by replacing a
piece of text that occurs exactly once in its file, and names the tier-1
test expected to kill it, or None for a known survivor (a check that tier-1
cannot make fire; a comment says why).  The script copies this checkout to a
temporary directory, applies each mutant in turn to that copy, runs

    PYTHONPATH=src python -m pytest -q -x -p no:cacheprovider \
        --ignore=tests/test_mutants.py

there, restores the file, and prints one line per mutant: killed (with the
first test that failed) or survived.  The checkout itself is never written.
A mutant's run stops at its first failure; a survivor runs all of tier-1,
about 25 s.  Stdlib only.

    python3 benchmarks/mutants.py [NAME ...]

With names, only those mutants run.  The exit status is 1 when a mutant
expected to die survived or a known survivor was killed, else 0.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name: (file, old text, new text, test expected to kill it, or None)
MUTANTS = {
    "row N <= M": (
        "src/covercount/classes.py",
        "ok = row.conjugacy_classes <= row.subgroups <= row.n * row.conjugacy_classes",
        "ok = row.subgroups <= row.n * row.conjugacy_classes",
        "tests/test_classes.py::test_row_checks_fire[N <= M]",
    ),
    "row M <= n N": (
        "src/covercount/classes.py",
        "ok = row.conjugacy_classes <= row.subgroups <= row.n * row.conjugacy_classes",
        "ok = row.conjugacy_classes <= row.subgroups",
        "tests/test_classes.py::test_row_checks_fire[M <= n N]",
    ),
    "row split sum": (
        "src/covercount/classes.py",
        "if row.orientable_subgroups + row.nonorientable_subgroups != row.subgroups:",
        "if False:",
        "tests/test_classes.py::test_row_checks_fire[split sum]",
    ),
    "driver divisibility": (
        "src/covercount/classes.py",
        "if rem:\n            raise ConsistencyError(f\"epimorphism total",
        "if False:\n            raise ConsistencyError(f\"epimorphism total",
        "tests/test_classes.py::test_generic_driver_rejects_inconsistent_provider",
    ),
    "epi sign": (
        "src/covercount/abelian.py",
        "if total < 0:",
        "if False:",
        "tests/test_abelian.py::test_a_negative_epimorphism_total_raises",
    ),
    "table bound": (
        "src/covercount/census.py",
        "if not 1 <= total <= bound:",
        "if False:",
        "tests/test_census.py::test_free_subgroups_checks_its_bounds",
    ),
    "split minus < 0": (
        "src/covercount/census.py",
        "if minus < 0:",
        "if False:",
        "tests/test_census.py::test_split_refuses_more_orientable_subgroups_than_subgroups",
    ),
    # A wrong M+ rule past the range of the workloads: the exponent of the
    # orientation cover off by one for m > 40.
    "split cover past 40": (
        "src/covercount/census.py",
        "r_nu_recursive(m // 2, 2 * (p - 2))",
        "r_nu_recursive(m // 2, 2 * p - 3 if m > 40 else 2 * (p - 2))",
        "tests/test_classes.py::test_class_columns_match_the_burnside_route",
    ),
    "degrees Frobenius": (
        "src/covercount/characters.py",
        "if sum(degree * degree for degree in level.values()) != factorial(k):",
        "if False:",
        "tests/test_characters.py::test_level_with_wrong_squared_degrees_raises",
    ),
    "hook spectrum divisibility": (
        "src/covercount/characters.py",
        "if rem:\n            raise ConsistencyError(f\"a degree",
        "if False:\n            raise ConsistencyError(f\"a degree",
        "tests/test_characters.py::test_degree_that_does_not_divide_factorial_raises",
    ),
    "leaf [N(H):H] divides n": (
        "src/covercount/oracle.py",
        "if rest:",
        "if False:",
        "tests/test_oracle.py::test_coset_search_rechecks_its_results",
    ),
    "leaf bad table": (
        "src/covercount/oracle.py",
        "raise ConsistencyError(f\"coset search produced a bad table {tuple(map(tuple, table))}\")",
        "pass",
        "tests/test_oracle.py::test_coset_search_rechecks_its_results",
    ),
    # An intransitive table counts base 0 as fixing H.
    "leaf intransitive table": (
        "src/covercount/oracle.py",
        "if size < n:",
        "if False:",
        "tests/test_oracle.py::test_coset_search_rechecks_its_results",
    ),
    "leaf least table": (
        "src/covercount/oracle.py",
        "if renamed < column[row]:",
        "if False:",
        "tests/test_oracle.py::test_coset_search_rechecks_its_results",
    ),
    # The search's live list is no longer held to the leaf's scan.
    "leaf live count": (
        "src/covercount/oracle.py",
        "if fixed != 1 + len(live):",
        "if False:",
        "tests/test_oracle.py::test_coset_search_rechecks_its_results",
    ),
    # A trace of full length that fails to close no longer prunes.
    "trace closure": (
        "src/covercount/oracle.py",
        "if f != x:",
        "if False:",
        "tests/test_acceptance.py::test_criterion_4_genus_two_surface",
    ),
    # A deduced edge that clashes is skipped instead of pruning the branch.
    "deduction clash": (
        "src/covercount/oracle.py",
        "another edge already uses b.\n                            return False",
        "another edge already uses b.\n                            continue",
        "tests/test_acceptance.py::test_criterion_4_genus_two_surface",
    ),
    # A column's last free cell waits for its own node instead of being
    # deduced: the same results on more nodes.
    "forced cell not deduced": (
        "src/covercount/oracle.py",
        "if 1 not in free:",
        "if True:",
        "tests/test_acceptance.py::test_criterion_4_genus_two_surface",
    ),
    # The free counts start one short, so a column's last two free cells
    # count as one: with coset n - 1 still unopened, the column's one empty
    # open row is sent to its least unused target, never to a new coset.
    "forced cell while a coset is unopened": (
        "src/covercount/oracle.py",
        "free = [n] * gens",
        "free = [n - 1] * gens",
        "tests/test_oracle.py::test_coset_search_matches_tuple_brute_force",
    ),
    # Once every coset is open the search still branches in reading order,
    # not on the column with the fewest free cells: the same results on more
    # nodes.  Criterion 4's exact limit fails first; test_node_limit_is_exact
    # fails on it too.
    "column choice off": (
        "src/covercount/oracle.py",
        "        if count < n:\n            while True:",
        "        if True:\n            while True:",
        "tests/test_acceptance.py::test_criterion_4_genus_two_surface",
    ),
    # The new coset joins the bases uncompared.  When the forced cells
    # complete the table in the same define, the leaf finds that base still
    # live though its re-standardisation is larger.
    "new base uncompared": (
        "src/covercount/oracle.py",
        "kept = []\n                    for state in live if y < count else live + [_start(n, y)]:",
        "kept = [] if y < count else [_start(n, y)]\n                    for state in live:",
        "tests/test_acceptance.py::test_criterion_1_free_rank_two_subgroup_counts",
    ),
    # A base that an undefined entry once stopped is never resumed, so the
    # search stops pruning by it and reaches leaves that are not least.
    "blocked base kept unchecked": (
        "src/covercount/oracle.py",
        "if block[cell] >= 0:",
        "if block is _OPEN:",
        "tests/test_acceptance.py::test_criterion_1_free_rank_two_subgroup_counts",
    ),
    # A resumed comparison extends the lists of the state it was given, so
    # a sibling branch resumes a renumbering that is no longer the parent's.
    "resume writes into its state": (
        "src/covercount/oracle.py",
        "_resume(fwd, new[:], old[:], row, at)",
        "_resume(fwd, new, old, row, at)",
        "tests/test_acceptance.py::test_criterion_1_free_rank_two_subgroup_counts",
    ),
    # Only the leaves of index n are counted and checked: the rows below n
    # read 0, and their tables go unchecked.
    "leaf of index n only": (
        "src/covercount/oracle.py",
        "                    leaf(live, count)\n",
        "                    if count == n:\n                        leaf(live, count)\n",
        "tests/test_oracle.py::test_coset_search_checks_the_leaves_below_its_index",
    ),
    # The search traces the plain product of commutators and of squares
    # again while the leaf re-check keeps the inverted words.  Both words
    # present the group, but the leaf re-check now refuses tables the search
    # finds: criterion 4 fails first on it, and the agreement test fails on
    # every case but orient:1's, whose two words both say a and b commute.
    "relator words disagree": (
        "src/covercount/oracle.py",
        "            a = gens + g if g == 0 else g\n"
        "            b = gens + g + 1 if g == gens - 2 else g + 1\n"
        "            word += [a, b, (a + gens) % (2 * gens), (b + gens) % (2 * gens)]\n"
        "        return tuple(word)\n"
        "    if rel == _pykernels.REL_SQUARES:\n"
        "        return tuple(g if g == gens - 1 else gens + g for g in range(gens) for _ in range(2))\n",
        "            word += [g, g + 1, gens + g, gens + g + 1]\n"
        "        return tuple(word)\n"
        "    if rel == _pykernels.REL_SQUARES:\n"
        "        return tuple(g for g in range(gens) for _ in range(2))\n",
        "tests/test_oracle.py::test_relator_and_satisfies_relation_read_the_same_word",
    ),
    # The oracle's rows skip census_table's row check.
    "oracle rows unchecked": (
        "src/covercount/oracle.py",
        "_check_row(row)",
        "pass",
        "tests/test_oracle.py::test_oracle_table_checks_its_rows",
    ),
    # verify prints PASS, and exits 0, whatever the two rows hold.
    # test_verify_reports_a_split_mismatch fails on it first.
    "verify passes every row": (
        "src/covercount/cli.py",
        "ok = formula == brute",
        "ok = True",
        "tests/test_cli.py::test_verify_reports_mismatches",
    ),
}

# tests/test_mutants.py reads the mutated copy, finds a mutant's old text
# gone and fails, so it would kill every mutant, survivors included.
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--ignore=tests/test_mutants.py"]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "results")


def apply(text, old, new):
    """text with its one occurrence of old replaced by new."""
    if text.count(old) != 1:
        raise ValueError(f"{old!r} occurs {text.count(old)} times, not once")
    return text.replace(old, new)


def first_failure(output):
    """The first test pytest reports as failed or errored, or None."""
    match = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", output, re.MULTILINE)
    return match.group(1) if match else None


def run_mutant(copy, name):
    """(killed, first failing test) for one mutant applied to copy."""
    path, old, new, _ = MUTANTS[name]
    target = copy / path
    original = target.read_text()
    target.write_text(apply(original, old, new))
    try:
        env = dict(os.environ, PYTHONPATH="src")
        result = subprocess.run(TIER1, cwd=copy, env=env, capture_output=True, text=True)
    finally:
        target.write_text(original)
    return result.returncode != 0, first_failure(result.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", metavar="NAME", help="mutants to run (default: all)")
    options = parser.parse_args(argv)
    unknown = sorted(set(options.names) - set(MUTANTS))
    if unknown:
        parser.error(f"unknown mutants {unknown}; known: {sorted(MUTANTS)}")

    unexpected = 0
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch, "checkout")
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        for name in options.names or MUTANTS:
            expected = MUTANTS[name][3]
            killed, failure = run_mutant(copy, name)
            if killed:
                line = f"killed    {name}: first failure {failure}"
                if expected is None:
                    line += " (listed as a survivor)"
            else:
                line = f"survived  {name}"
                line += " (a known survivor)" if expected is None else f" (expected {expected})"
            unexpected += killed == (expected is None)
            print(line, flush=True)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
