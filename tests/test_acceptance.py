"""Acceptance gate: every release criterion, one test and one printed line each.

All comparisons are exact integer equality.  Run with ``pytest -s`` to see
the line per criterion; criteria with a runtime budget assert it too.
"""

import time
from itertools import combinations_with_replacement
from math import factorial

from covercount import oracle
from covercount.abelian import HomologySignature, epi_count, hom_count
from covercount.census import (
    Free,
    NonOrientableSurface,
    OrientableSurface,
    count_nonorientable_subgroups,
    count_orientable_subgroups,
    count_subgroups,
    r_nu_recursive,
)
from covercount.characters import beta
from covercount.classes import census_table, count_classes
from covercount.numtheory import divisors
from covercount.oracle import (
    oracle_count_classes,
    oracle_count_subgroups,
    oracle_orientable_split,
)

from test_census import _load_reference, r_nu_closed
from test_classes import _inline_count_classes

partition_reference = _load_reference("partition_reference")
partitions = partition_reference.partitions
hook_product = partition_reference.hook_product
oracle_epi_count = _load_reference("epi_reference").oracle_epi_count


def _report(number, text):
    print(f"criterion {number}: PASS  {text}")


def _sigma(n):
    return sum(divisors(n))


def _partition_count(k):
    table = [1] + [0] * k
    for part in range(1, k + 1):
        for total in range(part, k + 1):
            table[total] += table[total - part]
    return table[k]


def test_criterion_1_free_rank_two_subgroup_counts():
    start = time.perf_counter()
    expected = [1, 3, 13, 71, 461, 3447]
    assert [count_subgroups(Free(2), n) for n in range(1, 7)] == expected
    for n in range(1, 7):
        assert oracle_count_subgroups(Free(2), n) == expected[n - 1]
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    _report(1, f"free:2 M(1..6) = {expected}, oracle confirms n <= 6 ({elapsed:.2f}s)")


def test_criterion_2_free_rank_two_class_counts():
    start = time.perf_counter()
    expected = [1, 3, 7, 26, 97, 624]
    assert [count_classes(Free(2), n) for n in range(1, 7)] == expected
    for n in range(1, 7):
        assert oracle_count_classes(Free(2), n) == expected[n - 1]
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    _report(2, f"free:2 N(1..6) = {expected}, oracle confirms n <= 6 ({elapsed:.2f}s)")


def test_criterion_3_torus_counts_are_divisor_sums():
    torus = OrientableSurface(1)
    for n in range(1, 21):
        sigma = _sigma(n)
        assert count_subgroups(torus, n) == sigma
        assert r_nu_closed(n, 0) == sigma
        assert count_classes(torus, n) == sigma
    _report(3, "orient:1 M(n) = N(n) = sigma(n) for n <= 20, closed form and class route")


def test_criterion_4_genus_two_surface(monkeypatch):
    start = time.perf_counter()
    # The least-table pruning keeps the index-5 search within 700,000 nodes
    # (it visits 624,699; the full-leaf reference in the tests, 1,974,904).
    monkeypatch.setattr(oracle, "NODE_LIMIT", 700_000)
    oracle._coset_search.cache_clear()
    genus2 = OrientableSurface(2)
    assert count_subgroups(genus2, 2) == 15
    assert count_classes(genus2, 2) == 15
    for n in (2, 3, 4, 5):
        assert oracle_count_subgroups(genus2, n) == count_subgroups(genus2, n)
        assert oracle_count_classes(genus2, n) == count_classes(genus2, n)
    assert oracle_count_subgroups(genus2, 5) == 151086
    assert oracle_count_classes(genus2, 5) == 30342
    for n in range(1, 11):
        assert count_classes(genus2, n) == _inline_count_classes(genus2, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    _report(4, f"orient:2 M(2) = N(2) = 15, oracle n <= 5, inline route n <= 10 ({elapsed:.2f}s)")


def test_criterion_5_nonorientable_surfaces():
    start = time.perf_counter()
    for p, expected, oracle_max in ((3, (7, 1, 6, 7), 6), (2, (3, 1, 2, 3), 12)):
        kind = NonOrientableSurface(p)
        assert count_subgroups(kind, 2) == expected[0]
        assert count_orientable_subgroups(p, 2) == expected[1]
        assert count_nonorientable_subgroups(p, 2) == expected[2]
        assert count_classes(kind, 2) == expected[3]
        for n in range(1, 9):
            assert count_classes(kind, n) == _inline_count_classes(kind, n)
        for n in range(1, oracle_max + 1):
            assert oracle_count_subgroups(kind, n) == count_subgroups(kind, n)
            assert oracle_count_classes(kind, n) == count_classes(kind, n)
            plus, minus = oracle_orientable_split(p, n)
            assert plus == count_orientable_subgroups(p, n)
            assert minus == count_nonorientable_subgroups(p, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    _report(
        5,
        "nonorient:3 (M, M+, M-, N)(2) = (7, 1, 6, 7) and nonorient:2 (3, 1, 2, 3), "
        f"oracle and split confirmed for n <= 6 and n <= 12 ({elapsed:.2f}s)",
    )


def test_criterion_6_closed_and_recursive_routes_agree():
    for nu in range(0, 5):
        for m in range(1, 13):
            # r_nu_closed raises if its total over lcm(1..m) leaves a
            # remainder, so equality here covers the denominator check.
            assert r_nu_closed(m, nu) == r_nu_recursive(m, nu)
    _report(6, "r_nu closed form equals recursion for m <= 12, nu <= 4, denominators unit")


def test_criterion_7_epimorphism_counts():
    checked = 0
    for size in range(0, 3):
        for torsion in combinations_with_replacement(range(2, 7), size):
            for rank in range(0, 5):
                sig = HomologySignature(torsion, rank)
                for ell in range(1, 25):
                    total = sum(epi_count(sig, d) for d in divisors(ell))
                    assert total == hom_count(sig, ell)
                    checked += 1
    for size in range(0, 3):
        for torsion in combinations_with_replacement((2, 3, 4), size):
            for rank in range(0, 4 - size):
                sig = HomologySignature(torsion, rank)
                for ell in range(1, 13):
                    assert epi_count(sig, ell) == oracle_epi_count(sig, ell)
    _report(7, f"epi/hom Mobius inversion checked on {checked} cases, oracle agrees")


def test_criterion_8_structural_invariants():
    kinds = [
        Free(1),
        Free(2),
        Free(3),
        OrientableSurface(1),
        OrientableSurface(2),
        OrientableSurface(3),
        NonOrientableSurface(2),
        NonOrientableSurface(3),
        NonOrientableSurface(4),
    ]
    for kind in kinds:
        table = census_table(kind, 10)
        for row in table.rows:
            # The inline route asserts that its accumulator is divisible
            # by n, independently of the driver's own check.
            assert _inline_count_classes(kind, row.n) == row.conjugacy_classes
            assert row.conjugacy_classes <= row.subgroups <= row.n * row.conjugacy_classes
            if row.orientable_subgroups is not None:
                assert row.orientable_subgroups + row.nonorientable_subgroups == row.subgroups
        assert table.rows[1].conjugacy_classes == table.rows[1].subgroups
    _report(8, f"divisibility, class bounds, index-2 equality and splits on {len(kinds)} tables")


def test_criterion_9_character_degrees():
    for k in range(1, 13):
        # Each degree is k! over the hook product, which must divide it.
        degrees = [divmod(factorial(k), hook_product(parts)) for parts in partitions(k)]
        assert all(rem == 0 for _, rem in degrees)
        assert sum(deg**2 for deg, _ in degrees) == factorial(k)
    for k in range(1, 21):
        assert beta(k, 0) == _partition_count(k)
    _report(9, "degree squares sum to k! for k <= 12, beta(k, 0) counts partitions for k <= 20")


def test_criterion_10_free_rank_two_oracle_at_index_eight(monkeypatch):
    start = time.perf_counter()
    # Within 250,000 nodes (it visits 198,904; the full-leaf reference in the
    # tests, 1,122,878).
    monkeypatch.setattr(oracle, "NODE_LIMIT", 250_000)
    oracle._coset_search.cache_clear()
    assert oracle_count_subgroups(Free(2), 8) == count_subgroups(Free(2), 8) == 273343
    assert oracle_count_classes(Free(2), 8) == count_classes(Free(2), 8) == 34470
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    _report(10, f"free:2 M(8) = 273343 and N(8) = 34470, confirmed by the oracle ({elapsed:.2f}s)")
