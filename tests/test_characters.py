from collections import Counter
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

import covercount.characters as characters
from covercount.characters import (
    Partition,
    beta,
    degree,
    hook_product,
    hook_spectrum,
    partitions,
)
from covercount.errors import ConsistencyError

EXPONENTS = (0, 1, 2, 3, 4, 6)


def _partition_count(k):
    # Independent count of partitions by the coin-style recurrence, so the
    # enumeration route is checked against something it does not share.
    table = [1] + [0] * k
    for part in range(1, k + 1):
        for total in range(part, k + 1):
            table[total] += table[total - part]
    return table[k]


def _cell_hook_product(lam):
    # Reference: the hook length of every cell of the Young diagram, read
    # off the conjugate, multiplied one cell at a time.
    parts = lam.parts
    conj = lam.conjugate().parts
    prod = 1
    for i, row in enumerate(parts):
        for j in range(row):
            prod *= row - j + conj[j] - i - 1
    return prod


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(())
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        Partition((3, -1))
    assert Partition([3, 1]).parts == (3, 1)


def test_partition_weight():
    assert Partition((3, 1)).weight == 4
    assert Partition((1,)).weight == 1


def test_partition_conjugate():
    assert Partition((3, 1)).conjugate() == Partition((2, 1, 1))
    assert Partition((2, 2)).conjugate() == Partition((2, 2))
    for k in range(1, 9):
        for lam in partitions(k):
            assert lam.conjugate().conjugate() == lam
            assert lam.conjugate().weight == k


def test_partitions_rejects_zero():
    with pytest.raises(ValueError):
        partitions(0)


def test_partitions_of_four_in_order():
    assert [lam.parts for lam in partitions(4)] == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]


def test_partitions_lexicographically_decreasing():
    for k in range(1, 12):
        parts = [lam.parts for lam in partitions(k)]
        assert parts == sorted(parts, reverse=True)
        assert len(set(parts)) == len(parts)
        assert all(sum(p) == k for p in parts)


def test_partitions_count_matches_recurrence():
    assert len(partitions(10)) == 42
    for k in range(1, 21):
        assert len(partitions(k)) == _partition_count(k)


def test_degree_examples():
    assert degree(Partition((2, 1))) == 2
    assert degree(Partition((3, 1))) == 3
    assert degree(Partition((2, 2))) == 2
    for k in range(1, 9):
        assert degree(Partition((k,))) == 1
        assert degree(Partition((1,) * k)) == 1


def test_degree_conjugation_invariant():
    for k in range(1, 10):
        for lam in partitions(k):
            assert degree(lam) == degree(lam.conjugate())


def test_hook_product_times_degree_is_factorial():
    for k in range(1, 11):
        for lam in partitions(k):
            assert hook_product(lam) * degree(lam) == factorial(k)


def test_degree_squares_sum_to_factorial():
    for k in range(1, 11):
        assert sum(degree(lam) ** 2 for lam in partitions(k)) == factorial(k)


def test_beta_examples():
    assert beta(3, 1) == 15
    assert beta(2, 2) == 8
    assert beta(1, 7) == 1
    assert beta(2, 1) == 4


def test_beta_at_zero_counts_partitions():
    for k in range(1, 21):
        assert beta(k, 0) == len(partitions(k))


def test_beta_rejects_bad_arguments():
    with pytest.raises(ValueError):
        beta(0, 1)
    with pytest.raises(ValueError):
        beta(3, -1)


def test_beta_memoized_and_fresh_agree():
    first = beta(6, 3)
    beta.cache_clear()
    assert beta(6, 3) == first


def test_degree_raises_when_hook_product_does_not_divide(monkeypatch):
    # 5 does not divide 4!, so the guard must fire, also under python -O.
    monkeypatch.setattr(characters, "hook_product", lambda lam: 5)
    with pytest.raises(ConsistencyError):
        degree(Partition((3, 1)))


def test_hook_product_raises_when_formula_is_not_integral(monkeypatch):
    # With every factorial replaced by 1 the numerator is 1, which the
    # Vandermonde product of (3, 1)'s first-column hooks (4, 1) does not divide.
    monkeypatch.setattr(characters, "factorial", lambda n: 1)
    with pytest.raises(ConsistencyError):
        hook_product(Partition((3, 1)))


def test_hook_product_and_spectrum_match_cell_reference():
    for k in range(1, 15):
        cells = [_cell_hook_product(lam) for lam in partitions(k)]
        assert [hook_product(lam) for lam in partitions(k)] == cells
        assert hook_spectrum(k) == tuple(sorted(Counter(cells).items()))


def test_hook_spectrum_counts_partitions_and_degree_squares():
    for k in range(1, 21):
        spectrum = hook_spectrum(k)
        assert [hook for hook, _ in spectrum] == sorted({hook for hook, _ in spectrum})
        assert sum(mult for _, mult in spectrum) == len(partitions(k))
        assert sum(mult * (factorial(k) // hook) ** 2 for hook, mult in spectrum) == factorial(k)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=8))
def test_beta_matches_cell_reference_sum(k, nu):
    assert beta(k, nu) == sum(_cell_hook_product(lam) ** nu for lam in partitions(k))


def test_beta_builds_each_spectrum_once():
    beta.cache_clear()
    hook_spectrum.cache_clear()
    for nu in EXPONENTS:
        for k in range(1, 13):
            beta(k, nu)
    assert hook_spectrum.cache_info().misses == 12
    assert beta.cache_info().misses == 12 * len(EXPONENTS)


def test_hook_spectrum_rejects_zero():
    with pytest.raises(ValueError):
        hook_spectrum(0)
