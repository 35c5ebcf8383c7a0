from math import factorial

import pytest

import covercount.characters as characters
from covercount.characters import Partition, beta, degree, hook_product, partitions
from covercount.errors import ConsistencyError


def _partition_count(k):
    # Independent count of partitions by the coin-style recurrence, so the
    # enumeration route is checked against something it does not share.
    table = [1] + [0] * k
    for part in range(1, k + 1):
        for total in range(part, k + 1):
            table[total] += table[total - part]
    return table[k]


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
