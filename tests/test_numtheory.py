import pytest

from covercount.numtheory import _divisor_table, divisors, mobius

from epi_reference import euler_phi


def test_divisors_examples():
    assert divisors(1) == [1]
    assert divisors(7) == [1, 7]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]


def test_divisors_ascending_and_complete():
    for n in range(1, 200):
        ds = divisors(n)
        assert ds == sorted(ds)
        assert ds == [d for d in range(1, n + 1) if n % d == 0]


def test_divisors_rejects_nonpositive():
    with pytest.raises(ValueError):
        divisors(0)
    with pytest.raises(ValueError):
        divisors(-6)


def test_mobius_examples():
    values = [mobius(n) for n in range(1, 13)]
    assert values == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    assert mobius(30) == -1
    assert mobius(49) == 0


def test_mobius_rejects_zero():
    with pytest.raises(ValueError):
        mobius(0)


def test_mobius_divisor_sum_detects_one():
    for n in range(1, 1001):
        total = sum(mobius(d) for d in divisors(n))
        assert total == (1 if n == 1 else 0)


def test_euler_phi_examples():
    values = [euler_phi(n) for n in range(1, 13)]
    assert values == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_euler_phi_rejects_zero():
    with pytest.raises(ValueError):
        euler_phi(0)


def test_euler_phi_divisor_sum_is_n():
    for n in range(1, 1001):
        assert sum(euler_phi(d) for d in divisors(n)) == n



def test_divisor_table_of_a_range_is_one_sieve():
    table, mu = _divisor_table(range(1, 201))
    assert len(table) == len(mu) == 201
    assert table[1:] == [divisors(k) for k in range(1, 201)]
    assert mu[1:] == [mobius(k) for k in range(1, 201)]


def test_divisor_table_of_one_target_covers_only_its_divisors():
    # No sieve up to n: one index n gets the divisors of n and nothing else.
    for n in (1, 12, 97, 300):
        table, mu = _divisor_table((n,))
        assert sorted(table) == sorted(mu) == divisors(n)
        assert all(table[k] == divisors(k) and mu[k] == mobius(k) for k in table)
