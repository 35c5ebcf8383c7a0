from itertools import combinations_with_replacement
from math import gcd

import pytest

from covercount.abelian import HomologySignature, _epi_count, epi_count, hom_count
from covercount.errors import ConsistencyError
from covercount.numtheory import divisors, mobius

from test_census import _load_reference

euler_phi = _load_reference("epi_reference").euler_phi


def _signature_grid():
    sigs = []
    for size in range(0, 3):
        for torsion in combinations_with_replacement(range(2, 7), size):
            for rank in range(0, 5):
                sigs.append(HomologySignature(torsion, rank))
    return sigs


def test_signature_validation():
    with pytest.raises(ValueError):
        HomologySignature((1,), 0)
    with pytest.raises(ValueError):
        HomologySignature((2,), -1)
    assert HomologySignature((4, 2, 3)).torsion == (2, 3, 4)
    assert HomologySignature().torsion == ()
    assert HomologySignature().rank == 0


def test_hom_count_examples():
    assert hom_count(HomologySignature((), 2), 5) == 25
    assert hom_count(HomologySignature((2,), 0), 3) == 1
    assert hom_count(HomologySignature((2,), 0), 4) == 2
    assert hom_count(HomologySignature((2,), 1), 2) == 4
    assert hom_count(HomologySignature((2, 4), 1), 6) == 2 * 2 * 6
    assert hom_count(HomologySignature(), 9) == 1


def test_hom_count_trivial_target():
    for sig in _signature_grid():
        assert hom_count(sig, 1) == 1


def test_hom_count_rejects_zero():
    with pytest.raises(ValueError):
        hom_count(HomologySignature((), 1), 0)


def test_torsion_need_not_be_invariant_factors():
    # Z_2 + Z_3 and Z_6 are the same group, so every count must agree.
    a = HomologySignature((2, 3), 1)
    b = HomologySignature((6,), 1)
    for d in range(1, 30):
        assert hom_count(a, d) == hom_count(b, d)
        assert epi_count(a, d) == epi_count(b, d)


def test_epi_count_examples():
    assert epi_count(HomologySignature((), 1), 6) == euler_phi(6) == 2
    assert epi_count(HomologySignature((), 2), 2) == 3
    assert epi_count(HomologySignature((2,), 1), 2) == 3
    assert epi_count(HomologySignature(), 1) == 1
    assert epi_count(HomologySignature(), 2) == 0


def test_epi_count_onto_trivial_group_is_one():
    for sig in _signature_grid():
        assert epi_count(sig, 1) == 1


def test_epi_count_rejects_zero():
    with pytest.raises(ValueError):
        epi_count(HomologySignature((), 1), 0)


def test_epi_counts_nonnegative():
    for sig in _signature_grid():
        for ell in range(1, 25):
            assert epi_count(sig, ell) >= 0


def test_epi_divisor_sums_restore_hom_counts():
    for sig in _signature_grid():
        for ell in range(1, 25):
            total = sum(epi_count(sig, d) for d in divisors(ell))
            assert total == hom_count(sig, ell)


def test_epi_divisor_sums_with_three_torsion_orders():
    for torsion in ((2, 2, 2), (2, 3, 4), (6, 6, 5)):
        sig = HomologySignature(torsion, 2)
        for ell in range(1, 25):
            total = sum(epi_count(sig, d) for d in divisors(ell))
            assert total == hom_count(sig, ell)


def test_epi_count_free_rank_via_totient():
    # For Z^1 the epimorphisms onto Z_ell are the units, phi(ell) of them.
    for ell in range(1, 25):
        assert epi_count(HomologySignature((), 1), ell) == euler_phi(ell)


def test_epi_count_matches_direct_mobius_sums():
    for rank in range(0, 5):
        free = HomologySignature((), rank)
        with_two = HomologySignature((2,), rank)
        for ell in range(1, 25):
            expected_free = sum(mobius(ell // d) * d**rank for d in divisors(ell))
            assert epi_count(free, ell) == expected_free
            expected_two = sum(
                mobius(ell // d) * gcd(2, d) * d**rank for d in divisors(ell)
            )
            assert epi_count(with_two, ell) == expected_two


def test_a_negative_epimorphism_total_raises():
    # The helper sums what it is fed: a wrong Mobius table, mu(1) = -1 and
    # mu(2) = 1, gives -hom(2) + hom(1) = -1 for Z onto Z_2.
    with pytest.raises(ConsistencyError, match="negative epimorphism count -1"):
        _epi_count(HomologySignature((), 1), 2, [1, 2], {1: -1, 2: 1})
