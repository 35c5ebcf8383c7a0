from functools import lru_cache
from math import comb, factorial

import pytest

import covercount.census as census
from covercount.abelian import HomologySignature
from covercount.census import (
    FAMILIES,
    FiberClass,
    Free,
    GroupKind,
    NonOrientableSurface,
    OrientableSurface,
    check_index,
    check_kind,
    count_subgroups,
    covering_fiber,
    free_subgroups,
    r_nu_recursive,
)
from covercount.classes import census_table
from covercount.errors import ConsistencyError
from covercount.numtheory import divisors
from covercount.oracle import _presentation

import free_dot_product
import r_nu_closed as closed
from r_nu_closed import r_nu_closed


def _sigma(n):
    return sum(divisors(n))


def test_group_kind_validation():
    with pytest.raises(ValueError):
        Free(0)
    with pytest.raises(ValueError):
        OrientableSurface(0)
    with pytest.raises(ValueError):
        NonOrientableSurface(1)
    assert _presentation(Free(2))[1] == 2
    assert _presentation(OrientableSurface(3))[1] == 6
    assert _presentation(NonOrientableSurface(3))[1] == 3


def test_group_kind_spec_strings():
    assert str(Free(2)) == "free:2"
    assert str(OrientableSurface(1)) == "orient:1"
    assert str(NonOrientableSurface(4)) == "nonorient:4"


def test_families_are_the_three_records():
    assert FAMILIES == {
        "free": Free,
        "orient": OrientableSurface,
        "nonorient": NonOrientableSurface,
    }
    for prefix, family in FAMILIES.items():
        assert family.prefix == prefix
        assert (family(2).split(1) is None) is (family is not NonOrientableSurface)
    assert GroupKind().split(1) is None


def test_split_on_the_record_matches_the_public_counters():
    # The orientable subgroups of index 2k are the index-k subgroups of the
    # orientation double cover, the orientable surface of genus p - 1.
    for p in range(2, 6):
        kind = NonOrientableSurface(p)
        cover = OrientableSurface(p - 1)
        for m in range(1, 31):
            plus, minus = kind.split(m)
            assert plus + minus == count_subgroups(kind, m), (p, m)
            if m % 2 == 1:
                assert plus == 0, (p, m)
            else:
                assert plus == count_subgroups(cover, m // 2), (p, m)
    for kind in (Free(1), Free(3), OrientableSurface(1), OrientableSurface(2)):
        assert [kind.split(m) for m in range(1, 31)] == [None] * 30


def test_non_family_argument_raises_type_error():
    for bad in (object(), "free:2", None, GroupKind()):
        with pytest.raises(TypeError, match="unsupported group kind"):
            count_subgroups(bad, 2)
        with pytest.raises(TypeError, match="unsupported group kind"):
            covering_fiber(bad, 2)


def test_check_kind_accepts_the_families_only():
    for kind in (Free(2), OrientableSurface(1), NonOrientableSurface(3)):
        assert check_kind(kind) is kind
    for bad in (GroupKind(), Free, None):
        with pytest.raises(TypeError, match="unsupported group kind"):
            check_kind(bad)


def test_fiber_class_validation():
    with pytest.raises(ValueError):
        FiberClass(HomologySignature(), -1)
    for bad in (True, 2.0, "1"):
        with pytest.raises(TypeError):
            FiberClass(HomologySignature(), bad)


@lru_cache(maxsize=None)
def hall_t(m, r):
    # Reference for free_subgroups: the number of transitive r-tuples of
    # permutations of m points, t(1) = 1 and
    #     t(m) = (m!)^r - sum_{j=1}^{m-1} C(m-1, j-1) ((m-j)!)^r t(j),
    # subtracting, for each proper orbit of the first point, the tuples
    # whose restriction to that orbit is transitive.  An index-m subgroup
    # is the stabiliser of the first point of (m-1)! such tuples.
    check_index(m, "m")
    check_index(r, "r")
    if m == 1:
        return 1
    total = factorial(m) ** r
    for j in range(1, m):
        total -= comb(m - 1, j - 1) * factorial(m - j) ** r * hall_t(j, r)
    return total


def test_hall_t_examples():
    for r in range(1, 4):
        assert hall_t(1, r) == 1
    assert hall_t(2, 2) == 3
    assert hall_t(3, 2) == 26
    assert hall_t(2, 3) == 7
    assert hall_t(3, 3) == 194


def test_hall_t_rejects_nonpositive():
    with pytest.raises(ValueError):
        hall_t(0, 2)
    with pytest.raises(ValueError):
        hall_t(2, 0)


def test_hall_t_divisible_by_factorial():
    for r in range(1, 4):
        for m in range(1, 9):
            assert hall_t(m, r) % factorial(m - 1) == 0


def test_free_subgroups_match_hall_t_reference():
    for r in range(1, 7):
        for m in range(1, 61):
            assert free_subgroups(m, r) == hall_t(m, r) // factorial(m - 1)


def true_ratios_but(i_bad, q_bad):
    # census._free_ratios with q_bad in place of the ratio i_bad^e.
    def ratios(k, e):
        return [q_bad if i == i_bad else i**e for i in range(k, 1, -1)]

    return ratios


def test_free_subgroups_checks_its_bounds(monkeypatch, cold_package):
    # With 1 in place of the ratio 4 for r = 2, a_4 = 6 and the Horner sum
    # for k = 4 is M(3) + 2 * (M(2) + 3 * M(1)) = 25, so M(4) = 4 * 6 - 25 =
    # -1 breaks M(m) >= 1 right after the true values 1, 3, 13.
    monkeypatch.setattr(census, "_free_ratios", true_ratios_but(4, 1))
    assert [free_subgroups(m, 2) for m in range(1, 4)] == [1, 3, 13]
    with pytest.raises(ConsistencyError, match=r"free_subgroups\(4, 2\)"):
        free_subgroups(4, 2)
    # A zero ratio makes a_5 = 0, so no M(5) fits in [1, 5 * a_5].
    monkeypatch.setattr(census, "_free_ratios", true_ratios_but(5, 0))
    assert [free_subgroups(m, 3) for m in range(1, 5)] == [1, 7, 97, 2143]
    with pytest.raises(ConsistencyError, match=r"free_subgroups\(5, 3\)"):
        free_subgroups(5, 3)


def test_r_nu_recursive_checks_its_bounds(monkeypatch, cold_package):
    monkeypatch.setattr(census, "beta", lambda k, nu: k)
    assert [r_nu_recursive(m, 2) for m in range(1, 6)] == [1, 3, 4, 3, 1]
    with pytest.raises(ConsistencyError, match=r"r_nu_recursive\(6, 2\)"):
        r_nu_recursive(6, 2)
    # a_1 = -1 makes M(1) = a_1 = -1, below 1.  M(1) is checked like every
    # other step, so a call for any m stops there.
    monkeypatch.setattr(census, "beta", lambda k, nu: -1 if k == 1 else 1)
    with pytest.raises(ConsistencyError, match=r"r_nu_recursive\(1, 3\)"):
        r_nu_recursive(1, 3)
    with pytest.raises(ConsistencyError, match=r"r_nu_recursive\(1, 3\)"):
        r_nu_recursive(2, 3)


def test_failed_step_leaves_the_table_unchanged(monkeypatch, cold_package):
    # The refused step adds nothing, so once a_k is right again the same
    # table goes on from where it stopped.
    monkeypatch.setattr(census, "beta", lambda k, nu: 0 if k == 3 else k)
    with pytest.raises(ConsistencyError, match=r"r_nu_recursive\(3, 2\)"):
        r_nu_recursive(4, 2)
    assert census._TABLES[("surface", 2)] == ([1, 2], [1, 3])
    monkeypatch.setattr(census, "beta", lambda k, nu: k)
    assert r_nu_recursive(5, 2) == 1
    assert census._TABLES[("surface", 2)] == ([1, 2, 3, 4, 5], [1, 3, 4, 3, 1])


def test_failed_free_step_leaves_the_table_unchanged(monkeypatch, cold_package):
    # The free counterpart of the test above: a zero ratio 3 refuses
    # M(3), and with the true ratios back the table goes on from M(2).
    monkeypatch.setattr(census, "_free_ratios", true_ratios_but(3, 0))
    with pytest.raises(ConsistencyError, match=r"free_subgroups\(3, 2\)"):
        free_subgroups(4, 2)
    assert census._TABLES[("free", 2)] == ([1, 2], [1, 3])
    monkeypatch.undo()
    assert free_subgroups(5, 2) == 461
    assert census._TABLES[("free", 2)] == ([1, 2, 6, 24, 120], [1, 3, 13, 71, 461])


def test_free_subgroups_in_descending_order_from_a_cold_table(cold_package):
    for r in (1, 2, 3):
        first = free_subgroups(60, r)
        assert census._TABLES[("free", r)][1][-1] == first
        for m in range(60, 0, -1):
            assert free_subgroups(m, r) == hall_t(m, r) // factorial(m - 1)


def test_equal_parameters_keep_separate_tables(cold_package):
    # Free(2) and nu = 2 share the parameter 2 but not a_k: (k!)^1 against
    # beta(k, 2).  Interleaved calls must each extend their own table.
    free = [1, 3, 13, 71, 461, 3447, 29093]
    for m in range(1, 8):
        assert free_subgroups(m, 2) == free[m - 1]
        assert r_nu_recursive(m, 2) == r_nu_closed(m, 2)
    a_free, m_free = census._TABLES[("free", 2)]
    a_surface, m_surface = census._TABLES[("surface", 2)]
    assert m_free == free and a_free == [factorial(k) for k in range(1, 8)]
    assert a_surface == [census.beta(k, 2) for k in range(1, 8)]
    assert m_surface[:3] == [1, 15, 220]


def test_free_subgroup_counts():
    expected = [1, 3, 13, 71, 461, 3447, 29093]
    assert [count_subgroups(Free(2), n) for n in range(1, 8)] == expected
    assert [free_subgroups(n, 2) for n in range(1, 8)] == expected
    assert [count_subgroups(Free(1), n) for n in range(1, 21)] == [1] * 20
    assert count_subgroups(Free(3), 2) == 7
    assert count_subgroups(Free(3), 3) == 97


def test_torus_subgroup_counts_are_divisor_sums():
    for n in range(1, 21):
        assert count_subgroups(OrientableSurface(1), n) == _sigma(n)
    # Whole census_table columns, past the benchmark's n = 28.  The torus
    # group is Z^2: every subgroup is normal, M = N = sigma(n).  The Klein
    # bottle has M = sigma(n), its double cover the torus gives M+ =
    # sigma(n/2) at even n, and at odd n N = tau(n).
    for row in census_table(OrientableSurface(1), 40):
        assert row.subgroups == row.conjugacy_classes == _sigma(row.n), row
    for row in census_table(NonOrientableSurface(2), 40):
        n = row.n
        assert row.subgroups == _sigma(n), row
        assert row.orientable_subgroups == (_sigma(n // 2) if n % 2 == 0 else 0), row
        if n % 2:
            assert row.conjugacy_classes == len(divisors(n)), row


def test_genus_two_subgroup_counts():
    assert count_subgroups(OrientableSurface(2), 1) == 1
    assert count_subgroups(OrientableSurface(2), 2) == 15
    assert count_subgroups(OrientableSurface(2), 3) == 220


def test_nonorientable_subgroup_counts():
    assert count_subgroups(NonOrientableSurface(3), 2) == 7
    assert count_subgroups(NonOrientableSurface(2), 2) == 3
    assert count_subgroups(NonOrientableSurface(2), 3) == 4


def test_index_one_subgroup_count_is_one_for_every_kind():
    kinds = [Free(1), Free(2), Free(3), OrientableSurface(1), OrientableSurface(2),
             OrientableSurface(3), NonOrientableSurface(2), NonOrientableSurface(3),
             NonOrientableSurface(4)]
    for kind in kinds:
        assert count_subgroups(kind, 1) == 1


def test_count_subgroups_rejects_zero_index():
    with pytest.raises(ValueError):
        count_subgroups(Free(2), 0)


def test_count_subgroups_rejects_bool_and_non_int_indices():
    for bad in (True, False, 2.0, "3", None):
        with pytest.raises(TypeError):
            count_subgroups(Free(2), bad)
    assert check_index(3) == 3
    with pytest.raises(ValueError):
        check_index(-1)


def test_r_nu_routes_agree():
    # The exponents and index range of the surface tables in the benchmark.
    for nu in (0, 1, 2, 3, 4, 6):
        for m in range(1, 29):
            assert r_nu_closed(m, nu) == r_nu_recursive(m, nu)


def test_r_nu_recursive_examples():
    assert r_nu_recursive(2, 1) == 7
    assert r_nu_recursive(4, 0) == 7


def test_r_nu_closed_examples():
    assert r_nu_closed(1, 9) == 1
    assert r_nu_closed(2, 2) == 15
    assert r_nu_closed(3, 2) == 220
    for m in range(1, 21):
        assert r_nu_closed(m, 0) == _sigma(m)


def test_r_nu_closed_raises_on_a_remainder(monkeypatch):
    # With 5 in place of lcm(1..4) = 12 the quotients 5 // s are no longer
    # exact, and the total 4 * numerator leaves a remainder mod 5.
    monkeypatch.setattr(closed, "lcm", lambda *args: 5)
    with pytest.raises(ConsistencyError, match=r"r_nu_closed\(4, 2\)"):
        r_nu_closed(4, 2)


def test_r_nu_rejects_bad_arguments():
    for fn in (r_nu_closed, r_nu_recursive):
        with pytest.raises(ValueError):
            fn(0, 1)
        with pytest.raises(ValueError):
            fn(3, -1)


def test_orientable_subgroup_counts():
    assert NonOrientableSurface(3).split(2)[0] == 1
    assert NonOrientableSurface(2).split(2)[0] == 1
    assert NonOrientableSurface(2).split(4)[0] == 3
    assert NonOrientableSurface(3).split(4)[0] == 15
    for p in range(2, 5):
        for m in range(1, 10, 2):
            assert NonOrientableSurface(p).split(m)[0] == 0


def test_nonorientable_only_subgroup_counts():
    assert NonOrientableSurface(3).split(1)[1] == 1
    assert NonOrientableSurface(3).split(2)[1] == 6
    assert NonOrientableSurface(2).split(2)[1] == 2


def test_orientable_rejects_bad_arguments():
    with pytest.raises(ValueError):
        NonOrientableSurface(1).split(2)
    with pytest.raises(ValueError):
        NonOrientableSurface(3).split(0)


def test_split_counts_the_orientable_subgroups_once(monkeypatch):
    # Each split asks the recursion once for M+, at the doubled exponent
    # 2(p - 2) and half the index, and not at all at odd index.
    calls = []
    original = census.r_nu_recursive

    def counted(m, nu):
        if nu == 2:
            calls.append(m)
        return original(m, nu)

    monkeypatch.setattr(census, "r_nu_recursive", counted)
    kind = NonOrientableSurface(3)
    for m in range(1, 9):
        plus, minus = kind.split(m)
        assert plus + minus == count_subgroups(kind, m)
    assert calls == [1, 2, 3, 4]
    # A warm split asks again: the recursion table is the only memo.
    calls.clear()
    assert kind.split(4) == (15, 212)
    assert calls == [2]


def test_split_refuses_more_orientable_subgroups_than_subgroups(monkeypatch):
    original = census.r_nu_recursive

    def too_many(m, nu):
        return 10**6 if nu == 2 else original(m, nu)

    monkeypatch.setattr(census, "r_nu_recursive", too_many)
    with pytest.raises(ConsistencyError, match="exceeds total at p=3, m=2"):
        NonOrientableSurface(3).split(2)


def test_free_ratios_slice_one_list_of_powers(cold_package):
    for e in (0, 1, 3):
        for k in (1, 5, 2, 9, 9):
            assert census._free_ratios(k, e) == [i**e for i in range(k, 1, -1)]
    assert census._TABLES[("powers", 3)] == ([0, 1] + [i**3 for i in range(2, 10)], [])
    # The free recursion extends the list of its exponent to m, no further.
    free_subgroups(40, 2)
    assert census._TABLES[("powers", 1)][0] == list(range(41))


def test_orientability_split_sums_to_total():
    for p in range(2, 5):
        for m in range(1, 9):
            plus, minus = NonOrientableSurface(p).split(m)
            assert plus >= 0 and minus >= 0
            assert plus + minus == count_subgroups(NonOrientableSurface(p), m)


def test_covering_fiber_free():
    fiber = covering_fiber(Free(2), 3)
    assert fiber == [FiberClass(HomologySignature(rank=4), 13)]
    fiber = covering_fiber(Free(1), 5)
    assert fiber == [FiberClass(HomologySignature(rank=1), 1)]


def test_covering_fiber_orientable():
    fiber = covering_fiber(OrientableSurface(2), 2)
    assert fiber == [FiberClass(HomologySignature(rank=6), 15)]
    fiber = covering_fiber(OrientableSurface(1), 4)
    assert fiber == [FiberClass(HomologySignature(rank=2), 7)]
    # Torus covers stay rank 2 at every index, with sigma(m) of them.
    for m in range(1, 13):
        fiber = covering_fiber(OrientableSurface(1), m)
        assert fiber == [FiberClass(HomologySignature(rank=2), _sigma(m))]


def test_covering_fiber_nonorientable():
    fiber = covering_fiber(NonOrientableSurface(3), 2)
    assert fiber == [
        FiberClass(HomologySignature(rank=4), 1),
        FiberClass(HomologySignature(torsion=(2,), rank=3), 6),
    ]
    # Odd index has no orientable subgroups, so that class is omitted.
    fiber = covering_fiber(NonOrientableSurface(3), 3)
    assert fiber == [FiberClass(HomologySignature(torsion=(2,), rank=4), 34)]


def test_covering_fiber_multiplicities_sum_to_subgroup_count():
    kinds = [Free(1), Free(2), Free(3), OrientableSurface(1), OrientableSurface(2),
             NonOrientableSurface(2), NonOrientableSurface(3), NonOrientableSurface(4)]
    for kind in kinds:
        for m in range(1, 9):
            fiber = covering_fiber(kind, m)
            assert sum(fc.multiplicity for fc in fiber) == count_subgroups(kind, m)
            assert all(fc.multiplicity > 0 for fc in fiber)


def test_covering_fiber_rejects_zero_index():
    with pytest.raises(ValueError):
        covering_fiber(Free(2), 0)


def test_free_tables_match_the_dot_product_reference(cold_package):
    for r in range(1, 7):
        free_subgroups(150, r)
        assert census._TABLES[("free", r)] == free_dot_product.free_table(150, r)
    assert free_subgroups(300, 6) == free_dot_product.free_table(300, 6)[1][-1]
