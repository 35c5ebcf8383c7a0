from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covercount.abelian import HomologySignature
from covercount.census import (
    FAMILIES,
    FiberClass,
    Free,
    GroupKind,
    NonOrientableSurface,
    OrientableSurface,
    count_subgroups,
    covering_fiber,
)
from covercount import classes
from covercount.classes import CensusRow, census_table, count_classes
from covercount.errors import ConsistencyError
from covercount.numtheory import divisors, mobius

import euler_transform

KINDS = [
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


def _inline_count_classes(kind, n):
    # The driver with the Mobius inversion inlined as a gcd-weighted power
    # sum: for each divisor ell of n with m = n / ell and each fiber class, the
    # epimorphism count is sum_{d | ell} mobius(ell/d) * gcd(t_1, d) * ... * d^rank.
    acc = 0
    for ell in divisors(n):
        for fiber in covering_fiber(kind, n // ell):
            signature = fiber.signature
            epi = 0
            for d in divisors(ell):
                term = mobius(ell // d) * d**signature.rank
                for t in signature.torsion:
                    term *= gcd(t, d)
                epi += term
            acc += fiber.multiplicity * epi
    count, rem = divmod(acc, n)
    assert rem == 0
    return count


def test_free_class_counts():
    expected = [1, 3, 7, 26, 97, 624]
    assert [count_classes(Free(2), n) for n in range(1, 7)] == expected
    assert [count_classes(Free(1), n) for n in range(1, 21)] == [1] * 20


def test_torus_class_counts_are_divisor_sums():
    for n in range(1, 21):
        assert count_classes(OrientableSurface(1), n) == sum(divisors(n))


def test_surface_class_counts():
    assert count_classes(OrientableSurface(2), 2) == 15
    assert count_classes(OrientableSurface(2), 3) == 100
    assert count_classes(NonOrientableSurface(2), 2) == 3
    assert [count_classes(NonOrientableSurface(3), n) for n in range(1, 5)] == [1, 7, 14, 89]


def test_count_classes_rejects_zero():
    with pytest.raises(ValueError):
        count_classes(Free(2), 0)


def test_generic_driver_matches_specialised_route():
    for kind in KINDS:
        for n in range(1, 11):
            assert count_classes(kind, n) == _inline_count_classes(kind, n), (kind, n)
    for n in range(1, 61):
        assert count_classes(Free(2), n) == _inline_count_classes(Free(2), n), n


def test_generic_driver_spec_example():
    assert count_classes(Free(2), 2) == 3


def test_generic_driver_at_index_one_sums_multiplicities(monkeypatch):
    fibers = [
        FiberClass(HomologySignature(rank=1), 2),
        FiberClass(HomologySignature(torsion=(2,), rank=0), 3),
    ]
    monkeypatch.setattr(Free, "fiber", lambda self, m: fibers)
    assert count_classes(Free(2), 1) == 5


def test_generic_driver_rejects_inconsistent_provider(monkeypatch):
    # Fibers of trivial abelianisations give a total of 1 at n = 2, which
    # is not divisible by 2.
    fibers = [FiberClass(HomologySignature(), 1)]
    monkeypatch.setattr(Free, "fiber", lambda self, m: fibers)
    with pytest.raises(ConsistencyError, match="not divisible by n = 2"):
        count_classes(Free(2), 2)


def test_driver_checks_its_kind_once_and_asks_the_record(monkeypatch):
    def refuse(kind, m):
        raise AssertionError("count_classes went through covering_fiber")

    monkeypatch.setattr(classes, "covering_fiber", refuse, raising=False)
    calls = []
    real = classes.check_kind
    monkeypatch.setattr(classes, "check_kind", lambda kind: calls.append(kind) or real(kind))
    built = []

    def counted(fiber):
        return lambda self, m: built.append(m) or fiber(self, m)

    for family in FAMILIES.values():
        monkeypatch.setattr(family, "fiber", counted(family.fiber))
    for kind in (Free(2), OrientableSurface(2), NonOrientableSurface(3)):
        expected = _inline_count_classes(kind, 12)
        calls.clear()
        built.clear()
        assert count_classes(kind, 12) == expected
        assert calls == [kind]
        assert sorted(built) == divisors(12)
        calls.clear()
        built.clear()
        assert census_table(kind, 12)[-1].conjugacy_classes == expected
        assert calls == [kind]
        assert sorted(built) == list(range(1, 13))
    # One fiber per m for a whole free-deep table, not one per divisor pair.
    built.clear()
    census_table(Free(2), 400)
    assert sorted(built) == list(range(1, 401))


def test_generic_driver_refuses_a_float_multiplicity():
    # FiberClass refuses it, so no class count can come out as 2.0.
    with pytest.raises(TypeError):
        FiberClass(HomologySignature(rank=1), 2.0)


def test_index_two_classes_equal_subgroups():
    # Index-2 subgroups are normal, so conjugation fixes each of them.
    for kind in KINDS:
        table = census_table(kind, 2)
        assert table[1].conjugacy_classes == table[1].subgroups


def test_census_table_free_rank_two():
    table = census_table(Free(2), 6)
    assert [row.subgroups for row in table] == [1, 3, 13, 71, 461, 3447]
    assert [row.conjugacy_classes for row in table] == [1, 3, 7, 26, 97, 624]
    assert all(row.orientable_subgroups is None for row in table)
    assert all(row.nonorientable_subgroups is None for row in table)
    assert [row.n for row in table] == list(range(1, 7))
    assert type(table) is tuple and {type(row) for row in table} == {CensusRow}


def test_census_table_klein_bottle():
    table = census_table(NonOrientableSurface(2), 2)
    assert table[0] == CensusRow(1, 1, 1, 0, 1)
    assert table[1] == CensusRow(2, 3, 3, 1, 2)


def test_census_table_bounds():
    for kind in KINDS:
        for row in census_table(kind, 8):
            assert row.conjugacy_classes <= row.subgroups
            assert row.subgroups <= row.n * row.conjugacy_classes


# A subgroup count patched at one index of a table, and the row check it
# must trip: nonorient:3 has (M, M+, M-, N) = (7, 1, 6, 7) at n = 2, free:2
# has (M, N) = (13, 7) at n = 3.
ROW_FAULTS = {
    "split sum": (NonOrientableSurface(3), 2, lambda m: m + 1, "orientability split does not sum"),
    "N <= M": (Free(2), 3, lambda m: 0, "subgroup/class bounds violated"),
    "M <= n N": (Free(2), 3, lambda m: 3 * 7 + 1, "subgroup/class bounds violated"),
}


@pytest.mark.parametrize("fault", sorted(ROW_FAULTS))
def test_row_checks_fire(monkeypatch, fault):
    kind, n, patch, message = ROW_FAULTS[fault]
    real = classes.count_subgroups

    def wrong(kind, m):
        return patch(real(kind, m)) if m == n else real(kind, m)

    monkeypatch.setattr(classes, "count_subgroups", wrong)
    assert len(census_table(kind, n - 1)) == n - 1
    with pytest.raises(ConsistencyError, match=f"^{message} in CensusRow\\(n={n}, "):
        census_table(kind, n)


def test_census_table_rejects_zero():
    with pytest.raises(ValueError):
        census_table(Free(2), 0)


def test_class_counts_reject_a_non_family_argument():
    for bad in (object(), "free:2", None, GroupKind()):
        with pytest.raises(TypeError, match="unsupported group kind"):
            count_classes(bad, 2)
        with pytest.raises(TypeError, match="unsupported group kind"):
            census_table(bad, 2)


def test_class_counts_reject_bool_and_non_int_indices():
    for bad in (True, 2.0, "3"):
        with pytest.raises(TypeError):
            count_classes(Free(2), bad)
        with pytest.raises(TypeError):
            census_table(Free(2), bad)


@pytest.mark.parametrize(
    "r, n_max", [(1, 60), (2, 400), (3, 250), (4, 60), (5, 60), (6, 300)],
    ids=["free-1-60", "free-2-400", "free-3-250", "free-4-60", "free-5-60", "free-6-300"],
)
def test_free_class_columns_match_the_euler_transform(r, n_max):
    # The whole N column of each free-deep table, and of the other ranks to
    # n = 60, against a route that shares nothing with the class driver.
    table = census_table(Free(r), n_max)
    assert [row.conjugacy_classes for row in table] == euler_transform.class_counts(n_max, r)


@pytest.mark.parametrize(
    "kind, n_max",
    [(Free(2), 20), (OrientableSurface(1), 20), (OrientableSurface(2), 16),
     (OrientableSurface(3), 12), (NonOrientableSurface(2), 20),
     (NonOrientableSurface(3), 16), (NonOrientableSurface(5), 12)],
    ids=str,
)
def test_class_columns_match_the_burnside_route(kind, n_max):
    # The surfaces beyond the oracle's reach: the route shares only the
    # covering fibers with the class driver's Mobius and epimorphism step.
    table = census_table(kind, n_max)
    assert [row.conjugacy_classes for row in table] == euler_transform.fiber_class_counts(
        kind, n_max
    )


# Each family with the parameters and the largest n_max the property draws:
# the formula routes stay cheap up to n = 20 on the surface families.
FAMILY_RANGES = {"free": (range(1, 5), 40), "orient": (range(1, 4), 20),
                 "nonorient": (range(2, 6), 20)}


@st.composite
def kinds_and_bounds(draw):
    prefix = draw(st.sampled_from(sorted(FAMILY_RANGES)))
    parameters, top = FAMILY_RANGES[prefix]
    return FAMILIES[prefix](draw(st.sampled_from(parameters))), draw(st.integers(1, top))


@settings(max_examples=40, deadline=None)
@given(kinds_and_bounds())
def test_table_rows_equal_the_one_index_counts(kind_and_bound):
    kind, n_max = kind_and_bound
    table = census_table(kind, n_max)
    assert [row.n for row in table] == list(range(1, n_max + 1))
    for row in table:
        n, split = row.n, kind.split(row.n)
        assert row.subgroups == count_subgroups(kind, n)
        assert row.conjugacy_classes == count_classes(kind, n)
        assert (row.orientable_subgroups, row.nonorientable_subgroups) == (split or (None, None))
        assert row.conjugacy_classes <= row.subgroups <= n * row.conjugacy_classes
        if split is not None:
            assert split[0] + split[1] == row.subgroups
            assert n % 2 == 0 or split[0] == 0
