from itertools import combinations_with_replacement
from math import factorial

import pytest

from covercount import _pykernels, oracle
from covercount.abelian import HomologySignature, epi_count
from covercount.census import (
    Free,
    NonOrientableSurface,
    OrientableSurface,
    count_nonorientable_subgroups,
    count_orientable_subgroups,
    count_subgroups,
)
from covercount.classes import count_classes
from covercount.errors import ConsistencyError, ResourceLimitError
from covercount.oracle import (
    FEASIBILITY_LIMIT,
    _coset_search,
    _relation_code,
    check_feasible,
    kernel_backend,
    oracle_count_classes,
    oracle_count_subgroups,
    oracle_epi_count,
    oracle_orientable_split,
    tuple_space_size,
)

SMALL_GRID = [
    (Free(1), 6),
    (Free(2), 5),
    (Free(3), 4),
    (OrientableSurface(1), 5),
    (OrientableSurface(2), 4),
    (NonOrientableSurface(2), 5),
    (NonOrientableSurface(3), 4),
]


def test_kernel_backend_reports_a_known_name():
    assert kernel_backend() == "python"
    assert oracle._kernels is _pykernels


def test_tuple_space_size():
    assert tuple_space_size(Free(2), 3) == 36
    assert tuple_space_size(OrientableSurface(1), 3) == 36
    assert tuple_space_size(NonOrientableSurface(3), 2) == 8


def test_oracle_subgroup_counts_match_formulas():
    for kind, n_max in SMALL_GRID:
        for n in range(1, n_max + 1):
            assert oracle_count_subgroups(kind, n) == count_subgroups(kind, n), (kind, n)


def test_oracle_class_counts_match_formulas():
    for kind, n_max in SMALL_GRID:
        for n in range(1, n_max + 1):
            assert oracle_count_classes(kind, n) == count_classes(kind, n), (kind, n)


def test_oracle_orientable_split_matches_formulas():
    for p, n_max in ((2, 5), (3, 4)):
        for n in range(1, n_max + 1):
            plus, minus = oracle_orientable_split(p, n)
            assert plus == count_orientable_subgroups(p, n), (p, n)
            assert minus == count_nonorientable_subgroups(p, n), (p, n)


def test_coset_search_matches_tuple_brute_force():
    for kind, n_max in SMALL_GRID:
        rel, gens = _relation_code(kind), kind.generator_count
        for n in range(1, n_max + 1):
            _coset_search.cache_clear()
            subgroups, classes, orientable = _coset_search(rel, gens, n)
            base = factorial(n - 1)
            _, transitive = _pykernels.count_relation_tuples(rel, gens, n)
            assert divmod(transitive, base) == (subgroups, 0), (kind, n)
            assert _pykernels.count_transitive_orbits(rel, gens, n) == (transitive, classes), (kind, n)
            if rel == _pykernels.REL_SQUARES:
                split = _pykernels.count_orientation_split(gens, n)
                assert split == (orientable * base, (subgroups - orientable) * base), (kind, n)
            else:
                assert orientable == 0, (kind, n)


def test_coset_search_rechecks_its_results(monkeypatch):
    _coset_search.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(_pykernels, "satisfies_relation", lambda rel, images, n: False)
        with pytest.raises(ConsistencyError):
            _coset_search(_pykernels.REL_FREE, 2, 3)
    # No leaf kept for N breaks N <= M <= n * N.
    monkeypatch.setattr(oracle, "_least_standard", lambda fwd, n: False)
    with pytest.raises(ConsistencyError):
        _coset_search(_pykernels.REL_FREE, 2, 3)


def test_oracle_split_at_index_one():
    # The group itself is its only index-1 subgroup and is non-orientable.
    for p in range(2, 5):
        assert oracle_orientable_split(p, 1) == (0, 1)


def test_oracle_epi_count_examples():
    assert oracle_epi_count(HomologySignature((), 1), 6) == 2
    assert oracle_epi_count(HomologySignature((), 2), 2) == 3
    assert oracle_epi_count(HomologySignature((2,), 1), 2) == 3
    assert oracle_epi_count(HomologySignature(), 1) == 1
    assert oracle_epi_count(HomologySignature(), 5) == 0


def test_oracle_epi_count_matches_formula():
    for size in range(0, 3):
        for torsion in combinations_with_replacement((2, 3, 4), size):
            for rank in range(0, 4 - size):
                sig = HomologySignature(torsion, rank)
                for ell in range(1, 13):
                    assert oracle_epi_count(sig, ell) == epi_count(sig, ell), (sig, ell)


def test_oracle_epi_count_bounds():
    with pytest.raises(ResourceLimitError):
        oracle_epi_count(HomologySignature((), 7), 2)
    with pytest.raises(ResourceLimitError):
        oracle_epi_count(HomologySignature((2,) * 5, 2), 2)
    with pytest.raises(ResourceLimitError):
        oracle_epi_count(HomologySignature((), 1), 25)
    with pytest.raises(ValueError):
        oracle_epi_count(HomologySignature((), 1), 0)


def test_feasibility_gate():
    check_feasible(Free(2), 7)
    with pytest.raises(ResourceLimitError):
        check_feasible(Free(2), 8)
    with pytest.raises(ResourceLimitError):
        oracle_count_subgroups(Free(2), 50)
    with pytest.raises(ResourceLimitError):
        oracle_count_classes(OrientableSurface(2), 8)
    with pytest.raises(ResourceLimitError):
        oracle_orientable_split(2, 13)
    assert FEASIBILITY_LIMIT == 200_000_000


def test_oracle_rejects_a_non_family_argument_before_the_gate():
    for bad in (object(), "free:2", None):
        with pytest.raises(TypeError, match="unsupported group kind"):
            oracle_count_subgroups(bad, 2)
        with pytest.raises(TypeError, match="unsupported group kind"):
            oracle_count_classes(bad, 2)
        with pytest.raises(TypeError):
            oracle_orientable_split(bad, 2)


def test_oracle_rejects_zero_index():
    with pytest.raises(ValueError):
        oracle_count_subgroups(Free(2), 0)


def test_oracle_rejects_bool_and_non_int_indices():
    for bad in (True, 2.0, "3", None):
        with pytest.raises(TypeError):
            oracle_count_subgroups(Free(2), bad)
        with pytest.raises(TypeError):
            oracle_count_classes(Free(2), bad)
        with pytest.raises(TypeError):
            oracle_orientable_split(2, bad)
