import importlib.util
from itertools import combinations_with_replacement
from math import factorial
from pathlib import Path

import pytest

from covercount import _pykernels, oracle
from covercount.abelian import HomologySignature, epi_count
from covercount.census import (
    Free,
    GroupKind,
    NonOrientableSurface,
    OrientableSurface,
    count_nonorientable_subgroups,
    count_orientable_subgroups,
    count_subgroups,
)
from covercount.classes import count_classes
from covercount.errors import ConsistencyError, ResourceLimitError
from covercount.oracle import (
    _compare,
    _coset_search,
    _presentation,
    kernel_backend,
    oracle_count_classes,
    oracle_count_subgroups,
    oracle_orientable_split,
)

from test_census import _load_reference

oracle_epi_count = _load_reference("epi_reference").oracle_epi_count

SMALL_GRID = [
    (Free(1), 6),
    (Free(2), 5),
    (Free(3), 4),
    (OrientableSurface(1), 5),
    (OrientableSurface(2), 4),
    (NonOrientableSurface(2), 5),
    (NonOrientableSurface(3), 4),
]

# Where the search is compared with the full-leaf reference: SMALL_GRID and
# the ranges tier-1 checks against the formulas, except free:2 n=8 and
# orient:2 n=5, which take the reference about 5 s and 13 s.
REFERENCE_GRID = SMALL_GRID + [
    (Free(2), 7),
    (NonOrientableSurface(3), 6),
    (NonOrientableSurface(2), 12),
]

REFERENCE = Path(__file__).resolve().parent / "full_leaf_search.py"


@pytest.fixture(scope="module")
def reference():
    spec = importlib.util.spec_from_file_location("full_leaf_search", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kernel_backend_reports_a_known_name():
    assert kernel_backend() == "python"
    assert oracle._kernels is _pykernels


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
        rel, gens = _presentation(kind)
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


def test_coset_search_matches_full_leaf_reference(reference):
    for kind, n_max in REFERENCE_GRID:
        rel, gens = _presentation(kind)
        for n in range(1, n_max + 1):
            expected = reference.full_leaf_search(rel, gens, n)
            assert _coset_search(rel, gens, n) == expected, (kind, n)


def test_compare_reads_only_defined_entries():
    # a = (0)(1 2), b = (0 1 2): a standard table, least of its class, with
    # [N(H):H] = 1.  From base 2 its re-standardisation a = (0 1), b = (0 1 2)
    # is smaller than it, which five defined slots already show.
    least = [[0, 2, 1], [1, 2, 0]]
    other = [[1, 0, 2], [1, 2, 0]]
    assert [_compare(least, 3, base) for base in range(3)] == [0, 1, 1]
    assert [_compare(other, 3, base) for base in range(3)] == [0, 1, -1]
    assert _compare([[1, 0, 2], [1, 2, -1]], 3, 2) == -1
    assert _compare([[0, 2, -1], [1, -1, -1]], 3, 1) == 1
    assert _compare([[0, -1, -1], [1, -1, -1]], 3, 1) is None
    # Z/2 = F1 / <a^2>: both bases fix the subgroup, [N(H):H] = 2.
    assert [_compare([[1, 0]], 2, base) for base in range(2)] == [0, 0]


def test_coset_search_rechecks_its_results(monkeypatch):
    _coset_search.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(_pykernels, "satisfies_relation", lambda rel, images, n: False)
        with pytest.raises(ConsistencyError, match="bad table"):
            _coset_search(_pykernels.REL_FREE, 2, 3)
    real = oracle._compare
    # A leaf that differs from its own re-standardisation from base 0; the
    # search never compares against base 0, so only the leaf sees this.
    with monkeypatch.context() as patch:
        patch.setattr(
            oracle, "_compare", lambda fwd, n, base: 1 if base == 0 else real(fwd, n, base)
        )
        with pytest.raises(ConsistencyError, match="not the least standard table"):
            _coset_search(_pykernels.REL_FREE, 2, 3)

    # A complete table undercut from base 2: the search dropped base 2 from
    # the live list while the least table a = (1 2), b = (0 1 2) was partial,
    # so only the leaf re-check compares it again.
    def undercut_at_leaf(fwd, n, base):
        if base == 2 and all(entry >= 0 for column in fwd for entry in column):
            return -1
        return real(fwd, n, base)

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_compare", undercut_at_leaf)
        with pytest.raises(ConsistencyError, match="not the least standard table"):
            _coset_search(_pykernels.REL_FREE, 2, 3)

    # Base 1 counted as fixing a non-normal subgroup: [N(H):H] = 2 at n = 3.
    def fixes_base_one(fwd, n, base):
        order = real(fwd, n, base)
        return 0 if base == 1 and order == 1 else order

    monkeypatch.setattr(oracle, "_compare", fixes_base_one)
    with pytest.raises(ConsistencyError, match=r"\[N\(H\):H\] = 2 does not divide 3"):
        _coset_search(_pykernels.REL_FREE, 2, 3)
    assert _coset_search.cache_info().currsize == 0


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


# One call per counter and relation: the descend entries of its coset
# search, and its result.
BUDGET_CASES = {
    "free:2 n=5 subgroups": (lambda: oracle_count_subgroups(Free(2), 5), 710, 461),
    "orient:2 n=3 classes": (lambda: oracle_count_classes(OrientableSurface(2), 3), 983, 100),
    "nonorient:3 n=4 split": (lambda: oracle_orientable_split(3, 4), 792, (15, 212)),
}


def test_feasibility_gate(monkeypatch):
    # The node limit refuses each counter on a search that overruns it,
    # naming the group and the index; the real limit is never reached here.
    monkeypatch.setattr(oracle, "NODE_LIMIT", 400)
    _coset_search.cache_clear()
    with pytest.raises(ResourceLimitError, match=r"^free:2 at index 50: .* limit of 400 nodes"):
        oracle_count_subgroups(Free(2), 50)
    with pytest.raises(ResourceLimitError, match="orient:2 at index 8"):
        oracle_count_classes(OrientableSurface(2), 8)
    with pytest.raises(ResourceLimitError, match="nonorient:3 at index 6"):
        oracle_orientable_split(3, 6)
    # nonorient:2 at index 12 needs 220 nodes.
    assert oracle_count_subgroups(NonOrientableSurface(2), 12) == 28


@pytest.mark.parametrize("case", sorted(BUDGET_CASES))
def test_node_limit_is_exact(monkeypatch, case):
    call, nodes, expected = BUDGET_CASES[case]
    monkeypatch.setattr(oracle, "NODE_LIMIT", nodes)
    _coset_search.cache_clear()
    assert call() == expected
    _coset_search.cache_clear()
    monkeypatch.setattr(oracle, "NODE_LIMIT", nodes - 1)
    with pytest.raises(ResourceLimitError):
        call()


@pytest.mark.parametrize("case", sorted(BUDGET_CASES))
def test_over_budget_search_caches_nothing(monkeypatch, case):
    call, nodes, expected = BUDGET_CASES[case]
    _coset_search.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "NODE_LIMIT", nodes - 1)
        with pytest.raises(ResourceLimitError):
            call()
    assert _coset_search.cache_info().currsize == 0
    assert call() == expected


def test_node_limit_applies_to_each_search_alone(monkeypatch):
    # Two searches of 710 and 792 nodes both fit a limit of 792.
    monkeypatch.setattr(oracle, "NODE_LIMIT", 792)
    _coset_search.cache_clear()
    assert oracle_count_subgroups(Free(2), 5) == 461
    assert oracle_count_subgroups(NonOrientableSurface(3), 4) == 227


def test_oracle_rejects_a_non_family_argument_before_the_gate():
    for bad in (object(), "free:2", None, GroupKind()):
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
