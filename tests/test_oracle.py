from itertools import combinations_with_replacement, permutations, product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covercount import _pykernels, oracle
from covercount.abelian import HomologySignature, epi_count
from covercount.census import (
    Free,
    GroupKind,
    NonOrientableSurface,
    OrientableSurface,
    count_subgroups,
)
from covercount.classes import census_table, count_classes
from covercount.errors import ConsistencyError, ResourceLimitError
from covercount.oracle import (
    _compare,
    _coset_search,
    _fixed_bases,
    _presentation,
    _resume,
    _start,
    kernel_backend,
    oracle_count_classes,
    oracle_count_subgroups,
    oracle_orientable_split,
)

import full_leaf_search
from epi_reference import oracle_epi_count

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
        kind = NonOrientableSurface(p)
        for n in range(1, n_max + 1):
            plus, minus = oracle_orientable_split(kind, n)
            assert (plus, minus) == kind.split(n), (p, n)


@st.composite
def grid_tables(draw):
    kind, top = draw(st.sampled_from(SMALL_GRID))
    return kind, draw(st.integers(1, top))


@settings(max_examples=30, deadline=None)
@given(grid_tables())
def test_oracle_matches_every_table_row(kind_and_bound):
    # The rows that table prints and verify checks, from the multi-index
    # driver, against the oracle.
    kind, n_max = kind_and_bound
    for row in census_table(kind, n_max):
        n = row.n
        assert oracle_count_subgroups(kind, n) == row.subgroups, (kind, n)
        assert oracle_count_classes(kind, n) == row.conjugacy_classes, (kind, n)
        split = row.orientable_subgroups, row.nonorientable_subgroups
        if isinstance(kind, NonOrientableSurface):
            assert oracle_orientable_split(kind, n) == split, (kind, n)
        else:
            assert split == (None, None), (kind, n)


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


def test_coset_search_matches_full_leaf_reference():
    for kind, n_max in REFERENCE_GRID:
        rel, gens = _presentation(kind)
        for n in range(1, n_max + 1):
            expected = full_leaf_search.full_leaf_search(rel, gens, n)
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


def standard_tables(gens, n):
    """Every complete standard table of gens permutations of n points."""
    tables = set()
    for perms in product(permutations(range(n)), repeat=gens):
        new = {0: 0}
        old = [0]
        for source in old:
            for perm in perms:
                if perm[source] not in new:
                    new[perm[source]] = len(old)
                    old.append(perm[source])
        if len(old) == n:
            tables.add(tuple(tuple(new[perm[old[i]]] for i in range(n)) for perm in perms))
    return sorted(tables)


def resume(fwd, state):
    # Resume a saved comparison as the search does, on copies of its lists.
    _, _, new, old, row, g = state
    return _resume(fwd, new[:], old[:], row, g)


@pytest.mark.parametrize("gens, n", [(1, 5), (2, 3), (2, 4), (3, 3)])
@pytest.mark.parametrize("order", ["reading", "reversed"])
def test_resuming_a_comparison_equals_scanning_afresh(gens, n, order):
    # Reveal a standard table's entries one at a time: in the search's
    # reading order (coset, then generator), and in the reverse order, where
    # a row is read before the rows that lead to it.  After each reveal every
    # base still undecided resumes its saved state, or keeps it unread while
    # its blocking cell is undefined, as the search does.  The answer and the
    # state must be those of a scan from scratch, and the saved state must
    # come back unchanged.
    slots = [(row, g) for row in range(n) for g in range(gens)]
    if order == "reversed":
        slots.reverse()
    for table in standard_tables(gens, n):
        fwd = [[-1] * n for _ in range(gens)]
        states = {base: _start(n, base) for base in range(n)}
        decided = {}
        for row, g in slots:
            fwd[g][row] = table[g][row]
            for base, state in list(states.items()):
                fresh = resume(fwd, _start(n, base))
                assert fresh[0] == _compare(fwd, n, base)
                block, cell, new, old, _, _ = state
                if block[cell] < 0:
                    assert fresh[0] is None, (table, base)
                    continue
                saved = (new[:], old[:])
                resumed = resume(fwd, state)
                assert (new, old) == saved, (table, base)
                assert resumed == fresh, (table, base)
                if resumed[0] in (-1, 1):
                    decided[base] = resumed[0]
                    del states[base]
                else:
                    states[base] = resumed[1]
            # A -1 or 1 read off defined entries holds for every completion.
            for base, sign in decided.items():
                assert _compare(fwd, n, base) == sign, (table, base)
        assert [_compare(fwd, n, base) for base in states] == [0] * len(states)
        assert 0 in states


def test_coset_search_rechecks_its_results(monkeypatch, cold_package):
    with monkeypatch.context() as patch:
        patch.setattr(_pykernels, "satisfies_relation", lambda rel, images, n: False)
        with pytest.raises(ConsistencyError, match="bad table"):
            _coset_search(_pykernels.REL_FREE, 2, 3)
    # The leaf's scan of every base, on complete tables the search never
    # reaches.  a = b = (1 2): the cosets reached from 0 close up at 1.
    with pytest.raises(ConsistencyError, match="bad table .* close up at 1"):
        _fixed_bases([[0, 2, 1], [0, 2, 1]], 3)
    # A least table relabelled, so that it is not standard: base 0's
    # re-standardisation, the least table itself, is smaller.
    with pytest.raises(ConsistencyError, match="not the least standard table"):
        _fixed_bases([[2, 0, 1], [0, 2, 1]], 3)
    # A standard table undercut from base 2, a = (0 1), b = (0 1 2): the
    # leaf a search would reach had it dropped base 2 as larger too early.
    with pytest.raises(ConsistencyError, match="not the least standard table"):
        _fixed_bases([[1, 0, 2], [1, 2, 0]], 3)

    real = oracle._fixed_bases
    # One base too many counted as fixing H: [N(H):H] = 2 or 4 at n = 3.
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_fixed_bases", lambda fwd, n: real(fwd, n) + 1)
        with pytest.raises(ConsistencyError, match=r"\[N\(H\):H\] = [24] does not divide 3"):
            _coset_search(_pykernels.REL_FREE, 2, 3)

    resume = oracle._resume

    # The live list one base short: a base whose comparison ends equal
    # drops out as if larger.  At n = 2 every subgroup is normal.
    def drops_equal_bases(fwd, new, old, row, g):
        order, state = resume(fwd, new, old, row, g)
        return (1, None) if order == 0 else (order, state)

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_resume", drops_equal_bases)
        with pytest.raises(ConsistencyError, match=r"kept 0 live bases .* = 2$"):
            _coset_search(_pykernels.REL_FREE, 2, 2)

    # The live list one base long: base 1 never drops out, its comparison
    # staying at the slot where it is larger.
    def keeps_base_one(fwd, new, old, row, g):
        saved = new[:], old[:]
        order, state = resume(fwd, new, old, row, g)
        if order == 1 and old[0] == 1:
            return None, (oracle._OPEN, 0, *saved, row, g)
        return order, state

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_resume", keeps_base_one)
        with pytest.raises(ConsistencyError, match=r"kept 1 live bases .* = 1$"):
            _coset_search(_pykernels.REL_FREE, 2, 3)
    assert _coset_search.cache_info().currsize == 0


def leaf_verdict(fwd, n, seen):
    """What the leaf's scan should make of a complete table, from n scans by
    _compare: the error it raises, or [N(H):H].  Adds the orders to seen."""
    orders = [_compare(fwd, n, base) for base in range(n)]
    seen.update(orders)
    # Base 0's re-standardisation is never larger than the table.
    assert orders[0] != 1, fwd
    if orders[0] is None:
        return "bad table"
    if -1 in orders:
        return "not the least standard table"
    # Base 0 reached every coset, so every base does.
    assert None not in orders, fwd
    return orders.count(0)


def test_fixed_bases_agrees_with_compare():
    # Every complete standard table, and at gens = 2, n <= 3 every complete
    # table: standard, relabelled and intransitive.
    tables = [
        (n, table)
        for gens, n in [(1, 5), (2, 3), (2, 4), (3, 3)]
        for table in standard_tables(gens, n)
    ]
    tables += [
        (n, perms) for n in (1, 2, 3) for perms in product(permutations(range(n)), repeat=2)
    ]
    seen = set()
    for n, table in tables:
        fwd = [list(column) for column in table]
        expected = leaf_verdict(fwd, n, seen)
        if isinstance(expected, str):
            with pytest.raises(ConsistencyError, match=expected):
                _fixed_bases(fwd, n)
        else:
            assert _fixed_bases(fwd, n) == expected, fwd
    assert seen == {-1, 0, 1, None}


def test_oracle_split_at_index_one():
    # The group itself is its only index-1 subgroup and is non-orientable.
    for p in range(2, 5):
        assert oracle_orientable_split(NonOrientableSurface(p), 1) == (0, 1)


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
# search, and its result.  The last two are the heaviest searches of
# perfbench's oracle-verify workload (orient:2 n=4 has M = 5,275): their
# exact node counts tie that workload's times to the same search tree.
BUDGET_CASES = {
    "free:2 n=5 subgroups": (lambda: oracle_count_subgroups(Free(2), 5), 710, 461),
    "orient:2 n=3 classes": (lambda: oracle_count_classes(OrientableSurface(2), 3), 983, 100),
    "nonorient:3 n=4 split": (
        lambda: oracle_orientable_split(NonOrientableSurface(3), 4), 792, (15, 212)
    ),
    "orient:2 n=4 classes": (lambda: oracle_count_classes(OrientableSurface(2), 4), 19602, 1615),
    "nonorient:3 n=5 split": (
        lambda: oracle_orientable_split(NonOrientableSurface(3), 5), 4955, (0, 1296)
    ),
}


def test_feasibility_gate(monkeypatch, cold_package):
    # The node limit refuses each counter on a search that overruns it,
    # naming the group and the index; the real limit is never reached here.
    monkeypatch.setattr(oracle, "NODE_LIMIT", 400)
    with pytest.raises(ResourceLimitError, match=r"^free:2 at index 50: .* limit of 400 nodes"):
        oracle_count_subgroups(Free(2), 50)
    with pytest.raises(ResourceLimitError, match="orient:2 at index 8"):
        oracle_count_classes(OrientableSurface(2), 8)
    with pytest.raises(ResourceLimitError, match="nonorient:3 at index 6"):
        oracle_orientable_split(NonOrientableSurface(3), 6)
    # nonorient:2 at index 12 needs 220 nodes.
    assert oracle_count_subgroups(NonOrientableSurface(2), 12) == 28


@pytest.mark.parametrize("case", sorted(BUDGET_CASES))
def test_node_limit_is_exact(monkeypatch, case, cold_package):
    call, nodes, expected = BUDGET_CASES[case]
    monkeypatch.setattr(oracle, "NODE_LIMIT", nodes)
    assert call() == expected
    _coset_search.cache_clear()
    monkeypatch.setattr(oracle, "NODE_LIMIT", nodes - 1)
    with pytest.raises(ResourceLimitError):
        call()


@pytest.mark.parametrize("case", sorted(BUDGET_CASES))
def test_over_budget_search_caches_nothing(monkeypatch, case, cold_package):
    call, nodes, expected = BUDGET_CASES[case]
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "NODE_LIMIT", nodes - 1)
        with pytest.raises(ResourceLimitError):
            call()
    assert _coset_search.cache_info().currsize == 0
    assert call() == expected


def test_node_limit_applies_to_each_search_alone(monkeypatch, cold_package):
    # Two searches of 710 and 792 nodes both fit a limit of 792.
    monkeypatch.setattr(oracle, "NODE_LIMIT", 792)
    assert oracle_count_subgroups(Free(2), 5) == 461
    assert oracle_count_subgroups(NonOrientableSurface(3), 4) == 227


def test_oracle_rejects_a_non_family_argument_before_the_gate(monkeypatch, cold_package):
    # With no node to spend, any search would raise ResourceLimitError.
    monkeypatch.setattr(oracle, "NODE_LIMIT", 0)
    for bad in (object(), "free:2", None, GroupKind()):
        with pytest.raises(TypeError, match="unsupported group kind"):
            oracle_count_subgroups(bad, 2)
        with pytest.raises(TypeError, match="unsupported group kind"):
            oracle_count_classes(bad, 2)
        with pytest.raises(TypeError):
            oracle_orientable_split(bad, 2)
    # The split takes the non-orientable record only, not a bare genus.
    for bad in (Free(2), OrientableSurface(1), 3):
        with pytest.raises(TypeError, match="needs a NonOrientableSurface"):
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
            oracle_orientable_split(NonOrientableSurface(2), bad)
