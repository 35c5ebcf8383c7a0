from itertools import combinations_with_replacement, permutations, product
from math import factorial

import pytest

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
    _coset_search,
    _fixed_bases,
    _presentation,
    _resume,
    _start,
    kernel_backend,
    oracle_table,
)

import full_leaf_search
from compare_reference import compare
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
# orient:2 n=5, which take the reference about 5 s and 13 s; and for each
# surface relation the genus with more generators, whose trees the choice
# of branching column changes most.
REFERENCE_GRID = SMALL_GRID + [
    (Free(2), 7),
    (NonOrientableSurface(3), 6),
    (NonOrientableSurface(2), 12),
    (NonOrientableSurface(4), 4),
    (OrientableSurface(3), 3),
]

def test_kernel_backend_reports_a_known_name():
    assert kernel_backend() == "python"
    assert oracle._kernels is _pykernels


def split(row):
    return row.orientable_subgroups, row.nonorientable_subgroups


@pytest.fixture(scope="module")
def grid_rows():
    """The oracle's rows of each SMALL_GRID family, one search at its bound."""
    return {kind: oracle_table(kind, top) for kind, top in SMALL_GRID}


def test_oracle_subgroup_counts_match_formulas(grid_rows):
    for kind, rows in grid_rows.items():
        for row in rows:
            assert row.subgroups == count_subgroups(kind, row.n), (kind, row.n)


def test_oracle_class_counts_match_formulas(grid_rows):
    for kind, rows in grid_rows.items():
        for row in rows:
            assert row.conjugacy_classes == count_classes(kind, row.n), (kind, row.n)


def test_oracle_orientable_split_matches_formulas(grid_rows):
    for kind in (NonOrientableSurface(2), NonOrientableSurface(3)):
        for row in grid_rows[kind]:
            assert split(row) == kind.split(row.n), (kind, row.n)


def test_oracle_matches_every_table_row(grid_rows):
    # The rows that table prints and verify checks, from the multi-index
    # driver, against the oracle's rows of one search: every table up to
    # each grid bound, equal field by field, n and the split (None on the
    # orientable kinds) included.
    for kind, top in SMALL_GRID:
        for m in range(1, top + 1):
            assert census_table(kind, m) == grid_rows[kind][:m], (kind, m)


def tuple_brute_force(rel, gens, n):
    """(M, N, M+) at index n from the tuple kernels, which count each
    subgroup once per numbering of its other n - 1 cosets."""
    base = factorial(n - 1)
    _, transitive = _pykernels.count_relation_tuples(rel, gens, n)
    subgroups, rest = divmod(transitive, base)
    assert rest == 0, (rel, gens, n)
    orbits, classes = _pykernels.count_transitive_orbits(rel, gens, n)
    assert orbits == transitive, (rel, gens, n)
    if rel != _pykernels.REL_SQUARES:
        return subgroups, classes, 0
    plus, minus = _pykernels.count_orientation_split(gens, n)
    orientable, rest = divmod(plus, base)
    assert (rest, minus) == (0, (subgroups - orientable) * base), (rel, gens, n)
    return subgroups, classes, orientable


def test_coset_search_matches_tuple_brute_force():
    # Every row of the search at each n, against the brute force at the
    # row's index.
    for kind, n_max in SMALL_GRID:
        rel, gens = _presentation(kind)
        expected = tuple(tuple_brute_force(rel, gens, m) for m in range(1, n_max + 1))
        for n in range(1, n_max + 1):
            assert _coset_search(rel, gens, n) == expected[:n], (kind, n)


def test_coset_search_matches_full_leaf_reference():
    # Every row of the search at each n, against the reference at the row's
    # index.
    for kind, n_max in REFERENCE_GRID:
        rel, gens = _presentation(kind)
        expected = tuple(full_leaf_search.full_leaf_search(rel, gens, m) for m in range(1, n_max + 1))
        for n in range(1, n_max + 1):
            assert _coset_search(rel, gens, n) == expected[:n], (kind, n)


def test_compare_reads_only_defined_entries():
    # a = (0)(1 2), b = (0 1 2): a standard table, least of its class, with
    # [N(H):H] = 1.  From base 2 its re-standardisation a = (0 1), b = (0 1 2)
    # is smaller than it, which five defined slots already show.
    least = [[0, 2, 1], [1, 2, 0]]
    other = [[1, 0, 2], [1, 2, 0]]
    assert [compare(least, 3, base) for base in range(3)] == [0, 1, 1]
    assert [compare(other, 3, base) for base in range(3)] == [0, 1, -1]
    assert compare([[1, 0, 2], [1, 2, -1]], 3, 2) == -1
    assert compare([[0, 2, -1], [1, -1, -1]], 3, 1) == 1
    assert compare([[0, -1, -1], [1, -1, -1]], 3, 1) is None
    # Z/2 = F1 / <a^2>: both bases fix the subgroup, [N(H):H] = 2.
    assert [compare([[1, 0]], 2, base) for base in range(2)] == [0, 0]


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
                assert fresh[0] == compare(fwd, n, base)
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
                assert compare(fwd, n, base) == sign, (table, base)
        assert [compare(fwd, n, base) for base in states] == [0] * len(states)
        assert 0 in states


def test_coset_search_rechecks_its_results(monkeypatch):
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
    # One base too many counted as fixing H: [N(H):H] = 2 at the first
    # leaf, the index-1 table.
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_fixed_bases", lambda fwd, n: real(fwd, n) + 1)
        with pytest.raises(ConsistencyError, match=r"\[N\(H\):H\] = 2 does not divide 1"):
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


def test_coset_search_checks_the_leaves_below_its_index(monkeypatch):
    # The leaves of index m < n are checked as the index-n ones are: one
    # base too many counted as fixing H on those tables alone.
    real = oracle._fixed_bases
    monkeypatch.setattr(oracle, "_fixed_bases", lambda fwd, m: real(fwd, m) + (m < 3))
    with pytest.raises(ConsistencyError, match=r"\[N\(H\):H\] = 2 does not divide 1"):
        _coset_search(_pykernels.REL_FREE, 2, 3)


def test_oracle_table_checks_its_rows(monkeypatch):
    # An index-2 triple with N > M from the search: census_table's row check
    # refuses it on the oracle's side too.
    monkeypatch.setattr(oracle, "_coset_search", lambda rel, gens, n: ((1, 1, 0), (2, 3, 0)))
    with pytest.raises(ConsistencyError, match="subgroup/class bounds violated"):
        oracle_table(Free(2), 2)


def leaf_verdict(fwd, n, seen):
    """What the leaf's scan should make of a complete table, from n scans by
    compare: the error it raises, or [N(H):H].  Adds the orders to seen."""
    orders = [compare(fwd, n, base) for base in range(n)]
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
        (row,) = oracle_table(NonOrientableSurface(p), 1)
        assert split(row) == (0, 1)


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


# One search per column and relation: the descend entries of its coset
# search, and a field of its last row.  orient:2 n=4 and nonorient:3 n=5
# are the heaviest searches of perfbench's oracle-verify workload (orient:2
# n=4 has M = 5,275): their exact node counts tie that workload's times to
# the same search tree.
BUDGET_CASES = {
    "free:2 n=5 subgroups": (lambda: oracle_table(Free(2), 5)[-1].subgroups, 381, 461),
    "orient:2 n=3 classes": (
        lambda: oracle_table(OrientableSurface(2), 3)[-1].conjugacy_classes, 296, 100
    ),
    "nonorient:3 n=4 split": (
        lambda: split(oracle_table(NonOrientableSurface(3), 4)[-1]), 375, (15, 212)
    ),
    "orient:2 n=4 classes": (
        lambda: oracle_table(OrientableSurface(2), 4)[-1].conjugacy_classes, 5751, 1615
    ),
    "nonorient:3 n=5 split": (
        lambda: split(oracle_table(NonOrientableSurface(3), 5)[-1]), 2032, (0, 1296)
    ),
    # free:1's one index-n table is the n-cycle.  Each cell k.a with
    # k < n - 1 has two children: k.a = 0 closes a cycle, a leaf of index
    # k + 1, and k.a = k + 1 opens a coset.  Once coset n - 1 is open,
    # (n - 1).a = 0 is the last free cell of the only column, a deduction
    # rather than a node: 1 + 2(n - 1) nodes.
    **{
        f"free:1 n={n} cycle": (lambda n=n: oracle_table(Free(1), n)[-1].subgroups, 2 * n - 1, 1)
        for n in range(2, 7)
    },
}


def test_feasibility_gate(monkeypatch):
    # The node limit refuses each family's search that overruns it, naming
    # the group and the index; the real limit is never reached here.
    monkeypatch.setattr(oracle, "NODE_LIMIT", 400)
    with pytest.raises(ResourceLimitError, match=r"^free:2 at index 50: .* limit of 400 nodes"):
        oracle_table(Free(2), 50)
    with pytest.raises(ResourceLimitError, match="orient:2 at index 8"):
        oracle_table(OrientableSurface(2), 8)
    with pytest.raises(ResourceLimitError, match="nonorient:3 at index 6"):
        oracle_table(NonOrientableSurface(3), 6)
    # nonorient:2 at index 12 needs 213 nodes.
    assert oracle_table(NonOrientableSurface(2), 12)[-1].subgroups == 28


@pytest.mark.parametrize("case", sorted(BUDGET_CASES))
def test_node_limit_is_exact(monkeypatch, case):
    call, nodes, expected = BUDGET_CASES[case]
    monkeypatch.setattr(oracle, "NODE_LIMIT", nodes)
    assert call() == expected
    monkeypatch.setattr(oracle, "NODE_LIMIT", nodes - 1)
    with pytest.raises(ResourceLimitError):
        call()


def test_node_limit_applies_to_each_search_alone(monkeypatch):
    # Two searches of 381 and 375 nodes both fit a limit of 381.
    monkeypatch.setattr(oracle, "NODE_LIMIT", 381)
    assert oracle_table(Free(2), 5)[-1].subgroups == 461
    assert oracle_table(NonOrientableSurface(3), 4)[-1].subgroups == 227


def test_oracle_rejects_a_non_family_argument_before_the_gate(monkeypatch):
    # With no node to spend, any search would raise ResourceLimitError.
    monkeypatch.setattr(oracle, "NODE_LIMIT", 0)
    for bad in (object(), "free:2", None, GroupKind(), 3):
        with pytest.raises(TypeError, match="unsupported group kind"):
            oracle_table(bad, 2)


def test_oracle_rejects_zero_index():
    with pytest.raises(ValueError):
        oracle_table(Free(2), 0)


def test_oracle_rejects_bool_and_non_int_indices():
    for kind in (Free(2), NonOrientableSurface(2)):
        for bad in (True, 2.0, "3", None):
            with pytest.raises(TypeError, match="n_max must be an int"):
                oracle_table(kind, bad)
