"""Conjugacy classes of finite-index subgroups, and census tables.

The class count N(n) follows from the subgroup counts of the covering
fibers: summing, over every divisor ell of n with m = n / ell, the number
of epimorphisms from each index-m subgroup onto the cyclic group of order
ell (weighted by multiplicity) yields exactly n * N(n).  Only the
abelianisation of each subgroup enters, which is what the family record's
fiber(m) provides.  The ell = 1 term is M(n), the row's subgroup count.

Over all n this sum is a Dirichlet convolution, so one pass serves a set
of target indices: count_classes asks it for {n}, census_table for
1..n_max.  It builds each fiber once per m, takes divisors and Mobius
values from one divisor table, checks that each total is divisible by n
(else the fiber data is wrong), and checks N <= M <= n N and M+ + M- = M
in every row.
"""

from .abelian import _epi_count
from .census import GroupKind, check_kind
from .errors import ConsistencyError, Record, check_index
from .numtheory import _divisor_table


class CensusRow(Record):
    """Counts at one index: subgroups, conjugacy classes, and for the
    non-orientable family the orientable/non-orientable split."""

    __slots__ = ("n", "subgroups", "conjugacy_classes",
                 "orientable_subgroups", "nonorientable_subgroups")

    def __init__(self, n: int, subgroups: int, conjugacy_classes: int,
                 orientable_subgroups: int | None = None,
                 nonorientable_subgroups: int | None = None):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "subgroups", subgroups)
        object.__setattr__(self, "conjugacy_classes", conjugacy_classes)
        object.__setattr__(self, "orientable_subgroups", orientable_subgroups)
        object.__setattr__(self, "nonorientable_subgroups", nonorientable_subgroups)


def count_classes(kind: GroupKind, n: int) -> int:
    """Conjugacy classes of index-n subgroups of the given group."""
    return _rows(kind, (check_index(n),))[0].conjugacy_classes


def census_table(kind: GroupKind, n_max: int) -> tuple[CensusRow, ...]:
    """Census rows for n = 1..n_max, with the split for non-orientable groups."""
    return _rows(kind, range(1, check_index(n_max, "n_max") + 1))


def _rows(kind: GroupKind, targets) -> tuple[CensusRow, ...]:
    # One checked row for each n of targets, in their order.
    check_kind(kind)
    divisors, mobius = _divisor_table(targets)
    fibers = {}
    rows = []
    for n in targets:
        acc = 0
        for ell in divisors[n]:
            m = n // ell
            if m not in fibers:
                # The kind is checked and m divides a checked n: ask the
                # record, not covering_fiber, which would check both again.
                fibers[m] = kind.fiber(m)
            for fiber in fibers[m]:
                acc += fiber.multiplicity * _epi_count(fiber.signature, ell, divisors[ell], mobius)
        classes, rem = divmod(acc, n)
        if rem:
            raise ConsistencyError(f"epimorphism total {acc} not divisible by n = {n}")
        subgroups = sum(fiber.multiplicity for fiber in fibers[n])
        row = CensusRow(n, subgroups, classes, *(kind.split(n) or ()))
        _check_row(row)
        rows.append(row)
    return tuple(rows)


def _check_row(row: CensusRow) -> None:
    ok = row.conjugacy_classes <= row.subgroups <= row.n * row.conjugacy_classes
    if not ok:
        raise ConsistencyError(f"subgroup/class bounds violated in {row}")
    if row.orientable_subgroups is not None:
        if row.orientable_subgroups + row.nonorientable_subgroups != row.subgroups:
            raise ConsistencyError(f"orientability split does not sum in {row}")
