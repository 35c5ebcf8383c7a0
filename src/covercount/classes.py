"""Conjugacy classes of finite-index subgroups, and census tables.

The class count N(n) follows from the subgroup counts of the covering
fibers: summing, over every divisor ell of n with m = n / ell, the number
of epimorphisms from each index-m subgroup onto the cyclic group of order
ell (weighted by multiplicity) yields exactly n * N(n).  Only the
abelianisation of each subgroup enters, which is what covering_fiber
provides.

count_classes is that driver for every family; it verifies that the
accumulator is divisible by n before dividing, and a failure means the
fiber data is wrong.
"""

from dataclasses import dataclass

from .abelian import _epi_count
from .census import (
    GroupKind,
    check_kind,
    count_nonorientable_subgroups,
    count_orientable_subgroups,
    count_subgroups,
    covering_fiber,
)
from .errors import ConsistencyError, check_index
from .numtheory import _divisors


@dataclass(frozen=True)
class CensusRow:
    """Counts at one index: subgroups, conjugacy classes, and for the
    non-orientable family the orientable/non-orientable split."""

    n: int
    subgroups: int
    conjugacy_classes: int
    orientable_subgroups: int | None = None
    nonorientable_subgroups: int | None = None


@dataclass(frozen=True)
class CensusTable:
    """Census rows for indices 1..n_max of one group."""

    kind: GroupKind
    rows: tuple[CensusRow, ...]


def count_classes(kind: GroupKind, n: int) -> int:
    """Conjugacy classes of index-n subgroups of the given group.

    Sums, over every divisor ell of n, the epimorphisms onto the cyclic
    group of order ell from the index-n/ell subgroups, as covering_fiber
    gives them.  The total must come out divisible by n; if not, the fiber
    data is inconsistent and this raises.
    """
    check_index(n)
    # Each ell divides the checked n: no need to check it again.
    acc = 0
    for ell in _divisors(n):
        for fiber in covering_fiber(kind, n // ell):
            acc += fiber.multiplicity * _epi_count(fiber.signature, ell)
    count, rem = divmod(acc, n)
    if rem:
        raise ConsistencyError(f"epimorphism total {acc} not divisible by n = {n}")
    return count


def _check_row(row: CensusRow) -> None:
    ok = row.conjugacy_classes <= row.subgroups <= row.n * row.conjugacy_classes
    if not ok:
        raise ConsistencyError(f"subgroup/class bounds violated in {row}")
    if row.orientable_subgroups is not None:
        if row.orientable_subgroups + row.nonorientable_subgroups != row.subgroups:
            raise ConsistencyError(f"orientability split does not sum in {row}")


def census_table(kind: GroupKind, n_max: int) -> CensusTable:
    """Census rows for n = 1..n_max, with the split for non-orientable groups."""
    check_index(n_max, "n_max")
    rows = []
    split = check_kind(kind).splits
    for n in range(1, n_max + 1):
        row = CensusRow(
            n=n,
            subgroups=count_subgroups(kind, n),
            conjugacy_classes=count_classes(kind, n),
            orientable_subgroups=count_orientable_subgroups(kind.genus, n) if split else None,
            nonorientable_subgroups=count_nonorientable_subgroups(kind.genus, n) if split else None,
        )
        _check_row(row)
        rows.append(row)
    return CensusTable(kind, tuple(rows))
