"""Exact counts of finite-index subgroups and their conjugacy classes in
free groups, orientable surface groups and non-orientable surface groups,
with a brute-force permutation oracle for independent verification."""

from .abelian import HomologySignature, epi_count, hom_count
from .census import (
    FiberClass,
    Free,
    GroupKind,
    NonOrientableSurface,
    OrientableSurface,
    count_nonorientable_subgroups,
    count_orientable_subgroups,
    count_subgroups,
    covering_fiber,
    free_subgroups,
    r_nu_recursive,
)
from .characters import beta, hook_product, hook_spectrum, partitions
from .classes import CensusRow, CensusTable, census_table, count_classes
from .errors import ConsistencyError, ResourceLimitError
from .numtheory import divisors, euler_phi, mobius

__version__ = "0.1.0"

# The oracle is loaded on first use, so count and table never import it.
_ORACLE_NAMES = frozenset(
    {
        "kernel_backend",
        "oracle_count_classes",
        "oracle_count_subgroups",
        "oracle_epi_count",
        "oracle_orientable_split",
    }
)


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CensusRow",
    "CensusTable",
    "ConsistencyError",
    "FiberClass",
    "Free",
    "GroupKind",
    "HomologySignature",
    "NonOrientableSurface",
    "OrientableSurface",
    "ResourceLimitError",
    "beta",
    "census_table",
    "count_classes",
    "count_nonorientable_subgroups",
    "count_orientable_subgroups",
    "count_subgroups",
    "covering_fiber",
    "divisors",
    "epi_count",
    "euler_phi",
    "free_subgroups",
    "hom_count",
    "hook_product",
    "hook_spectrum",
    "kernel_backend",
    "mobius",
    "oracle_count_classes",
    "oracle_count_subgroups",
    "oracle_epi_count",
    "oracle_orientable_split",
    "partitions",
    "r_nu_recursive",
]
