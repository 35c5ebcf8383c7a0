"""Subgroup counts for free and surface groups, and their covering fibers.

Three families of groups are supported:

* Free(r), the free group on r >= 1 generators;
* OrientableSurface(g), the fundamental group of the closed orientable
  surface of genus g >= 1, with the single commutator-product relation;
* NonOrientableSurface(p), the fundamental group of the closed
  non-orientable surface of genus p >= 2, with the product-of-squares
  relation.

count_subgroups gives the number M(m) of index-m subgroups.  With
a_k = |Hom(G, S_k)| / k!, every supported group satisfies

    M(m) = m * a_m - sum_{j=1}^{m-1} a_{m-j} * M(j),

and the families differ only in a_k.  For Free(r) it is (k!)^(r-1), since
each of the r generators may go anywhere (Hall 1949); free_subgroups runs
the recursion with it.  For surface groups it is a sum over symmetric group
characters: beta(k, nu), the sum of (k!/degree)^nu over partitions of k,
with nu the Euler-characteristic exponent (2g - 2 orientable, p - 2
non-orientable).  r_nu_recursive runs the recursion with beta; r_nu_closed
implements the equivalent inclusion-exclusion over compositions with
rational coefficients and is kept as an independent route for
cross-checking.  Both recursions check 1 <= M(m) <= m * a_m: the index-m
subgroups number at most |Hom(G, S_m)| / (m-1)!, and at least one, since
every supported group maps onto Z.

An index-m subgroup is again a free or surface group, with rank or genus
given by the Riemann-Hurwitz relations.  covering_fiber records, for each
index m, the abelianisations of those subgroups together with their
multiplicities; the conjugacy-class counts in the classes module are driven
entirely by these fibers.  Index-m subgroups of a non-orientable surface
group split into orientable ones (which exist only for even m, counted by
count_orientable_subgroups) and non-orientable ones.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .abelian import HomologySignature
from .characters import beta
from .errors import ConsistencyError, check_index


class GroupKind:
    """Base class for the supported group families."""

    __slots__ = ()


@dataclass(frozen=True)
class Free(GroupKind):
    """Free group of the given rank."""

    rank: int

    def __post_init__(self):
        check_index(self.rank, "free rank")

    @property
    def generator_count(self) -> int:
        return self.rank

    def __str__(self):
        return f"free:{self.rank}"


@dataclass(frozen=True)
class OrientableSurface(GroupKind):
    """Fundamental group of the closed orientable surface of genus g >= 1."""

    genus: int

    def __post_init__(self):
        check_index(self.genus, "orientable genus")

    @property
    def generator_count(self) -> int:
        return 2 * self.genus

    def __str__(self):
        return f"orient:{self.genus}"


@dataclass(frozen=True)
class NonOrientableSurface(GroupKind):
    """Fundamental group of the closed non-orientable surface of genus p >= 2."""

    genus: int

    def __post_init__(self):
        check_index(self.genus, "non-orientable genus", minimum=2)

    @property
    def generator_count(self) -> int:
        return self.genus

    def __str__(self):
        return f"nonorient:{self.genus}"


@dataclass(frozen=True)
class FiberClass:
    """One abelianisation class of index-m subgroups, with its multiplicity."""

    signature: HomologySignature
    multiplicity: int

    def __post_init__(self):
        if self.multiplicity < 0:
            raise ValueError(f"multiplicity must be nonnegative, got {self.multiplicity}")


@lru_cache(maxsize=None)
def _factorial_power(k: int, e: int) -> int:
    # a_k = (k!)^(r-1) for Free(r); every free_subgroups(m, r) with m > k
    # reads it, so it is raised to the power once per (k, r).
    return factorial(k) ** e


@lru_cache(maxsize=None, typed=True)
def free_subgroups(m: int, r: int) -> int:
    """Number of index-m subgroups of the free group of rank r.

    M(1) = 1 and

        M(m) = m * a_m - sum_{j=1}^{m-1} a_{m-j} * M(j),  a_k = (k!)^(r-1),

    the recursion of the module docstring with a_k = |Hom(F_r, S_k)| / k!.
    """
    check_index(m, "m")
    check_index(r, "r")
    if m == 1:
        return 1
    bound = m * _factorial_power(m, r - 1)
    total = bound
    for j in range(1, m):
        total -= _factorial_power(m - j, r - 1) * free_subgroups(j, r)
    if not 1 <= total <= bound:
        raise ConsistencyError(f"free_subgroups({m}, {r}) is outside [1, m * (m!)^(r-1)]")
    return total


def _composition_sums(m: int, nu: int):
    # For s = 1, ..., m: the sum of beta(i_1, nu) * ... * beta(i_s, nu) over
    # all ordered ways to write m = i_1 + ... + i_s with every part >= 1.
    # row[j] holds that sum for j in place of m and the current s; the next
    # row splits off the first part, so the whole walk costs O(m^3).
    betas = [0] + [beta(i, nu) for i in range(1, m + 1)]
    row = betas
    for s in range(1, m + 1):
        yield row[m]
        row = [0] * (s + 1) + [
            sum(betas[first] * row[j - first] for first in range(1, j - s + 1))
            for j in range(s + 1, m + 1)
        ]


def r_nu_closed(m: int, nu: int) -> int:
    """Closed-form surface subgroup count: inclusion-exclusion over compositions.

        R(m) = m * sum_{s=1}^{m} (-1)^(s+1)/s *
               sum_{i_1+...+i_s=m} beta(i_1, nu) ... beta(i_s, nu)

    Evaluated in exact rational arithmetic; the total provably reduces to an
    integer, and a non-unit denominator raises.  The composition sums are
    tabulated afresh on every call, so the result shares nothing with
    r_nu_recursive but the beta values.
    """
    check_index(m, "m")
    check_index(nu, "nu", minimum=0)
    total = Fraction(0)
    for s, composition_sum in enumerate(_composition_sums(m, nu), start=1):
        sign = 1 if s % 2 == 1 else -1
        total += Fraction(sign, s) * composition_sum
    total *= m
    if total.denominator != 1:
        raise ConsistencyError(f"r_nu_closed({m}, {nu}) reduced to non-integer {total}")
    return int(total)


@lru_cache(maxsize=None, typed=True)
def r_nu_recursive(m: int, nu: int) -> int:
    """Surface subgroup count by the beta recursion (same value as r_nu_closed)."""
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        # Only a bad argument calls check_index, to raise its error: a good
        # one adds no child span to this recursion, whose span tree the
        # perfbench self-time test fixes call by call.
        check_index(m, "m")
    if isinstance(nu, bool) or not isinstance(nu, int) or nu < 0:
        check_index(nu, "nu", minimum=0)
    if m == 1:
        return 1
    bound = m * beta(m, nu)
    total = bound
    for j in range(1, m):
        total -= beta(m - j, nu) * r_nu_recursive(j, nu)
    if not 1 <= total <= bound:
        raise ConsistencyError(f"r_nu_recursive({m}, {nu}) is outside [1, m * beta(m, nu)]")
    return total


def count_subgroups(kind: GroupKind, m: int) -> int:
    """Number of index-m subgroups of the given group."""
    check_index(m, "m")
    if isinstance(kind, Free):
        return free_subgroups(m, kind.rank)
    if isinstance(kind, OrientableSurface):
        return r_nu_recursive(m, 2 * kind.genus - 2)
    if isinstance(kind, NonOrientableSurface):
        return r_nu_recursive(m, kind.genus - 2)
    raise TypeError(f"unsupported group kind {kind!r}")


def count_orientable_subgroups(p: int, m: int) -> int:
    """Number of orientable index-m subgroups of NonOrientableSurface(p).

    Orientable subgroups only occur at even index; an index-2k subgroup that
    is orientable behaves like an index-k subgroup counted with the doubled
    exponent 2(p - 2).
    """
    check_index(p, "non-orientable genus", minimum=2)
    check_index(m, "m")
    if m % 2 == 1:
        return 0
    return r_nu_recursive(m // 2, 2 * (p - 2))


def count_nonorientable_subgroups(p: int, m: int) -> int:
    """Number of non-orientable index-m subgroups of NonOrientableSurface(p)."""
    count = count_subgroups(NonOrientableSurface(p), m) - count_orientable_subgroups(p, m)
    if count < 0:
        raise ConsistencyError(f"orientable subgroup count exceeds total at p={p}, m={m}")
    return count


def covering_fiber(kind: GroupKind, m: int) -> list[FiberClass]:
    """Abelianisations of the index-m subgroups, grouped with multiplicities.

    Free(r): every index-m subgroup is free of rank (r-1)m + 1.
    OrientableSurface(g): every index-m subgroup is the orientable surface
    group of genus (g-1)m + 1, with abelianisation of rank 2(g-1)m + 2.
    NonOrientableSurface(p): orientable index-m subgroups abelianise to rank
    m(p-2) + 2 with no torsion, non-orientable ones to rank m(p-2) + 1 with
    a single order-2 torsion summand.  Classes with multiplicity zero are
    omitted.
    """
    check_index(m, "m")
    if isinstance(kind, Free):
        signature = HomologySignature(rank=(kind.rank - 1) * m + 1)
        return [FiberClass(signature, count_subgroups(kind, m))]
    if isinstance(kind, OrientableSurface):
        signature = HomologySignature(rank=2 * (kind.genus - 1) * m + 2)
        return [FiberClass(signature, count_subgroups(kind, m))]
    if isinstance(kind, NonOrientableSurface):
        p = kind.genus
        classes = []
        orientable = count_orientable_subgroups(p, m)
        if orientable > 0:
            classes.append(FiberClass(HomologySignature(rank=m * (p - 2) + 2), orientable))
        nonorientable = count_nonorientable_subgroups(p, m)
        if nonorientable > 0:
            classes.append(
                FiberClass(HomologySignature(torsion=(2,), rank=m * (p - 2) + 1), nonorientable)
            )
        return classes
    raise TypeError(f"unsupported group kind {kind!r}")
