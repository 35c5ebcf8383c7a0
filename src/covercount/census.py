"""Subgroup counts for free and surface groups, and their covering fibers.

Three families of groups are supported:

* Free(r), the free group on r >= 1 generators;
* OrientableSurface(g), the fundamental group of the closed orientable
  surface of genus g >= 1, with the single commutator-product relation;
* NonOrientableSurface(p), the fundamental group of the closed
  non-orientable surface of genus p >= 2, with the product-of-squares
  relation.

Each family class is the one record of what the formula routes know about
it: its spec prefix (FAMILIES maps each prefix to its class), its
orientability split (split(m), None for the orientable families), its
subgroup counts (subgroups(m)) and its covering fiber (fiber(m)).
count_subgroups and covering_fiber check their arguments and ask the
record.  The generator count belongs to the presentation, which the oracle
encodes for itself (oracle._presentation).

count_subgroups gives the number M(m) of index-m subgroups.  With
a_k = |Hom(G, S_k)| / k!, every supported group satisfies

    M(m) = m * a_m - sum_{j=1}^{m-1} a_{m-j} * M(j),

and the families differ only in a_k.  For Free(r) it is (k!)^(r-1), since
each of the r generators may go anywhere (Hall 1949); free_subgroups feeds
it to the recursion.  For surface groups it is a sum over symmetric group
characters: beta(k, nu), the sum of (k!/degree)^nu over partitions of k,
with nu the Euler-characteristic exponent (2g - 2 orientable, p - 2
non-orientable); r_nu_recursive feeds beta to the recursion.  Only the
free sum is taken by Horner's rule, over the small ratios
a_k / a_{k-1} = k^(r-1); consecutive beta have no integer ratio.  Each
recursion extends its table of a_k and M(k) (_TABLES) one k at a time, and
the table is its only memo: a count already in it is read, not recomputed.
Every new M(k), M(1) included, must satisfy 1 <= M(k) <= k * a_k: the
index-k subgroups number at most |Hom(G, S_k)| / (k-1)!, and at least one,
since every supported group maps onto Z.

An index-m subgroup is again a free or surface group, with rank or genus
given by the Riemann-Hurwitz relations.  covering_fiber records, for each
index m, the abelianisations of those subgroups together with their
multiplicities; the conjugacy-class counts in the classes module are driven
entirely by these fibers.  Index-m subgroups of a non-orientable surface
group split into orientable ones and non-orientable ones.  The orientable
ones are the subgroups of the orientation double cover, the orientable
surface of genus p - 1 (Mednykh and Pozdnyakova 1986), so they exist only
for even m; NonOrientableSurface.split holds that rule.
"""

from operator import mul

from .abelian import HomologySignature
from .characters import beta
from .errors import ConsistencyError, Record, check_index


class GroupKind(Record):
    """Base class for the family records described in the module docstring."""

    __slots__ = ()

    prefix: str

    def __str__(self):
        # Every family has one parameter, its only field.
        return f"{self.prefix}:{self._values()[0]}"

    def split(self, m: int) -> tuple[int, int] | None:
        """(orientable, non-orientable) index-m subgroup counts, or None
        when the family's subgroups do not split by orientability."""
        check_index(m, "m")
        return None


class Free(GroupKind):
    """Free group of the given rank."""

    __slots__ = ("rank",)
    prefix = "free"

    def __init__(self, rank: int):
        object.__setattr__(self, "rank", check_index(rank, "free rank"))

    def subgroups(self, m: int) -> int:
        return free_subgroups(m, self.rank)

    def fiber(self, m: int) -> list["FiberClass"]:
        # Every index-m subgroup is free of rank (r-1)m + 1.  The count
        # comes first: it checks m.
        count = self.subgroups(m)
        signature = HomologySignature(rank=(self.rank - 1) * m + 1)
        return [FiberClass(signature, count)]


class OrientableSurface(GroupKind):
    """Fundamental group of the closed orientable surface of genus g >= 1."""

    __slots__ = ("genus",)
    prefix = "orient"

    def __init__(self, genus: int):
        object.__setattr__(self, "genus", check_index(genus, "orientable genus"))

    def subgroups(self, m: int) -> int:
        return r_nu_recursive(m, 2 * self.genus - 2)

    def fiber(self, m: int) -> list["FiberClass"]:
        # Every index-m subgroup is the orientable surface group of genus
        # (g-1)m + 1, with abelianisation of rank 2(g-1)m + 2.  The count
        # comes first: it checks m.
        count = self.subgroups(m)
        signature = HomologySignature(rank=2 * (self.genus - 1) * m + 2)
        return [FiberClass(signature, count)]


class NonOrientableSurface(GroupKind):
    """Fundamental group of the closed non-orientable surface of genus p >= 2."""

    __slots__ = ("genus",)
    prefix = "nonorient"

    def __init__(self, genus: int):
        object.__setattr__(self, "genus", check_index(genus, "non-orientable genus", minimum=2))

    def subgroups(self, m: int) -> int:
        return r_nu_recursive(m, self.genus - 2)

    def split(self, m: int) -> tuple[int, int]:
        # M+ counts the subgroups of the orientation double cover, the
        # orientable surface of genus p - 1 (nu = 2(p - 2)), at index m / 2.
        p = self.genus
        check_index(m, "m")
        plus = 0 if m % 2 else r_nu_recursive(m // 2, 2 * (p - 2))
        minus = self.subgroups(m) - plus
        if minus < 0:
            raise ConsistencyError(f"orientable subgroup count exceeds total at p={p}, m={m}")
        return plus, minus

    def fiber(self, m: int) -> list["FiberClass"]:
        # Orientable index-m subgroups abelianise to rank m(p-2) + 2 with no
        # torsion, non-orientable ones to rank m(p-2) + 1 with a single
        # order-2 torsion summand.
        p = self.genus
        plus, minus = self.split(m)
        classes = [
            FiberClass(HomologySignature(rank=m * (p - 2) + 2), plus),
            FiberClass(HomologySignature(torsion=(2,), rank=m * (p - 2) + 1), minus),
        ]
        return [fiber for fiber in classes if fiber.multiplicity > 0]


FAMILIES = {family.prefix: family for family in (Free, OrientableSurface, NonOrientableSurface)}


def check_kind(kind) -> GroupKind:
    """Return kind if it is one of the supported families, else raise TypeError."""
    if not isinstance(kind, tuple(FAMILIES.values())):
        raise TypeError(f"unsupported group kind {kind!r}")
    return kind


class FiberClass(Record):
    """One abelianisation class of index-m subgroups, with its multiplicity."""

    __slots__ = ("signature", "multiplicity")

    def __init__(self, signature: HomologySignature, multiplicity: int):
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "multiplicity", check_index(multiplicity, "multiplicity", 0))


# Keyed ("free", r) or ("surface", nu), a recursion's [a_1, a_2, ...] and
# [M(1), M(2), ...], equally long; keyed ("powers", e), [0, 1, 2^e, ...] and [].
_TABLES: dict[tuple[str, int], tuple[list[int], list[int]]] = {}


def _table_count(key: tuple[str, int], m: int, step, call: str, a_m: str) -> int:
    # M(m) from the table of key, extended up to m by
    #     M(k) = k * a_k - sum_{j=1}^{k-1} a_{k-j} * M(j),
    # with step(key[1], k, a, counts) = (a_k, the sum).  Each new M(k) must lie in
    # [1, k * a_k]; call and a_m name the public function and its a_m in the
    # error raised when it does not.  Both lists grow only after the check,
    # so a failed step leaves the table as it was.  A warm read builds no
    # empty table, which setdefault would.
    a, counts = _TABLES.get(key) or _TABLES.setdefault(key, ([], []))
    for k in range(len(counts) + 1, m + 1):
        a_k, convolution = step(key[1], k, a, counts)
        bound = k * a_k
        total = bound - convolution
        if not 1 <= total <= bound:
            raise ConsistencyError(f"{call}({k}, {key[1]}) is outside [1, m * {a_m}]")
        a.append(a_k)
        counts.append(total)
    return counts[m - 1]


def _free_ratios(k: int, e: int) -> list[int]:
    # The ratios a_i / a_{i-1} = i^e of a_i = (i!)^e, for i = k down to 2,
    # sliced from the powers of e, each computed once.
    key = ("powers", e)
    powers = (_TABLES.get(key) or _TABLES.setdefault(key, ([0, 1], [])))[0]
    powers.extend(i**e for i in range(len(powers), k + 1))
    return powers[k:1:-1]


def _free_step(r, k, a, counts):
    # a_k = a_{k-1} * k^e with e = r - 1, and the sum by Horner's rule:
    #     M(k-1) + 2^e * (M(k-2) + 3^e * (M(k-3) + ... + (k-1)^e * M(1))).
    ratios = _free_ratios(k, r - 1)
    acc = 0
    for ratio, count in zip(ratios, counts):
        acc = acc * ratio + count
    return a[-1] * ratios[0] if a else 1, acc


def free_subgroups(m: int, r: int) -> int:
    """Number of index-m subgroups of the free group of rank r.

        M(m) = m * a_m - sum_{j=1}^{m-1} a_{m-j} * M(j),  a_k = (k!)^(r-1),

    the recursion of the module docstring with a_k = |Hom(F_r, S_k)| / k!,
    its sum by Horner's rule: each term a big-by-small product.
    """
    check_index(m, "m")
    check_index(r, "r")
    return _table_count(("free", r), m, _free_step, "free_subgroups", "(m!)^(r-1)")


def _surface_step(nu, k, a, counts):
    return beta(k, nu), sum(map(mul, reversed(a), counts))


def r_nu_recursive(m: int, nu: int) -> int:
    """Surface subgroup count by the recursion of the module docstring, a_k = beta(k, nu)."""
    check_index(m, "m")
    check_index(nu, "nu", minimum=0)
    return _table_count(("surface", nu), m, _surface_step, "r_nu_recursive", "beta(m, nu)")


def count_subgroups(kind: GroupKind, m: int) -> int:
    """Number of index-m subgroups of the given group."""
    check_index(m, "m")
    return check_kind(kind).subgroups(m)


def covering_fiber(kind: GroupKind, m: int) -> list[FiberClass]:
    """Abelianisations of the index-m subgroups, grouped with multiplicities.

    Each family's fiber method holds its rule.  Classes with multiplicity
    zero are omitted.
    """
    check_index(m, "m")
    return check_kind(kind).fiber(m)
