"""Counting homomorphisms and epimorphisms onto cyclic groups.

A finitely generated abelian group is described by a HomologySignature: a
multiset of finite torsion orders plus a free rank.  Homomorphisms into the
cyclic group of order d factor through each summand independently, giving
the product gcd(m_1, d) * ... * gcd(m_s, d) * d^rank.  Epimorphism counts
follow by Mobius inversion over the divisors of the target order.
"""

from math import gcd

from .errors import ConsistencyError, Record, check_index
from .numtheory import _divisor_table


class HomologySignature(Record):
    """Torsion orders (each >= 2) and free rank of an abelian group.

    The torsion orders are stored sorted ascending.  They are not required
    to be in invariant-factor form: (2, 3) and (6,) describe isomorphic
    groups and produce identical counts.
    """

    __slots__ = ("torsion", "rank")

    def __init__(self, torsion: tuple[int, ...] = (), rank: int = 0):
        torsion = tuple(sorted(torsion))
        for t in torsion:
            check_index(t, "torsion order", minimum=2)
        object.__setattr__(self, "torsion", torsion)
        object.__setattr__(self, "rank", check_index(rank, "rank", minimum=0))


def hom_count(signature: HomologySignature, d: int) -> int:
    """Number of homomorphisms from the group into the cyclic group of order d."""
    return _hom_count(signature, check_index(d, "d"))


def _hom_count(signature: HomologySignature, d: int) -> int:
    count = d**signature.rank
    for t in signature.torsion:
        count *= gcd(t, d)
    return count


def epi_count(signature: HomologySignature, ell: int) -> int:
    """Number of epimorphisms onto the cyclic group of order ell.

    Mobius inversion of hom_count over the divisors of ell.  The result is
    a count, so a negative total indicates a bug and raises.
    """
    divisors, mobius = _divisor_table((check_index(ell, "ell"),))
    return _epi_count(signature, ell, divisors[ell], mobius)


def _epi_count(signature: HomologySignature, ell: int, divisors, mobius) -> int:
    # Unchecked, fed the divisors of ell and a table of mobius over them:
    # the class driver takes both from one divisor table for all its ell.
    total = 0
    for d in divisors:
        mu = mobius[ell // d]
        if mu:
            total += mu * _hom_count(signature, d)
    if total < 0:
        raise ConsistencyError(f"negative epimorphism count {total} for {signature} onto Z_{ell}")
    return total
