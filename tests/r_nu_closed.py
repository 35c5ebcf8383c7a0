"""The closed-form surface subgroup count: a test reference.

r_nu_closed(m, nu) gives the number of index-m subgroups of a surface
group with Euler-characteristic exponent nu by inclusion-exclusion over
compositions of m,

    R(m) = m * sum_{s=1}^{m} (-1)^(s+1)/s *
           sum_{i_1+...+i_s=m} beta(i_1, nu) ... beta(i_s, nu),

evaluated in integers over the common denominator lcm(1, ..., m).  It
keeps no table and shares nothing with census.r_nu_recursive but the beta
values, so the tests compare the recursion against it.

The tests import it by name: pytest puts tests/ on sys.path.
"""

from math import lcm

from covercount.characters import beta
from covercount.errors import ConsistencyError, check_index


def _composition_sums(m: int, nu: int):
    # For s = 1, ..., m: the sum of beta(i_1, nu) * ... * beta(i_s, nu) over
    # all ordered ways to write m = i_1 + ... + i_s with every part >= 1.
    # row[j] holds that sum for j in place of m and the current s; the next
    # row takes off the first part, so the whole walk costs O(m^3).
    betas = [0] + [beta(i, nu) for i in range(1, m + 1)]
    row = betas
    for s in range(1, m + 1):
        yield row[m]
        row = [0] * (s + 1) + [
            sum(betas[first] * row[j - first] for first in range(1, j - s + 1))
            for j in range(s + 1, m + 1)
        ]


def r_nu_closed(m: int, nu: int) -> int:
    """Closed-form surface subgroup count, the formula of the module docstring.

    The total provably reduces to an integer over lcm(1, ..., m), and a
    remainder raises ConsistencyError.  The composition sums are tabulated
    afresh on every call.
    """
    check_index(m, "m")
    check_index(nu, "nu", minimum=0)
    denominator = lcm(*range(1, m + 1))
    numerator = 0
    for s, composition_sum in enumerate(_composition_sums(m, nu), start=1):
        term = denominator // s * composition_sum
        numerator += term if s % 2 == 1 else -term
    total, rem = divmod(m * numerator, denominator)
    if rem:
        raise ConsistencyError(f"r_nu_closed({m}, {nu}) does not reduce to an integer")
    return total
