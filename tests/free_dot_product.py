"""The free-group recursion with its sum as a dot product: a test reference.

free_table(m, r) returns the lists [a_1, ..., a_m] and [M(1), ..., M(m)] of
the free group of rank r, by

    M(k) = k * a_k - sum_{j=1}^{k-1} a_{k-j} * M(j),  a_k = (k!)^(r-1),

with every a_k taken from math.factorial and the sum as a dot product of
big ints, as census evaluated it before the free family switched to
Horner's rule over the ratios a_k / a_{k-1} = k^(r-1).  It keeps no table
and no cache and checks no bound, so it shares nothing with census but the
recursion itself.

The tests import it by name: pytest puts tests/ on sys.path.
"""

from math import factorial
from operator import mul


def free_table(m: int, r: int) -> tuple[list[int], list[int]]:
    """(a_1..a_m, M(1)..M(m)) for the free group of rank r."""
    a, counts = [], []
    for k in range(1, m + 1):
        a_k = factorial(k) ** (r - 1)
        counts.append(k * a_k - sum(map(mul, reversed(a), counts)))
        a.append(a_k)
    return a, counts
