"""Two references for covercount's epimorphism count: a test module.

oracle_epi_count(signature, ell) counts the epimorphisms from a finitely
generated abelian group onto Z/ell by trying every assignment of generator
images, and euler_phi(n) is Euler's totient, the epimorphism count of Z
onto Z/n, by the product over the distinct prime factors of n.  Neither
uses a Mobius function or a divisor sum, so the tests check epi_count
against both.

Loaded by path from the tests, as tests/r_nu_closed.py is.
"""

from itertools import product
from math import gcd

from covercount.abelian import HomologySignature
from covercount.errors import ResourceLimitError, check_index

# Epimorphism brute force stays pure Python; its bounds keep it tiny.
EPI_MAX_GENERATORS = 6
EPI_MAX_ORDER = 24


def oracle_epi_count(signature: HomologySignature, ell: int) -> int:
    """Epimorphism count onto the cyclic group of order ell, by enumeration.

    Try every order-respecting assignment of generator images in Z_ell and
    keep those whose images generate, i.e. whose gcd with ell is 1.
    """
    check_index(ell, "ell")
    generators = len(signature.torsion) + signature.rank
    if generators > EPI_MAX_GENERATORS or ell > EPI_MAX_ORDER:
        raise ResourceLimitError(
            f"epimorphism enumeration bounded to {EPI_MAX_GENERATORS} generators "
            f"and target order {EPI_MAX_ORDER}, got {generators} and {ell}"
        )
    choices = []
    for t in signature.torsion:
        step = ell // gcd(t, ell)
        choices.append(range(0, ell, step))
    for _ in range(signature.rank):
        choices.append(range(ell))
    count = 0
    for images in product(*choices):
        acc = ell
        for x in images:
            acc = gcd(acc, x)
        if acc == 1:
            count += 1
    return count


def euler_phi(n: int) -> int:
    """Euler totient, via the product over distinct prime factors."""
    check_index(n)
    result = n
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result
