"""Elementary arithmetic helpers: divisors, Mobius function, totient, gcd.

Everything here works on plain Python integers and uses trial division,
which is more than fast enough for the index ranges this package targets.
"""

import math
from typing import NamedTuple

from .errors import check_index


class DivisorPair(NamedTuple):
    """A factorisation n = ell * m."""

    ell: int
    m: int


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    check_index(n)
    small = []
    large = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def divisor_pairs(n: int) -> list[DivisorPair]:
    """All ordered factorisations n = ell * m, by ascending ell."""
    return [DivisorPair(ell, n // ell) for ell in divisors(n)]


def mobius(n: int) -> int:
    """Mobius function: 0 if n has a squared prime factor, else (-1)^#primes."""
    check_index(n)
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


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


def gcd(a: int, b: int) -> int:
    """Greatest common divisor of two nonnegative integers, not both zero."""
    if a < 0 or b < 0:
        raise ValueError(f"gcd expects nonnegative arguments, got ({a}, {b})")
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    return math.gcd(a, b)
