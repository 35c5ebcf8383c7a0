"""Elementary arithmetic helpers: divisors, Mobius function, totient.

Everything here works on plain Python integers and uses trial division,
which is more than fast enough for the index ranges this package targets.
The gcd is the standard library's math.gcd, called directly.
"""

from .errors import check_index


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    return _divisors(check_index(n))


def _divisors(n: int) -> list[int]:
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


def mobius(n: int) -> int:
    """Mobius function: 0 if n has a squared prime factor, else (-1)^#primes."""
    return _mobius(check_index(n))


def _mobius(n: int) -> int:
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
