"""Elementary arithmetic helpers: divisors and the Mobius function.

Everything here works on plain Python integers.  One index is factored by
trial division; a whole range of indices gets its divisors and Mobius
values from one sieve (_divisor_table).
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


def _divisor_table(targets):
    # (divisors, mobius): for every k that divides one of targets, its
    # divisors ascending as divisors[k] and mobius(k) as mobius[k].  One
    # target n takes the divisors of n; more, one sieve up to the largest.
    top = max(targets)
    if len(targets) == 1:
        found = _divisors(top)
        return {k: [d for d in found if k % d == 0] for k in found}, {k: _mobius(k) for k in found}
    divisors = [[] for _ in range(top + 1)]
    mobius = [1] * (top + 1)
    for d in range(1, top + 1):
        for k in range(d, top + 1, d):
            divisors[k].append(d)
        if len(divisors[d]) == 2:  # d is prime
            for k in range(d, top + 1, d):
                mobius[k] = -mobius[k]
            for k in range(d * d, top + 1, d * d):
                mobius[k] = 0
    return divisors, mobius
