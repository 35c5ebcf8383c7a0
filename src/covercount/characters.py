"""Integer partitions, their hook products, and beta sums.

A partition of k is a weakly decreasing tuple of positive parts adding up to
k.  It labels an irreducible character of the symmetric group S_k, whose
degree is k! divided by the hook product, the product of the hook lengths of
its Young diagram.  The quantity this package actually consumes is
beta(k, nu), the sum over all partitions of k of (k! / degree)^nu, that is
of (hook product)^nu, so it never divides at all.

hook_product needs only the first-column hook lengths h_i = parts[i] +
len(parts) - 1 - i:

    H = prod_i h_i! / prod_{i<j} (h_i - h_j).

Many partitions of k share a hook product (conjugate partitions always do),
and beta depends on a partition only through it.  hook_spectrum(k) walks
partitions(k) once and records each distinct hook product with the number of
partitions that have it; it is cached, so beta(k, nu) for every further
exponent nu is a short power sum over that spectrum and never enumerates
partitions again.
"""

from collections import Counter
from functools import lru_cache
from math import factorial

from .errors import ConsistencyError, check_index


def partitions(k: int) -> list[tuple[int, ...]]:
    """All partitions of k, as tuples of parts, in lexicographically decreasing order.

    Starts with the single-row partition (k) and ends with the single-column
    partition (1, ..., 1).
    """
    check_index(k, "k")
    out = []
    prefix: list[int] = []

    def descend(remaining, cap):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remaining, cap), 0, -1):
            prefix.append(part)
            descend(remaining - part, part)
            prefix.pop()

    descend(k, k)
    return out


def hook_product(parts) -> int:
    """Product of the hook lengths over all cells of the Young diagram.

    parts is a partition: a nonempty, weakly decreasing sequence of positive
    integers; anything else raises ValueError.  The product equals k!
    divided by the character degree, so it is always a positive integer.
    It is computed from the first-column hook lengths (see the module
    docstring); the division must be exact, and a remainder raises
    ConsistencyError.
    """
    length = len(parts)
    if not length:
        raise ValueError("a partition needs at least one part")
    firsts = []
    previous = parts[0]
    for i, part in enumerate(parts):
        if part > previous or part < 1:
            raise ValueError(f"parts must be positive and weakly decreasing, got {tuple(parts)}")
        firsts.append(part + length - 1 - i)
        previous = part
    numerator = 1
    vandermonde = 1
    for i, h in enumerate(firsts):
        numerator *= factorial(h)
        for lower in firsts[i + 1 :]:
            vandermonde *= h - lower
    product, rem = divmod(numerator, vandermonde)
    if rem:
        raise ConsistencyError(f"first-column hook formula is not integral for {tuple(parts)}")
    return product


@lru_cache(maxsize=None, typed=True)
def hook_spectrum(k: int) -> tuple[tuple[int, int], ...]:
    """The distinct hook products of the partitions of k, with multiplicities.

    A tuple of (hook product, number of partitions of k with it) pairs,
    sorted by hook product; the multiplicities add up to the number of
    partitions of k.
    """
    check_index(k, "k")
    return tuple(sorted(Counter(hook_product(parts) for parts in partitions(k)).items()))


@lru_cache(maxsize=None, typed=True)
def beta(k: int, nu: int) -> int:
    """Sum of (k!/degree)^nu over all partitions of k.

    For nu = 0 this is just the number of partitions of k.  Negative nu
    would make the terms non-integral and is rejected.
    """
    check_index(k, "k")
    check_index(nu, "nu", minimum=0)
    return sum(mult * hook**nu for hook, mult in hook_spectrum(k))
