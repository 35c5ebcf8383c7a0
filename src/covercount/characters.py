"""Integer partitions, their hook products, and beta sums.

A partition of k is a weakly decreasing tuple of positive parts adding up to
k.  It labels an irreducible character of the symmetric group S_k, of degree
f = k! / H, where H is the hook product, the product of the hook lengths of
its Young diagram.  The quantity this package actually consumes is
beta(k, nu), the sum over all partitions of k of H^nu.  beta depends on a
partition only through H, so hook_spectrum(k) records each distinct hook
product of the partitions of k with the number of partitions that have it;
it is cached, and beta(k, nu) for every exponent nu is a short power sum
over it.

The spectrum is built by the branching rule over Young's lattice: f of a
partition of k is the sum of f over the partitions of k - 1 obtained by
removing one corner cell.  _degrees(k) pushes every degree of level k - 1
to the partitions one cell larger, so each level costs one big-integer
addition per addable cell, and no partition of k is enumerated or has its
hooks multiplied on its own.  A partition is keyed there by its boundary
word, an int: walking the rim of the Young diagram from its bottom-left
corner to its top-right one, bit j is 1 for an up step and 0 for a right
step.  The empty partition is 0, and (2, 1) is 0b1010 (right, up, right,
up).  A new row of one cell turns w into (w << 1) | 2; every other addable
cell is a set bit j of w & ~(w >> 1), an up step followed by a right step,
and swapping the two, w ^ (3 << j), adds that cell.  Each level is checked
against Frobenius' identity, the sum of f^2 is k!, and each k! / f must be
exact; either failure raises ConsistencyError.

partitions and hook_product stay as the per-partition route: partitions(k)
lists the partitions of k, and hook_product(parts) needs only the
first-column hook lengths h_i = parts[i] + len(parts) - 1 - i,

    H = prod_i h_i! / prod_{i<j} (h_i - h_j).

They share no code with the branching rule, so the tests check every
spectrum against them.
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


@lru_cache(maxsize=1)
def _degrees(k: int) -> dict[int, int]:
    """{boundary word: degree} over the partitions of k, by the branching rule.

    Built from _degrees(k - 1), so calls in ascending k build each level
    once; the cache keeps only the last level.
    """
    below = _degrees(k - 1) if k > 1 else {0: 1}
    level: dict[int, int] = {}
    get = level.get
    for word, degree in below.items():
        child = (word << 1) | 2
        level[child] = get(child, 0) + degree
        corners = word & ~(word >> 1)
        while corners:
            low = corners & -corners
            child = word ^ (low * 3)
            level[child] = get(child, 0) + degree
            corners ^= low
    if sum(degree * degree for degree in level.values()) != factorial(k):
        raise ConsistencyError(f"the squared degrees of the partitions of {k} do not sum to {k}!")
    return level


@lru_cache(maxsize=None, typed=True)
def hook_spectrum(k: int) -> tuple[tuple[int, int], ...]:
    """The distinct hook products of the partitions of k, with multiplicities.

    A tuple of (hook product, number of partitions of k with it) pairs,
    sorted by hook product; the multiplicities add up to the number of
    partitions of k.  The degrees f come from _degrees(k), which builds
    them by the branching rule from the degrees of the partitions of k - 1,
    keyed by boundary word (see the module docstring); each hook product
    is k! / f, and a remainder raises ConsistencyError.  partitions and
    hook_product are not called: they are the independent route the tests
    check this one against.
    """
    check_index(k, "k")
    total = factorial(k)
    spectrum = []
    for degree, mult in Counter(_degrees(k).values()).items():
        hook, rem = divmod(total, degree)
        if rem:
            raise ConsistencyError(f"a degree {degree} of S_{k} does not divide {k}!")
        spectrum.append((hook, mult))
    return tuple(sorted(spectrum))


@lru_cache(maxsize=None, typed=True)
def beta(k: int, nu: int) -> int:
    """Sum of (k!/degree)^nu over all partitions of k.

    For nu = 0 this is just the number of partitions of k.  Negative nu
    would make the terms non-integral and is rejected.
    """
    check_index(k, "k")
    check_index(nu, "nu", minimum=0)
    return sum(mult * hook**nu for hook, mult in hook_spectrum(k))
