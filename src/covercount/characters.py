"""Integer partitions, symmetric group character degrees, and beta sums.

A partition of k labels an irreducible character of the symmetric group S_k;
its degree comes from the hook length formula.  The quantity this package
actually consumes is beta(k, nu), the sum over all partitions of k of
(k! / degree)^nu.  Since k!/degree equals the product of hook lengths, beta
is computed from hook products directly and never divides at all.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .errors import ConsistencyError


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ValueError("a partition needs at least one part")
        for a, b in zip(self.parts, self.parts[1:]):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing, got {self.parts}")
        if self.parts[-1] < 1:
            raise ValueError(f"parts must be positive, got {self.parts}")

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "Partition":
        """The transposed Young diagram."""
        parts = self.parts
        return Partition(tuple(sum(1 for p in parts if p > j) for j in range(parts[0])))


def partitions(k: int) -> list[Partition]:
    """All partitions of k, in lexicographically decreasing order.

    Starts with the single-row partition (k) and ends with the single-column
    partition (1, ..., 1).
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    out = []
    prefix: list[int] = []

    def descend(remaining, cap):
        if remaining == 0:
            out.append(Partition(tuple(prefix)))
            return
        for part in range(min(remaining, cap), 0, -1):
            prefix.append(part)
            descend(remaining - part, part)
            prefix.pop()

    descend(k, k)
    return out


def hook_product(lam: Partition) -> int:
    """Product of the hook lengths over all cells of the Young diagram.

    This equals k! divided by the character degree, so it is always a
    positive integer and never needs rational arithmetic.
    """
    parts = lam.parts
    conj = lam.conjugate().parts
    prod = 1
    for i, row in enumerate(parts):
        for j in range(row):
            prod *= row - j + conj[j] - i - 1
    return prod


def degree(lam: Partition) -> int:
    """Degree of the irreducible S_k character labelled by lam (hook length formula)."""
    deg, rem = divmod(factorial(lam.weight), hook_product(lam))
    if rem:
        raise ConsistencyError(f"hook product of {lam} does not divide {lam.weight}!")
    return deg


@lru_cache(maxsize=None)
def beta(k: int, nu: int) -> int:
    """Sum of (k!/degree)^nu over all partitions of k.

    For nu = 0 this is just the number of partitions of k.  Negative nu
    would make the terms non-integral and is rejected.
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if nu < 0:
        raise ValueError(f"nu must be nonnegative, got {nu}")
    return sum(hook_product(lam) ** nu for lam in partitions(k))
