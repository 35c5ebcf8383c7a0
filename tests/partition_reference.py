"""The per-partition route to the hook spectrum: a test reference.

partitions(k) lists the partitions of k, and hook_product(parts) needs only
the first-column hook lengths h_i = parts[i] + len(parts) - 1 - i,

    H = prod_i h_i! / prod_{i<j} (h_i - h_j).

They share no code with covercount's branching rule, so the tests check
every hook spectrum against them.

Loaded by path from the tests, as tests/r_nu_closed.py is.
"""

from math import factorial

from covercount.errors import ConsistencyError, check_index


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
