"""Exception types and the index check shared across the package."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed (a divisibility or sign invariant).

    These checks guard identities that hold for every valid input, so a
    ConsistencyError always indicates a bug, never a bad argument.
    """


class ResourceLimitError(RuntimeError):
    """A brute-force request exceeds its work bound: the coset search's node
    limit or the epimorphism enumeration's size bounds."""


def check_index(value, name: str = "n", minimum: int = 1) -> int:
    """Return value if it is an int of at least minimum.

    The default minimum suits a subgroup index or the order of a cyclic
    group; exponents, ranks and genera pass their own (0 for an exponent
    nu, 2 for a non-orientable genus).
    bool is refused even though it subclasses int, so count(kind, True)
    cannot pass for index 1.  Every float is refused too, 2.0 included, so
    no count is ever computed in float arithmetic.  An lru_cache'd function
    that calls this in its body needs typed=True: otherwise True and 1
    share a cache entry, and once the int is cached the bool never reaches
    the check.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value}")
    return value
