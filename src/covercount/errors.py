"""Exception types and the index check shared across the package."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed (a divisibility or sign invariant).

    These checks guard identities that hold for every valid input, so a
    ConsistencyError always indicates a bug, never a bad argument.
    """


class ResourceLimitError(RuntimeError):
    """A brute-force request exceeds the enumeration feasibility bound."""


def check_index(value, name: str = "n") -> int:
    """Return value if it is a valid subgroup index: a positive int.

    bool is refused even though it subclasses int, so count(kind, True)
    cannot pass for index 1.  An lru_cache'd function that calls this in
    its body needs typed=True: otherwise True and 1 share a cache entry,
    and once the int is cached the bool never reaches the check.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value}")
    return value
