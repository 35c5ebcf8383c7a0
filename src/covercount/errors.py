"""Exception types, the index check and the frozen record base."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed (a divisibility or sign invariant).

    These checks guard identities that hold for every valid input, so a
    ConsistencyError always indicates a bug, never a bad argument.
    """


class ResourceLimitError(RuntimeError):
    """A brute-force request exceeds its work bound.  In the package only the
    oracle's coset search raises it, past its node limit or deeper than
    Python's recursion limit; the epimorphism enumeration's size bounds are
    test-side, in tests/epi_reference.py."""


def check_index(value, name: str = "n", minimum: int = 1) -> int:
    """Return value if it is an int of at least minimum.

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


class Record:
    """Base of the frozen records: a subclass names its fields in __slots__
    and sets each in __init__ by object.__setattr__.  Records compare, hash,
    print and pickle by class and fields, in order."""

    __slots__ = ()

    def _values(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__
