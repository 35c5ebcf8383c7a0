"""The from-scratch comparison of a table with one of its
re-standardisations: a test reference for the oracle's comparisons.

The package's search resumes each base's comparison where it stopped
(oracle._resume) and its leaf scans every base at once (_fixed_bases);
compare scans one base from slot (0, 0) on a fresh renumbering, and the
tests require both to agree with it.

The tests import it by name: pytest puts tests/ on sys.path.
"""

from covercount.oracle import _resume


def compare(fwd: list[list[int]], n: int, base: int) -> int | None:
    """How the table fwd compares with its re-standardisation from base:
    -1, 1, 0 or None, as oracle._resume's docstring says."""
    new = [-1] * n
    new[base] = 0
    return _resume(fwd, new, [base], 0, 0)[0]
