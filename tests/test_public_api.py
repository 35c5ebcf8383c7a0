"""The package's public names: covercount.__all__ is sorted, has no
duplicates and names only what the package defines, so a stale export
fails here rather than at a user's import."""

import covercount
from covercount import characters, numtheory

# Deleted names, with the module that used to define each.
REMOVED = {
    "Partition": characters,
    "degree": characters,
    "DivisorPair": numtheory,
    "divisor_pairs": numtheory,
    "gcd": numtheory,
}


def test_all_is_sorted_unique_and_resolves():
    names = covercount.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(covercount, name)] == []


def test_removed_names_are_gone():
    for name, module in REMOVED.items():
        assert name not in covercount.__all__
        assert not hasattr(covercount, name)
        assert not hasattr(module, name)
