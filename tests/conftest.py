"""Fixtures shared by the test modules."""

import sys

import pytest

# Loaded here so that package_caches sees the caches of every module.
import covercount.cli
from covercount import census


def package_caches():
    """Every lru cache bound in a loaded covercount module, by qualified name."""
    caches = {}
    for name, module in list(sys.modules.items()):
        if name == "covercount" or name.startswith("covercount."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    caches[f"{value.__module__}.{value.__qualname__}"] = value
    return caches


@pytest.fixture
def cold_package():
    """Empty recursion tables and lru caches, before the test and after it."""

    def clear():
        census._TABLES.clear()
        for cached in package_caches().values():
            cached.cache_clear()

    clear()
    yield
    clear()
