"""Fixtures shared by the test modules."""

import pytest

from helpers import package_caches


@pytest.fixture
def fresh_caches():
    """Clear every `lru_cache` of the package before and after the test.

    A test that patches the input of a cached table must not see a table
    cached from the true input, nor leave one built from the patched input
    to later tests.  The caches are collected before the test patches
    anything, so a cached function that the test replaces is cleared all
    the same.  The fixture's value clears them again, for a test that
    patches several inputs in turn."""
    caches = list(package_caches().values())

    def clear():
        for fn in caches:
            fn.cache_clear()

    clear()
    yield clear
    clear()
