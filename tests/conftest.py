"""Shared fixtures: superblock promotion forced hot or cold (see
``tests/tiers.py``)."""

import pytest

from tiers import forced


@pytest.fixture
def hot_tiers():
    """Every image warm at once and every trace compiled on first visit."""
    with forced("hot"):
        yield


@pytest.fixture
def cold_tiers():
    """Promotion unreachable: every run steps the decode cache."""
    with forced("cold"):
        yield
