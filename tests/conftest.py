"""Shared fixtures.  A test module opts in with ``pytestmark``."""

from __future__ import annotations

import warnings

import pytest
from hypothesis import settings

# Derandomized, so every run draws the same examples and two commits compare
# on equal footing; a failure prints the blob that reproduces it.
settings.register_profile("tier1", derandomize=True, deadline=None, print_blob=True)
settings.load_profile("tier1")


@pytest.fixture
def quiet_d3_warning():
    """Silence the D3 rank-floor notice that ``make_type("D3")`` emits."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="D3 coincides with A3")
        yield
