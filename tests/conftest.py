"""Shared fixtures.  A test module opts in with ``pytestmark``."""

from __future__ import annotations

import warnings

import pytest


@pytest.fixture
def quiet_d3_warning():
    """Silence the D3 rank-floor notice that ``make_type("D3")`` emits."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="D3 coincides with A3")
        yield
