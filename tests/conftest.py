"""Shared fixtures.  A test module opts in with ``pytestmark``."""

from __future__ import annotations

import dataclasses
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


def _writable_copy(L):
    """``L`` with writable copies of its table's ``m`` and ``c`` columns."""
    T = L.table
    return dataclasses.replace(L, table=dataclasses.replace(T, m=T.m.copy(), c=T.c.copy()))


@pytest.fixture
def writable():
    """Copy an algebra so a test can corrupt its table.

    ``liealg.build`` shares one read-only algebra per type, so a corruption
    works on ``writable(build(label))`` and leaves the shared one intact.
    Only the outputs ``m`` and coefficients ``c`` become writable; ``i``,
    ``j`` and the row index ``start`` stay shared and read-only, so no
    corruption can leave the index out of step with the rows it indexes.
    """
    return _writable_copy
