"""Shared fixtures.  A test module opts in with ``pytestmark``."""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import settings

from geomlie.liealg import StructureTable

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


def _with_coefficients(L, c):
    """``L`` whose table has the rows (i, j, m) of ``L.table`` with the coefficients ``c``."""
    T = L.table
    return dataclasses.replace(L, table=StructureTable.from_rows(T.n, T.i, T.j, T.m, c))


@pytest.fixture
def with_coefficients():
    """Corrupt a copy of an algebra: ``with_coefficients(L, c)``.

    ``liealg.build`` shares one read-only algebra per type, so a test
    changes a copy of ``L.table.c`` and gets a new algebra whose table is
    made by ``StructureTable.from_rows`` like every other: summed, zero-free
    and indexed, never written in place.
    """
    return _with_coefficients


def _generators(L) -> list[int]:
    """The basis indices of e_1..e_k and g_{-theta}, ascending; theta is the root of largest height."""
    X = L.root_system.coords
    roots = [*np.eye(L.rank, dtype=np.int64).tolist(), (-X[X.sum(axis=1).argmax()]).tolist()]
    return sorted(L.rank + L.root_system.index[tuple(r)] for r in roots)


@pytest.fixture
def generators():
    """The k + 1 generators of a built algebra, e_1..e_k and g_{-theta}: ``generators(L)``."""
    return _generators
