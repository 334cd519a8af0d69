"""Every name a module lists in ``__all__`` exists, so a star import never breaks."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import geomlie

MODULES = sorted(m.name for m in pkgutil.iter_modules(geomlie.__path__, "geomlie."))


def test_modules_found():
    assert "geomlie.wheel" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing
