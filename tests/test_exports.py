"""Every name a module lists in ``__all__`` exists and has a caller outside the tests."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import geomlie

MODULES = sorted(m.name for m in pkgutil.iter_modules(geomlie.__path__, "geomlie."))
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# Kept without a caller: the tests use them as reference oracles for other code paths.
TEST_ORACLES = {"pairing", "n_sign", "structure_constants_payload"}


def test_modules_found():
    assert "geomlie.wheel" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def _referenced(path: Path) -> set[str]:
    """Every name a file reads, bare or as an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def test_public_names_have_callers():
    # A re-export from __init__ is not a caller; a name only the tests use is
    # deleted, or it is an oracle listed above.
    package = Path(geomlie.__file__).parent
    sources = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    used = set().union(*map(_referenced, sources + sorted(PERFBENCH.glob("*.py"))))
    unused = [f"{name}.{attr}" for name in MODULES
              for attr in getattr(importlib.import_module(name), "__all__", ())
              if attr not in used | TEST_ORACLES]
    assert not unused
