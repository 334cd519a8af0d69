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
TEST_ORACLES = {"pairing", "n_sign"}


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


def _unused_imports(path: Path) -> list[str]:
    """Names a file imports but never reads and does not list in ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.partition(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = {elt.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for elt in node.value.elts}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in read | exported]


def test_no_unused_imports():
    package = Path(geomlie.__file__).parent
    tests = Path(__file__).parent
    files = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    unused = [bad for p in files + sorted(tests.glob("*.py")) for bad in _unused_imports(p)]
    assert not unused


EIGENSOLVERS = {"eig", "eigh", "eigvals", "eigvalsh"}


def _float_guards(path: Path) -> list[str]:
    """Guard epsilons (float literals with 0 < |x| < 1e-3) and eigensolver calls."""
    bad = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                and 0 < abs(node.value) < 1e-3):
            bad.append(f"{path.name}:{node.lineno} literal {node.value!r}")
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name in EIGENSOLVERS:
                bad.append(f"{path.name}:{node.lineno} call to {name}")
    return bad


def test_no_float_guards_or_eigensolvers():
    # Combinatorial answers are computed in integers: no tolerance decides one.
    package = Path(geomlie.__file__).parent
    found = [bad for p in sorted(package.glob("*.py")) for bad in _float_guards(p)]
    assert not found
