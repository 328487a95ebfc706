"""Source hygiene: no ``symkt`` module imports a name it never uses.

A stdlib ``ast`` pass stands in for a linter's unused-import rule.  A name
counts as used when the module loads it anywhere (an attribute chain
counts through its root) or lists it in ``__all__``.  ``__init__.py``
files are exempt: their imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "symkt"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """(bound name, line) of every import in the module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {e.value for e in ast.walk(node.value)
                      if isinstance(e, ast.Constant) and isinstance(e.value, str)}
    return names


def unused_imports(source):
    """Sorted (name, line) pairs a module imports but never uses."""
    tree = ast.parse(source)
    used = _used(tree)
    return sorted({(name, line) for name, line in _imported(tree) if name not in used})


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_unused_names():
    source = (
        "import os\n"
        "import numpy as np\n"
        "from math import factorial, sqrt\n"
        "from .x import exported\n"
        "__all__ = ['exported']\n"
        "def f():\n"
        "    from .y import late\n"
        "    return np.sqrt(sqrt(2.0))\n"
    )
    assert unused_imports(source) == [("factorial", 3), ("late", 7), ("os", 1)]
