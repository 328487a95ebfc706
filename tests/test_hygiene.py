"""Source hygiene: no ``symkt`` module imports a name it never uses, no
function body imports anything, and only ``obs`` and the input validators
test finiteness.

A stdlib ``ast`` pass stands in for a linter's unused-import rule.  A name
counts as used when the module loads it anywhere (an attribute chain
counts through its root) or lists it in ``__all__``.  ``__init__.py``
files are exempt: their imports are the package's re-exports.  Imports
belong at the top of a module, where they run once, not on every call.
The fail-closed rule (a NaN or inf sample never passes) has one owner,
``symkt.obs``; ``io`` and ``cli`` reject non-finite input before any check
runs.  A check that tests finiteness itself forks that rule.  Each
size of jet is its own subclass of ``dual.Jet``, so outside ``dual`` a
scalar's type is never compared with ``Jet`` or ``Dual`` exactly
(``Jet in kinds``, ``type(x) is Jet``): such a test is silently false for
every jet.  Every random stream comes from ``stable_stream`` or a
caller's seed, never from ``default_rng`` with a literal seed or none: a
hidden fixed stream is an option no caller can set.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "symkt"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
FINITENESS_OWNERS = {"obs.py", "io.py", "cli.py"}
DERIVATIVE_TYPE_NAMES = {"Jet", "Dual"}


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


def function_imports(source):
    """Sorted (function, line) of every import inside a function body."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found |= {(node.name, inner.lineno)
                      for inner in ast.walk(node)
                      if isinstance(inner, (ast.Import, ast.ImportFrom))}
    return sorted(found)


def _is_derivative_type(node):
    """``Jet`` or ``Dual`` (or a module's attribute of that name), or a
    tuple, list or set literal holding one."""
    if isinstance(node, ast.Name):
        return node.id in DERIVATIVE_TYPE_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in DERIVATIVE_TYPE_NAMES
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(map(_is_derivative_type, node.elts))
    return False


def _is_type_call(node):
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.id == "type"


def exact_type_checks(source):
    """Sorted lines that compare a type with ``Jet`` or ``Dual`` exactly:
    ``Jet in kinds``, or ``type(x)`` by ``is``, ``==`` or ``in``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, a, b in zip(node.ops, operands, operands[1:]):
                if isinstance(op, (ast.In, ast.NotIn)) and _is_derivative_type(a) \
                        or _is_type_call(a) and _is_derivative_type(b) \
                        or _is_type_call(b) and _is_derivative_type(a):
                    found.add(node.lineno)
    return sorted(found)


def _is_literal(node):
    try:
        ast.literal_eval(node)
    except ValueError:
        return False
    return True


def literal_rng_seeds(source):
    """Sorted lines that call ``default_rng`` with only literal arguments
    (``default_rng(0)``, ``default_rng([1, 2])``) or with none."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            args = [*node.args, *(k.value for k in node.keywords)]
            if name == "default_rng" and all(map(_is_literal, args)):
                found.add(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    assert function_imports(path.read_text()) == []


def test_only_obs_and_the_input_validators_test_finiteness():
    testers = {p.name for p in SRC.glob("*.py") if "isfinite" in p.read_text()}
    assert testers <= FINITENESS_OWNERS


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "dual.py"],
                         ids=lambda p: p.name)
def test_no_exact_type_check_against_jet_or_dual(path):
    assert exact_type_checks(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_default_rng_with_a_literal_seed(path):
    assert literal_rng_seeds(path.read_text()) == []


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


def test_checker_flags_function_imports():
    source = (
        "import numpy as np\n"
        "def f():\n"
        "    import json\n"
        "    return json\n"
        "class C:\n"
        "    def m(self):\n"
        "        def inner():\n"
        "            from .y import late\n"
        "            return late\n"
        "        return inner\n"
    )
    # a nested function is inside both bodies
    assert function_imports(source) == [("f", 3), ("inner", 8), ("m", 8)]


def test_checker_flags_exact_jet_and_dual_types():
    source = (
        "kinds = set(map(type, vals))\n"
        "a = Jet in kinds\n"
        "b = type(x) is Jet\n"
        "c = type(x) == dual.Dual\n"
        "d = type(x) in (float, Jet)\n"
        "e = Dual not in kinds\n"
        "f = isinstance(x, (Dual, Jet))\n"
        "g = type(x) is float\n"
        "h = x in kinds\n"
    )
    assert exact_type_checks(source) == [2, 3, 4, 5, 6]


def test_checker_flags_literal_rng_seeds():
    source = (
        "import numpy as np\n"
        "from numpy.random import default_rng\n"
        "a = np.random.default_rng(0)\n"
        "b = default_rng([1, 2])\n"
        "c = np.random.default_rng(seed=-3)\n"
        "d = np.random.default_rng()\n"
        "e = np.random.default_rng(seed)\n"
        "f = np.random.default_rng([seed, zlib.crc32(label)])\n"
        "g = rng if rng is not None else np.random.default_rng(4)\n"
    )
    assert literal_rng_seeds(source) == [3, 4, 5, 6, 9]
