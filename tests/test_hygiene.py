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
hidden fixed stream is an option no caller can set.  A suite case hands
its samples to ``SuiteReport.samples``, so ``suites`` calls ``worst`` and
``least`` only inside ``class SuiteReport``: a case that reduces its own
samples picks its own empty default.  For the same reason ``suites``
builds a ``SuiteCase`` only inside ``SuiteReport.samples``: a case that
records one value passes ``[value]``, so a lone inf reads NaN there too.
``SymTensor`` and ``cartan.FrameTensor`` share one packed core,
``symtensor._PackedTensor``: in ``symtensor`` and ``cartan`` no other
class defines its shape check, sum, difference or negation.  The catalog's construction checks
go through one gate: in ``constructors`` only ``_require`` reads
``KILLING_CHECK_TOL`` and only ``_check_points`` reads
``KILLING_CHECK_SAMPLES``, so no check compares with its own copy.
Every backend's ``geodesic_rhs`` takes exactly one argument after
``self``, the packed state y = (x, v), so ``rk4_geodesic`` has one call
shape for every backend.  The packed-algebra kernels (``symtensor``,
``cartan``) sum in table order from +0.0: no accumulator there starts
from the int literal ``0`` (``out = 0`` grown by ``out = out + ...`` or
``+=``, or a ``sum`` without a start), which costs a Python-int
conversion on every call and hides the start the bits depend on.
Coordinates become arrays only in ``dual`` (``stack``) and in
``manifolds.point_array``, which build a ``DualArray`` at a point of Duals
of a float seeding: elsewhere no ``np.stack`` takes a bare name (``np.stack(x,
...)``) and no ``dtype=object`` array is built from the coordinates ``x``,
which at such a point would bring back one Python call per entry.
A catalog entry is judged in one place, ``CatalogEntry.judge`` (and
``declared_killing`` for the geodesic rule): no module but
``constructors`` reads ``.expected``, ``.negative_check`` or
``.min_residual``, so no caller keeps its own copy of the rule.
No module rebinds module state with a ``global`` statement: a value kept
between calls is a ``functools`` cache (one ``cache_clear`` resets it) or
lives on the object it belongs to.  The storage order of packed tensors
is inverted in one place, ``multiindex.positions``: no other module
builds a position lookup from ``multi_indices`` (a comprehension over its
``enumerate``, or its ``.index``), which would be a second copy of the
order.  An operator reads the derivative it is given: no function falls
back to computing ``nabla``, ``nabla2``, ``riemann``, ``delta_op`` or a
jet when an optional argument is None (``if T is None: T = nabla(...)``,
``nabla(...) if T is None else T``).  Such a fallback makes the other
arguments dead once the derivative is passed, so one field's degree can
meet another field's derivative.  The two kept fallbacks are listed with
their reasons.  A field built from fields goes through
``fields.derived_field``, which reads base and degree off its inputs:
outside ``fields`` no ``SymTensor(...)`` call takes a field's
``.comps_fn(...)`` among its arguments, which would hand-type a dimension
and a degree and skip the check that the fields share one base.
Multiplication by the metric has one path, ``mult_L``'s plan and kernel:
only ``symtensor._l_plan`` and ``symtensor._mult_L_comps`` read
``_l_element``, so no ``sym_product(_l_element(n), K)`` can come back
beside them with its own bits and its own per-call cost.
A batched dot product has one kernel, ``dual._row_dots``: outside ``dual``
no module forms one as a matmul of ``[..., None, :]`` rows, which would be
a second copy of the layout rule its bits depend on.  Only the embedded
sphere remembers its frame: ``manifolds._frame_memo`` decorates
``EmbeddedSphere.frame`` and nothing else, as no traffic finds a chart's,
a product's or a conformal wrapper's frame remembered.  Axis moves are
views built by ``.transpose`` or ``.swapaxes``, which an ndarray and a
``DualArray`` both have: only ``dual``'s ``_ARRAY_FUNCTIONS`` table names
``np.moveaxis``, for callers outside the package, since its Python
argument handling costs several times the view it builds.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "symkt"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
FINITENESS_OWNERS = {"obs.py", "io.py", "cli.py"}
REDUCTIONS = {"worst", "least"}
DERIVATIVE_TYPE_NAMES = {"Jet", "Dual"}
GATE_OWNERS = {"KILLING_CHECK_TOL": "_require", "KILLING_CHECK_SAMPLES": "_check_points"}
ALGEBRA_KERNELS = ("symtensor.py", "cartan.py")
COORDINATE_ARRAY_OWNERS = {"dual.py": None, "manifolds.py": "point_array"}
CATALOG_DECLARATION = {"expected", "negative_check", "min_residual"}
RECOMPUTED = {"nabla", "nabla2", "riemann", "delta_op", "connection_jet", "_nabla_jet",
              "_nabla2_jet"}
COMPONENT_WRAP_OWNER = "fields.py"
PACKED_CORE = "_PackedTensor"
PACKED_METHODS = {"_check_same_shape", "__add__", "__sub__", "__neg__"}
L_ELEMENT_READERS = {"_l_plan", "_mult_L_comps"}
FRAME_MEMO_USERS = [("EmbeddedSphere", "frame")]
MOVEAXIS_NAMERS = [("dual.py", "_ARRAY_FUNCTIONS")]
RECOMPUTE_ALLOWED = {
    # the curvature benchmark workload calls it with rm=
    ("curvature.py", "qR_act"),
    # nabla2 passes no jet and lichnerowicz_defect the kept one
    ("fields.py", "_nabla2_jet"),
}


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


def _called_name(node):
    """The name a call calls (``f`` of ``f(x)`` and of ``m.f(x)``)."""
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def literal_rng_seeds(source):
    """Sorted lines that call ``default_rng`` with only literal arguments
    (``default_rng(0)``, ``default_rng([1, 2])``) or with none."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            args = [*node.args, *(k.value for k in node.keywords)]
            if _called_name(node) == "default_rng" and all(map(_is_literal, args)):
                found.add(node.lineno)
    return sorted(found)


def _calls_to(tree, names):
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _called_name(node) in names}


def reductions_outside_the_report(source):
    """Sorted lines that call ``worst`` or ``least`` outside ``class SuiteReport``."""
    tree = ast.parse(source)
    owned = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "SuiteReport":
            owned |= _calls_to(node, REDUCTIONS)
    return sorted(_calls_to(tree, REDUCTIONS) - owned)


def cases_outside_samples(source):
    """Sorted lines that build a ``SuiteCase`` outside ``SuiteReport.samples``."""
    tree = ast.parse(source)
    owned = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "SuiteReport":
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and node.name == "samples":
                    owned |= _calls_to(node, {"SuiteCase"})
    return sorted(_calls_to(tree, {"SuiteCase"}) - owned)


def packed_copies(source):
    """Sorted (class, name) of every shared packed-tensor method that a
    class other than the packed core defines (by ``def`` or assignment)."""
    found = set()
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef) or cls.name == PACKED_CORE:
            continue
        for node in cls.body:
            names = ([node.name] if isinstance(node, ast.FunctionDef) else
                     [t.id for t in node.targets if isinstance(t, ast.Name)]
                     if isinstance(node, ast.Assign) else [])
            found |= {(cls.name, name) for name in names if name in PACKED_METHODS}
    return sorted(found)


def component_wraps(source):
    """Sorted lines of every ``SymTensor(...)`` call with a ``.comps_fn(...)``
    call anywhere in its arguments."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _called_name(node) == "SymTensor":
            args = [*node.args, *(k.value for k in node.keywords)]
            if any(isinstance(inner, ast.Call) and isinstance(inner.func, ast.Attribute)
                   and inner.func.attr == "comps_fn"
                   for arg in args for inner in ast.walk(arg)):
                found.add(node.lineno)
    return sorted(found)


def gate_reads_outside_their_owner(source):
    """Sorted (name, line) of every read of a construction-check constant
    outside the module-level function that owns it."""
    tree = ast.parse(source)
    owned = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            owned |= {(inner.id, inner.lineno) for inner in ast.walk(node)
                      if isinstance(inner, ast.Name)
                      and GATE_OWNERS.get(inner.id) == node.name}
    reads = {(node.id, node.lineno) for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
             and node.id in GATE_OWNERS}
    return sorted(reads - owned)


def catalog_declaration_reads(source):
    """Sorted (name, line) of every read of a catalog entry's declaration:
    an attribute ``.expected``, ``.negative_check`` or ``.min_residual``."""
    return sorted({(node.attr, node.lineno) for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                   and node.attr in CATALOG_DECLARATION})


def rhs_off_the_packed_state(source):
    """Sorted lines of every ``geodesic_rhs`` method that takes anything but
    one state argument after ``self``."""
    bad = set()
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.FunctionDef) and node.name == "geodesic_rhs":
                a = node.args
                if (len(a.posonlyargs) + len(a.args) != 2 or a.vararg or a.kwarg
                        or a.kwonlyargs or a.defaults):
                    bad.add(node.lineno)
    return sorted(bad)


def _is_int_zero(node):
    return isinstance(node, ast.Constant) and type(node.value) is int and node.value == 0


def _grown_names(scope):
    """Names a scope updates from themselves: ``x += ...``, ``x = x + ...``."""
    grown = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            grown.add(node.target.id)
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name)
              and isinstance(node.value, ast.BinOp)
              and isinstance(node.value.left, ast.Name)
              and node.value.left.id == node.targets[0].id):
            grown.add(node.targets[0].id)
    return grown


def int_zero_accumulators(source):
    """Sorted lines that start an accumulator from the int literal 0: an
    ``x = 0`` whose function (or module) also grows x, or a builtin
    ``sum`` called without a start."""
    tree = ast.parse(source)
    found = set()
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef))]:
        grown = _grown_names(scope)
        found |= {node.lineno for node in ast.walk(scope)
                  if isinstance(node, ast.Assign) and _is_int_zero(node.value)
                  and any(isinstance(t, ast.Name) and t.id in grown for t in node.targets)}
    found |= {node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "sum" and len(node.args) < 2
              and not any(k.arg == "start" for k in node.keywords)}
    return sorted(found)


def _is_object_dtype(node):
    """Whether a call asks for object dtype: ``dtype=object`` or ``astype(object)``."""
    if any(k.arg == "dtype" and getattr(k.value, "id", None) == "object"
           for k in node.keywords):
        return True
    return (_called_name(node) == "astype" and bool(node.args)
            and getattr(node.args[0], "id", None) == "object")


def coordinate_object_arrays(source, owner=None):
    """Sorted lines outside the function ``owner`` that stack a bare name
    with ``np.stack`` or build a ``dtype=object`` array from ``x``."""
    tree = ast.parse(source)
    owned = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == owner:
            owned |= set(range(node.lineno, node.end_lineno + 1))
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "stack"
                and getattr(func.value, "id", None) == "np"
                and node.args and isinstance(node.args[0], ast.Name)):
            found.add(node.lineno)
        elif _is_object_dtype(node) and any(
                isinstance(n, ast.Name) and n.id == "x" for n in ast.walk(node)):
            found.add(node.lineno)
    return sorted(found - owned)


def global_statements(source):
    """Sorted lines of every ``global`` statement, at any depth."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Global))


def position_lookups(source):
    """Sorted lines that invert the storage order by hand: a comprehension
    over ``enumerate`` of ``multi_indices(...)`` (or of a name bound to
    one), or an ``.index`` on either."""
    tree = ast.parse(source)
    bound = {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and isinstance(node.value, ast.Call) and _called_name(node.value) == "multi_indices"
             for t in node.targets if isinstance(t, ast.Name)}

    def is_indices(node):
        return ((isinstance(node, ast.Call) and _called_name(node) == "multi_indices")
                or (isinstance(node, ast.Name) and node.id in bound))

    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            if any(isinstance(g.iter, ast.Call) and _called_name(g.iter) == "enumerate"
                   and g.iter.args and is_indices(g.iter.args[0]) for g in node.generators):
                found.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "index" and is_indices(node.value):
            found.add(node.lineno)
    return sorted(found)


def _none_tested(test):
    """NAME of a test ``NAME is None``, else None."""
    if (isinstance(test, ast.Compare) and isinstance(test.left, ast.Name)
            and len(test.ops) == 1 and isinstance(test.ops[0], ast.Is)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None):
        return test.left.id
    return None


def _recomputes(node):
    return isinstance(node, ast.Call) and _called_name(node) in RECOMPUTED


def derivative_recomputes(source):
    """Sorted (function, line) of every fallback that computes a derivative
    an optional argument could carry: ``if NAME is None: NAME = f(...)`` or
    ``f(...) if NAME is None else NAME``, with f in ``RECOMPUTED``."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            name = _none_tested(child.test) if isinstance(child, (ast.If, ast.IfExp)) else None
            if isinstance(child, ast.If) and name and any(
                    isinstance(s, ast.Assign) and _recomputes(s.value)
                    and any(isinstance(t, ast.Name) and t.id == name for t in s.targets)
                    for s in child.body):
                found.add((owner, child.lineno))
            elif (isinstance(child, ast.IfExp) and name and _recomputes(child.body)
                  and isinstance(child.orelse, ast.Name) and child.orelse.id == name):
                found.add((owner, child.lineno))
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def l_element_reads(source):
    """Sorted (top-level definition, line) of every read or import of
    ``_l_element`` outside ``L_ELEMENT_READERS`` (``<module>`` at module
    level); a definition of the name is not a read."""
    found = set()
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            read = ((isinstance(node, ast.Name) and node.id == "_l_element")
                    or (isinstance(node, ast.Attribute) and node.attr == "_l_element")
                    or (isinstance(node, ast.ImportFrom)
                        and any(a.name == "_l_element" for a in node.names)))
            if read and owner not in L_ELEMENT_READERS:
                found.add((owner, node.lineno))
    return sorted(found)


def _is_row(node):
    """Whether a subscript ends in ``None, :``, as ``a[..., None, :]`` does."""
    if not (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)):
        return False
    *_, new_axis, whole = (None, None, *node.slice.elts)
    return (isinstance(new_axis, ast.Constant) and new_axis.value is None
            and isinstance(whole, ast.Slice) and not (whole.lower or whole.upper or whole.step))


def _left_of_matmul(node):
    """The left operand of ``a @ b`` or ``matmul(a, b)``, else None."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
        return node.left
    if isinstance(node, ast.Call) and node.args and getattr(
            node.func, "attr", getattr(node.func, "id", None)) == "matmul":
        return node.args[0]
    return None


def row_matmuls(source):
    """Sorted lines of every matmul whose left operand is a row subscript
    ``[..., None, :]``: a batched dot written out by hand."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if _is_row(_left_of_matmul(node))})


def _is_frame_memo(node):
    target = node.func if isinstance(node, ast.Call) else node
    return getattr(target, "id", getattr(target, "attr", None)) == "_frame_memo"


def frame_memo_users(source):
    """Sorted (class, name) of every function decorated with ``_frame_memo``
    and every name bound to a call of it (``<module>`` outside a class)."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    map(_is_frame_memo, child.decorator_list)):
                found.add((owner, child.name))
            elif isinstance(child, ast.Assign) and isinstance(child.value, ast.Call) \
                    and _is_frame_memo(child.value):
                found.update((owner, t.id) for t in child.targets if isinstance(t, ast.Name))
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def moveaxis_names(source):
    """Sorted (top-level definition, line) of every name or attribute
    ``moveaxis`` and every import of it; a top-level assignment is owned by
    its first target, anything else at module level by ``<module>``."""
    found = set()
    for top in ast.parse(source).body:
        targets = getattr(top, "targets", [getattr(top, "target", None)])
        owner = getattr(top, "name", getattr(targets[0], "id", "<module>"))
        for node in ast.walk(top):
            if ((isinstance(node, ast.Name) and node.id == "moveaxis")
                    or (isinstance(node, ast.Attribute) and node.attr == "moveaxis")
                    or (isinstance(node, ast.ImportFrom)
                        and any(a.name == "moveaxis" for a in node.names))):
                found.add((owner, node.lineno))
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


def test_suite_cases_reduce_only_through_the_report():
    assert reductions_outside_the_report((SRC / "suites.py").read_text()) == []


def test_suite_cases_are_built_only_by_samples():
    assert cases_outside_samples((SRC / "suites.py").read_text()) == []


@pytest.mark.parametrize("name", ALGEBRA_KERNELS)
def test_only_the_packed_core_defines_the_shared_arithmetic(name):
    assert packed_copies((SRC / name).read_text()) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != COMPONENT_WRAP_OWNER],
                         ids=lambda p: p.name)
def test_fields_from_fields_go_through_derived_field(path):
    assert component_wraps(path.read_text()) == []


def test_construction_checks_share_one_gate():
    assert gate_reads_outside_their_owner((SRC / "constructors.py").read_text()) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "constructors.py"],
                         ids=lambda p: p.name)
def test_only_the_catalog_judges_its_entries(path):
    assert catalog_declaration_reads(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_geodesic_rhs_takes_one_packed_state(path):
    assert rhs_off_the_packed_state(path.read_text()) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "dual.py"],
                         ids=lambda p: p.name)
def test_coordinates_become_arrays_only_in_dual_and_point_array(path):
    owner = COORDINATE_ARRAY_OWNERS.get(path.name)
    assert coordinate_object_arrays(path.read_text(), owner) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_global_statement(path):
    assert global_statements(path.read_text()) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "multiindex.py"],
                         ids=lambda p: p.name)
def test_only_multiindex_inverts_the_storage_order(path):
    assert position_lookups(path.read_text()) == []


def test_no_operator_recomputes_a_derivative_it_can_be_given():
    sites = {(path.name, owner) for path in MODULES
             for owner, _ in derivative_recomputes(path.read_text())}
    assert sites - RECOMPUTE_ALLOWED == set()
    assert RECOMPUTE_ALLOWED <= sites  # a kept fallback that is gone leaves the list


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_mult_L_plan_and_kernel_read_the_l_element(path):
    assert l_element_reads(path.read_text()) == []


@pytest.mark.parametrize("name", ALGEBRA_KERNELS)
def test_algebra_sums_start_from_float_zero(name):
    assert int_zero_accumulators((SRC / name).read_text()) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "dual.py"],
                         ids=lambda p: p.name)
def test_batched_dots_go_through_row_dots(path):
    assert row_matmuls(path.read_text()) == []


def test_only_the_array_function_table_names_moveaxis():
    names = {(path.name, owner) for path in MODULES
             for owner, _ in moveaxis_names(path.read_text())}
    assert sorted(names) == MOVEAXIS_NAMERS


def test_only_the_sphere_remembers_its_frame():
    users = {path.name: frame_memo_users(path.read_text()) for path in MODULES}
    assert users.pop("manifolds.py") == FRAME_MEMO_USERS
    assert not any(users.values())


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


def test_checker_flags_reductions_outside_the_report():
    source = (
        "from .obs import least, worst\n"
        "class SuiteReport:\n"
        "    def samples(self, values):\n"
        "        return worst(values), obs.least(values)\n"
        "report.add(x, worst(r), t)\n"
        "def case(report):\n"
        "    report.add(x, obs.least(r), t, kind='floor')\n"
        "class Other:\n"
        "    m = worst([0.0])\n"
        "reduce = worst\n"
    )
    assert reductions_outside_the_report(source) == [5, 7, 9]


def test_checker_flags_cases_outside_samples():
    source = (
        "class SuiteReport:\n"
        "    def samples(self, name, values, tol):\n"
        "        self.cases.append(SuiteCase(name, worst(values), tol))\n"
        "    def add(self, name, value, tol):\n"
        "        self.cases.append(SuiteCase(name, value, tol))\n"
        "def case(report):\n"
        "    report.cases.append(suites.SuiteCase('x', 0.0, 1.0))\n"
        "def samples(report):\n"
        "    return SuiteCase('y', 0.0, 1.0)\n"
    )
    # only the report's own samples method may build one
    assert cases_outside_samples(source) == [5, 7, 9]


def test_checker_flags_packed_copies():
    source = (
        "class _PackedTensor:\n"
        "    def __add__(self, other):\n"
        "        return self._wrap(self.comps + other.comps)\n"
        "    def __neg__(self):\n"
        "        return self._wrap(-self.comps)\n"
        "class SymTensor(_PackedTensor):\n"
        "    def __sub__(self, other):\n"
        "        return _tensor(self.comps - other.comps)\n"
        "    def scale(self, c):\n"
        "        return _tensor(self.comps * c)\n"
        "    __mul__ = scale\n"
        "class FrameTensor(_PackedTensor):\n"
        "    _check_same_shape = SymTensor._check_same_shape\n"
        "    __neg__ = lambda self: _frame(-self.comps)\n"
    )
    assert packed_copies(source) == [
        ("FrameTensor", "__neg__"), ("FrameTensor", "_check_same_shape"),
        ("SymTensor", "__sub__")]


def test_checker_flags_component_wraps():
    source = (
        "def hat(field, x, n):\n"
        "    K = SymTensor(n, 2, field.comps_fn(x))\n"
        "    L = symtensor.SymTensor(n, 2, list(field.comps_fn(x)))\n"
        "    M = SymTensor(n, 2, comps=other.comps_fn(x))\n"
        "    a = field.comps_fn(x)\n"
        "    B = SymTensor(n, 1, a)\n"
        "    C = SymTensor(n, 2, field.batch(x))\n"
        "    D = SymTensor(n, 0, [comps_fn(x)])\n"
        "    return K, L, M, B, C, D, tracefree_part(field(x)).entries()\n"
    )
    # a value bound first, a batch and a bare callable are not flagged
    assert component_wraps(source) == [2, 3, 4]


def test_checker_flags_gate_reads_outside_their_owner():
    source = (
        "KILLING_CHECK_SAMPLES = 8\n"
        "KILLING_CHECK_TOL = 1e-8\n"
        "def _require(residuals, what):\n"
        "    return worst(residuals) <= KILLING_CHECK_TOL\n"
        "def _check_points(base, rng):\n"
        "    return [base.sample_point(rng) for _ in range(KILLING_CHECK_SAMPLES)]\n"
        "def check_form(u, x):\n"
        "    if not killing_form_residual(u, x) <= KILLING_CHECK_TOL:\n"
        "        raise VerificationError('form is not Killing')\n"
        "class Gate:\n"
        "    def _require(self, r):\n"
        "        return r <= KILLING_CHECK_TOL\n"
        "def _require_points(rng):\n"
        "    return KILLING_CHECK_SAMPLES\n"
    )
    assert gate_reads_outside_their_owner(source) == [
        ("KILLING_CHECK_SAMPLES", 14), ("KILLING_CHECK_TOL", 8), ("KILLING_CHECK_TOL", 12)]


def test_checker_flags_catalog_declaration_reads():
    source = (
        "def run(entry, report, doc):\n"
        "    if entry.negative_check:\n"
        "        floor = entry.min_residual\n"
        "    doc['expected'] = dict(sorted(entry.expected.items()))\n"
        "    expected = doc.get('expected')\n"
        "    record, _, ok = entry.judge(report)\n"
        "    return expected if entry.declared_killing else record['negative_control']\n"
    )
    assert catalog_declaration_reads(source) == [
        ("expected", 4), ("min_residual", 3), ("negative_check", 2)]


def test_checker_flags_geodesic_rhs_off_the_packed_state():
    source = (
        "class Packed:\n"
        "    def geodesic_rhs(self, y):\n"
        "        return y\n"
        "class Split:\n"
        "    def geodesic_rhs(self, x, v):\n"
        "        return v, x\n"
        "class Optional:\n"
        "    def geodesic_rhs(self, y, dt=None):\n"
        "        return y\n"
        "class Star:\n"
        "    def geodesic_rhs(self, *state):\n"
        "        return state\n"
        "class Keyword:\n"
        "    def geodesic_rhs(self, y, *, scale):\n"
        "        return y\n"
        "def geodesic_rhs(x, v):\n"
        "    return v, x\n"
    )
    assert rhs_off_the_packed_state(source) == [5, 8, 11, 14]


def test_checker_flags_int_zero_accumulators():
    source = (
        "def contract(v, k):\n"
        "    out = 0\n"
        "    for j in range(3):\n"
        "        out = out + v[j] * k[j]\n"
        "    return out\n"
        "def trace(k):\n"
        "    total = 0\n"
        "    for t in k:\n"
        "        total += t\n"
        "    return total\n"
        "def ordered(k):\n"
        "    out, depth = 0.0, 0\n"
        "    for t in k:\n"
        "        out = out + t\n"
        "    flag = False\n"
        "    return out, depth, flag, sum(k), sum(k, 0.0), sum(k, start=0.0)\n"
        "acc = 0\n"
        "acc = acc * 2\n"
        "count = 0\n"
    )
    assert int_zero_accumulators(source) == [2, 7, 16, 17]


def test_checker_flags_coordinate_object_arrays():
    source = (
        "def amb(x):\n"
        "    X = np.stack(x, axis=-1)\n"
        "    Y = np.array([[x[0] * x[1]]], dtype=object)\n"
        "    Z = np.asarray(x).astype(object)\n"
        "    return np.stack([X, Y]), np.empty(3, dtype=object), Z.astype(float)\n"
        "def point_array(data, x):\n"
        "    return np.array(data, dtype=object), np.stack(x, axis=-1)\n"
    )
    assert coordinate_object_arrays(source) == [2, 3, 4, 7]
    assert coordinate_object_arrays(source, "point_array") == [2, 3, 4]


def test_checker_flags_global_statements():
    source = (
        "_last = None\n"
        "def keep(x):\n"
        "    global _last\n"
        "    _last = x\n"
        "class C:\n"
        "    def m(self):\n"
        "        def inner():\n"
        "            global _a, _b\n"
        "        return inner\n"
        "def outer():\n"
        "    n = 0\n"
        "    def bump():\n"
        "        nonlocal n\n"
        "        n += 1\n"
        "    return bump\n"
    )
    # a nonlocal rebinding stays inside its closure and is not flagged
    assert global_statements(source) == [3, 8]


def test_checker_flags_position_lookups():
    source = (
        "pos = {I: k for k, I in enumerate(multi_indices(n, p))}\n"
        "idx = multi_indices(n, 2)\n"
        "rows = [k for k, I in enumerate(idx) if I[0] == 0]\n"
        "k = idx.index((0, 1))\n"
        "j = mi.multi_indices(n, 1).index((0,))\n"
        "for k, I in enumerate(multi_indices(n, p)):\n"
        "    out.append(I)\n"
        "vals = [I[0] for I in idx]\n"
        "other = {x: k for k, x in enumerate(xs)}\n"
        "s = text.index('a')\n"
    )
    # a forward walk over the indices is not a lookup
    assert position_lookups(source) == [1, 3, 4, 5]


def test_checker_flags_derivative_recomputes():
    source = (
        "def d_op(field, x, T=None):\n"
        "    if T is None:\n"
        "        T = nabla(field, x)\n"
        "    return T\n"
        "def laplacian(field, x, W=None):\n"
        "    W = fields.nabla2(field, x) if W is None else W\n"
        "    def inner(rm=None):\n"
        "        if rm is None:\n"
        "            scale = 2.0\n"
        "            rm = riemann(base, x)\n"
        "        return rm\n"
        "    return W\n"
        "def kept(x, T=None):\n"
        "    T = T if T is not None else nabla(f, x)\n"
        "    if T is None:\n"
        "        S = nabla(f, x)\n"
        "    jet = connection_jet(base, x) if other is None else jet\n"
        "    return norm(x) if T is None else T, (x if x is None else nabla(f, x))\n"
        "if jet is None:\n"
        "    jet = _nabla2_jet(f, x)\n"
    )
    # only NAME = f(...) under NAME is None, or f(...) if NAME is None else
    # NAME, with f a derivative, counts
    assert derivative_recomputes(source) == [
        ("<module>", 19), ("d_op", 2), ("inner", 8), ("laplacian", 6)]


def test_checker_flags_l_element_reads():
    source = (
        "@lru_cache(maxsize=None)\n"
        "def _l_element(n):\n"
        "    return SymTensor.metric(n).scale(2.0)\n"
        "def _l_plan(n, p):\n"
        "    return _l_element(n).comps\n"
        "def _mult_L_comps(comps, n, p):\n"
        "    return _l_element(n).comps * comps[..., :1]\n"
        "def mult_L(K):\n"
        "    return sym_product(_l_element(K.dim), K)\n"
        "class Lift:\n"
        "    def __call__(self, K):\n"
        "        return sym_product(symtensor._l_element(K.dim), K)\n"
        "from .symtensor import _l_element as g2\n"
        "G = _l_element\n"
    )
    # the definition and the plan's and kernel's reads are not flagged
    assert l_element_reads(source) == [
        ("<module>", 13), ("<module>", 14), ("Lift", 12), ("mult_L", 9)]


def test_checker_flags_row_matmuls():
    source = (
        "def dots(a, b, m):\n"
        "    x = (a * m)[..., None, :] @ b[..., :, None]\n"
        "    y = a[None, :] @ b\n"
        "    z = np.matmul(a[..., None, :], b[..., :, None])\n"
        "    w = a[..., :, None] @ b[..., None, :]\n"
        "    v = a[..., None, 1:] @ b\n"
        "    return x, y, z, w, v, a @ b, b[..., None] * a[..., None, :]\n"
    )
    # a column operand on the left, a partial slice and a product are not rows
    assert row_matmuls(source) == [2, 3, 4]


def test_checker_flags_frame_memo_users():
    source = (
        "def _frame_memo(frame):\n"
        "    return frame\n"
        "class EmbeddedSphere:\n"
        "    @_frame_memo\n"
        "    def frame(self, x):\n"
        "        return x\n"
        "class Chart:\n"
        "    @manifolds._frame_memo\n"
        "    def frame(self, x):\n"
        "        return x\n"
        "    def metric_matrix(self, x):\n"
        "        return x\n"
        "class Product:\n"
        "    frame = _frame_memo(lambda self, x: x)\n"
        "remembered = _frame_memo(Chart.frame)\n"
        "bare = EmbeddedSphere.frame.__wrapped__\n"
    )
    assert frame_memo_users(source) == [
        ("<module>", "remembered"), ("Chart", "frame"), ("EmbeddedSphere", "frame"),
        ("Product", "frame")]


def test_checker_flags_moveaxis_names():
    source = (
        "import numpy as np\n"
        "from numpy import moveaxis\n"
        "_ARRAY_FUNCTIONS = {\n"
        "    np.moveaxis: np.moveaxis._implementation,\n"
        "}\n"
        "def move(a):\n"
        "    b = np.moveaxis(a, 0, -1)\n"
        "    return moveaxis(b, -1, 0), a.transpose(1, 0), a.swapaxes(0, 1)\n"
        "class Tensor:\n"
        "    mover = np.moveaxis\n"
        "moved: object = np.moveaxis\n"
    )
    assert moveaxis_names(source) == [
        ("<module>", 2), ("Tensor", 10), ("_ARRAY_FUNCTIONS", 4), ("move", 7), ("move", 8),
        ("moved", 11)]
