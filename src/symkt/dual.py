"""Forward-mode dual numbers and second-order jets.

A :class:`Dual` carries a value and a gradient with respect to one seeding
of m input directions.  The gradient is an ndarray with the direction
axis first (vector-mode forward differentiation: Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 3): ``(m,)`` at a point,
and ``(m, B)`` at a batch of B points, whose value is a ``(B,)`` array, so
one evaluation carries every direction at every point of the batch and
``jacobian`` returns ``(B, ...)`` float arrays.  A float ndarray meeting a
Dual is a batch constant, one entry per point.  Values and gradient
entries may themselves be Duals from an enclosing seeding (object
arrays), so ``jacobian`` nests: applied to a function that internally
calls ``jacobian`` it yields exact mixed partials.

Every seeding gets a fresh tag; combining Duals from different seedings is
a bug in the caller and raises immediately.  Plain numbers mix freely.

A :class:`Jet` is a second-order truncated Taylor scalar (hyper-dual
style; Griewank & Walther, ch. 13), so ``hessian`` takes exact second
partials from one evaluation.  It is a value and one flat tuple of m +
m(m+1)/2 coefficients: the gradient, then the Hessian's upper triangle
row by row.  Each gradient length m has its own subclass of ``Jet``,
built once, and every jet is an instance of its length's class.  The
class's operators are straight-line code generated for that m (sums,
differences, negation, scaling, products and quotients, and the chain
rule behind ``d_sqrt``, ``d_exp`` and ``d_log``), plain Python on the
tuple with no numpy call; each tests its other operand's type inline,
so an operation costs one Python call.  The generated code of each m is
compiled under its own file name, ``<symkt.dual jets m=...>``, which is
how profilers label it.  The coefficients are floats, or Duals when
``hessian`` runs inside ``jacobian``.  Outside this module a jet's type
is tested with ``isinstance(x, Jet)``, never by exact type.
"""

import functools
import itertools
import math

import numpy as np

__all__ = ["Dual", "Jet", "seed", "jacobian", "hessian", "value_of", "d_sqrt", "d_dot",
           "d_exp", "d_log"]

_NUMBER_TYPES = (int, float, np.integer, np.floating)

_tag_counter = itertools.count(1)


class Dual:
    """Value and gradient with respect to one seeding of m directions.

    The gradient is an ndarray with the direction axis first: ``(m,)`` at
    a point, ``(m, B)`` at a batch of B points, where the value is a
    ``(B,)`` array.  At a point whose coordinates are themselves Duals
    (nesting) the value is a Dual and the gradient an object array.

    A float ndarray meeting a Dual is a batch constant: it broadcasts
    against the value, one entry per point.  At a point (scalar value)
    only 0-d arrays are constants; any other ndarray, and every object
    array, is applied entry by entry as numpy does, giving an array of
    Duals.  ``__array_ufunc__ = None`` makes numpy hand binary operators
    with an ndarray on the left to the Dual instead of broadcasting it as
    an object scalar.
    """

    __slots__ = ("val", "grad", "tag")
    __array_ufunc__ = None

    def __init__(self, val, grad, tag):
        self.val = val
        self.grad = grad
        self.tag = tag

    def __repr__(self):
        return f"Dual({self.val!r}, grad={self.grad!r}, tag={self.tag})"

    def _match(self, other):
        """(value, gradient) of ``other``: gradient None for a constant,
        value NotImplemented for an operand to apply entry by entry or to
        leave to the other type."""
        if isinstance(other, Dual):
            if other.tag != self.tag:
                raise ValueError("mixing Duals from different seedings")
            return other.val, other.grad
        if isinstance(other, _NUMBER_TYPES):
            return other, None
        if (isinstance(other, np.ndarray) and other.dtype != object
                and (other.ndim == 0 or np.ndim(self.val))):
            return other, None
        return NotImplemented, None

    def __add__(self, other):
        v, g = self._match(other)
        if v is NotImplemented:
            return _entrywise(np.add, self, other)
        if g is None:
            return Dual(self.val + v, self.grad, self.tag)
        return Dual(self.val + v, self.grad + g, self.tag)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, -self.grad, self.tag)

    def __sub__(self, other):
        v, g = self._match(other)
        if v is NotImplemented:
            return _entrywise(np.subtract, self, other)
        if g is None:
            return Dual(self.val - v, self.grad, self.tag)
        return Dual(self.val - v, self.grad - g, self.tag)

    def __rsub__(self, other):
        v, _ = self._match(other)
        if v is NotImplemented:
            return _entrywise(np.subtract, other, self)
        return Dual(v - self.val, -self.grad, self.tag)

    def __mul__(self, other):
        v, g = self._match(other)
        if v is NotImplemented:
            return _entrywise(np.multiply, self, other)
        if g is None:
            return Dual(self.val * v, self.grad * v, self.tag)
        return Dual(self.val * v, self.grad * v + self.val * g, self.tag)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v, g = self._match(other)
        if v is NotImplemented:
            return _entrywise(np.true_divide, self, other)
        if g is None:
            inv = 1.0 / v
            return Dual(self.val * inv, self.grad * inv, self.tag)
        q = self.val / v
        return Dual(q, (self.grad - q * g) / v, self.tag)

    def __rtruediv__(self, other):
        v, _ = self._match(other)
        if v is NotImplemented:
            return _entrywise(np.true_divide, other, self)
        q = v / self.val
        return Dual(q, -q / self.val * self.grad, self.tag)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise TypeError("Dual ** only supports non-negative integer exponents")
        out = 1.0
        for _ in range(k):
            out = out * self
        return out


def _entrywise(op, a, b):
    """``op`` of a Dual or Jet and an array (or a foreign type) entry by entry.

    The Dual or Jet goes into a 0-d object array, so numpy applies the
    Python operator per entry; any other operand type gets NotImplemented
    back.  Two jets meet here only when their lengths differ, which is a
    bug in the caller.
    """
    scalar_first = isinstance(a, (Dual, Jet))
    other = b if scalar_first else a
    if isinstance(other, Jet):
        raise ValueError("mixing jets of different lengths")
    if not isinstance(other, np.ndarray):
        return NotImplemented
    box = np.empty((), dtype=object)
    if scalar_first:
        box[()] = a
        return op(box, np.asarray(b, dtype=object))
    box[()] = b
    return op(np.asarray(a, dtype=object), box)


class Jet:
    """Second-order jet: a value and one flat tuple ``d`` of coefficients.

    ``d`` holds the gradient (m entries), then the Hessian's upper triangle
    row by row (m(m+1)/2 entries).  Every jet rule adds a symmetric term,
    so the triangle carries every bit of the Hessian; ``grad`` and
    ``hess`` rebuild the ``(m,)`` and ``(m, m)`` arrays.  Every jet is an
    instance of the subclass ``_rules`` builds for its number of
    coefficients, whose operators are the jet rules for that number; this
    class holds what all sizes share.  The coefficients are floats, or
    Duals of an enclosing ``jacobian``.  Plain numbers and Duals mix in as
    constants, a numpy float as the Python float of the same value
    (several times cheaper to multiply, and it keeps ``d`` Python
    floats); an ndarray operand is applied entry by entry
    (``__array_ufunc__ = None`` hands numpy's binary operators to the
    Jet, as for :class:`Dual`).  Jets of different lengths do not mix.
    """

    __slots__ = ("val", "d")
    __array_ufunc__ = None

    def __new__(cls, val, grad, hess):
        return _jet(val, (*grad, *(hess[i][j] for i, j in _triangle(len(grad)))))

    @property
    def grad(self):
        return np.array(self.d[:self.m])

    @property
    def hess(self):
        return np.array(self.d[self.m:])[self.square]

    def __repr__(self):
        return f"Jet({self.val!r}, grad={self.grad!r}, hess={self.hess!r})"

    def __reduce__(self):
        # copy and pickle rebuild the jet through its length's class
        return _jet, (self.val, self.d)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise TypeError("Jet ** only supports non-negative integer exponents")
        out = 1.0
        for _ in range(k):
            out = out * self
        return out


_CONSTANT_TYPES = _NUMBER_TYPES + (Dual,)
_new = object.__new__

# Dual and the Jet subclass of every size built so far: the scalar types
# whose values a component array holds as objects.
DERIVATIVE_TYPES = {Dual}


def _jet(val, d):
    """A Jet from its value and coefficient tuple, without the public
    constructor's unpacking."""
    j = _new(_rules(len(d)))
    j.val = val
    j.d = d
    return j


def _plain(c):
    """A numpy float constant as the Python float of the same value."""
    return float(c) if isinstance(c, np.floating) else c


def _triangle(m):
    """(i, j) of the Hessian's upper triangle, row by row: the order of a
    Jet's Hessian coefficients."""
    return [(i, j) for i in range(m) for j in range(i, m)]


@functools.cache
def _rules(size):
    """The :class:`Jet` subclass of jets with ``size`` coefficients.

    Its operators are the jet rules, generated once per gradient length m
    as straight-line code over the unpacked coefficients (as
    ``dataclasses`` generates ``__init__``) and compiled under the
    filename ``<symkt.dual jets m=...>``, so a jet operation makes no
    numpy call, no loop and no lookup of its rules.  A binary operator
    tests its other operand in turn: a jet of this class, a Python float,
    another constant (a numpy float becomes the Python float of the same
    value), then anything else, entry by entry.  The linear rules act
    coefficient by coefficient: sums and differences of two jets, scaling
    by a constant c (``x / c`` scales by ``1.0 / c``), and negation
    (``-x``, and ``c - x`` with the value ``c - x.val``, so a zero keeps
    its sign); adding or subtracting a constant keeps ``d``.  Each line
    of the others is the numpy rule it replaces at one (i, j), in the
    same order of operations:

        x y:      a d_ij(y) + b d_ij(x) + (d_i(x) d_j(y) + d_j(x) d_i(y))
        a / y:    q = a / b, g_i = (d_i(a) - q d_i(y)) / b,
                  (d_ij(a) - q d_ij(y) - (g_i d_j(y) + g_j d_i(y))) / b
        f(x):     f' d_i(x), f' d_ij(x) + f'' (d_i(x) d_j(x))

    with a, b the values of x, y (a constant a has zero coefficients);
    ``x._chain(f0, f1, f2)`` is f(x) from f and its first two derivatives
    at ``x.val``.  The class holds the gradient length ``m`` and
    ``square``, the ``(m, m)`` table of each Hessian entry's position in
    the triangle.
    """
    m = (math.isqrt(8 * size + 9) - 3) // 2
    if m < 1 or m * (m + 3) // 2 != size:
        raise ValueError(f"no gradient length has {size} jet coefficients")
    tri = list(enumerate(_triangle(m), m))
    mul = ([f"av * b{i} + bv * a{i}" for i in range(m)]
           + [f"av * b{k} + bv * a{k} + (a{i} * b{j} + a{j} * b{i})" for k, (i, j) in tri])
    quotient = ([f"g{i}" for i in range(m)]
                + [f"(a{k} - q * b{k} - (g{i} * b{j} + g{j} * b{i})) / bv" for k, (i, j) in tri])
    chain = ([f"f1 * a{i}" for i in range(m)]
             + [f"f1 * a{k} + f2 * (a{i} * a{j})" for k, (i, j) in tri])

    ks = range(size)
    ua, ub = (", ".join(f"{prefix}{k}" for k in ks) + "," for prefix in "ab")

    def tup(terms):
        return f"({', '.join(terms)},)"

    def jet(val, d):
        return ["j = _new(cls)", f"j.val = {val}", f"j.d = {d}", "return j"]

    def define(head, body):
        return [f"def {head}:", *(f"    {line}" for line in body)]

    def operator(name, const, fallback, same=()):
        """``name(x, y)``: ``same`` for a jet y of this class, ``const``
        for a constant y, else ``_entrywise(fallback)``."""
        test = ["if type(y) is cls:", *(f"    {line}" for line in same)] if same else []
        return define(f"{name}(x, y)", [
            *test,
            "if type(y) is not float:",
            "    if not isinstance(y, _CONSTANT_TYPES):",
            f"        return _entrywise({fallback})",
            "    y = _plain(y)",
            *const])

    source = "\n".join([
        *operator("__add__", jet("x.val + y", "x.d"), "np.add, x, y",
                  [f"{ua} = x.d", f"{ub} = y.d",
                   *jet("x.val + y.val", tup(f"a{k} + b{k}" for k in ks))]),
        *operator("__sub__", jet("x.val - y", "x.d"), "np.subtract, x, y",
                  [f"{ua} = x.d", f"{ub} = y.d",
                   *jet("x.val - y.val", tup(f"a{k} - b{k}" for k in ks))]),
        *operator("__rsub__", [f"{ua} = x.d", *jet("y - x.val", tup(f"-a{k}" for k in ks))],
                  "np.subtract, y, x"),
        *operator("__mul__", [f"{ua} = x.d", *jet("x.val * y", tup(f"a{k} * y" for k in ks))],
                  "np.multiply, x, y",
                  [f"{ua} = x.d", f"{ub} = y.d", "av = x.val", "bv = y.val",
                   *jet("av * bv", tup(mul))]),
        *operator("__truediv__",
                  ["c = 1.0 / y", f"{ua} = x.d", *jet("x.val * c", tup(f"a{k} * c" for k in ks))],
                  "np.true_divide, x, y",
                  [f"{ua} = x.d", f"{ub} = y.d", "bv = y.val", "q = x.val / bv",
                   *(f"g{i} = (a{i} - q * b{i}) / bv" for i in range(m)),
                   *jet("q", tup(quotient))]),
        # c / x is the quotient of the constant jet c by x
        *operator("__rtruediv__", ["c = _new(cls)", "c.val = y", "c.d = zeros",
                                   "return __truediv__(c, x)"], "np.true_divide, y, x"),
        *define("__neg__(x)", [f"{ua} = x.d", *jet("-x.val", tup(f"-a{k}" for k in ks))]),
        *define("_chain(x, f0, f1, f2)", [f"{ua} = x.d", *jet("f0", tup(chain))]),
    ])
    namespace = {"_new": _new, "np": np, "_entrywise": _entrywise, "_plain": _plain,
                 "_CONSTANT_TYPES": _CONSTANT_TYPES, "zeros": (0.0,) * size}
    exec(compile(source, f"<symkt.dual jets m={m}>", "exec"), namespace)
    square = np.empty((m, m), dtype=np.intp)
    for k, (i, j) in tri:
        square[i, j] = square[j, i] = k - m
    ops = {name: namespace[name] for name in
           ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__", "__rtruediv__",
            "__neg__", "_chain")}
    cls = namespace["cls"] = type(f"Jet{m}", (Jet,), {
        "__slots__": (), "__module__": __name__, "m": m, "square": square,
        "__radd__": ops["__add__"], "__rmul__": ops["__mul__"], **ops})
    DERIVATIVE_TYPES.add(cls)
    return cls


def value_of(x):
    """Strip all dual and jet layers: the underlying float, or array of a
    batch; a list or tuple of scalars (a point) gives the tuple of their
    values, and a list of points a tuple of such tuples, so a point or
    batch given as nested sequences has a hashable value."""
    if isinstance(x, (list, tuple)):
        return tuple(value_of(v) for v in x)
    while isinstance(x, (Dual, Jet)):
        x = x.val
    if isinstance(x, np.ndarray) and x.ndim:
        return x
    return float(x)


# The d_* functions take a float, a Dual, a Jet or a batch array of floats;
# math on scalars keeps single-point values bit-identical to the scalar code.


def d_sqrt(x):
    if isinstance(x, Jet):
        s = d_sqrt(x.val)
        f1 = 0.5 / s
        return x._chain(s, f1, -0.5 * f1 / x.val)
    if isinstance(x, Dual):
        s = d_sqrt(x.val)
        return Dual(s, (0.5 / s) * x.grad, x.tag)
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def d_dot(a, b):
    """a[0] b[0] + a[1] b[1] + ..., summed left to right at any scalar type
    (``sum`` would start from 0)."""
    s = a[0] * b[0]
    for i in range(1, len(a)):
        s = s + a[i] * b[i]
    return s


def d_exp(x):
    if isinstance(x, Jet):
        e = d_exp(x.val)
        return x._chain(e, e, e)
    if isinstance(x, Dual):
        e = d_exp(x.val)
        return Dual(e, e * x.grad, x.tag)
    return np.exp(x) if isinstance(x, np.ndarray) else math.exp(x)


def d_log(x):
    if isinstance(x, Jet):
        inv = 1.0 / x.val
        return x._chain(d_log(x.val), inv, -inv * inv)
    if isinstance(x, Dual):
        return Dual(d_log(x.val), x.grad / x.val, x.tag)
    return np.log(x) if isinstance(x, np.ndarray) else math.log(x)


def seed(x):
    """Lift a point to Duals with unit directions.

    ``x`` is a point (m scalars, floats or Duals) or a batch of B points
    (a ``(B, m)`` array or nested sequence).  Coordinate i gets gradient
    row i of the identity: ``(m,)`` at a point, broadcast to ``(m, B)``
    over a batch, and an object array at a point of Duals, so that the
    enclosing seeding's Duals multiply it entry by entry.
    """
    tag = next(_tag_counter)
    if np.ndim(x[0]):  # a batch of points
        X = np.asarray(x, dtype=float)
        B, m = X.shape
        eye = np.eye(m)
        return [Dual(col, np.broadcast_to(eye[i][:, None], (m, B)), tag)
                for i, col in enumerate(X.T.copy())]
    eye = np.eye(len(x))
    if isinstance(x[0], (Dual, Jet)):
        eye = eye.astype(object)
    return [Dual(xi, eye[i], tag) for i, xi in enumerate(x)]


def jacobian(fn, x):
    """Values and first partials of ``fn`` at a point or a batch of points.

    ``fn`` maps a sequence of m scalars to a flat sequence of K scalars and
    is evaluated once, on the Duals of :func:`seed`.  Returns ``(vals,
    jac)``: at a point, arrays of shapes ``(K,)`` and ``(K, m)`` with
    ``jac[k, i]`` the partial of output k in direction i; at a batch of B
    points, ``(B, K)`` and ``(B, K, m)``.  They are float arrays at float
    points and object arrays at a point of Duals, whose entries keep the
    enclosing seeding's derivatives, so nesting works.
    """
    X = seed(x)
    tag, grad0 = X[0].tag, X[0].grad
    ys = list(fn(X))
    lead = grad0.shape[1:]  # (B,) at a batch
    vals = np.empty((len(ys),) + lead, dtype=grad0.dtype)
    jac = np.full((len(ys), len(X)) + lead, 0.0, dtype=grad0.dtype)
    for k, y in enumerate(ys):
        if isinstance(y, Dual) and y.tag == tag:
            vals[k], jac[k] = y.val, y.grad
        else:
            vals[k] = y
    if lead:  # points on the leading axis
        return (np.ascontiguousarray(vals.T),
                np.ascontiguousarray(np.moveaxis(jac, (0, 1), (1, 2))))
    return vals, jac


def hessian(fn, x):
    """Values, gradients and Hessians of ``fn`` at ``x`` from one evaluation.

    ``fn`` maps a sequence of m scalars to a flat sequence of scalars and
    is evaluated once on :class:`Jet` seeds.  Returns ``(vals, grads,
    hess)`` of shapes ``(K,)``, ``(K, m)`` and ``(K, m, m)``, with
    ``hess[k, i, j]`` the second partial of output k in directions i and
    j, unpacked from the outputs' coefficient tuples in one step.  They
    are float arrays at a float point, whose coordinates enter as Python
    floats of the same value, and object arrays at a dual point, whose
    Duals carry the derivatives of an enclosing ``jacobian``.  Jets do not
    nest: ``x`` may not hold Jets.
    """
    if any(isinstance(xi, Jet) for xi in x):
        raise ValueError("hessian does not nest")
    m = len(x)
    size = m * (m + 3) // 2
    zero = (0.0,) * size
    dtype = object if isinstance(x[0], Dual) else float
    if dtype is float:
        x = [float(xi) for xi in x]
    ys = fn([_jet(xi, zero[:i] + (1.0,) + zero[i + 1:]) for i, xi in enumerate(x)])
    rows = [(y.val, *y.d) if isinstance(y, Jet) else (y, *zero) for y in ys]
    table = np.array(rows, dtype=dtype).reshape(len(rows), size + 1)
    return (table[:, 0].copy(), table[:, 1:m + 1].copy(),
            table[:, m + 1 + _rules(size).square])
