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
style): a value, an ``(m,)`` gradient and an ``(m, m)`` Hessian, so
``hessian`` takes exact second partials from one evaluation.  Its
coefficients are floats, or Duals when ``hessian`` runs inside
``jacobian``.
"""

import itertools
import math

import numpy as np

__all__ = ["Dual", "Jet", "seed", "jacobian", "hessian", "value_of", "d_sqrt", "d_exp",
           "d_log"]

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
    """``op`` of a Dual and an array (or a foreign type) entry by entry.

    The Dual goes into a 0-d object array, so numpy applies the Python
    operator per entry; any other operand type gets NotImplemented back.
    """
    if not isinstance(a if isinstance(b, Dual) else b, np.ndarray):
        return NotImplemented
    box = np.empty((), dtype=object)
    if isinstance(a, Dual):
        box[()] = a
        return op(box, np.asarray(b, dtype=object))
    box[()] = b
    return op(np.asarray(a, dtype=object), box)


class Jet:
    """Second-order jet: value, gradient (m,) and Hessian (m, m).

    The coefficients are floats, or Duals of an enclosing ``jacobian``
    (object arrays), so arithmetic is written on them generically.  Plain
    numbers and Duals mix in as constants; ndarrays are left to numpy,
    which applies the operation entry by entry.
    """

    __slots__ = ("val", "grad", "hess")

    def __init__(self, val, grad, hess):
        self.val = val
        self.grad = grad
        self.hess = hess

    def __repr__(self):
        return f"Jet({self.val!r}, grad={self.grad!r}, hess={self.hess!r})"

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val + other.val, self.grad + other.grad, self.hess + other.hess)
        if isinstance(other, _CONSTANT_TYPES):
            return Jet(self.val + other, self.grad, self.hess)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.val, -self.grad, -self.hess)

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val - other.val, self.grad - other.grad, self.hess - other.hess)
        if isinstance(other, _CONSTANT_TYPES):
            return Jet(self.val - other, self.grad, self.hess)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _CONSTANT_TYPES):
            return Jet(other - self.val, -self.grad, -self.hess)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b = self.val, other.val
            o = np.multiply.outer(self.grad, other.grad)
            return Jet(a * b, a * other.grad + b * self.grad,
                       a * other.hess + b * self.hess + (o + o.T))
        if isinstance(other, _CONSTANT_TYPES):
            return Jet(self.val * other, self.grad * other, self.hess * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return _quotient(self.val, self.grad, self.hess, other)
        if isinstance(other, _CONSTANT_TYPES):
            inv = 1.0 / other
            return Jet(self.val * inv, self.grad * inv, self.hess * inv)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _CONSTANT_TYPES):
            return _quotient(other, 0.0, 0.0, self)
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise TypeError("Jet ** only supports non-negative integer exponents")
        out = 1.0
        for _ in range(k):
            out = out * self
        return out


_CONSTANT_TYPES = _NUMBER_TYPES + (Dual,)


def _quotient(a, ga, Ha, b):
    """The jet q = a / b, from a = q b differentiated twice."""
    q = a / b.val
    gq = (ga - q * b.grad) / b.val
    o = np.multiply.outer(gq, b.grad)
    return Jet(q, gq, (Ha - q * b.hess - (o + o.T)) / b.val)


def _chain(x, f0, f1, f2):
    """f(x) for a jet x, from f and its first two derivatives at x.val."""
    return Jet(f0, f1 * x.grad, f1 * x.hess + f2 * np.multiply.outer(x.grad, x.grad))


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
        return _chain(x, s, f1, -0.5 * f1 / x.val)
    if isinstance(x, Dual):
        s = d_sqrt(x.val)
        return Dual(s, (0.5 / s) * x.grad, x.tag)
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def d_exp(x):
    if isinstance(x, Jet):
        e = d_exp(x.val)
        return _chain(x, e, e, e)
    if isinstance(x, Dual):
        e = d_exp(x.val)
        return Dual(e, e * x.grad, x.tag)
    return np.exp(x) if isinstance(x, np.ndarray) else math.exp(x)


def d_log(x):
    if isinstance(x, Jet):
        inv = 1.0 / x.val
        return _chain(x, d_log(x.val), inv, -inv * inv)
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
    j.  They are float arrays at a float point and object arrays at a dual
    point, whose Duals carry the derivatives of an enclosing ``jacobian``;
    the seeds' gradients and Hessians are then object arrays too, so that
    a Dual coefficient multiplies them entry by entry rather than as a
    batch constant.  Jets do not nest: ``x`` may not hold Jets.
    """
    if any(isinstance(xi, Jet) for xi in x):
        raise ValueError("hessian does not nest")
    m = len(x)
    dtype = object if isinstance(x[0], Dual) else float
    eye, zero = np.eye(m).astype(dtype), np.zeros((m, m)).astype(dtype)
    ys = fn([Jet(xi, eye[i], zero) for i, xi in enumerate(x)])
    vals, grads, hess = [], [], []
    for y in ys:
        if isinstance(y, Jet):
            vals.append(y.val)
            grads.append(y.grad)
            hess.append(y.hess)
        else:
            vals.append(y)
            grads.append(zero[0])
            hess.append(zero)
    return tuple(np.array(a, dtype=dtype) for a in (vals, grads, hess))
