"""Forward-mode dual numbers and second-order jets.

A :class:`Dual` carries a value and a gradient with respect to one seeding
of input directions.  Values and gradient entries may themselves be Duals
from an enclosing seeding, so ``jacobian`` nests: applied to a function
that internally calls ``jacobian`` it yields exact mixed partials.

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
    __slots__ = ("val", "grad", "tag")

    def __init__(self, val, grad, tag):
        self.val = val
        self.grad = grad
        self.tag = tag

    def __repr__(self):
        return f"Dual({self.val!r}, grad={self.grad!r}, tag={self.tag})"

    def _match(self, other):
        if isinstance(other, Dual):
            if other.tag != self.tag:
                raise ValueError("mixing Duals from different seedings")
            return other.val, other.grad
        if isinstance(other, _NUMBER_TYPES):
            return other, None
        return NotImplemented, None

    def __add__(self, other):
        v, g = self._match(other)
        if v is NotImplemented:
            return NotImplemented
        if g is None:
            return Dual(self.val + v, self.grad, self.tag)
        return Dual(self.val + v, tuple(a + b for a, b in zip(self.grad, g)), self.tag)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, tuple(-a for a in self.grad), self.tag)

    def __sub__(self, other):
        return self.__add__(-other if isinstance(other, Dual) else -1.0 * other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        v, g = self._match(other)
        if v is NotImplemented:
            return NotImplemented
        if g is None:
            return Dual(self.val * v, tuple(a * v for a in self.grad), self.tag)
        return Dual(
            self.val * v,
            tuple(a * v + self.val * b for a, b in zip(self.grad, g)),
            self.tag,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        v, g = self._match(other)
        if v is NotImplemented:
            return NotImplemented
        if g is None:
            inv = 1.0 / v
            return Dual(self.val * inv, tuple(a * inv for a in self.grad), self.tag)
        q = self.val / v
        return Dual(q, tuple((a - q * b) / v for a, b in zip(self.grad, g)), self.tag)

    def __rtruediv__(self, other):
        q = other / self.val
        return Dual(q, tuple(-q / self.val * a for a in self.grad), self.tag)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise TypeError("Dual ** only supports non-negative integer exponents")
        out = 1.0
        for _ in range(k):
            out = out * self
        return out


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
    """Strip all dual and jet layers: the underlying float, or array of a batch."""
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
        half_inv = 0.5 / s
        return Dual(s, tuple(half_inv * a for a in x.grad), x.tag)
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def d_exp(x):
    if isinstance(x, Jet):
        e = d_exp(x.val)
        return _chain(x, e, e, e)
    if isinstance(x, Dual):
        e = d_exp(x.val)
        return Dual(e, tuple(e * a for a in x.grad), x.tag)
    return np.exp(x) if isinstance(x, np.ndarray) else math.exp(x)


def d_log(x):
    if isinstance(x, Jet):
        inv = 1.0 / x.val
        return _chain(x, d_log(x.val), inv, -inv * inv)
    if isinstance(x, Dual):
        v = d_log(x.val)
        return Dual(v, tuple(a / x.val for a in x.grad), x.tag)
    return np.log(x) if isinstance(x, np.ndarray) else math.log(x)


def seed(x):
    """Lift a point (sequence of scalars) to Duals with unit directions."""
    tag = next(_tag_counter)
    m = len(x)
    out = []
    for i, xi in enumerate(x):
        g = tuple(1.0 if k == i else 0.0 for k in range(m))
        out.append(Dual(xi, g, tag))
    return out


def _split(y, tag, m):
    if isinstance(y, Dual) and y.tag == tag:
        return y.val, y.grad
    return y, (0.0,) * m


def jacobian(fn, x):
    """Values and first partials of ``fn`` at ``x``.

    ``fn`` maps a sequence of m scalars to a flat sequence of scalars.
    Returns ``(vals, jac)`` where ``jac[k][i]`` is the partial of output k
    in input direction i.  Entries keep whatever dual level ``x`` itself
    has, so nesting works.
    """
    X = seed(x)
    tag = X[0].tag
    m = len(x)
    ys = fn(X)
    vals, jac = [], []
    for y in ys:
        v, g = _split(y, tag, m)
        vals.append(v)
        jac.append(g)
    return vals, jac


def hessian(fn, x):
    """Values, gradients and Hessians of ``fn`` at ``x`` from one evaluation.

    ``fn`` maps a sequence of m scalars to a flat sequence of scalars and
    is evaluated once on :class:`Jet` seeds.  Returns ``(vals, grads,
    hess)`` of shapes ``(K,)``, ``(K, m)`` and ``(K, m, m)``, with
    ``hess[k, i, j]`` the second partial of output k in directions i and
    j.  They are float arrays at a float point and object arrays at a dual
    point, whose Duals carry the derivatives of an enclosing ``jacobian``.
    Jets do not nest: ``x`` may not hold Jets.
    """
    if any(isinstance(xi, Jet) for xi in x):
        raise ValueError("hessian does not nest")
    m = len(x)
    eye, zero = np.eye(m), np.zeros((m, m))
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
    dtype = object if isinstance(x[0], Dual) else float
    return tuple(np.array(a, dtype=dtype) for a in (vals, grads, hess))
