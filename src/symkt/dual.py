"""Nested forward-mode dual numbers.

A :class:`Dual` carries a value and a gradient with respect to one seeding
of input directions.  Values and gradient entries may themselves be Duals
from an enclosing seeding, so second (and higher) derivatives fall out of
nesting: ``jacobian`` applied to a function that internally calls
``jacobian`` yields exact mixed partials.

Every seeding gets a fresh tag; combining Duals from different seedings is
a bug in the caller and raises immediately.  Plain numbers mix freely.
"""

import itertools
import math

import numpy as np

__all__ = ["Dual", "seed", "jacobian", "value_of", "d_sqrt", "d_exp", "d_log"]

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


def value_of(x):
    """Strip all dual layers: the underlying float, or array of a batch."""
    while isinstance(x, Dual):
        x = x.val
    if isinstance(x, np.ndarray) and x.ndim:
        return x
    return float(x)


# The d_* functions take a float, a Dual or a batch array of floats; math
# on scalars keeps single-point values bit-identical to the scalar code.


def d_sqrt(x):
    if isinstance(x, Dual):
        s = d_sqrt(x.val)
        half_inv = 0.5 / s
        return Dual(s, tuple(half_inv * a for a in x.grad), x.tag)
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def d_exp(x):
    if isinstance(x, Dual):
        e = d_exp(x.val)
        return Dual(e, tuple(e * a for a in x.grad), x.tag)
    return np.exp(x) if isinstance(x, np.ndarray) else math.exp(x)


def d_log(x):
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
