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

An array of Duals of one float seeding is a :class:`DualArray`: a value
array and a gradient array, the entry axes first, then the direction axis
(gradient only) and the batch axes, so a whole array's derivative is
carried in one array and an operation costs a few numpy calls instead of
one Python call per entry.  Its bit rule: per entry, the operations the
object array of Duals would do, in the same operand order and summation
order, with the object path's two signed-zero starts (a float constant
has no gradient term, and a scatter onto int 0 touches the value only).
``stack`` of coordinates, ``dual_array`` of a list of components and
``jacobian``'s output build and read it whole.  Jets and nested Duals
(whose value is a Dual) keep object arrays.

A :class:`Jet` is a second-order truncated Taylor scalar (hyper-dual
style; Griewank & Walther, ch. 13), so ``hessian`` takes exact second
partials from one evaluation: ``seed_jets``, then ``_unpack_jets``, as
``seed`` and ``_unpack`` for a jacobian, so functions evaluated at one
seeding are unpacked each alone.  It is a value and one flat tuple of m +
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

__all__ = ["Dual", "DualArray", "Jet", "seed", "jacobian", "seed_jets", "hessian", "value_of",
           "d_sqrt", "d_dot", "d_exp", "d_log", "asarray", "dual_array", "first_order", "stack"]

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


# A constant entry of a DualArray has gradient -0.0, the identity of +:
# sums over entries then need no mask, as a constant term adds nothing.
_NO_GRAD = -0.0
_NONE_CONST = np.zeros((), dtype=bool)
_OBJECT = np.dtype(object)
# index tuples adding axes after the entries: _BATCH[k] appends k unit
# axes to a mask; _DIRECTION[nb] inserts the direction axis of a gradient
# before nb batch axes
_BATCH = [(Ellipsis,) + (None,) * k for k in range(4)]
_DIRECTION = [(Ellipsis, None) + (slice(None),) * nb for nb in range(3)]


class DualArray:
    """An array of first-order Duals of one float seeding, as two float arrays.

    It stands for the object array of Duals (and plain float constants)
    that numpy would build, entry by entry, at a point or a batch of one
    seeding whose coordinates are floats.  ``val`` holds the entry axes E
    first, then the seeding's batch axes L (``()`` at a point, ``(B,)`` at
    a batch); ``grad`` holds E, then the direction axis m, then L, so
    ``grad[idx]`` of one entry is that Dual's ``(m,) + L`` gradient.
    ``const`` is None, or a bool array of shape E marking the entries that
    are constants, floats in the object array; their gradient is -0.0.
    ``shape``, indexing, ``take``, transposes, ``reshape``, ``ravel``,
    ``len`` and iteration act on E as on the object array, and a single
    entry comes out as its Dual (or its constant).

    Bit rule: every operation repeats, per entry, the operations the
    object array's Duals would do: sums and differences, products,
    quotients and negation follow :class:`Dual`'s rules (a constant
    operand has no gradient term, and Dual + constant keeps the
    gradient).  ``sum``, ``@`` and ``tensordot`` add the terms of each
    output left to right from the first, as numpy's object loops do;
    ``scatter`` adds them in input order onto int 0, which touches the
    value only.  ``dot`` sums its gradient that way too, but takes its
    value from the float ``.dot`` of the values, as the float kernels do
    (an ndarray's ``.dot`` of a DualArray sums the object array instead).
    A sum or product may take its two operands in the other order (a
    constant's value first, or a running sum that is still a constant
    before a Dual term); that changes at most which NaN comes out where
    two NaNs meet, which numpy's own float loops leave to the
    position of the entry.

    ``__array_ufunc__ = None`` hands numpy's binary operators to the
    DualArray; ``np.asarray`` gives the object array of Duals; the numpy
    functions in ``_ARRAY_FUNCTIONS`` act on it, any other raises.
    """

    __slots__ = ("val", "grad", "tag", "const", "nb")
    __array_ufunc__ = None

    def __init__(self, val, grad, tag, const=None, nb=0):
        self.val = val
        self.grad = grad
        self.tag = tag
        self.const = const
        self.nb = nb  # number of batch axes L

    @classmethod
    def constant(cls, values, like):
        """The float array ``values`` as constant entries of the seeding of
        ``like``, a Dual or DualArray."""
        tag, gshape = _seeding(like)
        lead = gshape[1:]
        values = np.asarray(values, dtype=float)
        val = np.array(np.broadcast_to(values[_BATCH[len(lead)]], values.shape + lead))
        return cls(val, np.full(values.shape + gshape, _NO_GRAD), tag,
                   np.ones(values.shape, dtype=bool), len(lead))

    # -- shape -------------------------------------------------------------

    @property
    def shape(self):
        return self.val.shape[:self.val.ndim - self.nb]

    @property
    def ndim(self):
        return self.val.ndim - self.nb

    @property
    def dtype(self):
        """Object, as the array of Duals it stands for."""
        return _OBJECT

    @property
    def size(self):
        return math.prod(self.shape)

    def __len__(self):
        return self.shape[0]

    def __iter__(self):
        return (self[k] for k in range(len(self)))

    def __repr__(self):
        return f"DualArray(shape={self.shape}, tag={self.tag})"

    def _new(self, val, grad, const):
        """The array of these parts, or its one entry when E is ()."""
        if const is not None and not const.any():
            const = None
        if val.ndim == self.nb:
            if const is not None:
                return val[()] if self.nb == 0 else val
            return Dual(val[()] if self.nb == 0 else val, grad, self.tag)
        return DualArray(val, grad, self.tag, const, self.nb)

    def __getitem__(self, idx):
        if not isinstance(idx, tuple):
            idx = (idx,)
        rest = (slice(None),) * self.nb
        const = None if self.const is None else self.const[idx]
        return self._new(self.val[idx + rest], self.grad[idx + (slice(None),) + rest],
                         None if const is None else np.asarray(const))

    def __setitem__(self, idx, value):
        if not isinstance(idx, tuple):
            idx = (idx,)
        rest = (slice(None),) * self.nb
        val, grad, const = self._parts(value)
        if grad is None:
            const = True
            grad = _NO_GRAD
        self.val[idx + rest] = val
        self.grad[idx + (slice(None),) + rest] = grad
        if self.const is None:
            self.const = np.zeros(self.shape, dtype=bool)
        self.const[idx] = False if const is None else const

    @property
    def flags(self):
        return self.val.flags

    def setflags(self, write):
        self.val.setflags(write=write)
        self.grad.setflags(write=write)
        if self.const is not None:
            self.const.setflags(write=write)

    def copy(self):
        return DualArray(self.val.copy(), self.grad.copy(), self.tag,
                         None if self.const is None else self.const.copy(), self.nb)

    def _axis(self, axis):
        return axis % self.ndim

    def take(self, indices, axis=None):
        if axis is None:
            return self.ravel().take(indices, axis=0)
        a = self._axis(axis)
        const = None if self.const is None else self.const.take(indices, axis=a)
        return self._new(self.val.take(indices, axis=a), self.grad.take(indices, axis=a), const)

    def transpose(self, *axes):
        e = self.ndim
        if len(axes) == 1 and not isinstance(axes[0], int):
            axes = tuple(axes[0])
        axes = tuple(a % e for a in axes) if axes else tuple(range(e))[::-1]
        const = None if self.const is None else self.const.transpose(axes)
        return DualArray(self.val.transpose(axes + tuple(range(e, e + self.nb))),
                         self.grad.transpose(axes + tuple(range(e, e + self.nb + 1))),
                         self.tag, const, self.nb)

    def swapaxes(self, axis1, axis2):
        a, b = self._axis(axis1), self._axis(axis2)
        const = None if self.const is None else self.const.swapaxes(a, b)
        return DualArray(self.val.swapaxes(a, b), self.grad.swapaxes(a, b), self.tag,
                         const, self.nb)

    def reshape(self, *shape):
        if len(shape) == 1 and not isinstance(shape[0], int):
            shape = tuple(shape[0])
        if -1 in shape:
            known = math.prod(k for k in shape if k != -1)
            shape = tuple(self.size // known if k == -1 else k for k in shape)
        lead = self.val.shape[self.ndim:]
        const = None if self.const is None else self.const.reshape(shape)
        return DualArray(self.val.reshape(shape + lead),
                         self.grad.reshape(shape + self.grad.shape[self.ndim:]),
                         self.tag, const, self.nb)

    def ravel(self):
        return self.reshape(-1)

    def broadcast_to(self, shape):
        shape = tuple(shape)
        lead = self.val.shape[self.ndim:]
        const = None if self.const is None else np.broadcast_to(self.const, shape)
        return DualArray(np.broadcast_to(self.val, shape + lead),
                         np.broadcast_to(self.grad, shape + self.grad.shape[self.ndim:]),
                         self.tag, const, self.nb)

    def __array__(self, dtype=None, copy=None):
        if dtype is not None and np.dtype(dtype) != object:
            raise TypeError("a DualArray has no float view; take value_of")
        out = np.empty(self.shape, dtype=object)
        for k, entry in enumerate(self.ravel()):
            out.flat[k] = entry
        return out

    def __array_function__(self, func, types, args, kwargs):
        impl = _ARRAY_FUNCTIONS.get(func)
        if impl is None:
            return NotImplemented
        return impl(*args, **kwargs)

    # -- arithmetic --------------------------------------------------------

    def _parts(self, other):
        """(value, gradient, constant mask) of an operand, laid out to
        broadcast against this array: the gradient is None for a constant
        operand, the mask None when no entry is constant."""
        if isinstance(other, DualArray):
            if other.tag != self.tag:
                raise ValueError("mixing Duals from different seedings")
            if other.const is not None and other.const.all():
                return other.val, None, None
            return other.val, other.grad, other.const
        if isinstance(other, Dual):
            if other.tag != self.tag:
                raise ValueError("mixing Duals from different seedings")
            return np.asarray(other.val), other.grad, None
        if isinstance(other, _NUMBER_TYPES):
            return np.asarray(other, dtype=float), None, None
        if isinstance(other, np.ndarray):
            if other.dtype == object:  # Duals and constants, or constants only
                lifted = dual_array(other.ravel(), other.shape)
                if lifted is not None:
                    return self._parts(lifted)
                if any(isinstance(e, (Dual, Jet)) for e in other.flat):
                    return NotImplemented, None, None
                other = other.astype(float)
            return other.reshape(other.shape + (1,) * self.nb), None, None
        return NotImplemented, None, None

    def _g(self, v):
        """A value laid out to meet gradients: a direction axis inserted
        before the batch axes (a 0-d constant as it is)."""
        return v[_DIRECTION[self.nb]] if v.ndim >= self.nb else v

    def _masks(self, ca, cb):
        """The constant masks of two operands, False for one without."""
        return (_NONE_CONST if ca is None else ca), (_NONE_CONST if cb is None else cb)

    def _v(self, mask):
        """A mask laid out to meet values."""
        return mask[_BATCH[self.nb]]

    def _gm(self, mask):
        """A mask laid out to meet gradients."""
        return mask[_BATCH[self.nb + 1]]

    def _out(self, val, grad, const):
        """The result of an operation: the gradient broadcast up to the
        value's entries, -0.0 at the constant ones."""
        e = val.ndim - self.nb
        if const is not None:
            if const.shape != val.shape[:e]:
                const = np.broadcast_to(const, val.shape[:e])
            grad = np.where(self._gm(const), _NO_GRAD, grad)
        if grad.ndim != val.ndim + 1 or grad.shape[:e] != val.shape[:e]:
            grad = np.broadcast_to(grad, val.shape[:e] + grad.shape[grad.ndim - self.nb - 1:])
        return self._new(val, grad, const)

    def _binary(self, rule, a, b):
        pa, pb = self._parts(a), self._parts(b)
        if pa[0] is NotImplemented or pb[0] is NotImplemented:
            return NotImplemented
        if pa[1] is None and pb[1] is None:  # constants only: float arithmetic
            val = _FLOAT_RULES[rule](pa[0], pb[0])
            lead = self.val.shape[self.ndim:]
            val = np.broadcast_to(val, val.shape[:val.ndim - self.nb] + lead)
            grad = np.full(val.shape[:val.ndim - self.nb] + self.grad.shape[self.ndim:],
                           _NO_GRAD)
            return self._new(np.array(val), grad, np.ones(grad.shape[:val.ndim - self.nb], bool))
        return rule(self, *pa, *pb)

    def __add__(self, other):
        return self._binary(_add, self, other)

    def __radd__(self, other):
        return self._binary(_add, other, self)

    def __sub__(self, other):
        return self._binary(_sub, self, other)

    def __rsub__(self, other):
        return self._binary(_sub, other, self)

    def __mul__(self, other):
        return self._binary(_mul, self, other)

    def __rmul__(self, other):
        return self._binary(_mul, other, self)

    def __truediv__(self, other):
        return self._binary(_div, self, other)

    def __rtruediv__(self, other):
        return self._binary(_div, other, self)

    def __neg__(self):
        grad = -self.grad
        if self.const is not None:
            grad = np.where(self._gm(self.const), _NO_GRAD, grad)
        return DualArray(-self.val, grad, self.tag, self.const, self.nb)

    def __matmul__(self, other):
        return _matmul(self, other)

    def __rmatmul__(self, other):
        return _matmul(other, self)

    # -- sums ----------------------------------------------------------------

    def sum(self, axis):
        """The sum over one entry axis, left to right from the first term."""
        a = self._axis(axis)
        at = (slice(None),) * a + (-1,)
        const = None if self.const is None else self.const.all(axis=a)
        return self._new(np.add.accumulate(self.val, axis=a)[at],
                         np.add.accumulate(self.grad, axis=a)[at], const)

    def dot(self, other):
        """``ndarray.dot`` of two vectors: their products' gradients summed
        left to right from the first, as ``sum`` does, and the value the
        float ``.dot`` of the two values (per batch point, ``_row_dots``).
        That is the sum the float kernels make, so the value keeps their
        bits, though not the object array's left-to-right sum.  Only this
        method gives that value: an ndarray's ``.dot`` of a DualArray takes
        its object array and sums left to right, so ``symtensor.inner``
        calls the DualArray's ``dot`` with a float operand on either side
        (the float dot is the same from either side)."""
        prod = self * other
        va, vb = self.val, np.broadcast_to(self._parts(other)[0], self.val.shape)
        if self.nb:
            val = _row_dots(*(v.transpose(*range(1, v.ndim), 0) for v in (va, vb)))
        else:
            val = va.dot(vb)
        const = None if prod.const is None else prod.const.all(axis=0)
        return prod._new(val, np.add.accumulate(prod.grad, axis=0)[-1], const)

    def scatter(self, pos, size):
        """``out[..., pos[i]] += self[..., i]`` onto int 0, in the order of i.

        As ``np.add.at`` on an object array of zeros: a bin's value sums
        its terms from +0.0, its gradient those of its Dual terms from the
        first; a bin without a Dual term is a constant.
        """
        lead = self.shape[:-1]
        rest = (slice(None),) * self.nb
        val = np.zeros(lead + (size,) + self.val.shape[self.ndim:])
        grad = np.full(lead + (size,) + self.grad.shape[self.ndim:], _NO_GRAD)
        np.add.at(val, (Ellipsis, pos) + rest, self.val)
        np.add.at(grad, (Ellipsis, pos, slice(None)) + rest, self.grad)
        duals = np.zeros(lead + (size,), dtype=np.intp)
        live = (np.ones(self.shape, dtype=bool) if self.const is None else ~self.const)
        np.add.at(duals, (Ellipsis, pos), live)
        return self._new(val, grad, duals == 0)


def _add(self, va, ga, ca, vb, gb, cb):
    # a constant's gradient is -0.0, which adds nothing: one sum serves
    # every pair of Dual and constant, and Dual + constant keeps the gradient
    if ga is None or gb is None:
        return self._out(va + vb, gb if ga is None else ga, cb if ga is None else ca)
    return self._out(va + vb, ga + gb, _both(ca, cb))


def _sub(self, va, ga, ca, vb, gb, cb):
    if ga is None:
        return self._out(va - vb, -gb, cb)
    if gb is None:
        return self._out(va - vb, ga, ca)
    grad = ga - gb
    if ca is not None or cb is not None:  # Dual - constant keeps the gradient
        ca, cb = self._masks(ca, cb)
        grad = np.where(self._gm(ca), -gb, np.where(self._gm(cb), ga, grad))
    return self._out(va - vb, grad, _both(ca, cb))


def _mul(self, va, ga, ca, vb, gb, cb):
    # a constant factor has no gradient term: Dual * constant is grad * c
    if ga is None:
        return self._out(va * vb, self._g(va) * gb, cb)
    if gb is None:
        return self._out(va * vb, ga * self._g(vb), ca)
    ta, tb = ga * self._g(vb), self._g(va) * gb
    grad = ta + tb
    if ca is not None or cb is not None:
        ca, cb = self._masks(ca, cb)
        grad = np.where(self._gm(ca), tb, np.where(self._gm(cb), ta, grad))
    return self._out(va * vb, grad, _both(ca, cb))


def _div(self, va, ga, ca, vb, gb, cb):
    # Dual / constant is a product with the reciprocal, value included
    if gb is None:
        inv = 1.0 / vb
        val = va * inv if ca is None else np.where(self._v(ca), va / vb, va * inv)
        return self._out(val, ga * self._g(inv), ca)
    q = va / vb
    if ga is None:  # constant / Dual
        return self._out(q, -self._g(q) / self._g(vb) * gb, cb)
    grad = (ga - self._g(q) * gb) / self._g(vb)
    if ca is None and cb is None:
        return self._out(q, grad, None)
    ca, cb = self._masks(ca, cb)
    inv = 1.0 / vb
    val = np.where(self._v(cb & ~ca), va * inv, q)
    grad = np.where(self._gm(ca), -self._g(q) / self._g(vb) * gb,
                    np.where(self._gm(cb), ga * self._g(inv), grad))
    return self._out(val, grad, _both(ca, cb))


_FLOAT_RULES = {_add: np.add, _sub: np.subtract, _mul: np.multiply, _div: np.true_divide}


def _both(ca, cb):
    """The mask of the entries constant in both operands."""
    if ca is None or cb is None or ca is _NONE_CONST or cb is _NONE_CONST:
        return None
    return ca & cb


def asarray(x):
    """``np.asarray(x)``, a DualArray as it is."""
    return x if isinstance(x, DualArray) else np.asarray(x)


def _row_dots(a, b):
    """The dot product of each pair of last-axis rows of two float arrays.
    The rows are made contiguous, so numpy's matmul takes the kernel of
    ``np.dot``."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _matmul(a, b):
    """``a @ b`` with numpy's object-array sums: each output adds its
    products left to right from the first."""
    a, b = asarray(a), asarray(b)
    if a.ndim == 1:
        return _matmul(a[None, :], b)[..., 0, :]
    if b.ndim == 1:
        return _matmul(a, b[:, None])[..., 0]
    return (a[..., :, :, None] * b[..., None, :, :]).sum(axis=-2)


def _tensordot(a, b, axes=2):
    """``np.tensordot`` with numpy's object-array sums (``np.dot`` adds each
    output's products left to right from the first)."""
    a, b = asarray(a), asarray(b)
    if isinstance(axes, int):
        axes_a, axes_b = list(range(a.ndim - axes, a.ndim)), list(range(axes))
    else:
        axes_a, axes_b = ([ax] if isinstance(ax, int) else list(ax) for ax in axes)
    axes_a = [ax % a.ndim for ax in axes_a]
    axes_b = [ax % b.ndim for ax in axes_b]
    free_a = [k for k in range(a.ndim) if k not in axes_a]
    free_b = [k for k in range(b.ndim) if k not in axes_b]
    n = math.prod(a.shape[k] for k in axes_a)
    at = a.transpose(free_a + axes_a).reshape(-1, n)
    bt = b.transpose(axes_b + free_b).reshape(n, -1)
    out = _matmul(at, bt)
    return out.reshape([a.shape[k] for k in free_a] + [b.shape[k] for k in free_b])


def _object_einsum(*operands, **kwargs):
    """``np.einsum`` on the object arrays of Duals: its order of summation
    is numpy's own, which only the object arrays reproduce."""
    return np.einsum(*(np.asarray(x) if isinstance(x, DualArray) else x for x in operands),
                     **kwargs)


def _method(name):
    return lambda a, *args, **kwargs: getattr(a, name)(*args, **kwargs)


_ARRAY_FUNCTIONS = {
    np.shape: lambda a: a.shape,
    np.ndim: lambda a: a.ndim,
    np.swapaxes: _method("swapaxes"),
    np.moveaxis: np.moveaxis._implementation,
    np.broadcast_to: _method("broadcast_to"),
    np.tensordot: _tensordot,
    np.einsum: _object_einsum,
}


def first_order(x):
    """Whether x is a Dual of a float seeding: its gradient is a float array."""
    return isinstance(x, Dual) and x.grad.dtype != object


def _seeding(x):
    """(tag, gradient shape (m,) + L of one entry) of a Dual or DualArray."""
    if isinstance(x, DualArray):
        return x.tag, x.grad.shape[x.ndim:]
    return x.tag, x.grad.shape


def dual_array(entries, shape=None, like=None):
    """The DualArray of a flat sequence of Duals and constants.

    ``entries`` holds Duals of one float seeding (first-order: a float
    gradient) and constants (numbers, or float arrays over the batch
    axes), in C order of ``shape`` (default: one axis).  Returns None when
    no entry is such a Dual, or when an entry is a Jet, a nested Dual or
    a Dual of another seeding: those stay object arrays.  With ``like``, a
    Dual or DualArray of the seeding, constants alone make a DualArray
    too.
    """
    entries = list(entries)
    first = next((e for e in entries if type(e) is Dual), like)
    if first is None or first.grad.dtype == object:
        return None
    tag, gshape = _seeding(first)
    lead = gshape[1:]
    shape = (len(entries),) if shape is None else tuple(shape)
    duals = [type(e) is Dual and e.tag == tag for e in entries]
    consts = [e for e, is_dual in zip(entries, duals) if not is_dual]
    if any(e.grad.dtype == object for e, is_dual in zip(entries, duals) if is_dual) or any(
            isinstance(e, (Dual, Jet)) or getattr(e, "dtype", None) == object for e in consts):
        return None  # a nested Dual, a Jet, or a Dual of another seeding
    if not consts:
        return DualArray(np.array([e.val for e in entries], dtype=float).reshape(shape + lead),
                         np.array([e.grad for e in entries], dtype=float).reshape(
                             shape + gshape), tag, None, len(lead))
    # constants: a placeholder value and the -0.0 gradient, then their values
    zero, no_grad = np.zeros(lead), np.full(gshape, _NO_GRAD)
    val = np.array([e.val if is_dual else zero for e, is_dual in zip(entries, duals)])
    grad = np.array([e.grad if is_dual else no_grad for e, is_dual in zip(entries, duals)])
    for k, is_dual in enumerate(duals):
        if not is_dual:
            val[k] = entries[k]
    const = ~np.array(duals)
    return DualArray(val.reshape(shape + lead), grad.reshape(shape + gshape), tag,
                     const.reshape(shape), len(lead))


def stack(xs):
    """Scalars stacked on a new last axis: a float ``(..., N)`` array of
    floats or batch columns, the DualArray of Duals of a float seeding, or
    an object array of Jets or nested Duals."""
    xs = list(xs)
    if not any(isinstance(x, (Dual, Jet)) for x in xs):
        return np.stack(xs, axis=-1)
    arr = dual_array(xs)
    if arr is None:
        arr = np.empty(len(xs), dtype=object)
        arr[:] = xs
    return arr


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
    if isinstance(x, DualArray):
        return x.val
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
    (``sum`` would start from 0); two DualArrays in one product and sum."""
    if isinstance(a, DualArray) and isinstance(b, DualArray):
        return (a * b).sum(axis=-1)
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


@functools.lru_cache(maxsize=64)
def _batch_directions(B, m):
    """Row i of one identity on each of B points, the read-only (m, m, B)
    broadcast the batch seedings of B points in m coordinates share."""
    return np.broadcast_to(np.eye(m)[:, :, None], (m, m, B))


def seed(x):
    """Lift a point to Duals with unit directions.

    ``x`` is a point (m scalars, floats or Duals) or a batch of B points
    (a ``(B, m)`` array or nested sequence).  Coordinate i gets gradient
    row i of the identity: ``(m,)`` at a point, over a batch the ``(m, B)``
    row i of one identity broadcast to ``(m, m, B)``, and an object array
    at a point of Duals, so that the enclosing seeding's Duals multiply it
    entry by entry.
    """
    tag = next(_tag_counter)
    if np.ndim(x[0]):  # a batch of points
        X = np.asarray(x, dtype=float)
        eye = _batch_directions(*X.shape)
        return [Dual(col, eye[i], tag) for i, col in enumerate(X.T.copy())]
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
    return _unpack(fn(X), X)


def _unpack(ys, X):
    """The ``(vals, jac)`` that ``jacobian`` returns, of the outputs ys (a
    flat sequence) of a function evaluated at the Duals ``X = seed(x)``.
    A caller that evaluates several outputs at one seeding unpacks each
    alone, in the layout of a jacobian of that output alone."""
    tag, grad0 = X[0].tag, X[0].grad
    if not isinstance(ys, DualArray):
        ys = list(ys)
        arr = dual_array(ys)
        ys = ys if arr is None else arr
    lead = grad0.shape[1:]  # (B,) at a batch
    if isinstance(ys, DualArray) and ys.tag == tag:
        # read whole; a constant's row is +0.0
        vals = ys.val
        jac = ys.grad if ys.const is None else np.where(ys._gm(ys.const), 0.0, ys.grad)
        if not lead:  # arrays of the caller's own; a batch is copied below
            return np.array(vals), np.array(jac)
    else:
        vals = np.empty((len(ys),) + lead, dtype=grad0.dtype)
        jac = np.full((len(ys), len(X)) + lead, 0.0, dtype=grad0.dtype)
        for k, y in enumerate(ys):
            if isinstance(y, Dual) and y.tag == tag:
                vals[k], jac[k] = y.val, y.grad
            else:
                vals[k] = y
    if lead:  # points on the leading axis, in one C-ordered copy each
        return (np.array(vals.T, order="C"),
                np.array(jac.transpose(2, 0, 1), order="C"))
    return vals, jac


def seed_jets(x):
    """Lift a point to :class:`Jet` seeds: coordinate i gets gradient row i
    of the identity and a zero Hessian.  Float coordinates enter as Python
    floats of the same value, Duals as they are.  Jets do not nest: ``x``
    may not hold Jets."""
    if any(isinstance(xi, Jet) for xi in x):
        raise ValueError("hessian does not nest")
    m = len(x)
    zero = (0.0,) * (m * (m + 3) // 2)
    if not isinstance(x[0], Dual):
        x = [float(xi) for xi in x]
    return [_jet(xi, zero[:i] + (1.0,) + zero[i + 1:]) for i, xi in enumerate(x)]


def _unpack_jets(ys, X):
    """The ``(vals, grads, hess)`` that ``hessian`` returns, unpacked in one
    step from the coefficient tuples of the outputs ys (a flat sequence) of
    a function evaluated at the Jets ``X = seed_jets(x)``."""
    m, size = len(X), len(X[0].d)
    zero = (0.0,) * size
    dtype = object if isinstance(X[0].val, Dual) else float
    rows = [(y.val, *y.d) if isinstance(y, Jet) else (y, *zero) for y in ys]
    table = np.array(rows, dtype=dtype).reshape(len(rows), size + 1)
    return (table[:, 0].copy(), table[:, 1:m + 1].copy(),
            table[:, m + 1 + _rules(size).square])


def hessian(fn, x):
    """Values, gradients and Hessians of ``fn`` at ``x`` from one evaluation.

    ``fn`` maps a sequence of m scalars to a flat sequence of scalars and
    is evaluated once, on the Jets of :func:`seed_jets`.  Returns ``(vals,
    grads, hess)`` of shapes ``(K,)``, ``(K, m)`` and ``(K, m, m)``, with
    ``hess[k, i, j]`` the second partial of output k in directions i and
    j: float arrays at a float point, object arrays at a dual point, whose
    Duals carry the derivatives of an enclosing ``jacobian``.
    """
    X = seed_jets(x)
    return _unpack_jets(fn(X), X)
