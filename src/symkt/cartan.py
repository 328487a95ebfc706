"""Decomposition of T (x) Sym^p_0 into its three irreducible summands.

A :class:`FrameTensor` holds n slots of degree-p symmetric tensors, slot i
being the part paired with frame vector e_i (the shape of a covariant
derivative of a symmetric tensor field).  For trace-free slots it splits
orthogonally into a degree-(p+1) trace-free piece, a degree-(p-1) piece
and a remainder; the projections P1, P2, P3 and the conformal weight
operator B live here.

The slots are stored as one ``(..., n, size)`` array, row a = slot a, so
arithmetic, the trace-free guards and the slot kernels run once per frame
tensor, not once per slot.  Like a SymTensor's components, float slots
may carry leading batch axes, one frame tensor per point of a batch; the
norms, the slot gathers and the projections act per point.  Sums over the
slot axis run along axis -2; ``slot_sum`` adds the rows in slot order, bit
for bit a slot-by-slot loop, where ``.sum`` may sum pairwise.
"""

from collections import namedtuple
from math import factorial

import numpy as np

from .errors import DegenerateRankError, DegreeError, ShapeMismatchError
from .multiindex import multiplicities, slot_contract_array, slot_product_arrays, sym_size
from .symtensor import (
    DEFAULT_TRACE_TOL,
    SymTensor,
    _require_tracefree,
    _root_of_square,
    _tensor,
    derivation,
    mult_L,
    tracefree_part,
)

__all__ = [
    "FrameTensor",
    "CartanParts",
    "frame_inner",
    "frame_norm",
    "pi1",
    "pi1_star",
    "pi2",
    "pi2_star",
    "slot_products",
    "slot_hooks",
    "slot_sum",
    "cartan_decompose",
    "conformal_weight",
    "pi2_constant",
    "supported_pair",
    "random_frame_tensor",
]


class FrameTensor:
    """n slots of degree-p symmetric tensors over R^n, stored as one array.

    ``comps`` is a read-only ``(..., n, size)`` array: row a holds the
    packed components of slot a and leading axes are batch axes.  The
    constructor stacks a sequence of n SymTensors; ``from_stacked`` wraps
    such an array without copying.  ``slots`` gives read-only SymTensor
    views of the rows.  Sums, differences and scaling act on the whole
    array at once; a raised shape mismatch is ``ShapeMismatchError``.
    """

    __slots__ = ("dim", "degree", "comps")

    def __init__(self, slots):
        slots = tuple(slots)
        if not slots:
            raise ShapeMismatchError("FrameTensor needs at least one slot")
        n, p = slots[0].dim, slots[0].degree
        if len(slots) != n:
            raise ShapeMismatchError("need exactly dim slots")
        for s in slots:
            if s.dim != n or s.degree != p:
                raise ShapeMismatchError("slots disagree in (dim, degree)")
        self.dim = n
        self.degree = p
        self.comps = _readonly(np.stack([s.comps for s in slots], axis=-2))

    @classmethod
    def from_stacked(cls, dim, degree, S):
        """Frame tensor of the rows of S (..., n, size): slot a = S[..., a, :].

        A float or object S is wrapped, not copied, so the caller must not
        write to it afterwards.
        """
        S = np.asarray(S)
        if S.dtype != object and S.dtype != float:
            S = S.astype(float)
        if S.shape[-2:] != (dim, sym_size(dim, degree)):
            raise ShapeMismatchError(
                f"expected (..., {dim}, {sym_size(dim, degree)}) slots, got {S.shape}")
        return _frame(dim, degree, S.view())  # read-only view; S keeps its flags

    @property
    def slots(self):
        """The n slots as read-only SymTensor views of the rows of ``comps``."""
        return tuple(_tensor(self.dim, self.degree, self.comps[..., a, :])
                     for a in range(self.dim))

    def _check_same_shape(self, other):
        if self.dim != other.dim or self.degree != other.degree:
            raise ShapeMismatchError(
                f"shape ({self.dim},{self.degree}) vs ({other.dim},{other.degree})"
            )

    def __add__(self, other):
        self._check_same_shape(other)
        return _frame(self.dim, self.degree, self.comps + other.comps)

    def __sub__(self, other):
        self._check_same_shape(other)
        return _frame(self.dim, self.degree, self.comps - other.comps)

    def __neg__(self):
        return _frame(self.dim, self.degree, -self.comps)

    def scale(self, c):
        """Multiply by a scalar; a ``(..., 1)`` array scales per batch point."""
        if np.ndim(c):
            c = np.asarray(c)[..., None, :]  # the same factor on every slot
        return _frame(self.dim, self.degree, self.comps * c)

    __mul__ = scale
    __rmul__ = scale

    def __repr__(self):
        return f"FrameTensor(dim={self.dim}, degree={self.degree})"


def _readonly(comps):
    if comps.dtype != object:
        comps.setflags(write=False)
    return comps


def _frame(dim, degree, comps):
    """FrameTensor around a kernel's ``(..., n, size)`` output, unchecked."""
    out = FrameTensor.__new__(FrameTensor)
    out.dim, out.degree, out.comps = dim, degree, _readonly(comps)
    return out


def slot_sum(rows):
    """Sum of slot rows (..., n, k) over the slot axis -2, in slot order.

    Bit for bit a slot-by-slot loop: ``add.accumulate`` adds strictly in
    order, where ``sum`` may switch to pairwise summation (it does for 8
    or more slots when a row holds one entry), which rounds differently.
    """
    return np.add.accumulate(rows, axis=-2)[..., -1, :]


def _slotwise(T):
    """The slots of T as one SymTensor whose last batch axis is the slot
    axis, so a per-point kernel acts on every slot in one call."""
    return _tensor(T.dim, T.degree, T.comps)


def frame_inner(A, B):
    """Slot-wise sum of scalar products (the induced metric on T (x) Sym^p).

    Per point for slots with batch axes.  One stacked matmul over
    contiguous rows gives each slot's product ``inner``'s (``np.dot``'s)
    bits, and ``slot_sum`` adds the n products in slot order, so the
    result equals the slot-by-slot sum of ``inner`` bit for bit.
    """
    A._check_same_shape(B)
    mult = multiplicities(A.dim, A.degree)
    a, b = (np.ascontiguousarray(X.comps) for X in (A, B))
    dots = ((a * mult)[..., None, :] @ b[..., :, None])[..., 0] / factorial(A.degree)
    return slot_sum(dots)[..., 0][()]  # [()]: a scalar, not a 0-d array, at a point


def frame_norm(A):
    """|A|, a float; per point, an array, for slots with batch axes."""
    return _root_of_square(frame_inner(A, A))


def _check_supported(n, p):
    if p < 1:
        raise DegreeError("Cartan projections need degree >= 1")
    if n + 2 * p - 4 <= 0 or n + p - 3 <= 0:
        raise DegenerateRankError(
            f"(n,p)=({n},{p}) is degenerate for the second projection constant"
        )


def supported_pair(n, p):
    """Whether cartan_decompose accepts the pair (n, p)."""
    return p >= 1 and n + 2 * p - 4 > 0 and n + p - 3 > 0


def pi2_constant(n, p):
    """Value of pi2 pi2* on degree-(p-1) trace-free tensors."""
    _check_supported(n, p)
    return (n + 2 * p - 2) * (n + p - 3) / (n + 2 * p - 4)


def _flat_slots(S):
    """Stacked slots (..., n, size) as one flat axis, (..., n * size)."""
    return S.reshape(S.shape[:-2] + (-1,))


def slot_products(S, p):
    """Rows e_a . S_a of packed degree-p slots S (..., n, size), bit for bit
    ``sym_product(e_a, S_a)``: one table entry per (a, I) pair, so one
    gather and one scatter on the flat slot axis."""
    n = S.shape[-2]
    take, put, count = slot_product_arrays(n, p)
    w = count * _flat_slots(S).take(take, axis=-1)
    out = np.zeros(w.shape[:-1] + (n * sym_size(n, p + 1),), dtype=w.dtype)
    out.T[put] = w.T  # the flat axis first: numpy scatters faster there
    return out.reshape(S.shape[:-1] + (-1,))


def slot_hooks(S, p):
    """Rows e_a -| S_a of packed degree-p slots S (..., n, size), bit for bit
    ``contract(e_a, S_a)``: one gather on the flat slot axis."""
    if p < 1:
        raise DegreeError("cannot contract a degree-0 tensor")
    return _flat_slots(S).take(slot_contract_array(S.shape[-2], p), axis=-1)


def _tracefree_products(S, p):
    """Rows (e_a . S_a)_0 = e_a . S_a - L(e_a -| S_a) / (n + 2p - 2) for
    trace-free S_a, as ``tracefree_sym_product`` computes them."""
    n = S.shape[-2]
    rows = slot_products(S, p)
    if p == 0:
        return rows
    c = 1.0 / (n + 2 * (p - 1))
    return rows - mult_L(_tensor(n, p - 1, slot_hooks(S, p))).scale(c).comps


def _rows(S, n):
    """The (..., size) components S repeated on n rows, (..., n, size)."""
    return S[..., None, :].repeat(n, axis=-2)


def pi1(T):
    """Sum of trace-free products (e_i . slot_i)_0, degree p+1."""
    _require_tracefree(_slotwise(T), "pi1")
    return _pi1(T)


def _pi1(T):
    """``pi1`` of a T whose slots the caller has found trace-free."""
    return _tensor(T.dim, T.degree + 1, slot_sum(_tracefree_products(T.comps, T.degree)))


def pi1_star(S):
    """Adjoint embedding: slot i = e_i -| S."""
    n, p = S.dim, S.degree
    return _frame(n, p - 1, slot_hooks(_rows(S.comps, n), p))


def pi2(T):
    """Sum of contractions e_i -| slot_i, degree p-1."""
    return _tensor(T.dim, T.degree - 1, slot_sum(slot_hooks(T.comps, T.degree)))


def pi2_star(S):
    """Adjoint embedding: slot i = (e_i . S)_0."""
    _require_tracefree(S, "pi2_star")
    return _pi2_star(S)


def _pi2_star(S):
    """``pi2_star`` of an S the caller has found trace-free."""
    n, p = S.dim, S.degree
    return _frame(n, p + 1, _tracefree_products(_rows(S.comps, n), p))


CartanParts = namedtuple("CartanParts", ["P1", "P2", "P3", "pi1", "pi2"])


def cartan_decompose(T, tol=DEFAULT_TRACE_TOL):
    """Orthogonal split T = P1 + P2 + P3 of a trace-free-slotted tensor.

    P1 = pi1* pi1 / (p+1); P2 = pi2* pi2 scaled by the reciprocal of
    ``pi2_constant``; P3 is the remainder.  Returns the three idempotent
    images together with the intermediate pi1/pi2 values.

    Raises
    ------
    DegenerateRankError
        For (n, p) pairs where the second constant is singular.
    TraceError
        If some slot of T, or pi2(T), is not trace-free within ``tol``
        (the relative ``trace_residual``).  T is checked once: pi1 and
        pi2* run unguarded on what the two checks passed.
    """
    n, p = T.dim, T.degree
    _check_supported(n, p)
    _require_tracefree(_slotwise(T), "cartan_decompose", tol)
    s1 = _pi1(T)
    s2 = pi2(T)
    _require_tracefree(s2, "pi2_star", tol)
    P1 = pi1_star(s1).scale(1.0 / (p + 1))
    P2 = _pi2_star(s2).scale(1.0 / pi2_constant(n, p))
    P3 = T - P1 - P2
    return CartanParts(P1, P2, P3, s1, s2)


def conformal_weight(T):
    """Conformal weight operator B: slot i of B(T) = sum_j (e_i ^ e_j)* T_j.

    Agrees with p*P1 - (n+p-2)*P2 - P3 on trace-free-slotted tensors.
    Per point for slots with batch axes: the wedge's (i, j) axes sit
    after the batch axes and ``slot_sum`` adds over j along axis -2.
    """
    n, p = T.dim, T.degree
    _check_supported(n, p)
    E = np.eye(n)
    # wedge[i, j] = e_j e_i^T - e_i e_j^T, the matrix of (e_i ^ e_j)*
    wedge = E[None, :, :, None] * E[:, None, None, :]
    wedge = wedge - wedge.transpose(1, 0, 2, 3)
    return _frame(n, p, slot_sum(derivation(wedge, T.comps[..., None, :, :], p)))


def random_frame_tensor(n, p, rng):
    """Random frame tensor with trace-free slots.

    One ``(n, size)`` normal draw, which consumes the rng stream as n
    single-slot draws do, and one batched trace-free projection.
    """
    K = SymTensor(n, p, rng.standard_normal((n, sym_size(n, p))))
    return _frame(n, p, tracefree_part(K).comps)
