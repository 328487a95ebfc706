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
from functools import lru_cache

import numpy as np

from .errors import DegenerateRankError, DegreeError, ShapeMismatchError
from .multiindex import slot_contract_array, slot_product_arrays, sym_size
from .symtensor import (
    DEFAULT_TRACE_TOL,
    SymTensor,
    _PackedTensor,
    _inner_comps,
    _require_tracefree,
    _root_of_square,
    _tensor,
    _tracefree_shift,
    derivation,
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


class FrameTensor(_PackedTensor):
    """n slots of degree-p symmetric tensors over R^n, stored as one array.

    ``comps`` is a read-only ``(..., n, size)`` array: row a holds the
    packed components of slot a and leading axes are batch axes.  The
    constructor stacks a sequence of n SymTensors; ``from_stacked`` wraps
    such an array without copying.  ``slots`` gives read-only SymTensor
    views of the rows.  Sums, differences and scaling act on the whole
    array at once; a raised shape mismatch is ``ShapeMismatchError``.
    """

    __slots__ = ()

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
        super().__init__(n, p, np.stack([s.comps for s in slots], axis=-2))

    @classmethod
    def from_stacked(cls, dim, degree, S):
        """Frame tensor of the rows of S (..., n, size): slot a = S[..., a, :].

        A float or object S is wrapped, not copied, so the caller must not
        write to it afterwards.
        """
        S = np.asarray(S)
        if S.dtype != object and S.dtype != float:
            S = S.astype(float, casting="same_kind")
        if S.shape[-2:] != (dim, sym_size(dim, degree)):
            raise ShapeMismatchError(
                f"expected (..., {dim}, {sym_size(dim, degree)}) slots, got {S.shape}")
        return cls._wrap(dim, degree, S.view())  # read-only view; S keeps its flags

    @property
    def slots(self):
        """The n slots as read-only SymTensor views of the rows of ``comps``."""
        return tuple(_tensor(self.dim, self.degree, self.comps[..., a, :])
                     for a in range(self.dim))

    def scale(self, c):
        """Multiply by a scalar; a ``(..., 1)`` array scales per batch point."""
        if isinstance(c, np.ndarray) and c.ndim:
            c = c[..., None, :]  # the same factor on every slot
        return _frame(self.dim, self.degree, self.comps * c)

    __mul__ = scale
    __rmul__ = scale


# bound once, as ``symtensor._tensor``: the kernels wrap their ``(..., n, size)`` outputs
_frame = FrameTensor._wrap


def slot_sum(rows):
    """Sum of slot rows (..., n, k) over the slot axis -2, in slot order.

    Bit for bit a slot-by-slot loop: ``add.accumulate`` adds strictly in
    order, where ``sum`` may switch to pairwise summation (it does for 8
    or more slots when a row holds one entry), which rounds differently.
    """
    return np.add.accumulate(rows, axis=-2)[..., -1, :]


def frame_inner(A, B):
    """Slot-wise sum of scalar products (the induced metric on T (x) Sym^p).

    Per point for slots with batch axes.  ``inner``'s kernel on the
    stacked rows (``dual._row_dots``, one matmul over contiguous rows)
    gives each slot's product ``inner``'s (``np.dot``'s) bits, and
    ``slot_sum`` adds the n products in slot order, so the result equals
    the slot-by-slot sum of ``inner`` bit for bit.
    """
    A._check_same_shape(B)
    return _frame_inner_comps(A.comps, B.comps, A.dim, A.degree)


def _frame_inner_comps(a, b, n, p):
    """``frame_inner``'s kernel on two slot arrays (..., n, size) of degree p."""
    # [()]: a scalar, not a 0-d array, at a point
    return slot_sum(_inner_comps(a, b, n, p)[..., None])[..., 0][()]


def frame_norm(A):
    """|A|, a float; per point, an array, for slots with batch axes."""
    return _frame_norm_comps(A.comps, A.dim, A.degree)


def _frame_norm_comps(a, n, p):
    """``frame_norm``'s kernel on a slot array (..., n, size) of degree p."""
    return _root_of_square(_frame_inner_comps(a, a, n, p))


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


def _hooks(S, p):
    """``slot_hooks(S, p)``; None for degree-0 slots, which have no hooks."""
    return slot_hooks(S, p) if p else None


def _tracefree_products(S, p, hooks):
    """Rows (e_a . S_a)_0 = e_a . S_a - L(e_a -| S_a) / (n + 2p - 2) for
    trace-free S_a, as ``tracefree_sym_product`` computes them, from the
    hooks e_a -| S_a that ``_hooks(S, p)`` gathers."""
    rows = slot_products(S, p)
    return _tracefree_shift(rows, hooks, S.shape[-2], p) if p else rows


def _rows(S, n):
    """The (..., size) components S repeated on n rows, (..., n, size)."""
    return S[..., None, :].repeat(n, axis=-2)


def pi1(T):
    """Sum of trace-free products (e_i . slot_i)_0, degree p+1."""
    n, p = T.dim, T.degree
    _require_tracefree(T.comps, n, p, "pi1")
    return _tensor(n, p + 1, slot_sum(_tracefree_products(T.comps, p, _hooks(T.comps, p))))


def pi1_star(S):
    """Adjoint embedding: slot i = e_i -| S."""
    n, p = S.dim, S.degree
    return _frame(n, p - 1, slot_hooks(_rows(S.comps, n), p))


def pi2(T):
    """Sum of contractions e_i -| slot_i, degree p-1."""
    return _tensor(T.dim, T.degree - 1, _pi2(slot_hooks(T.comps, T.degree)))


def _pi2(hooks):
    """``pi2``'s kernel: the sum of the slot hooks e_i -| slot_i."""
    return slot_sum(hooks)


def pi2_star(S):
    """Adjoint embedding: slot i = (e_i . S)_0."""
    _require_tracefree(S.comps, S.dim, S.degree, "pi2_star")
    return _pi2_star(S)


def _pi2_star(S):
    """``pi2_star`` of an S the caller has found trace-free."""
    return _frame(S.dim, S.degree + 1, _pi2_star_rows(S.comps, S.dim, S.degree))


def _pi2_star_rows(S, n, p):
    """The slots (e_a . S)_0 of ``_pi2_star`` from degree-p components S."""
    rows = _rows(S, n)
    return _tracefree_products(rows, p, _hooks(rows, p))


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
        pi2* run unguarded on what the two checks passed.  The slot hooks
        e_a -| T_a are gathered once, for the trace-free products of pi1
        and for pi2.
    """
    n, p = T.dim, T.degree
    _check_supported(n, p)
    P1, P2, P3, s1, s2 = _cartan_comps(T.comps, n, p, slot_hooks(T.comps, p), tol)
    return CartanParts(_frame(n, p, P1), _frame(n, p, P2), _frame(n, p, P3),
                       _tensor(n, p + 1, s1), _tensor(n, p - 1, s2))


def _cartan_comps(T, n, p, hooks, tol=DEFAULT_TRACE_TOL):
    """``cartan_decompose``'s kernel on the slots T (..., n, size) of a
    supported (n, p), given their hooks e_a -| T_a: the arrays P1, P2, P3
    and pi1, pi2, behind the guards of ``cartan_decompose``."""
    _require_tracefree(T, n, p, "cartan_decompose", tol)
    s1 = slot_sum(_tracefree_products(T, p, hooks))
    s2 = _pi2(hooks)
    _require_tracefree(s2, n, p - 1, "pi2_star", tol)
    # the slots of pi1*(s1) and pi2*(s2), scaled, and the remainder
    P1 = slot_hooks(_rows(s1, n), p + 1) * (1.0 / (p + 1))
    P2 = _pi2_star_rows(s2, n, p - 1) * (1.0 / pi2_constant(n, p))
    return P1, P2, T - P1 - P2, s1, s2


def conformal_weight(T):
    """Conformal weight operator B: slot i of B(T) = sum_j (e_i ^ e_j)* T_j.

    Agrees with p*P1 - (n+p-2)*P2 - P3 on trace-free-slotted tensors.
    Per point for slots with batch axes: the wedge's (i, j) axes sit
    after the batch axes and ``slot_sum`` adds over j along axis -2.
    """
    n, p = T.dim, T.degree
    _check_supported(n, p)
    return _frame(n, p, slot_sum(derivation(_wedge(n), T.comps[..., None, :, :], p)))


@lru_cache(maxsize=None)
def _wedge(n):
    """wedge[i, j] = e_j e_i^T - e_i e_j^T, the matrix of (e_i ^ e_j)*;
    read-only, built once per n."""
    E = np.eye(n)
    wedge = E[None, :, :, None] * E[:, None, None, :]
    wedge = wedge - wedge.transpose(1, 0, 2, 3)
    wedge.setflags(write=False)
    return wedge


def random_frame_tensor(n, p, rng):
    """Random frame tensor with trace-free slots.

    One ``(n, size)`` normal draw, which consumes the rng stream as n
    single-slot draws do, and one batched trace-free projection.
    """
    K = SymTensor(n, p, rng.standard_normal((n, sym_size(n, p))))
    return _frame(n, p, tracefree_part(K).comps)
