"""Decomposition of T (x) Sym^p_0 into its three irreducible summands.

A :class:`FrameTensor` holds n slots of degree-p symmetric tensors, slot i
being the part paired with frame vector e_i (the shape of a covariant
derivative of a symmetric tensor field).  For trace-free slots it splits
orthogonally into a degree-(p+1) trace-free piece, a degree-(p-1) piece
and a remainder; the projections P1, P2, P3 and the conformal weight
operator B live here.  Like a SymTensor's components, its float slots may
carry leading batch axes, one frame tensor per point of a batch; the
norms, the slot gathers and the projections act per point.
"""

from collections import namedtuple

import numpy as np

from .errors import DegenerateRankError, DegreeError, ShapeMismatchError, TraceError
from .multiindex import contract_array, product_arrays, sym_size
from .symtensor import (
    DEFAULT_TRACE_TOL,
    SymTensor,
    _root_of_square,
    derivation,
    inner,
    mult_L,
    random_tracefree_tensor,
    trace_residual,
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
    "cartan_decompose",
    "conformal_weight",
    "pi2_constant",
    "supported_pair",
    "random_frame_tensor",
]


class FrameTensor:
    """n slots of SymTensor, all sharing (dim, degree)."""

    __slots__ = ("dim", "degree", "slots")

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
        self.slots = slots

    @classmethod
    def zero(cls, dim, degree):
        return cls([SymTensor.zero(dim, degree) for _ in range(dim)])

    def __add__(self, other):
        return FrameTensor([a + b for a, b in zip(self.slots, other.slots)])

    def __sub__(self, other):
        return FrameTensor([a - b for a, b in zip(self.slots, other.slots)])

    def __neg__(self):
        return FrameTensor([-a for a in self.slots])

    def scale(self, c):
        return FrameTensor([s.scale(c) for s in self.slots])

    __mul__ = scale
    __rmul__ = scale

    def __repr__(self):
        return f"FrameTensor(dim={self.dim}, degree={self.degree})"

    @classmethod
    def from_stacked(cls, dim, degree, S):
        """Frame tensor of the rows of S (..., n, size): slot a = S[..., a, :]."""
        return cls([SymTensor(dim, degree, S[..., a, :]) for a in range(S.shape[-2])])

    def stacked(self):
        """Slot components as one (..., n, size) array, row a = slot a."""
        return np.stack([s.comps for s in self.slots], axis=-2)


def frame_inner(A, B):
    """Slot-wise sum of scalar products (the induced metric on T (x) Sym^p)."""
    return sum(inner(a, b) for a, b in zip(A.slots, B.slots))


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


def _require_tracefree(tensors, what, tol=DEFAULT_TRACE_TOL):
    for K in tensors:
        r = trace_residual(K)  # per point for a batch
        if (r > tol).any() if np.ndim(r) else r > tol:
            raise TraceError(f"{what} needs trace-free input")


def slot_products(S, p):
    """Rows e_a . S_a of packed degree-p slots S (..., n, size), bit for bit
    ``sym_product(e_a, S_a)``: one table entry per (a, I) pair."""
    n = S.shape[-2]
    out_pos, pos_a, pos_b, count = product_arrays(n, 1, p)
    w = count * S[..., pos_a, pos_b]
    out = np.zeros(S.shape[:-1] + (sym_size(n, p + 1),), dtype=w.dtype)
    out[..., pos_a, out_pos] = w
    return out


def slot_hooks(S, p):
    """Rows e_a -| S_a of packed degree-p slots S (..., n, size), bit for bit
    ``contract(e_a, S_a)``."""
    if p < 1:
        raise DegreeError("cannot contract a degree-0 tensor")
    n = S.shape[-2]
    return S[..., np.arange(n)[:, None], contract_array(n, p).T]


def _tracefree_products(S, p):
    """Rows (e_a . S_a)_0 = e_a . S_a - L(e_a -| S_a) / (n + 2p - 2) for
    trace-free S_a, as ``tracefree_sym_product`` computes them."""
    n = S.shape[-2]
    rows = slot_products(S, p)
    if p == 0:
        return rows
    c = 1.0 / (n + 2 * (p - 1))
    return rows - mult_L(SymTensor(n, p - 1, slot_hooks(S, p))).scale(c).comps


def _rows(S, n):
    """The (..., size) components S repeated on n rows, (..., n, size)."""
    return np.broadcast_to(S[..., None, :], S.shape[:-1] + (n, S.shape[-1]))


def pi1(T):
    """Sum of trace-free products (e_i . slot_i)_0, degree p+1."""
    _require_tracefree(T.slots, "pi1")
    return SymTensor(T.dim, T.degree + 1, _tracefree_products(T.stacked(), T.degree).sum(-2))


def pi1_star(S):
    """Adjoint embedding: slot i = e_i -| S."""
    n, p = S.dim, S.degree
    return FrameTensor.from_stacked(n, p - 1, slot_hooks(_rows(S.comps, n), p))


def pi2(T):
    """Sum of contractions e_i -| slot_i, degree p-1."""
    return SymTensor(T.dim, T.degree - 1, slot_hooks(T.stacked(), T.degree).sum(-2))


def pi2_star(S):
    """Adjoint embedding: slot i = (e_i . S)_0."""
    _require_tracefree([S], "pi2_star")
    n, p = S.dim, S.degree
    return FrameTensor.from_stacked(n, p + 1, _tracefree_products(_rows(S.comps, n), p))


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
        If some slot is not trace-free within ``tol``.
    """
    n, p = T.dim, T.degree
    _check_supported(n, p)
    _require_tracefree(T.slots, "cartan_decompose", tol)
    s1 = pi1(T)
    s2 = pi2(T)
    P1 = pi1_star(s1).scale(1.0 / (p + 1))
    P2 = pi2_star(s2).scale(1.0 / pi2_constant(n, p))
    P3 = T - P1 - P2
    return CartanParts(P1, P2, P3, s1, s2)


def conformal_weight(T):
    """Conformal weight operator B: slot i of B(T) = sum_j (e_i ^ e_j)* T_j.

    Agrees with p*P1 - (n+p-2)*P2 - P3 on trace-free-slotted tensors.
    """
    n, p = T.dim, T.degree
    _check_supported(n, p)
    E = np.eye(n)
    # wedge[i, j] = e_j e_i^T - e_i e_j^T, the matrix of (e_i ^ e_j)*
    wedge = E[None, :, :, None] * E[:, None, None, :]
    wedge = wedge - wedge.transpose(1, 0, 2, 3)
    slots = derivation(wedge, T.stacked(), p).sum(1)
    return FrameTensor([SymTensor(n, p, s) for s in slots])


def random_frame_tensor(n, p, rng):
    """Random frame tensor with trace-free slots."""
    return FrameTensor([random_tracefree_tensor(n, p, rng) for _ in range(n)])
