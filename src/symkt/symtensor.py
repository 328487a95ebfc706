"""Dense symmetric tensor algebra over R^n.

Conventions (see docs/conventions.md):

* Elements of degree p are fully symmetric arrays stored by non-decreasing
  multi-index; the symmetrized product of vectors carries no 1/p! factor,
  so ``v * u`` (degree 1 times degree 1) has off-diagonal entries
  ``v_i u_j + v_j u_i`` and the metric element ``g`` has components
  ``delta_ij``.
* The scalar product divides the full-array dot product by p!, which makes
  ``inner(v1*...*vp, w1*...*wp)`` the permanent-style permutation sum of
  the Gram matrix and makes multiplication by a vector adjoint to
  contraction.

Components may be plain floats, :class:`~symkt.dual.Dual` or
:class:`~symkt.dual.Jet` scalars; every operation is written so any works.
Float components may also carry leading batch axes, ``(..., size)``: one
tensor per point of a batch.  ``sym_product``, ``contract``,
``trace_Lambda``, ``mult_L``, ``standard_decomposition``, ``change_basis``
and ``poly_eval`` act on each point alike, broadcasting the batch axes of
their arguments.
"""

from dataclasses import dataclass
from math import factorial, sqrt

import numpy as np

from .dual import DERIVATIVE_TYPES, value_of
from .errors import DegenerateRankError, DegreeError, ShapeMismatchError, TraceError
from .multiindex import (
    contract_array,
    dense_array,
    index_array,
    index_position,
    multi_indices,
    multiplicities,
    prefix_arrays,
    product_arrays,
    replace_array,
    sym_size,
    trace_array,
)

__all__ = [
    "SymTensor",
    "Decomposition",
    "sym_product",
    "sym_power",
    "contract",
    "inner",
    "norm",
    "mult_L",
    "trace_Lambda",
    "poly_eval",
    "derivation",
    "lambda2_act",
    "tracefree_sym_product",
    "standard_decomposition",
    "tracefree_part",
    "trace_residual",
    "constant_a",
    "change_basis",
    "random_sym_tensor",
    "random_tracefree_tensor",
]

DEFAULT_TRACE_TOL = 1e-9

# True when a set of component types holds no Dual or Jet type (each jet
# length has its own Jet subclass).
_plain_kinds = DERIVATIVE_TYPES.isdisjoint


def _as_comps(values, size):
    """A fresh ``(..., size)`` component array.

    An ndarray is read as ``(..., size)``.  Any other sequence holds the
    ``size`` entries a field's ``comps_fn`` returns: scalars, Duals, Jets,
    or arrays over batch axes, broadcast together and stacked on the last
    axis.
    """
    if isinstance(values, np.ndarray):
        arr = values.copy() if values.dtype == object else values.astype(float)
    else:
        vals = list(values)
        kinds = set(map(type, vals))
        if not _plain_kinds(kinds):
            arr = np.empty(len(vals), dtype=object)
            arr[:] = vals
        elif np.ndarray in kinds:
            arr = np.stack(np.broadcast_arrays(*vals), axis=-1, dtype=float)
        else:
            arr = np.asarray(vals, dtype=float)
    if arr.shape[-1:] != (size,):
        raise ShapeMismatchError(f"expected {size} components, got {arr.shape}")
    return arr


def _take(comps, idx):
    """``comps[..., idx]``, a gather on the component axis.

    Without batch axes this is plain indexing, which numpy runs several
    times faster than the same index after an Ellipsis.
    """
    return comps[idx] if comps.ndim == 1 else comps[..., idx]


def _tensor(dim, degree, comps):
    """SymTensor around a kernel's freshly computed ``(..., size)`` output.

    Skips the defensive copy of the constructor: nothing else holds
    ``comps``.
    """
    out = SymTensor.__new__(SymTensor)
    out.dim, out.degree, out.comps = dim, degree, comps
    if comps.dtype != object:
        comps.flags.writeable = False
    return out


class SymTensor:
    """Symmetric p-tensor over R^n with packed dense storage.

    Parameters
    ----------
    dim : int
        Dimension n >= 1 of the underlying space.
    degree : int
        Tensor degree p >= 0.
    comps : sequence or ndarray
        One value per non-decreasing multi-index, in lexicographic order
        (length C(n+p-1, p)).  Degree 0 stores a single scalar.  A
        ``(..., size)`` array or a sequence of batch arrays gives a tensor
        per point of a batch.
    """

    __slots__ = ("dim", "degree", "comps")

    def __init__(self, dim, degree, comps):
        if dim < 1 or degree < 0:
            raise ShapeMismatchError("need dim >= 1 and degree >= 0")
        self.dim = int(dim)
        self.degree = int(degree)
        self.comps = _as_comps(comps, sym_size(dim, degree))
        if self.comps.dtype != object:
            self.comps.flags.writeable = False

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, dim, degree):
        return cls(dim, degree, np.zeros(sym_size(dim, degree)))

    @classmethod
    def scalar(cls, dim, value):
        return cls(dim, 0, [value])

    @classmethod
    def basis_vector(cls, dim, i):
        comps = np.zeros(dim)
        comps[i] = 1.0
        return cls(dim, 1, comps)

    @classmethod
    def from_vector(cls, v):
        v = list(v)
        return cls(len(v), 1, v)

    @classmethod
    def metric(cls, dim):
        """The metric as a degree-2 element: components delta_ij."""
        comps = [1.0 if a == b else 0.0 for a, b in multi_indices(dim, 2)]
        return cls(dim, 2, comps)

    # -- basics ----------------------------------------------------------

    def __repr__(self):
        return f"SymTensor(dim={self.dim}, degree={self.degree})"

    def __getitem__(self, idx):
        """Entry for an arbitrary index tuple (looked up via its sort)."""
        if isinstance(idx, int):
            idx = (idx,)
        key = tuple(sorted(idx))
        return self.comps[..., index_position(self.dim, self.degree)[key]]

    def _check_same_shape(self, other):
        if self.dim != other.dim or self.degree != other.degree:
            raise ShapeMismatchError(
                f"shape ({self.dim},{self.degree}) vs ({other.dim},{other.degree})"
            )

    def __add__(self, other):
        self._check_same_shape(other)
        return _tensor(self.dim, self.degree, self.comps + other.comps)

    def __sub__(self, other):
        self._check_same_shape(other)
        return _tensor(self.dim, self.degree, self.comps - other.comps)

    def __neg__(self):
        return _tensor(self.dim, self.degree, -self.comps)

    def scale(self, c):
        """Multiply by a scalar; a ``(..., 1)`` array scales per batch point."""
        return _tensor(self.dim, self.degree, self.comps * c)

    __mul__ = scale
    __rmul__ = scale

    def values(self):
        """Components with dual layers stripped (floats)."""
        if self.comps.dtype != object:
            return np.array(self.comps)
        return np.array([value_of(v) for v in self.comps.ravel()]).reshape(self.comps.shape)

    def entries(self):
        """The components as a list of ``size`` entries, each a scalar or
        an array over the batch axes: the form a field's ``comps_fn``
        returns."""
        return list(self.comps.transpose(-1, *range(self.comps.ndim - 1)))

    def to_dense(self):
        """Full dense array, batch axes first: one gather over
        ``dense_array``.  Degree 0 gives the scalar (per point, an array)."""
        return _take(self.values(), dense_array(self.dim, self.degree))


def sym_product(A, B):
    """Commutative product of the graded algebra of symmetric tensors.

    ``(A*B)_I`` sums A- and B-entries over the C(p+q, p) position shuffles
    of the output index I.  Degree-0 factors act by scaling.  The terms are
    gathered with the compiled ``product_arrays`` and accumulated from zero
    in table order, for float and Dual components alike.
    """
    if A.dim != B.dim:
        raise ShapeMismatchError("dimension mismatch in sym_product")
    if A.degree == 0:
        return B.scale(A.comps[..., :1])
    if B.degree == 0:
        return A.scale(B.comps[..., :1])
    out_pos, pos_a, pos_b, count = product_arrays(A.dim, A.degree, B.degree)
    w = count * _take(A.comps, pos_a) * _take(B.comps, pos_b)
    out = np.zeros(w.shape[:-1] + (sym_size(A.dim, A.degree + B.degree),), dtype=w.dtype)
    np.add.at(out, (..., out_pos), w)
    return _tensor(A.dim, A.degree + B.degree, out)


def sym_power(v, p):
    """p-fold symmetric power of a degree-1 tensor."""
    out = SymTensor.scalar(v.dim, 1.0)
    for _ in range(p):
        out = sym_product(out, v)
    return out


def contract(v, K):
    """Contraction ``v -| K``: (v -| K)_I = sum_j v_j K_{jI}.

    ``v`` may be a degree-1 SymTensor or a plain coefficient sequence.
    """
    if K.degree < 1:
        raise DegreeError("cannot contract a degree-0 tensor")
    vc = np.asarray(v.comps if isinstance(v, SymTensor) else v)
    table = contract_array(K.dim, K.degree)
    k = K.comps
    out = 0
    for j in range(K.dim):
        out = out + vc[..., j, None] * _take(k, table[:, j])
    return _tensor(K.dim, K.degree - 1, out)


def inner(A, B):
    """Scalar product: (1/p!) times the dot product over all p-tuples.

    Per point for float components with batch axes: a stack of the same
    dot products, bit for bit.
    """
    A._check_same_shape(B)
    mult = multiplicities(A.dim, A.degree)
    if A.comps.ndim == 1 and B.comps.ndim == 1:
        return np.dot(A.comps * mult, B.comps) / factorial(A.degree)
    # contiguous rows: numpy's matmul then takes the dot kernel of np.dot
    a, b = (np.ascontiguousarray(X.comps) for X in (A, B))
    return ((a * mult)[..., None, :] @ b[..., :, None])[..., 0, 0] / factorial(A.degree)


def norm(A):
    """|A|, a float; per point, an array, for components with batch axes."""
    return _root_of_square(inner(A, A))


def _root_of_square(v):
    """sqrt(max(v, 0)) of a squared norm v (NaN stays NaN): a float, with
    dual layers stripped, or per point for an array of them."""
    if isinstance(v, np.ndarray) and v.ndim:
        if v.dtype == object:  # duals at a point, one per slot of a stack
            v = np.array([value_of(e) for e in v.ravel()]).reshape(v.shape)
        return np.sqrt(np.maximum(v, 0.0))
    return sqrt(max(value_of(v), 0.0))


def mult_L(K):
    """Multiplication by the metric: L(K) = sum_i e_i . e_i . K."""
    return sym_product(_l_element(K.dim), K)


_L_CACHE = {}


def _l_element(n):
    if n not in _L_CACHE:
        _L_CACHE[n] = SymTensor.metric(n).scale(2.0)
    return _L_CACHE[n]


def trace_Lambda(K):
    """Metric trace: Lambda(K) = sum_i e_i -| e_i -| K (needs p >= 2)."""
    if K.degree < 2:
        raise DegreeError("Lambda needs degree >= 2")
    table = trace_array(K.dim, K.degree)
    k = K.comps
    out = 0
    for j in range(K.dim):
        out = out + _take(k, table[:, j])
    return _tensor(K.dim, K.degree - 2, out)


def poly_eval(K, X):
    """Value of K as the degree-p polynomial K(X) = inner(K, X^p).

    Per batch point for ``(..., size)`` components and ``(..., n)`` X; the
    terms K_I mult_I X_{i_1} ... X_{i_p} are summed in storage order.
    """
    if K.degree == 0:
        return K.comps[..., 0] * 1.0
    xc = np.asarray(X.comps if isinstance(X, SymTensor) else X)
    terms = K.comps * multiplicities(K.dim, K.degree)
    for i in index_array(K.dim, K.degree).T:
        terms = terms * _take(xc, i)
    total = 0.0
    for k in range(terms.shape[-1]):
        total = total + terms[..., k]
    return total


def derivation(A, comps, p):
    """Derivation action of n x n matrices on packed degree-p components.

    ``(A_* K)_I = sum_m sum_d A[..., I_m, d] K_{I with I_m -> d}``: the
    extension to Sym^p of the endomorphism with matrix ``A`` (row: image
    index, column: argument index, transposed).  ``A`` has shape
    ``(..., n, n)`` and ``comps`` shape ``(..., size)``; leading axes
    broadcast and the result has shape ``(..., size)``.  One gather over
    ``index_array`` and ``replace_array`` serves float and Dual components.
    """
    A = np.asarray(A)
    n = A.shape[-1]
    return np.einsum("...kmd,...kmd->...k", A[..., index_array(n, p), :],
                     np.asarray(comps)[..., replace_array(n, p)])


def lambda2_act(X, Y, K):
    """Action of the 2-form X ^ Y on K: Y.(X -| K) - X.(Y -| K).

    This is the derivation extension of (X ^ Y)* Z = g(X,Z)Y - g(Y,Z)X,
    i.e. ``derivation`` of the matrix Y X^T - X Y^T; degree-0 tensors are
    annihilated.
    """
    X = np.asarray(X.comps if isinstance(X, SymTensor) else X)
    Y = np.asarray(Y.comps if isinstance(Y, SymTensor) else Y)
    A = np.outer(Y, X) - np.outer(X, Y)
    return SymTensor(K.dim, K.degree, derivation(A, K.comps, K.degree))


def trace_residual(K):
    """Relative trace residual |Lambda(K)| / max(1, |K|); 0 for p < 2."""
    if K.degree < 2:
        return 0.0
    s = norm(K)
    return norm(trace_Lambda(K)) / (np.maximum(1.0, s) if np.ndim(s) else max(1.0, s))


def _require_tracefree(K, what, tol=DEFAULT_TRACE_TOL):
    """Raise TraceError unless K is trace-free within ``tol`` at every point
    of its batch axes (a NaN residual does not raise)."""
    if (np.asarray(trace_residual(K)) > tol).any():
        raise TraceError(f"{what} needs trace-free input")


def tracefree_sym_product(v, K, tol=DEFAULT_TRACE_TOL):
    """Trace-free part of v . K for trace-free K.

    Implements the projection v.K - L(v -| K)/(n + 2(p-1)); the input must
    be trace-free for the formula to be the actual projection.  Per point
    for components with batch axes.
    """
    if not isinstance(v, SymTensor):
        v = SymTensor.from_vector(v)
    _require_tracefree(K, "tracefree_sym_product", tol)
    p = K.degree
    if p == 0:
        return sym_product(v, K)
    vK = sym_product(v, K)
    return vK - mult_L(contract(v, K)).scale(1.0 / (K.dim + 2 * (p - 1)))


@dataclass(frozen=True)
class Decomposition:
    """Standard decomposition K = sum_i L^i K_i with trace-free parts.

    ``parts[i]`` has degree p - 2i; the final part has degree 0 or 1.
    """

    dim: int
    degree: int
    parts: tuple

    def reconstruct(self):
        out = SymTensor.zero(self.dim, self.degree)
        for i, part in enumerate(self.parts):
            term = part
            for _ in range(i):
                term = mult_L(term)
            out = out + term
        return out


def _lambda_L_coeff(i, q, n):
    # Lambda(L^i S) = 2 i (n + 2q + 2i - 2) L^(i-1) S for trace-free S of degree q
    return 2.0 * i * (n + 2 * q + 2 * i - 2)


def standard_decomposition(K):
    """Split K into trace-free parts embedded by powers of L.

    Deflation: repeated traces Lambda^j K give a triangular system in the
    parts, solved top-down with the closed-form coefficients of
    Lambda(L^i S); exact up to rounding, O(total size).
    """
    n, p = K.dim, K.degree
    r = p // 2
    traces = [K]
    for _ in range(r):
        traces.append(trace_Lambda(traces[-1]))
    parts = [None] * (r + 1)
    for j in range(r, -1, -1):
        residue = traces[j]
        for i in range(j + 1, r + 1):
            qi = p - 2 * i
            coeff = 1.0
            for m in range(i - j + 1, i + 1):
                coeff *= _lambda_L_coeff(m, qi, n)
            term = parts[i]
            for _ in range(i - j):
                term = mult_L(term)
            residue = residue - term.scale(coeff)
        qj = p - 2 * j
        denom = 1.0
        for m in range(1, j + 1):
            denom *= _lambda_L_coeff(m, qj, n)
        parts[j] = residue.scale(1.0 / denom)
    return Decomposition(n, p, tuple(parts))


def tracefree_part(K):
    """Projection onto the trace-free summand (degree unchanged)."""
    if K.degree < 2:
        return K
    return standard_decomposition(K).parts[0]


def constant_a(n, p, i):
    """Constant a_i = -1/(n + 2(p - 2i - 1)) from the trace-free shift.

    ``d K_i - a_i L delta K_i`` is trace-free when K_i sits in degree
    p - 2i of the standard decomposition of a degree-p tensor.
    """
    den = n + 2 * (p - 2 * i - 1)
    if den == 0:
        raise DegenerateRankError(f"a_i denominator vanishes for (n,p,i)=({n},{p},{i})")
    return -1.0 / den


def change_basis(K, M):
    """Pull packed components through a linear map of the index space.

    ``M`` is an ``(..., m, n)`` array (rows: old index range, columns:
    new); returns the degree-p tensor with K'(f_{a_1},...,f_{a_p}) =
    sum K_{A_1...A_p} M[A_1,a_1] ... M[A_p,a_p].  Applied one slot at a
    time; the result is symmetric because the input is.  After q slots the
    state has one row per new degree-q multi-index and one column per old
    degree-(p - q) position; row I takes the row of its prefix I[:-1] and
    contracts one old slot against column I[-1] of M, summing over the old
    index A in order.
    """
    M = np.asarray(M)
    m, n_new = M.shape[-2:]
    p = K.degree
    if sym_size(m, p) != K.comps.shape[-1]:
        raise ShapeMismatchError("matrix rows do not match tensor dimension")
    if p == 0:
        lead = np.broadcast_shapes(K.comps.shape[:-1], M.shape[:-2])
        return SymTensor(n_new, 0, np.broadcast_to(K.comps, lead + (1,)))
    state = K.comps[..., None, :]
    for q in range(1, p + 1):
        prefix, last = prefix_arrays(n_new, q)
        table = contract_array(m, p - q + 1)
        src = state.take(prefix, axis=-2)
        cols = M.take(last, axis=-1)
        state = 0
        for A in range(m):
            state = state + cols[..., A, :, None] * src.take(table[:, A], axis=-1)
    return _tensor(n_new, p, state[..., 0])


def random_sym_tensor(n, p, rng):
    return SymTensor(n, p, rng.standard_normal(sym_size(n, p)))


def random_tracefree_tensor(n, p, rng):
    return tracefree_part(random_sym_tensor(n, p, rng))
