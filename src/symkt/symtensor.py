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
Duals of one float seeding are held as one :class:`~symkt.dual.DualArray`,
Jets and nested Duals as an object array.
Float components may also carry leading batch axes, ``(..., size)``: one
tensor per point of a batch.  ``sym_product``, ``contract``,
``trace_Lambda``, ``mult_L``, ``standard_decomposition``, ``change_basis``
and ``poly_eval`` act on each point alike, broadcasting the batch axes of
their arguments.

Kernel rule: each kernel is one gather over a compiled ``multiindex``
table (``ndarray.take`` on the component axis, several times faster than
indexing after an Ellipsis) and one ordered sum or scatter, with no
Python loop of gathers.
Sums run in table order from +0.0 (``_ordered_sum``), so every result,
signed zeros included, has the bits of the per-component loop over the
tuple tables.  The product's scatter is ``bincount`` on floats and
``np.add.at`` on Dual and Jet components, which ``bincount`` cannot sum;
both add each output's terms in table order from zero.  A batch row gets
the bits of the same kernel on that row alone.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, prod, sqrt

import numpy as np

from .dual import DERIVATIVE_TYPES, DualArray, asarray, dual_array, value_of
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

    An ndarray or DualArray is read as ``(..., size)``.  Any other
    sequence holds the ``size`` entries a field's ``comps_fn`` returns:
    scalars, Duals, Jets, or arrays over batch axes, broadcast together
    and stacked on the last axis.  Duals of one float seeding (with
    constants) give a :class:`~symkt.dual.DualArray`; Jets and nested
    Duals an object array.
    """
    if isinstance(values, DualArray):
        arr = values.copy()
    elif isinstance(values, np.ndarray):
        arr = values.copy() if values.dtype == object else values.astype(float)
    else:
        vals = list(values)
        kinds = set(map(type, vals))
        if not _plain_kinds(kinds):
            arr = dual_array(vals)
            if arr is None:  # Jets or nested Duals
                arr = np.empty(len(vals), dtype=object)
                arr[:] = vals
        elif np.ndarray in kinds:
            arr = np.stack(np.broadcast_arrays(*vals), axis=-1, dtype=float)
        else:
            arr = np.asarray(vals, dtype=float)
    if arr.shape[-1:] != (size,):
        raise ShapeMismatchError(f"expected {size} components, got {arr.shape}")
    return arr


def _ordered_sum(terms):
    """Sum over the last axis in table order from +0.0: bit for bit the
    loop ``out = 0.0; for t in terms: out = out + t``, on floats, Duals
    and Jets alike.

    ``add.accumulate`` adds strictly in order, from the first term.  That
    start changes one result only, an all -0.0 sum, which the closing
    ``+ 0.0`` turns into the +0.0 the loop gives.  (Where two NaNs of
    opposite sign meet, either sign may come out, as from numpy's own
    elementwise add, which picks by position in its vector loop.)
    """
    if isinstance(terms, DualArray):
        return terms.sum(axis=-1) + 0.0
    return np.add.accumulate(terms, axis=-1)[..., -1] + 0.0


def _scatter_add(w, pos, size):
    """``out[..., pos[i]] += w[..., i]`` from zeros, in the order of i.

    Floats take one ``bincount``, which adds each bin's weights in input
    order from 0.0, as ``np.add.at`` on zeros does; over batch axes it
    scatters the flattened rows to the bins ``pos + size * row``.  Dual and
    Jet components, which ``bincount`` cannot sum, take ``np.add.at``, as
    does an empty batch, whose ``bincount`` would come back as ints.
    """
    if isinstance(w, DualArray):
        return w.scatter(pos, size)
    lead = w.shape[:-1]
    if w.dtype == object or not w.size:
        out = np.zeros(lead + (size,), dtype=w.dtype)
        np.add.at(out, (..., pos), w)
        return out
    if not lead:
        return np.bincount(pos, w, minlength=size)
    rows = prod(lead)
    bins = (pos + size * np.arange(rows)[:, None]).ravel()
    return np.bincount(bins, w.ravel(), minlength=size * rows).reshape(lead + (size,))


def _tensor(dim, degree, comps):
    """SymTensor around a kernel's freshly computed ``(..., size)`` output.

    Skips the defensive copy of the constructor: nothing else holds
    ``comps``.
    """
    out = SymTensor.__new__(SymTensor)
    out.dim, out.degree, out.comps = dim, degree, comps
    if comps.dtype != object:
        comps.setflags(write=False)
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
            self.comps.setflags(write=False)

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
        if isinstance(self.comps, DualArray):
            return self.comps.val.copy()
        if self.comps.dtype != object:
            return np.array(self.comps)
        return np.array([value_of(v) for v in self.comps.ravel()]).reshape(self.comps.shape)

    def entries(self):
        """The components as a sequence of ``size`` entries, each a scalar
        or an array over the batch axes: the form a field's ``comps_fn``
        returns.  A list, or for DualArray components the DualArray with
        the component axis first, whose entries are the same Duals."""
        entries = self.comps.transpose(-1, *range(self.comps.ndim - 1))
        return entries if isinstance(entries, DualArray) else list(entries)

    def to_dense(self):
        """Full dense array, batch axes first: one gather over
        ``dense_array``.  Degree 0 gives the scalar (per point, an array)."""
        return self.values().take(dense_array(self.dim, self.degree), axis=-1)


def sym_product(A, B):
    """Commutative product of the graded algebra of symmetric tensors.

    ``(A*B)_I`` sums A- and B-entries over the C(p+q, p) position shuffles
    of the output index I.  Degree-0 factors act by scaling.  The terms are
    one gather with the compiled ``product_arrays``, and ``_scatter_add``
    accumulates them from zero in table order: ``bincount`` on floats,
    ``np.add.at`` on Dual and Jet components.
    """
    if A.dim != B.dim:
        raise ShapeMismatchError("dimension mismatch in sym_product")
    if A.degree == 0:
        return B.scale(A.comps[..., :1])
    if B.degree == 0:
        return A.scale(B.comps[..., :1])
    p = A.degree + B.degree
    out_pos, pos_a, pos_b, count = product_arrays(A.dim, A.degree, B.degree)
    w = count * A.comps.take(pos_a, axis=-1) * B.comps.take(pos_b, axis=-1)
    return _tensor(A.dim, p, _scatter_add(w, out_pos, sym_size(A.dim, p)))


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
    vc = asarray(v.comps if isinstance(v, SymTensor) else v)
    terms = vc[..., None, :] * K.comps.take(contract_array(K.dim, K.degree), axis=-1)
    return _tensor(K.dim, K.degree - 1, _ordered_sum(terms))


def inner(A, B):
    """Scalar product: (1/p!) times the dot product over all p-tuples.

    Per point for float components with batch axes: row i of a stack is
    bit for bit the call on row i alone, and equal by value to the
    one-point dot product, but the sign of a zero or a NaN may differ
    (``test_stacked_norms_keep_each_rows_bytes``).  One point keeps the
    1-D ``.dot``: at n = 4, p = 3 it takes about 0.85 us against 2.8 us
    for the matmul path (timeit, best of 7 x 50000, one Xeon core), and
    the identity suite takes many one-point norms.
    """
    A._check_same_shape(B)
    mult = multiplicities(A.dim, A.degree)
    if A.comps.ndim == 1 and B.comps.ndim == 1:
        return (A.comps * mult).dot(B.comps) / factorial(A.degree)
    # contiguous rows: numpy's matmul then takes the dot kernel of np.dot
    a, b = (np.ascontiguousarray(X.comps) for X in (A, B))
    return ((a * mult)[..., None, :] @ b[..., :, None])[..., 0, 0] / factorial(A.degree)


def norm(A):
    """|A|, a float; per point, an array, for components with batch axes."""
    return _root_of_square(inner(A, A))


def _root_of_square(v):
    """sqrt(max(v, 0)) of a squared norm v (NaN stays NaN): a float, with
    dual layers stripped, or per point for an array of them."""
    if isinstance(v, float):  # a Python or numpy float: no layers to strip
        return sqrt(max(v, 0.0))
    if isinstance(v, np.ndarray) and v.ndim:
        if v.dtype == object:  # duals at a point, one per slot of a stack
            v = np.array([value_of(e) for e in v.ravel()]).reshape(v.shape)
        return np.sqrt(np.maximum(v, 0.0))
    return sqrt(max(value_of(v), 0.0))


def mult_L(K):
    """Multiplication by the metric: L(K) = sum_i e_i . e_i . K."""
    return sym_product(_l_element(K.dim), K)


@lru_cache(maxsize=None)
def _l_element(n):
    return SymTensor.metric(n).scale(2.0)


def trace_Lambda(K):
    """Metric trace: Lambda(K) = sum_i e_i -| e_i -| K (needs p >= 2)."""
    if K.degree < 2:
        raise DegreeError("Lambda needs degree >= 2")
    terms = K.comps.take(trace_array(K.dim, K.degree), axis=-1)
    return _tensor(K.dim, K.degree - 2, _ordered_sum(terms))


def poly_eval(K, X):
    """Value of K as the degree-p polynomial K(X) = inner(K, X^p).

    Per batch point for ``(..., size)`` components and ``(..., n)`` X; the
    factors X_{i_m} are one gather, and the terms K_I mult_I X_{i_1} ...
    X_{i_p} are summed in storage order from +0.0.
    """
    if K.degree == 0:
        return K.comps[..., 0] * 1.0
    xc = np.asarray(X.comps if isinstance(X, SymTensor) else X)
    terms = K.comps * multiplicities(K.dim, K.degree)
    factors = xc.take(index_array(K.dim, K.degree), axis=-1)
    for i in range(K.degree):
        terms = terms * factors[..., i]
    return _ordered_sum(terms)


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
    return _relative(norm(trace_Lambda(K)), K)


def _relative(t, K):
    """t / max(1, |K|), per point for components with batch axes."""
    s = norm(K)
    return t / (np.maximum(1.0, s) if np.ndim(s) else max(1.0, s))


def _require_tracefree(K, what, tol=DEFAULT_TRACE_TOL):
    """Raise TraceError unless K is trace-free within ``tol`` at every point
    of its batch axes, that is unless every ``trace_residual`` is <= tol
    (a NaN residual does not raise).

    The trace comes first: when every t = |Lambda(K)| is <= tol, so is
    t / max(1, |K|), as a rounded division by a number >= 1 never rises
    above t.  Only when some t is above tol, NaN or inf is |K| computed,
    and the full relative test gives the verdict.
    """
    if K.degree < 2:
        return
    t = norm(trace_Lambda(K))
    if (t <= tol) if isinstance(t, float) else (t <= tol).all():
        return
    if (np.asarray(_relative(t, K)) > tol).any():
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


@lru_cache(maxsize=None)
def _deflation(n, p):
    """The steps of ``standard_decomposition`` for degree p over R^n.

    Step j (from p // 2 down to 0) has ``coeffs[i]``, the factor of
    L^(i-j) K_i in Lambda^j K for i > j, and ``inv``, the reciprocal of
    the factor of K_j: products of ``_lambda_L_coeff`` in ascending m.
    """
    r = p // 2
    steps = []
    for j in range(r, -1, -1):
        coeffs = {}
        for i in range(j + 1, r + 1):
            coeff = 1.0
            for m in range(i - j + 1, i + 1):
                coeff *= _lambda_L_coeff(m, p - 2 * i, n)
            coeffs[i] = coeff
        denom = 1.0
        for m in range(1, j + 1):
            denom *= _lambda_L_coeff(m, p - 2 * j, n)
        steps.append((j, coeffs, 1.0 / denom))
    return tuple(steps)


def standard_decomposition(K):
    """Split K into trace-free parts embedded by powers of L.

    Deflation: repeated traces Lambda^j K give a triangular system in the
    parts, solved top-down with the closed-form coefficients of
    Lambda(L^i S); exact up to rounding, O(total size).  ``lifted[i]``
    holds L^(i-j) K_i at step j, one ``mult_L`` further each step.
    """
    n, p = K.dim, K.degree
    traces = [K]
    for _ in range(p // 2):
        traces.append(trace_Lambda(traces[-1]))
    parts, lifted = [], {}
    for j, coeffs, inv in _deflation(n, p):
        residue = traces[j]
        for i, coeff in coeffs.items():
            lifted[i] = mult_L(lifted[i])
            residue = residue - lifted[i].scale(coeff)
        parts.append(residue.scale(inv))
        lifted[j] = parts[-1]
    return Decomposition(n, p, tuple(reversed(parts)))


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
    index A in order from +0.0: one gather and one ordered sum per slot.
    """
    M = asarray(M)
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
        # terms[..., I, J, A] = M[..., A, I[-1]] * state[..., I[:-1], table[J, A]]
        cols = np.swapaxes(M.take(last, axis=-1), -1, -2)[..., :, None, :]
        terms = cols * state.take(prefix, axis=-2).take(table, axis=-1)
        state = _ordered_sum(terms)
    return _tensor(n_new, p, state[..., 0])


def random_sym_tensor(n, p, rng):
    return SymTensor(n, p, rng.standard_normal(sym_size(n, p)))


def random_tracefree_tensor(n, p, rng):
    return tracefree_part(random_sym_tensor(n, p, rng))
