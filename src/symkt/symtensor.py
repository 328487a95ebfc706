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

Components may be plain floats or :class:`~symkt.dual.Dual` scalars; every
operation is written so either works.
"""

from dataclasses import dataclass
from math import factorial

import numpy as np

from .dual import Dual
from .errors import DegenerateRankError, DegreeError, ShapeMismatchError, TraceError
from .multiindex import (
    contract_array,
    contract_table,
    index_position,
    multi_indices,
    multiplicities,
    product_arrays,
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


def _as_comps(values, size):
    if isinstance(values, np.ndarray):
        arr = values.copy() if values.dtype == object else values.astype(float)
    else:
        vals = list(values)
        if any(isinstance(v, Dual) for v in vals):
            arr = np.empty(len(vals), dtype=object)
            arr[:] = vals
        else:
            arr = np.asarray(vals, dtype=float)
    if arr.shape != (size,):
        raise ShapeMismatchError(f"expected {size} components, got {arr.shape}")
    return arr


class SymTensor:
    """Symmetric p-tensor over R^n with packed dense storage.

    Parameters
    ----------
    dim : int
        Dimension n >= 1 of the underlying space.
    degree : int
        Tensor degree p >= 0.
    comps : sequence
        One value per non-decreasing multi-index, in lexicographic order
        (length C(n+p-1, p)).  Degree 0 stores a single scalar.
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
        return self.comps[index_position(self.dim, self.degree)[key]]

    def _check_same_shape(self, other):
        if self.dim != other.dim or self.degree != other.degree:
            raise ShapeMismatchError(
                f"shape ({self.dim},{self.degree}) vs ({other.dim},{other.degree})"
            )

    def __add__(self, other):
        self._check_same_shape(other)
        return SymTensor(self.dim, self.degree, self.comps + other.comps)

    def __sub__(self, other):
        self._check_same_shape(other)
        return SymTensor(self.dim, self.degree, self.comps - other.comps)

    def __neg__(self):
        return SymTensor(self.dim, self.degree, -self.comps)

    def scale(self, c):
        return SymTensor(self.dim, self.degree, self.comps * c)

    __mul__ = scale
    __rmul__ = scale

    def values(self):
        """Components with dual layers stripped (floats)."""
        from .dual import value_of

        return np.array([value_of(v) for v in self.comps])

    def to_dense(self):
        """Full dense numpy array (debugging / oracle aid)."""
        out = np.zeros((self.dim,) * self.degree) if self.degree else np.zeros(())
        vals = self.values()
        if self.degree == 0:
            return vals[0]
        from itertools import permutations

        for k, I in enumerate(multi_indices(self.dim, self.degree)):
            for J in set(permutations(I)):
                out[J] = vals[k]
        return out


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
        return B.scale(A.comps[0])
    if B.degree == 0:
        return A.scale(B.comps[0])
    out_pos, pos_a, pos_b, count = product_arrays(A.dim, A.degree, B.degree)
    w = count * A.comps[pos_a] * B.comps[pos_b]
    out = np.zeros(sym_size(A.dim, A.degree + B.degree), dtype=w.dtype)
    np.add.at(out, out_pos, w)
    return SymTensor(A.dim, A.degree + B.degree, out)


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
    vc = v.comps if isinstance(v, SymTensor) else v
    table = contract_array(K.dim, K.degree)
    k = K.comps
    out = 0
    for j in range(K.dim):
        out = out + vc[j] * k[table[:, j]]
    return SymTensor(K.dim, K.degree - 1, out)


def inner(A, B):
    """Scalar product: (1/p!) times the dot product over all p-tuples."""
    A._check_same_shape(B)
    mult = multiplicities(A.dim, A.degree)
    return np.dot(A.comps * mult, B.comps) / factorial(A.degree)


def norm(A):
    from .dual import value_of

    v = inner(A, A)
    return float(np.sqrt(max(value_of(v), 0.0)))


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
        out = out + k[table[:, j]]
    return SymTensor(K.dim, K.degree - 2, out)


def poly_eval(K, X):
    """Value of K as the degree-p polynomial K(X) = inner(K, X^p)."""
    if K.degree == 0:
        return K.comps[0] * 1.0
    xc = X.comps if isinstance(X, SymTensor) else X
    mult = multiplicities(K.dim, K.degree)
    total = 0.0
    for k, I in enumerate(multi_indices(K.dim, K.degree)):
        term = K.comps[k] * mult[k]
        for i in I:
            term = term * xc[i]
        total = total + term
    return total


def lambda2_act(X, Y, K):
    """Action of the 2-form X ^ Y on K: Y.(X -| K) - X.(Y -| K).

    This is the derivation extension of (X ^ Y)* Z = g(X,Z)Y - g(Y,Z)X;
    degree-0 tensors are annihilated.
    """
    if K.degree == 0:
        return SymTensor.zero(K.dim, 0)
    if not isinstance(X, SymTensor):
        X = SymTensor.from_vector(X)
    if not isinstance(Y, SymTensor):
        Y = SymTensor.from_vector(Y)
    return sym_product(Y, contract(X, K)) - sym_product(X, contract(Y, K))


def trace_residual(K):
    """Relative trace residual |Lambda(K)| / max(1, |K|); 0 for p < 2."""
    if K.degree < 2:
        return 0.0
    return norm(trace_Lambda(K)) / max(1.0, norm(K))


def tracefree_sym_product(v, K, tol=DEFAULT_TRACE_TOL):
    """Trace-free part of v . K for trace-free K.

    Implements the projection v.K - L(v -| K)/(n + 2(p-1)); the input must
    be trace-free for the formula to be the actual projection.
    """
    if not isinstance(v, SymTensor):
        v = SymTensor.from_vector(v)
    if trace_residual(K) > tol:
        raise TraceError("input of tracefree_sym_product is not trace-free")
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

    ``M`` is an m x n matrix (rows: old index range, columns: new);
    returns the degree-p tensor with K'(f_{a_1},...,f_{a_p}) =
    sum K_{A_1...A_p} M[A_1,a_1] ... M[A_p,a_p].  Applied one slot at a
    time; the result is symmetric because the input is.
    """
    M = np.asarray(M).tolist()
    m = len(M)
    n_new = len(M[0])
    p = K.degree
    if sym_size(m, p) != len(K.comps):
        raise ShapeMismatchError("matrix rows do not match tensor dimension")
    if p == 0:
        return SymTensor(n_new, 0, [K.comps[0]])
    state = {(): list(K.comps)}
    for step in range(p):
        rem = p - step - 1  # remaining old-index slots
        table = contract_table(m, rem + 1)
        new_state = {}
        for I in multi_indices(n_new, step + 1):
            a = I[-1]
            prefix = I[:-1]
            src = state[prefix]
            out = []
            for row in table:
                out.append(sum(M[A][a] * src[row[A]] for A in range(m)))
            new_state[I] = out
        state = new_state
    comps = [state[I][0] for I in multi_indices(n_new, p)]
    return SymTensor(n_new, p, comps)


def random_sym_tensor(n, p, rng):
    return SymTensor(n, p, rng.standard_normal(sym_size(n, p)))


def random_tracefree_tensor(n, p, rng):
    return tracefree_part(random_sym_tensor(n, p, rng))
