"""Symmetric tensor fields and their first/second covariant derivatives.

A :class:`TensorField` evaluates to packed orthonormal-frame components at
a point; the evaluation function must be generic over scalars so that
forward-mode duals can differentiate through it (including through the
frame itself, whose variation is then cancelled by the connection terms).
A scalar is a float, a :class:`~symkt.dual.Dual`, a second-order
:class:`~symkt.dual.Jet`, or a ``(B,)`` float array holding one coordinate
of B points, so :meth:`TensorField.batch` evaluates a field at B points in
one call.

The covariant derivative of the frame-component functions K_I(x) is

    (nabla_{e_a} K)_I = e_a(K_I) - sum_m sum_d gamma[a][I_m][d] K_{I<-d},

with gamma the frame connection coefficients.  ``nabla`` takes a point or a
batch of B points: one seeding of Duals with ``(m, B)`` gradients, one
evaluation of the components and one frame jet serve the whole batch.
Iterating the same rule on the T (x) Sym^p frame components gives the full
second covariant derivative nabla^2_{e_b, e_a} K used by the rough
Laplacian and the Weitzenboeck-type checks, assembled from one hessian of
the components and the connection jet of
:func:`~symkt.manifolds.connection_jet`.

Each differential operator reads only the derivative it is built from:
``d_op``, ``delta_op`` and ``d0_op`` take ``T = nabla(field, x)``, and
``rough_laplacian``, ``delta_d`` and ``d_delta`` take ``W = nabla2(field,
x)``.  Degree and dimension come from that derivative, so no operator can
be handed one field's derivative and another field's degree.  Likewise
:func:`derived_field` builds every field from fields, reading base and
degree off its inputs; it refuses fields on different bases.
"""

import numpy as np

from .cartan import FrameTensor, slot_hooks, slot_products, slot_sum
from .dual import concatenate, d_dot, d_exp, hessian, jacobian, value_of
from .errors import DegreeError, DomainError, ShapeMismatchError
from .manifolds import _frame_connection, connection_jet, point_array
from .multiindex import sym_size
from .symtensor import (
    SymTensor,
    change_basis,
    derivation,
    mult_L,
    sym_product,
    tracefree_part,
)

__all__ = [
    "TensorField",
    "constant_field",
    "metric_field",
    "scalar_field",
    "field_from_components",
    "derived_field",
    "tracefree_part_field",
    "add_fields",
    "product_field",
    "wrap_conformal_field",
    "random_polynomial_field",
    "random_tangential_field",
    "nabla",
    "nabla2",
    "d_op",
    "delta_op",
    "d0_op",
    "rough_laplacian",
    "delta_d",
    "d_delta",
]


class TensorField:
    """Map from points to degree-p symmetric tensors in the moving frame.

    Parameters
    ----------
    base : manifold backend
    degree : int
    comps_fn : callable
        x (length coord_dim list of generic scalars) -> sequence of
        packed components (length C(n+p-1, p)), generic over scalars:
        with ``(B,)`` coordinates each component is a ``(B,)`` array or a
        constant.  It must not branch on a coordinate's value; use
        ``np.where`` or the ``d_*`` helpers of :mod:`symkt.dual`.
    name : str
        Identifier used in reports.
    """

    def __init__(self, base, degree, comps_fn, name="field"):
        self.base = base
        self.degree = degree
        self.comps_fn = comps_fn
        self.name = name

    @property
    def dim(self):
        return self.base.dim

    def __call__(self, x):
        return SymTensor(self.base.dim, self.degree, self.comps_fn(list(x)))

    def batch(self, X):
        """Packed components at the B rows of X, a (B, coord_dim) array.

        One call of ``comps_fn`` on the coordinate columns; returns the
        (B, C) float array, with constant components broadcast.
        """
        X = np.asarray(X, dtype=float)
        K = SymTensor(self.dim, self.degree, list(self.comps_fn(list(X.T.copy()))))
        return np.broadcast_to(K.comps, (len(X),) + K.comps.shape[-1:])

    def __repr__(self):
        return f"TensorField({self.name!r}, degree={self.degree}, base={self.base.key})"


def constant_field(base, tensor, name="constant"):
    comps = tensor.comps.tolist()
    return TensorField(base, tensor.degree, lambda x: list(comps), name=name)


def metric_field(base, name="metric"):
    return constant_field(base, SymTensor.metric(base.dim), name=name)


def scalar_field(base, fn, name="scalar"):
    return TensorField(base, 0, lambda x: [fn(x)], name=name)


def field_from_components(base, degree, fn, name="field"):
    """Build a field from coordinate/ambient components.

    The function returns packed covariant components over the coord_dim
    index range (ambient components for embedded spheres); they are
    pulled onto the orthonormal frame through the frame matrix at each
    point.  A field given by frame components is a :class:`TensorField`.
    """
    m = base.coord_dim

    def comps(x):
        return change_basis(SymTensor(m, degree, fn(x)), base.frame(x)).entries()

    return TensorField(base, degree, comps, name=name)


def derived_field(fn, *fields, name):
    """The field x -> fn(A(x), B(x), ...) of ``fields``, which must share one
    base object (else ShapeMismatchError, when the field is built).  ``fn``
    maps one SymTensor per field to a SymTensor; the degree is that of
    ``fn`` on zero tensors, so ``fn`` must accept them."""
    base = fields[0].base
    if any(f.base is not base for f in fields):
        raise ShapeMismatchError(f"{name}: fields on mixed bases {[f.base.key for f in fields]}")
    n = base.dim
    degree = fn(*(SymTensor.zero(n, f.degree) for f in fields)).degree

    def comps(x):
        return fn(*(SymTensor(n, f.degree, f.comps_fn(x)) for f in fields)).entries()

    return TensorField(base, degree, comps, name=name)


def tracefree_part_field(field, name=None):
    """Pointwise trace-free part of a field (:func:`derived_field`)."""
    return derived_field(tracefree_part, field, name=name or f"{field.name}_0")


def add_fields(a, b, name=None):
    """Pointwise sum of two fields of one degree on one base (:func:`derived_field`)."""
    return derived_field(SymTensor.__add__, a, b, name=name or f"{a.name}+{b.name}")


def product_field(a, b, name=None):
    """Pointwise symmetric product of two fields on one base (:func:`derived_field`)."""
    return derived_field(sym_product, a, b, name=name or f"{a.name}.{b.name}")


def wrap_conformal_field(wrapped_base, field, name=None):
    """Transport a field to the conformally rescaled backend.

    The (contravariant) tensor itself is unchanged; its components
    relative to the rescaled frame e' = exp(-f) e pick up exp(+p f).
    """
    p = field.degree
    f_fn = wrapped_base.f_fn

    def comps(x):
        factor = d_exp(float(p) * f_fn(x))
        return [factor * v for v in field.comps_fn(x)]

    return TensorField(wrapped_base, p, comps, name=name or field.name)


def random_polynomial_field(chart, degree, rng, name="poly"):
    """Random field with polynomial frame components (chart backends).

    The coefficients are held as nested lists of Python floats: a jet or
    dual times a Python float skips numpy's scalar dispatch, with the
    same bits.
    """
    n = chart.dim
    size = sym_size(n, degree)
    c0 = rng.standard_normal(size).tolist()
    c1 = rng.standard_normal((size, n)).tolist()
    c2 = rng.standard_normal((size, n, n)).tolist()

    def comps(x):
        out = []
        for k in range(size):
            v = c0[k]
            for i in range(n):
                v = v + c1[k][i] * x[i]
                for j in range(n):
                    v = v + c2[k][i][j] * x[i] * x[j]
            out.append(v)
        return out

    return TensorField(chart, degree, comps, name=name)


def random_tangential_field(sphere, degree, rng, name="tangential-poly"):
    """Random field on an embedded sphere from projected ambient polynomials.

    Ambient packed components are affine in the ambient coordinates and get
    projected tangentially slot by slot, so the restriction is smooth and
    exactly tangential.  The coefficients are nested lists of Python
    floats, as in :func:`random_polynomial_field`.
    """
    N = sphere.coord_dim
    size = sym_size(N, degree)
    c0 = rng.standard_normal(size).tolist()
    c1 = rng.standard_normal((size, N)).tolist()

    def amb(x):
        out = []
        for k in range(size):
            v = c0[k]
            for i in range(N):
                v = v + c1[k][i] * x[i]
            out.append(v)
        return out

    def comps(x):
        r2 = d_dot(x, x)
        proj = point_array(
            [[(1.0 if i == j else 0.0) - x[i] * x[j] / r2 for j in range(N)]
             for i in range(N)],
            x,
        )
        K = SymTensor(N, degree, amb(x))
        return change_basis(change_basis(K, proj), sphere.frame(x)).entries()

    return TensorField(sphere, degree, comps, name=name)


# ---------------------------------------------------------------------------
# covariant derivatives


def _assemble_first(p, vals, jac, F, gam):
    """Frame components of nabla K from component jets.

    ``vals``/``jac``: packed components ``(..., size)`` and their
    coordinate partials ``(..., size, m)``; ``F``: the (m, n) frame and
    ``gam``: the (n, n, n) connection coefficients.  Returns the
    ``(..., n, size)`` array whose row a is F^T J^T minus the derivation
    action of gamma[a] on the packed index.  ``F`` and ``gam`` may carry
    leading axes too, which broadcast against those of ``vals``/``jac``.
    """
    return (np.einsum("...ia,...ki->...ak", F, jac)
            - derivation(gam, vals[..., None, :], p))


def _check_domain(base, x):
    """Raise unless every point of x (a point, a list of points or a (B, m)
    float array, read as it is) lies in the domain of ``base``."""
    X = x if isinstance(x, np.ndarray) else np.asarray(value_of(list(x)), dtype=float)
    if not all(base.contains(p) for p in X.reshape(-1, X.shape[-1])):
        raise DomainError(f"point outside the domain of {base.key}")


def _nabla_jet(field, x):
    """Components K and frame components of nabla K from one jacobian.

    At a point (any dual level) ``(size,)`` and ``(n, size)`` arrays; at a
    batch of B points ``(B, size)`` and ``(B, n, size)`` float arrays, from
    one seeding that evaluates the field and the frame, and one Koszul
    contraction.  The frame is evaluated once at the seeding: when the
    components evaluate it, the connection reuses that value.  Callers
    that also need K (``classify``) take it from here instead of
    evaluating the field again.
    """
    base = field.base
    _check_domain(base, x)
    mn = base.coord_dim * base.dim

    def comps_and_frame(y):
        # the components first: if they evaluate the frame, it is remembered
        comps = field.comps_fn(y)
        return concatenate([comps, base.frame(y).ravel()])

    vals, jac = jacobian(comps_and_frame, x)
    # contiguous parts, laid out as two jacobians would give them, so the
    # einsum and bracket sums see the layout they were pinned on
    F, gam = _frame_connection(base, x, np.ascontiguousarray(vals[..., -mn:]),
                               np.ascontiguousarray(jac[..., -mn:, :]))
    vals = np.ascontiguousarray(vals[..., :-mn])
    jac = np.ascontiguousarray(jac[..., :-mn, :])
    return vals, _assemble_first(field.degree, vals, jac, F, gam)


def nabla(field, x):
    """Covariant derivative as a FrameTensor (slot a = nabla_{e_a}).

    ``x`` is a point, or a batch of B points as a ``(B, m)`` array or a
    list of B points; at a batch each slot carries the batch axis, so
    ``comps`` is the ``(B, n, size)`` float array.
    """
    n, p = field.base.dim, field.degree
    return FrameTensor.from_stacked(n, p, _nabla_jet(field, x)[1])


def _nabla2_jet(field, x, jet=None):
    """Components K (size,) and the nabla^2 grid (n, n, size) at x, from one
    hessian of the components (``nabla2`` and the Lichnerowicz defect)."""
    _check_domain(field.base, x)
    base = field.base
    p = field.degree
    x = list(x)
    F, dF, gam, dgam = connection_jet(base, x) if jet is None else jet
    vals, grads, hess = hessian(field.comps_fn, x)
    S = _assemble_first(p, vals, grads, F, gam)  # S[a] = nabla_{e_a} K
    # d_i S: _assemble_first is bilinear in (vals, jac) and (F, gam), so
    # two calls with the direction i as a leading axis
    dS = (_assemble_first(p, grads.T, hess.transpose(2, 0, 1), F, gam)
          + _assemble_first(p, vals, grads, dF, dgam))
    # first[a, b] = e_b(S_a) minus the connection terms on the packed index;
    # the slot index a takes the remaining term
    first = _assemble_first(p, S, dS.transpose(1, 2, 0), F, gam)
    return vals, first.transpose(1, 0, 2) - np.einsum("bad,dk->bak", gam, S)


def nabla2(field, x):
    """Second covariant derivative W at x, a read-only FrameTensor.

    ``W.comps`` is the ``(n, n, size)`` array whose row b is the frame
    tensor nabla_{e_b}(nabla K): ``W.comps[b, a]`` holds nabla^2_{e_b, e_a}
    K.  Its leading axis is the direction b, not a batch of points; x is
    one point.  From one hessian of the components and one connection jet
    at x.
    """
    return FrameTensor.from_stacked(field.base.dim, field.degree, _nabla2_jet(field, x)[1])


def d_op(T):
    """Symmetrized covariant derivative: sum_a e_a . nabla_{e_a} K, from
    ``T = nabla(field, x)`` (a point or a batch)."""
    return SymTensor(T.dim, T.degree + 1, slot_sum(slot_products(T.comps, T.degree)))


def delta_op(T):
    """Divergence: - sum_a e_a -| nabla_{e_a} K (degree p >= 1), from
    ``T = nabla(field, x)``."""
    if T.degree < 1:
        raise DegreeError("divergence needs degree >= 1")
    return SymTensor(T.dim, T.degree - 1, -slot_sum(slot_hooks(T.comps, T.degree)))


def d0_op(T):
    """Trace-free part of d K for a trace-free field, from ``T = nabla(field, x)``.

    Uses (dK)_0 = dK + L(delta K)/(n + 2p - 2); the field must be
    pointwise trace-free for this to be the projection.
    """
    n, p = T.dim, T.degree
    dK = d_op(T)
    if p == 0:
        return dK
    return dK + mult_L(delta_op(T)).scale(1.0 / (n + 2 * p - 2))


def rough_laplacian(W):
    """nabla* nabla K = - sum_a nabla^2_{e_a, e_a} K, from ``W = nabla2(field, x)``."""
    n = W.dim
    return SymTensor(n, W.degree, -slot_sum(W.comps[np.arange(n), np.arange(n)]))


def delta_d(W):
    """delta d K, from ``W = nabla2(field, x)``."""
    p = W.degree
    dW = slot_sum(slot_products(W.comps, p))  # row b: sum_a e_a . W[b][a]
    return SymTensor(W.dim, p, -slot_sum(slot_hooks(dW, p + 1)))


def d_delta(W):
    """d delta K (degree p >= 1), from ``W = nabla2(field, x)``."""
    p = W.degree
    if p < 1:
        raise DegreeError("d delta needs degree >= 1")
    hW = slot_sum(slot_hooks(W.comps, p))  # row b: sum_a e_a -| W[b][a]
    return SymTensor(W.dim, p, -slot_sum(slot_products(hW, p - 1)))
