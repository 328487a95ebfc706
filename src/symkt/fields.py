"""Symmetric tensor fields and their first/second covariant derivatives.

A :class:`TensorField` evaluates to packed orthonormal-frame components at
a point; the evaluation function must be generic over scalars so that
forward-mode duals can differentiate through it (including through the
frame itself, whose variation is then cancelled by the connection terms).

The covariant derivative of the frame-component functions K_I(x) is

    (nabla_{e_a} K)_I = e_a(K_I) - sum_m sum_d gamma[a][I_m][d] K_{I<-d},

with gamma the frame connection coefficients; iterating the same rule on
the T (x) Sym^p frame components gives the full second covariant
derivative nabla^2_{e_b, e_a} K used by the rough Laplacian and the
Weitzenboeck-type checks.
"""

import numpy as np

from .cartan import FrameTensor
from .dual import d_exp, jacobian
from .errors import DegreeError, DomainError
from .manifolds import gamma_frame
from .multiindex import multi_indices, replace_table, sym_size
from .symtensor import (
    SymTensor,
    change_basis,
    contract,
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
    "tracefree_part_field",
    "add_fields",
    "scale_field",
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
        packed components (length C(n+p-1, p)), generic over scalars.
    order : int
        Differentiability promised by the evaluation function (1 or 2).
    name : str
        Identifier used in reports.
    """

    def __init__(self, base, degree, comps_fn, order=2, name="field"):
        self.base = base
        self.degree = degree
        self.comps_fn = comps_fn
        self.order = order
        self.name = name

    @property
    def dim(self):
        return self.base.dim

    def __call__(self, x):
        return SymTensor(self.base.dim, self.degree, self.comps_fn(list(x)))

    def __repr__(self):
        return f"TensorField({self.name!r}, degree={self.degree}, base={self.base.key})"


def constant_field(base, tensor, name="constant"):
    comps = list(tensor.comps)
    return TensorField(base, tensor.degree, lambda x: list(comps), name=name)


def metric_field(base, name="metric"):
    n = base.dim
    comps = [1.0 if a == b else 0.0 for a, b in multi_indices(n, 2)]
    return TensorField(base, 2, lambda x: list(comps), name=name)


def scalar_field(base, fn, name="scalar"):
    return TensorField(base, 0, lambda x: [fn(x)], name=name)


def field_from_components(base, degree, fn, rep="frame", order=2, name="field"):
    """Build a field from frame components or coordinate/ambient ones.

    With ``rep="coordinate"`` the function returns packed covariant
    components over the coord_dim index range (ambient components for
    embedded spheres); they are pulled onto the orthonormal frame through
    the frame matrix at each point.
    """
    if rep == "frame":
        return TensorField(base, degree, fn, order=order, name=name)
    if rep != "coordinate":
        raise ValueError(f"unknown representation {rep!r}")
    m = base.coord_dim

    def comps(x):
        return list(change_basis(SymTensor(m, degree, fn(x)), base.frame(x)).comps)

    return TensorField(base, degree, comps, order=order, name=name)


def tracefree_part_field(field, name=None):
    """Pointwise trace-free part of a field."""

    def comps(x):
        K = SymTensor(field.base.dim, field.degree, field.comps_fn(x))
        return list(tracefree_part(K).comps)

    return TensorField(
        field.base,
        field.degree,
        comps,
        order=field.order,
        name=name or f"{field.name}_0",
    )


def add_fields(a, b, name=None):
    if a.degree != b.degree or a.base is not b.base:
        raise DegreeError("can only add fields of equal degree on the same base")

    def comps(x):
        ca, cb = a.comps_fn(x), b.comps_fn(x)
        return [u + v for u, v in zip(ca, cb)]

    return TensorField(a.base, a.degree, comps, order=min(a.order, b.order),
                       name=name or f"{a.name}+{b.name}")


def scale_field(a, c, name=None):
    def comps(x):
        return [c * v for v in a.comps_fn(x)]

    return TensorField(a.base, a.degree, comps, order=a.order,
                       name=name or f"{c}*{a.name}")


def product_field(a, b, name=None):
    """Pointwise symmetric product of two fields on the same base."""
    n = a.base.dim

    def comps(x):
        A = SymTensor(n, a.degree, a.comps_fn(x))
        B = SymTensor(n, b.degree, b.comps_fn(x))
        return list(sym_product(A, B).comps)

    return TensorField(a.base, a.degree + b.degree, comps,
                       order=min(a.order, b.order),
                       name=name or f"{a.name}.{b.name}")


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

    return TensorField(wrapped_base, p, comps, order=field.order,
                       name=name or field.name)


def random_polynomial_field(chart, degree, rng, quadratic=True, name="poly"):
    """Random field with polynomial frame components (chart backends)."""
    n = chart.dim
    size = sym_size(n, degree)
    c0 = rng.standard_normal(size)
    c1 = rng.standard_normal((size, n))
    c2 = rng.standard_normal((size, n, n)) if quadratic else None

    def comps(x):
        out = []
        for k in range(size):
            v = c0[k]
            for i in range(n):
                v = v + c1[k, i] * x[i]
                if quadratic:
                    for j in range(n):
                        v = v + c2[k, i, j] * x[i] * x[j]
            out.append(v)
        return out

    return TensorField(chart, degree, comps, name=name)


def random_tangential_field(sphere, degree, rng, name="tangential-poly"):
    """Random field on an embedded sphere from projected ambient polynomials.

    Ambient packed components are affine in the ambient coordinates and get
    projected tangentially slot by slot, so the restriction is smooth and
    exactly tangential.
    """
    N = sphere.coord_dim
    size = sym_size(N, degree)
    c0 = rng.standard_normal(size)
    c1 = rng.standard_normal((size, N))

    def amb(x):
        out = []
        for k in range(size):
            v = c0[k]
            for i in range(N):
                v = v + c1[k, i] * x[i]
            out.append(v)
        return out

    def comps(x):
        r2 = x[0] * x[0]
        for xi in x[1:]:
            r2 = r2 + xi * xi
        proj = [
            [(1.0 if i == j else 0.0) - x[i] * x[j] / r2 for j in range(N)]
            for i in range(N)
        ]
        K = SymTensor(N, degree, amb(x))
        return list(change_basis(change_basis(K, proj), sphere.frame(x)).comps)

    return TensorField(sphere, degree, comps, name=name)


# ---------------------------------------------------------------------------
# covariant derivatives


def _assemble_first(n, p, vals, jac, F, gam):
    """Frame components of nabla K from component jets.

    ``vals``/``jac``: packed components and coordinate partials;
    ``F``: the (m, n) frame and ``gam``: the (n, n, n) connection
    coefficients, both as nested lists (the scalar loops run on Python
    objects).  Returns [a][k] nested lists.
    """
    m = len(F)
    reps = replace_table(n, p) if p else None
    idxs = multi_indices(n, p)
    out = []
    for a in range(n):
        slot = []
        for k in range(len(vals)):
            s = 0.0
            for i in range(m):
                s = s + F[i][a] * jac[k][i]
            if p:
                I = idxs[k]
                rows = reps[k]
                for mpos in range(p):
                    gi = gam[a][I[mpos]]
                    row = rows[mpos]
                    for d in range(n):
                        s = s - gi[d] * vals[row[d]]
            slot.append(s)
        out.append(slot)
    return out


def _nabla_comps(field, x):
    """Generic [a][k] components of nabla(field) at x (any dual level)."""
    base = field.base
    n, p = base.dim, field.degree
    vals, jac = jacobian(field.comps_fn, x)
    F = base.frame(list(x)).tolist()
    gam = gamma_frame(base, x).tolist()
    return _assemble_first(n, p, vals, jac, F, gam)


def _check_domain(base, x):
    if hasattr(base, "contains") and not base.contains(np.asarray(x, dtype=float)):
        raise DomainError(f"point outside the domain of {base.key}")


def nabla(field, x):
    """Covariant derivative at x as a FrameTensor (slot a = nabla_{e_a})."""
    _check_domain(field.base, x)
    slots = _nabla_comps(field, list(x))
    n, p = field.base.dim, field.degree
    return FrameTensor([SymTensor(n, p, s) for s in slots])


def nabla2(field, x):
    """Second covariant derivative: grid W[b][a] = nabla^2_{e_b, e_a} K."""
    if field.order < 2:
        raise DegreeError("field does not promise second derivatives")
    _check_domain(field.base, x)
    base = field.base
    n, p = base.dim, field.degree
    size = sym_size(n, p)

    def flat_nabla(y):
        slots = _nabla_comps(field, y)
        return [v for slot in slots for v in slot]

    vals, jac = jacobian(flat_nabla, list(x))
    F = base.frame(list(x)).tolist()
    gam = gamma_frame(base, list(x)).tolist()
    S = [vals[a * size:(a + 1) * size] for a in range(n)]
    # first[a][b] = e_b(S_a) minus the connection terms on the packed index;
    # the slot index a takes the remaining term below
    first = [
        _assemble_first(n, p, S[a], jac[a * size:(a + 1) * size], F, gam)
        for a in range(n)
    ]
    grid = []
    for b in range(n):
        row_out = []
        for a in range(n):
            comps = first[a][b]
            for d in range(n):
                comps = [c - gam[b][a][d] * v for c, v in zip(comps, S[d])]
            row_out.append(SymTensor(n, p, comps))
        grid.append(row_out)
    return grid


def d_op(field, x, T=None):
    """Symmetrized covariant derivative: sum_a e_a . nabla_{e_a} K.

    Pass a precomputed ``nabla(field, x)`` as ``T`` to avoid recomputing.
    """
    if T is None:
        T = nabla(field, x)
    n = field.base.dim
    out = SymTensor.zero(n, field.degree + 1)
    for a in range(n):
        out = out + sym_product(SymTensor.basis_vector(n, a), T.slots[a])
    return out


def delta_op(field, x, T=None):
    """Divergence: - sum_a e_a -| nabla_{e_a} K (degree p >= 1)."""
    if field.degree < 1:
        raise DegreeError("divergence needs degree >= 1")
    if T is None:
        T = nabla(field, x)
    n = field.base.dim
    out = SymTensor.zero(n, field.degree - 1)
    for a in range(n):
        out = out - contract(SymTensor.basis_vector(n, a), T.slots[a])
    return out


def d0_op(field, x, T=None):
    """Trace-free part of d K for a trace-free field.

    Uses (dK)_0 = dK + L(delta K)/(n + 2p - 2); the field must be
    pointwise trace-free for this to be the projection.
    """
    n, p = field.base.dim, field.degree
    if T is None:
        T = nabla(field, x)
    dK = d_op(field, x, T=T)
    if p == 0:
        return dK
    return dK + mult_L(delta_op(field, x, T=T)).scale(1.0 / (n + 2 * p - 2))


def rough_laplacian(field, x, W=None):
    """nabla* nabla K = - sum_a nabla^2_{e_a, e_a} K from ``W = nabla2``."""
    W = nabla2(field, x) if W is None else W
    n = field.base.dim
    out = SymTensor.zero(n, field.degree)
    for a in range(n):
        out = out - W[a][a]
    return out


def delta_d(field, x, W=None):
    """delta d K assembled from the second covariant derivative ``W``."""
    W = nabla2(field, x) if W is None else W
    n = field.base.dim
    out = SymTensor.zero(n, field.degree)
    basis = [SymTensor.basis_vector(n, i) for i in range(n)]
    for b in range(n):
        acc = SymTensor.zero(n, field.degree + 1)
        for a in range(n):
            acc = acc + sym_product(basis[a], W[b][a])
        out = out - contract(basis[b], acc)
    return out


def d_delta(field, x, W=None):
    """d delta K assembled from the second covariant derivative ``W``."""
    if field.degree < 1:
        raise DegreeError("d delta needs degree >= 1")
    W = nabla2(field, x) if W is None else W
    n = field.base.dim
    out = SymTensor.zero(n, field.degree)
    basis = [SymTensor.basis_vector(n, i) for i in range(n)]
    for b in range(n):
        acc = SymTensor.zero(n, field.degree - 1)
        for a in range(n):
            acc = acc + contract(basis[a], W[b][a])
        out = out - sym_product(basis[b], acc)
    return out
