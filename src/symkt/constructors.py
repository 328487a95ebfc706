"""Factories for the catalog of (conformal) Killing tensor fields.

Each factory returns a :class:`~symkt.fields.TensorField` paired (in the
registry at the bottom) with the verdicts the classifier must reproduce,
plus deliberately broken variants used as negative controls for
classifier sensitivity.
"""

import math
import zlib
from dataclasses import dataclass, field as dc_field
from itertools import permutations

import numpy as np

from .cartan import FrameTensor, _rows, frame_norm, slot_products
from .dual import jacobian, value_of
from .errors import ConfigError, VerificationError
from .fields import (
    TensorField,
    add_fields,
    d_op,
    delta_op,
    field_from_components,
    metric_field,
    nabla,
    product_field,
    tracefree_part_field,
)
from .manifolds import (
    EmbeddedSphere,
    euclidean_chart,
    frame_at,
    frame_components,
    manifold_from_key,
    point_array,
)
from .multiindex import index_array, multi_indices
from .symtensor import (
    SymTensor,
    mult_L,
    norm,
    standard_decomposition,
    sym_product,
    trace_Lambda,
)

__all__ = [
    "AlgCurvature",
    "curvature_project",
    "sphere_curvature_generator",
    "curvature_to_killing",
    "killing_vector",
    "verify_killing",
    "sym_product_field",
    "FormField",
    "killing_form_sphere",
    "killing_form_residual",
    "killing_form_to_tensor",
    "special_ckt_flat",
    "special_killing_coefficients",
    "special_to_killing",
    "nijenhuis",
    "DistributionSplit",
    "condition_d1_residual",
    "distribution_stackel",
    "hopf_generator",
    "hopf_split",
    "tilted_split",
    "product_ckt",
    "CatalogEntry",
    "constructor_catalog",
    "build_constructor",
]

KILLING_CHECK_SAMPLES = 8
KILLING_CHECK_TOL = 1e-8


# ---------------------------------------------------------------------------
# algebraic curvature tensors


@dataclass(frozen=True)
class AlgCurvature:
    """Algebraic curvature tensor on R^N (pair symmetries + first Bianchi)."""

    comps: np.ndarray

    @property
    def dim(self):
        return self.comps.shape[0]

    def symmetry_residual(self):
        R = self.comps
        return float(
            max(
                np.abs(R + R.transpose(1, 0, 2, 3)).max(),
                np.abs(R + R.transpose(0, 1, 3, 2)).max(),
                np.abs(R - R.transpose(2, 3, 0, 1)).max(),
                np.abs(R + R.transpose(1, 2, 0, 3) + R.transpose(2, 0, 1, 3)).max()
                / 3.0,
            )
        )

    def ricci_contraction(self):
        return np.einsum("abca->bc", self.comps)

    def scalar(self):
        return float(np.trace(self.ricci_contraction()))


def _pair_symmetrize(T):
    R = 0.25 * (
        T
        - T.transpose(1, 0, 2, 3)
        - T.transpose(0, 1, 3, 2)
        + T.transpose(1, 0, 3, 2)
    )
    return 0.5 * (R + R.transpose(2, 3, 0, 1))


def curvature_project(T):
    """Orthogonal projection of a generic 4-tensor onto curvature symmetry.

    First averages over the pair-symmetry group, then removes the totally
    antisymmetric component (the orthogonal complement of the first
    Bianchi identity inside the pair-symmetric tensors).  Idempotent.
    """
    T = np.asarray(T, dtype=float)
    R = _pair_symmetrize(T)
    b = (R + R.transpose(1, 2, 0, 3) + R.transpose(2, 0, 1, 3)) / 3.0
    return AlgCurvature(R - b)


def sphere_curvature_generator(N):
    """Constant-curvature tensor: R[a,b,c,d] = d_ad d_bc - d_ac d_bd."""
    I = np.eye(N)
    return AlgCurvature(np.einsum("ad,bc->abcd", I, I) - np.einsum("ac,bd->abcd", I, I))


def kulkarni_nomizu(h, k):
    return (
        np.einsum("ad,bc->abcd", h, k)
        + np.einsum("bc,ad->abcd", h, k)
        - np.einsum("ac,bd->abcd", h, k)
        - np.einsum("bd,ac->abcd", h, k)
    )


def weyl_part(R):
    """Totally trace-free part of an algebraic curvature tensor."""
    N = R.dim
    if N < 4:
        raise ConfigError("Weyl part vanishes identically below dimension 4")
    ric = R.ricci_contraction()
    scal = float(np.trace(ric))
    ric0 = ric - scal / N * np.eye(N)
    g = np.eye(N)
    W = (
        R.comps
        - kulkarni_nomizu(ric0, g) / (N - 2)
        - scal / (2.0 * N * (N - 1)) * kulkarni_nomizu(g, g)
    )
    return AlgCurvature(W)


def curvature_to_killing(R, sphere, name="curvature-killing"):
    """Killing 2-tensor on the sphere: K(X, Y) = R(X, x, x, Y) at x."""
    if not isinstance(sphere, EmbeddedSphere) or sphere.coord_dim != R.dim:
        raise ConfigError("curvature tensor dimension must match the ambient space")
    N = R.dim
    I, J = index_array(N, 2).T
    # packed quadratic form: K_AB = sum_{C <= D} Q[AB, CD] x_C x_D
    Rs = R.comps[I, :, :, J]
    Q = (Rs + Rs.transpose(0, 2, 1))[:, I, J] * np.where(I == J, 0.5, 1.0)

    def amb(x):
        X = np.stack(x, axis=-1)  # (..., N): floats, Duals or batch columns
        return SymTensor(N, 2, (X[..., I] * X[..., J]) @ Q.T).entries()

    return field_from_components(sphere, 2, amb, rep="coordinate", name=name)


# ---------------------------------------------------------------------------
# Killing vector fields and their symmetric products


def killing_vector(base, generator, translation=None, name="killing-vector"):
    """Linear-isometry Killing field: A x on spheres, A x + b on flat charts.

    ``generator`` must be skew-symmetric of the backend's coordinate size.
    """
    A = np.asarray(generator, dtype=float)
    if np.abs(A + A.T).max() > 1e-12:
        raise VerificationError("generator must be skew-symmetric")
    m = base.coord_dim
    if A.shape != (m, m):
        raise VerificationError(f"generator must be {m} x {m}")
    b = np.zeros(m) if translation is None else np.asarray(translation, dtype=float)

    def amb(x):
        return [
            sum(A[i, j] * x[j] for j in range(m) if A[i, j]) + b[i] for i in range(m)
        ]

    return field_from_components(base, 1, amb, rep="coordinate", name=name)


def _worst(vals, empty=None):
    """Largest value; NaN if any is not finite, so a NaN sample cannot pass."""
    if not vals:
        return empty
    return max(vals) if all(map(math.isfinite, vals)) else math.nan


def _least(vals):
    """Smallest value, for floor checks; NaN if any is not finite."""
    return min(vals) if all(map(math.isfinite, vals)) else math.nan


def verify_killing(field, rng, samples=KILLING_CHECK_SAMPLES, tol=KILLING_CHECK_TOL):
    """Raise unless the d-residual of the field is below tol at samples.

    The points are drawn first and differentiated as one batch.  A
    non-finite residual raises too.
    """
    if samples < 1:
        raise ConfigError(f"the Killing check needs samples >= 1, got {samples}")
    points = [list(field.base.sample_point(rng)) for _ in range(samples)]
    T = nabla(field, points)
    res = norm(d_op(field, points, T=T)) / np.maximum(1.0, frame_norm(T))
    worst = _worst(res.tolist())
    if not worst <= tol:
        raise VerificationError(f"field is not Killing (residual {worst:.2e})")
    return worst


def sym_product_field(xi, zeta, rng=None, check=True, name=None):
    """Symmetric product of two verified Killing vector fields."""
    if check:
        rng = np.random.default_rng(0) if rng is None else rng
        verify_killing(xi, rng)
        verify_killing(zeta, rng)
    return product_field(xi, zeta, name=name or f"{xi.name}.{zeta.name}")


# ---------------------------------------------------------------------------
# Killing forms on spheres


class FormField:
    """Antisymmetric q-form field on an embedded sphere, ambient storage.

    ``amb_fn(x)`` returns the dense ambient components (tangential on the
    sphere) as an array of shape batch + (N,) * q, generic over scalars:
    object dtype at a dual point, batch axes first at a batch point.
    """

    def __init__(self, sphere, degree, amb_fn, name="form"):
        self.base = sphere
        self.degree = degree
        self.amb_fn = amb_fn
        self.name = name

    def __call__(self, x):
        return np.asarray(self.amb_fn(list(x)), dtype=float)

    def frame_components(self, x):
        """Dense frame components at a float point (projection implicit)."""
        F = frame_at(self.base, x)  # (N, n)
        out = self(x)
        for axis in range(self.degree):
            out = np.tensordot(out, F, axes=([axis], [0]))
            out = np.moveaxis(out, -1, axis)
        return out


def killing_form_sphere(omega, sphere, name=None):
    """Killing q-form on S^n from a constant (q+1)-form on the ambient space.

    The form at x is the contraction of x into omega (dense antisymmetric
    array), restricted to the tangent space.
    """
    omega = np.asarray(omega, dtype=float)
    q = omega.ndim - 1
    N = sphere.coord_dim
    if omega.shape != (N,) * (q + 1):
        raise ConfigError("constant form has wrong ambient dimension")
    if np.abs(omega + np.swapaxes(omega, 0, 1)).max() > 1e-12:
        raise ConfigError("constant form must be antisymmetric")

    def amb(x):
        # (x -| omega)_{B...} = sum_A x_A omega_{A B ...}
        return np.tensordot(np.stack(x, axis=-1), omega, axes=(-1, 0))

    return FormField(sphere, q, amb, name=name or f"killing-form:q={q}")


def killing_form_residual(u, x):
    """Max over frame directions of |X -| nabla_X u| at x (tangential).

    NaN if any entry is not finite, so a NaN form cannot pass.
    """
    sphere = u.base
    N = sphere.coord_dim
    q = u.degree
    xf = [float(v) for v in x]
    shape = (N,) * q
    vals, jac = jacobian(lambda y: np.asarray(u.amb_fn(y)).ravel(), xf)
    vals = np.array([value_of(v) for v in vals]).reshape(shape)
    jacm = np.array([[value_of(g) for g in row] for row in jac]).reshape(shape + (N,))
    P = np.eye(N) - np.outer(xf, xf) / np.dot(xf, xf)
    F = frame_at(sphere, xf)
    hooks = []
    for a in range(sphere.dim):
        X = F[:, a]
        D = np.tensordot(jacm, X, axes=([q], [0]))  # ambient derivative along X
        for axis in range(q):
            D = np.tensordot(P, D, axes=([1], [axis]))
            D = np.moveaxis(D, 0, axis)
        hooked = np.tensordot(X, D, axes=([0], [0]))
        hooks.append(float(np.abs(hooked).max()))
    return _worst(hooks) / _worst([1.0, float(np.abs(vals).max())])


def killing_form_to_tensor(u, rng=None, check=True, tol=1e-8, name=None):
    """Killing 2-tensor K(X, Y) = g(X -| u, Y -| u) from a Killing form."""
    sphere = u.base
    N = sphere.coord_dim
    q = u.degree
    if check:
        rng = np.random.default_rng(1) if rng is None else rng
        for _ in range(KILLING_CHECK_SAMPLES):
            x = sphere.sample_point(rng)
            r = killing_form_residual(u, x)
            if not r <= tol:
                raise VerificationError(f"form is not Killing (residual {r:.2e})")

    I, J = index_array(N, 2).T

    def amb(x):
        # K_AB = sum over the other slots of u_A... u_B... / (q - 1)!
        U = np.asarray(u.amb_fn(x))
        U = U.reshape(U.shape[:U.ndim - q] + (N, -1))
        K = (U[..., I, :] * U[..., J, :]).sum(-1) / float(math.factorial(q - 1))
        return SymTensor(N, 2, K).entries()

    return field_from_components(
        sphere, 2, amb, rep="coordinate", name=name or f"K^{u.name}"
    )


# ---------------------------------------------------------------------------
# special conformal Killing tensors (flat model) and the hat map


def special_ckt_flat(k0, chart=None, name="special-flat"):
    """The flat-space tensor x . k0 with nabla_X K = X . k0."""
    k0 = np.asarray(k0, dtype=float)
    n = len(k0)
    chart = chart or euclidean_chart(n)

    def comps(x):
        out = []
        for i, j in multi_indices(n, 2):
            out.append(x[i] * k0[j] + x[j] * k0[i])
        return out

    return TensorField(chart, 2, comps, name=name)


def special_killing_coefficients(n, p):
    """Rescaling constants a_j with a_0 = 1, a_j = -(n+p-2j-1)/(p+1-2j) a_{j-1}.

    Applied to the standard-decomposition parts of a special conformal
    Killing tensor they produce a Killing tensor; for p = 2 this is
    K - tr(K) g.
    """
    coeffs = [1.0]
    for j in range(1, p // 2 + 1):
        den = p + 1 - 2 * j
        if den == 0:
            raise ConfigError(f"degenerate recursion denominator at j={j}")
        coeffs.append(-(n + p - 2 * j - 1) / den * coeffs[-1])
    return coeffs


def special_to_killing(field, rng=None, check=True, tol=1e-8, name=None):
    """Rescale standard-decomposition parts of a special CKT to a Killing one."""
    n, p = field.base.dim, field.degree
    if check:
        rng = np.random.default_rng(2) if rng is None else rng
        points = [list(field.base.sample_point(rng)) for _ in range(KILLING_CHECK_SAMPLES)]
        worst = _worst(special_conformal_residual(field, points).tolist())
        if not worst <= tol:
            raise VerificationError(
                f"input is not special conformal Killing (residual {worst:.2e})"
            )
    coeffs = special_killing_coefficients(n, p)

    def comps(x):
        K = SymTensor(n, p, field.comps_fn(x))
        parts = standard_decomposition(K).parts
        out = SymTensor.zero(n, p)
        for j, part in enumerate(parts):
            term = part.scale(coeffs[j])
            for _ in range(j):
                term = mult_L(term)
            out = out + term
        return out.entries()

    return TensorField(field.base, p, comps, name=name or f"hat({field.name})")


def special_conformal_residual(field, x, T=None, deltaK=None):
    """|nabla K - X . k| with k = -delta K / (n + p - 1), relative.

    A float at a point; a (B,) array at a batch of B points.  ``T = nabla
    K`` and ``deltaK`` at x may be passed in when the caller already has
    them.
    """
    n, p = field.base.dim, field.degree
    if T is None:
        T = nabla(field, x)
    if deltaK is None:
        deltaK = delta_op(field, x, T=T)
    k = deltaK.scale(-1.0 / (n + p - 1))
    rows = slot_products(_rows(k.comps, n), p - 1)
    s = frame_norm(T)
    return frame_norm(T - FrameTensor.from_stacked(n, p, rows)) / (
        np.maximum(1.0, s) if np.ndim(s) else max(1.0, s))


def nijenhuis(field, x):
    """Nijenhuis tensor of a degree-2 field viewed as an endomorphism.

    Returns the array N[a, b, c] = g(N_A(e_a, e_b), e_c) built from
    A (nabla_X A) Y - A (nabla_Y A) X - (nabla_{AX} A) Y + (nabla_{AY} A) X.
    """
    if field.degree != 2:
        raise ConfigError("nijenhuis needs a degree-2 field")
    n = field.base.dim
    T = nabla(field, x)
    K = field(x)
    A = np.array([[value_of(K[a, b]) for b in range(n)] for a in range(n)])
    DA = np.array(
        [
            [[value_of(T.slots[c][a, b]) for b in range(n)] for a in range(n)]
            for c in range(n)
        ]
    )  # DA[c] = nabla_{e_c} A as a matrix
    out = np.zeros((n, n, n))
    for a in range(n):
        for b in range(n):
            v = A @ (DA[a] @ np.eye(n)[b]) - A @ (DA[b] @ np.eye(n)[a])
            v -= np.einsum("c,cij,j->i", A[:, a], DA, np.eye(n)[b])
            v += np.einsum("c,cij,j->i", A[:, b], DA, np.eye(n)[a])
            out[a, b] = v
    return out


# ---------------------------------------------------------------------------
# two-eigenvalue trace-free Killing tensors from distribution splits


@dataclass(frozen=True)
class DistributionSplit:
    """Orthogonal splitting of the tangent bundle via a projector field.

    ``projector_fn(x)`` returns the coordinate/ambient matrix of the
    g-orthogonal projection onto the first distribution (tangential for
    embedded backends); written generically for differentiation.
    """

    base: object
    n1: int
    projector_fn: object
    name: str = "split"

    @property
    def n2(self):
        return self.base.dim - self.n1


def _projector_frame_matrix(split, x):
    """Frame-basis matrix g(P e_a, e_b) of the projector, generic over scalars.

    At a single point P is cast to object dtype: the products with it sum
    left to right in Python, in the order of the loops they replaced, also
    at float points.  G @ F is an ordinary float64 matmul there.  A batch
    point keeps float64 throughout.
    """
    x = list(x)
    F = split.base.frame(x)
    P = point_array(split.projector_fn(x), x)
    if P.ndim == 2:
        P = P.astype(object)
    return np.swapaxes(P @ F, -1, -2) @ (split.base.metric_matrix(x) @ F)


def condition_d1_residual(split, x, rng):
    """Residual of the geodesic-invariance condition of the split at x.

    For an orthonormal eigenbasis of the projector, extends each eigenvector
    v in E_i to the field y -> P_i(y) v and measures the component of
    nabla_v v + symmetrized cross terms in the complementary distribution.
    """
    base = split.base
    n = base.dim
    Pf = np.asarray(_projector_frame_matrix(split, x), dtype=float)
    w, V = np.linalg.eigh(0.5 * (Pf + Pf.T))
    # columns of V: eigenvectors; eigenvalues ~0 or ~1
    ones = [V[:, i] for i in range(n) if w[i] > 0.5]
    zeros = [V[:, i] for i in range(n) if w[i] <= 0.5]
    if len(ones) != split.n1:
        raise VerificationError("projector rank differs from declared n1")
    F = frame_at(base, x)
    res = []
    for group, proj_first in ((ones, True), (zeros, False)):
        for v in group:
            for u in group:
                vc = F @ v  # coordinate vector
                uc = F @ u

                def ext(y, coord_vec=None, first=proj_first):
                    P = split.projector_fn(y)
                    m = base.coord_dim
                    out = []
                    for i in range(m):
                        s = 0.0
                        for j in range(m):
                            pij = P[i][j] if first else (1.0 if i == j else 0.0) - P[i][j]
                            s = s + pij * coord_vec[j]
                        out.append(s)
                    return out

                # frame components of nabla_v U + nabla_u V at x
                fv = field_from_components(
                    base, 1, lambda y: frame_components(base, y, ext(y, coord_vec=vc)),
                    rep="frame",
                )
                fu = field_from_components(
                    base, 1, lambda y: frame_components(base, y, ext(y, coord_vec=uc)),
                    rep="frame",
                )
                Tv = nabla(fv, x)
                Tu = nabla(fu, x)
                ucf = base.frame_components(x, uc)
                vcf = base.frame_components(x, vc)
                dvu = sum((Tu.slots[a].scale(vcf[a]) for a in range(n)),
                          SymTensor.zero(n, 1))
                duv = sum((Tv.slots[a].scale(ucf[a]) for a in range(n)),
                          SymTensor.zero(n, 1))
                total = (dvu + duv).values()
                # complementary projection in the frame
                comp = np.eye(n) - Pf if proj_first else Pf
                res.append(float(np.abs(comp @ total).max()))
    return _worst(res, 0.0)


def distribution_stackel(split, name=None):
    """Trace-free tensor n2 * P1 - n1 * P2 attached to a splitting.

    Killing exactly when the splitting satisfies the geodesic-invariance
    condition; returned unconditionally so broken splits can serve as
    negative controls.
    """
    base = split.base
    n = base.dim
    n1, n2 = split.n1, split.n2
    I, J = index_array(n, 2).T
    delta = np.where(I == J, 1.0, 0.0)

    def comps(x):
        P = _projector_frame_matrix(split, x)[..., I, J]
        return SymTensor(n, 2, n2 * P - n1 * (delta - P)).entries()

    return TensorField(base, 2, comps, name=name or f"stackel({split.name})")


def hopf_generator():
    """Unit Killing field generator on S^3: the standard complex structure."""
    J = np.zeros((4, 4))
    J[0, 1], J[1, 0] = -1.0, 1.0
    J[2, 3], J[3, 2] = -1.0, 1.0
    return J


def hopf_split(sphere=None):
    """Vertical/horizontal splitting of the circle fibration on S^3."""
    sphere = sphere or EmbeddedSphere(3)
    J = hopf_generator()

    def projector(x):
        # xi = J x; projector onto span(xi): xi xi^T / |xi|^2 with |xi| = |x|
        xi = [sum(J[i, j] * x[j] for j in range(4) if J[i, j]) for i in range(4)]
        r2 = x[0] * x[0]
        for v in x[1:]:
            r2 = r2 + v * v
        return [[xi[i] * xi[j] / r2 for j in range(4)] for i in range(4)]

    return DistributionSplit(sphere, 1, projector, name="hopf")


def tilted_split(sphere=None, c=(0.9, 0.1, -0.3, 0.5)):
    """Generic line field on S^3 violating the geodesic-invariance condition."""
    sphere = sphere or EmbeddedSphere(3)
    c = np.asarray(c, dtype=float)

    def projector(x):
        r2 = x[0] * x[0]
        for v in x[1:]:
            r2 = r2 + v * v
        dot = c[0] * x[0]
        for i in range(1, 4):
            dot = dot + c[i] * x[i]
        eta = [c[i] - dot * x[i] / r2 for i in range(4)]
        nrm = eta[0] * eta[0]
        for v in eta[1:]:
            nrm = nrm + v * v
        return [[eta[i] * eta[j] / nrm for j in range(4)] for i in range(4)]

    return DistributionSplit(sphere, 1, projector, name="tilted")


def coordinate_split(chart, n1):
    """Axis-aligned splitting of a flat chart."""

    def projector(x):
        n = chart.dim
        return [
            [1.0 if (i == j and i < n1) else 0.0 for j in range(n)] for i in range(n)
        ]

    return DistributionSplit(chart, n1, projector, name="coordinate")


# ---------------------------------------------------------------------------
# conformal Killing tensors on Riemannian products


def _lift_field(product, which, factor_field, name=None):
    """Lift a field from one factor to the product (zero on the other slots)."""
    n = product.dim
    n1 = product.first.dim
    m1 = product.first.coord_dim
    p = factor_field.degree

    def comps(x):
        xs = list(x[:m1]) if which == 0 else list(x[m1:])
        sub = factor_field.comps_fn(xs)
        nf = product.first.dim if which == 0 else product.second.dim
        sub_idx = {I: k for k, I in enumerate(multi_indices(nf, p))}
        off = 0 if which == 0 else n1
        out = []
        for I in multi_indices(n, p):
            if all(off <= i < off + nf for i in I):
                out.append(sub[sub_idx[tuple(i - off for i in I)]])
            else:
                out.append(0.0)
        return out

    return TensorField(product, p, comps,
                       name=name or f"lift{which + 1}({factor_field.name})")


def product_ckt(product, K1=None, K2=None, pairs=(), rng=None, check=True,
                name="product-ckt"):
    """Trace-free conformal Killing tensor on a product manifold.

    Assembles the trace-free part of the lifted Killing tensors plus the
    symmetric products of the Killing-field pairs (xi_i on the first
    factor, zeta_i on the second).  Inputs are verified Killing on their
    factors unless ``check`` is disabled.
    """
    rng = np.random.default_rng(3) if rng is None else rng
    terms = []
    if K1 is not None:
        if check:
            verify_killing(K1, rng)
        terms.append(_lift_field(product, 0, K1))
    if K2 is not None:
        if check:
            verify_killing(K2, rng)
        terms.append(_lift_field(product, 1, K2))
    core = None
    for t in terms:
        core = t if core is None else add_fields(core, t)
    if core is not None:
        core = tracefree_part_field(core)
    for xi, zeta in pairs:
        if check:
            verify_killing(xi, rng)
            verify_killing(zeta, rng)
        cross = product_field(_lift_field(product, 0, xi), _lift_field(product, 1, zeta))
        core = cross if core is None else add_fields(core, cross)
    if core is None:
        raise ConfigError("product_ckt needs at least one ingredient")
    return TensorField(product, 2, core.comps_fn, name=name)


def traceless_killing_product(xi, zeta, rng=None, check=True, name=None):
    """The combination xi . zeta - (2/n) g(xi, zeta) g of two Killing fields.

    Trace-free by construction; Killing exactly when g(xi, zeta) is
    constant (e.g. anti-commuting rotation generators, or a unit Killing
    field paired with itself).
    """
    if check:
        rng = np.random.default_rng(4) if rng is None else rng
        verify_killing(xi, rng)
        verify_killing(zeta, rng)
    base = xi.base
    n = base.dim
    gidx = multi_indices(n, 2)

    def comps(x):
        a = xi.comps_fn(x)
        b = zeta.comps_fn(x)
        prod = sym_product(SymTensor(n, 1, a), SymTensor(n, 1, b)).entries()
        dot = a[0] * b[0]
        for i in range(1, n):
            dot = dot + a[i] * b[i]
        out = []
        for k, (i, j) in enumerate(gidx):
            corr = dot * (2.0 / n) if i == j else 0.0
            out.append(prod[k] - corr)
        return out

    return TensorField(base, 2, comps, name=name or f"({xi.name}.{zeta.name})_0")


# ---------------------------------------------------------------------------
# constructor registry


@dataclass(frozen=True)
class CatalogEntry:
    """One registry row: builder, natural manifold, declared verdicts.

    ``expected`` maps classifier verdict names to booleans; for negative
    controls ``negative_check`` names the residual that must exceed
    ``min_residual``.  ``params`` names the parameter keys the builder
    reads; any other key is a configuration error.
    """

    key: str
    manifold_key: str
    build: object
    expected: dict = dc_field(default_factory=dict)
    negative_check: str = ""
    min_residual: float = 0.0
    geodesic_killing: bool = False
    params: tuple = ()


def _rotation_generator(N, i, j):
    A = np.zeros((N, N))
    A[i, j], A[j, i] = -1.0, 1.0
    return A


def _anticommuting_pair():
    # quaternionic left multiplications by i and j on R^4
    Ji = np.array([
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    Jj = np.array([
        [0.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ])
    return Ji, Jj


def _build_sphere_curvature(base, rng, params=None):
    R = curvature_project(rng.standard_normal((base.coord_dim,) * 4))
    return curvature_to_killing(R, base, name="sphere-curvature")


def _build_sphere_curvature_weyl(base, rng, params=None):
    R = weyl_part(curvature_project(rng.standard_normal((base.coord_dim,) * 4)))
    return curvature_to_killing(R, base, name="sphere-curvature-weyl")


def _build_broken_curvature(base, rng, params=None):
    Rc = rng.standard_normal((base.coord_dim,) * 4)
    return curvature_to_killing(AlgCurvature(Rc), base, name="broken-sphere-curvature")


def _build_sym_product(base, rng, params=None):
    N = base.coord_dim
    gens = (params or {}).get("generators", [[0, 1], [1, 2]])
    xi = killing_vector(base, _rotation_generator(N, *gens[0]), name="rot-a")
    zeta = killing_vector(base, _rotation_generator(N, *gens[1]), name="rot-b")
    return sym_product_field(xi, zeta, rng=rng)


def _build_sym_product_hopf(base, rng, params=None):
    Ji, Jj = _anticommuting_pair()
    xi = killing_vector(base, Ji, name="hopf-i")
    zeta = killing_vector(base, Jj, name="hopf-j")
    return traceless_killing_product(xi, zeta, rng=rng, name="sym-product-hopf")


def _build_sasakian(base, rng, params=None):
    xi = killing_vector(base, hopf_generator(), name="hopf")
    return traceless_killing_product(xi, xi, rng=rng, name="sasakian-stackel")


def _build_broken_sym_product(base, rng, params=None):
    N = base.coord_dim
    xi = killing_vector(base, _rotation_generator(N, 0, 1), name="rot01")
    c = np.linspace(0.5, 1.0, N)

    def amb(x):
        dot = c[0] * x[0]
        for i in range(1, N):
            dot = dot + c[i] * x[i]
        r2 = x[0] * x[0]
        for v in x[1:]:
            r2 = r2 + v * v
        return [c[i] - dot * x[i] / r2 for i in range(N)]

    eta = field_from_components(base, 1, amb, rep="coordinate", name="concircular")
    return product_field(xi, eta, name="broken-sym-product")


def _killing_form_omega(N, q, rng):
    w = rng.standard_normal((N,) * (q + 1))
    out = np.zeros_like(w)
    for sigma in permutations(range(q + 1)):
        sign = np.linalg.det(np.eye(q + 1)[list(sigma)])
        out += sign * np.transpose(w, sigma)
    return out / float(len(list(permutations(range(q + 1)))))


def _build_killing_form(base, rng, q, params=None):
    omega = _killing_form_omega(base.coord_dim, q, rng)
    u = killing_form_sphere(omega, base)
    return killing_form_to_tensor(u, rng=rng)


def _build_broken_killing_form(base, rng, params=None):
    omega = _killing_form_omega(base.coord_dim, 1, rng)
    sphere = base

    def amb(x):
        scale = np.asarray(1.0 + 0.7 * x[0])[..., None]
        return scale * np.tensordot(np.stack(x, axis=-1), omega, axes=(-1, 0))

    u = FormField(sphere, 1, amb, name="non-killing-form")
    return killing_form_to_tensor(u, check=False, name="broken-killing-form")


def _build_special_flat(base, rng, params=None):
    k0 = np.asarray((params or {}).get("k0", [0.4, -0.3, 0.5]), dtype=float)
    if len(k0) != base.dim:
        raise ConfigError(f"k0 must have length {base.dim}")
    return special_ckt_flat(k0, chart=base)


def _build_special_flat_hat(base, rng, params=None):
    return special_to_killing(_build_special_flat(base, rng, params), rng=rng)


def _build_broken_special_hat(base, rng, params=None):
    K = _build_special_flat(base, rng, params)
    n = base.dim

    def comps(x):
        S = SymTensor(n, 2, K.comps_fn(x))
        tr = trace_Lambda(S).comps
        wrong = S - SymTensor.metric(n).scale(0.5 * tr)
        return wrong.entries()

    return TensorField(base, 2, comps, name="broken-special-hat")


def _build_hopf_stackel(base, rng, params=None):
    return distribution_stackel(hopf_split(base), name="hopf-stackel")


def _build_broken_hopf(base, rng, params=None):
    return distribution_stackel(tilted_split(base), name="broken-hopf-stackel")


def _build_product_ckt(base, rng, params=None):
    f1, f2 = base.first, base.second
    R = curvature_project(rng.standard_normal((f1.coord_dim,) * 4))
    K1 = curvature_to_killing(R, f1, name="factor-curvature")
    xi = killing_vector(f1, _rotation_generator(f1.coord_dim, 0, 1), name="xi")
    zeta = killing_vector(f2, _rotation_generator(f2.coord_dim, 0, 2), name="zeta")
    return product_ckt(base, K1=K1, pairs=[(xi, zeta)], rng=rng)


def _build_broken_product(base, rng, params=None):
    f1, f2 = base.first, base.second
    xi = killing_vector(f1, _rotation_generator(f1.coord_dim, 0, 1), name="xi")
    c = np.linspace(0.4, 1.0, f2.coord_dim)

    def amb(x):
        dot = sum(c[i] * x[i] for i in range(f2.coord_dim))
        r2 = sum(v * v for v in x)
        return [c[i] - dot * x[i] / r2 for i in range(f2.coord_dim)]

    eta = field_from_components(f2, 1, amb, rep="coordinate", name="concircular")
    cross = product_field(_lift_field(base, 0, xi), _lift_field(base, 1, eta))
    return TensorField(base, 2, cross.comps_fn, name="broken-product-ckt")


def _build_metric(base, rng, params=None):
    return metric_field(base)


def constructor_catalog():
    """All registry entries, keyed by constructor string."""
    entries = [
        CatalogEntry(
            "metric", "sphere:2", _build_metric,
            expected={"killing": True, "conformal": True, "tracefree": False,
                      "divfree": True, "special_conformal": True},
            geodesic_killing=True,
        ),
        CatalogEntry(
            "sphere-curvature", "sphere:3", _build_sphere_curvature,
            expected={"killing": True, "conformal": True, "tracefree": False},
            geodesic_killing=True,
        ),
        CatalogEntry(
            "sphere-curvature-weyl", "sphere:3", _build_sphere_curvature_weyl,
            expected={"killing": True, "conformal": True, "tracefree": True,
                      "stackel": True, "divfree": True},
            geodesic_killing=True,
        ),
        CatalogEntry(
            "sym-product", "sphere:2", _build_sym_product,
            expected={"killing": True, "conformal": True},
            geodesic_killing=True, params=("generators",),
        ),
        CatalogEntry(
            "sym-product-hopf", "sphere:3", _build_sym_product_hopf,
            expected={"killing": True, "conformal": True, "tracefree": True,
                      "stackel": True, "divfree": True},
            geodesic_killing=True,
        ),
        CatalogEntry(
            "sasakian-stackel", "sphere:3", _build_sasakian,
            expected={"killing": True, "conformal": True, "tracefree": True,
                      "stackel": True, "divfree": True},
            geodesic_killing=True,
        ),
        CatalogEntry(
            "killing-form:q=1", "sphere:3",
            lambda base, rng, params=None: _build_killing_form(base, rng, 1),
            expected={"killing": True, "conformal": True},
            geodesic_killing=True,
        ),
        CatalogEntry(
            "killing-form:q=2", "sphere:4",
            lambda base, rng, params=None: _build_killing_form(base, rng, 2),
            expected={"killing": True, "conformal": True},
            geodesic_killing=True,
        ),
        CatalogEntry(
            "special-flat", "euclidean:3", _build_special_flat,
            expected={"killing": False, "conformal": True,
                      "special_conformal": True},
            params=("k0",),
        ),
        CatalogEntry(
            "special-flat-hat", "euclidean:3", _build_special_flat_hat,
            expected={"killing": True, "conformal": True, "tracefree": False,
                      "divfree": False},
            geodesic_killing=True, params=("k0",),
        ),
        CatalogEntry(
            "hopf-stackel", "sphere:3", _build_hopf_stackel,
            expected={"killing": True, "conformal": True, "tracefree": True,
                      "stackel": True, "divfree": True},
            geodesic_killing=True,
        ),
        CatalogEntry(
            "product-ckt", "product:sphere:2,sphere:2", _build_product_ckt,
            expected={"killing": False, "conformal": True, "tracefree": True},
        ),
        # negative controls
        CatalogEntry(
            "broken-sphere-curvature", "sphere:3", _build_broken_curvature,
            expected={"killing": False},
            negative_check="killing", min_residual=1e-3,
        ),
        CatalogEntry(
            "broken-sym-product", "sphere:2", _build_broken_sym_product,
            expected={"killing": False},
            negative_check="killing", min_residual=1e-3,
            geodesic_killing=False,
        ),
        CatalogEntry(
            "broken-killing-form", "sphere:3", _build_broken_killing_form,
            expected={"killing": False},
            negative_check="killing", min_residual=1e-3,
        ),
        CatalogEntry(
            "broken-special-hat", "euclidean:3", _build_broken_special_hat,
            expected={"killing": False},
            negative_check="killing", min_residual=1e-3, params=("k0",),
        ),
        CatalogEntry(
            "broken-hopf-stackel", "sphere:3", _build_broken_hopf,
            expected={"killing": False},
            negative_check="killing", min_residual=1e-3,
        ),
        CatalogEntry(
            "broken-product-ckt", "product:sphere:2,sphere:2",
            _build_broken_product,
            expected={"conformal": False},
            negative_check="conformal", min_residual=1e-3,
        ),
    ]
    return {e.key: e for e in entries}


def stable_stream(seed, label):
    """Deterministic per-task RNG: seed combined with a stable label hash."""
    return np.random.default_rng([seed, zlib.crc32(str(label).encode())])


def build_constructor(key, base=None, seed=42, params=None):
    """Instantiate a catalog constructor on its (or a compatible) manifold.

    ``params`` is an optional JSON-style dict of constructor parameters
    (e.g. {"k0": [...]} for the flat special tensor, {"generators":
    [[0,1],[1,2]]} for rotation products); a key the entry does not name
    in ``CatalogEntry.params`` raises ConfigError.
    """
    catalog = constructor_catalog()
    if key not in catalog:
        raise ConfigError(f"unknown constructor key {key!r}")
    entry = catalog[key]
    unknown = sorted(set(params or ()) - set(entry.params))
    if unknown:
        raise ConfigError(
            f"constructor {key!r} takes parameters {list(entry.params)}, not {unknown}"
        )
    if base is None:
        base = manifold_from_key(entry.manifold_key)
    field = entry.build(base, stable_stream(seed, key), params=params)
    return field, entry
