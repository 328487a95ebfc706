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

from .cartan import _frame_norm_comps, _rows, frame_norm, slot_products
from .dual import DualArray, d_dot, jacobian, stack
from .errors import ConfigError, DegreeError, VerificationError
from .fields import (
    TensorField,
    _nabla_jet,
    add_fields,
    d_op,
    delta_op,
    derived_field,
    field_from_components,
    metric_field,
    nabla,
    product_field,
    tracefree_part_field,
)
from .io import _is_int, finite_number
from .manifolds import (
    EmbeddedSphere,
    frame_at,
    manifold_from_key,
    point_array,
    sample_points,
)
from .multiindex import (
    _repeat_counts,
    dense_array,
    index_array,
    multi_indices,
    positions,
)
from .obs import finite_or_nan, worst
from .symtensor import (
    Decomposition,
    SymTensor,
    _relative,
    norm,
    standard_decomposition,
    sym_product,
    trace_Lambda,
)

__all__ = [
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


def _check_points(base, rng):
    """The ``KILLING_CHECK_SAMPLES`` points of a construction check."""
    return sample_points(base, KILLING_CHECK_SAMPLES, rng)


def _require(residuals, what):
    """The worst residual; raise unless it is at most ``KILLING_CHECK_TOL``.

    A non-finite residual raises too.
    """
    residual = worst(residuals)
    if not residual <= KILLING_CHECK_TOL:
        raise VerificationError(f"{what} (residual {residual:.2e})")
    return residual


# ---------------------------------------------------------------------------
# algebraic curvature tensors: (N, N, N, N) float arrays


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
    return R - b


def sphere_curvature_generator(N):
    """Constant-curvature tensor: R[a,b,c,d] = d_ad d_bc - d_ac d_bd."""
    I = np.eye(N)
    return np.einsum("ad,bc->abcd", I, I) - np.einsum("ac,bd->abcd", I, I)


def kulkarni_nomizu(h, k):
    return (
        np.einsum("ad,bc->abcd", h, k)
        + np.einsum("bc,ad->abcd", h, k)
        - np.einsum("ac,bd->abcd", h, k)
        - np.einsum("bd,ac->abcd", h, k)
    )


def weyl_part(R):
    """Totally trace-free part of an algebraic curvature tensor."""
    N = R.shape[0]
    if N < 4:
        raise ConfigError("Weyl part vanishes identically below dimension 4")
    ric = np.einsum("abca->bc", R)
    scal = float(np.trace(ric))
    ric0 = ric - scal / N * np.eye(N)
    g = np.eye(N)
    return (
        R
        - kulkarni_nomizu(ric0, g) / (N - 2)
        - scal / (2.0 * N * (N - 1)) * kulkarni_nomizu(g, g)
    )


def curvature_to_killing(R, sphere, name="curvature-killing"):
    """Killing 2-tensor on the sphere: K(X, Y) = R(X, x, x, Y) at x.

    ``R`` is an algebraic curvature tensor on the ambient R^N, an
    ``(N, N, N, N)`` array.
    """
    if not isinstance(sphere, EmbeddedSphere) or R.shape != (sphere.coord_dim,) * 4:
        raise ConfigError("curvature tensor dimension must match the ambient space")
    N = sphere.coord_dim
    I, J = index_array(N, 2).T
    # packed quadratic form: K_AB = sum_{C <= D} Q[AB, CD] x_C x_D
    Rs = R[I, :, :, J]
    Q = (Rs + Rs.transpose(0, 2, 1))[:, I, J] * np.where(I == J, 0.5, 1.0)

    def amb(x):
        X = stack(x)  # (..., N): floats or batch columns, or the Duals' array
        return SymTensor(N, 2, (X[..., I] * X[..., J]) @ Q.T).entries()

    return field_from_components(sphere, 2, amb, name=name)


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

    return field_from_components(base, 1, amb, name=name)


def verify_killing(field, rng):
    """Raise unless the d-residual of the field is at most
    ``KILLING_CHECK_TOL`` at ``KILLING_CHECK_SAMPLES`` points.

    The points are drawn first and differentiated as one batch.  A
    non-finite residual raises too.
    """
    points = _check_points(field.base, rng)
    T = nabla(field, points)
    return _require(norm(d_op(T)) / np.maximum(1.0, frame_norm(T)),
                    "field is not Killing")


def sym_product_field(xi, zeta, rng):
    """Symmetric product of two verified Killing vector fields."""
    verify_killing(xi, rng)
    verify_killing(zeta, rng)
    return product_field(xi, zeta)


# ---------------------------------------------------------------------------
# Killing forms on spheres


class FormField:
    """Antisymmetric q-form field on an embedded sphere, ambient storage.

    ``amb_fn(x)`` returns the dense ambient components (tangential on the
    sphere) as an array of shape batch + (N,) * q, generic over scalars:
    a DualArray at a point of Duals, batch axes first at a batch point.
    """

    def __init__(self, sphere, degree, amb_fn, name="form"):
        self.base = sphere
        self.degree = degree
        self.amb_fn = amb_fn
        self.name = name


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
        return np.tensordot(stack(x), omega, axes=(-1, 0))

    return FormField(sphere, q, amb, name=name or f"killing-form:q={q}")


def killing_form_residual(u, x):
    """Max over frame directions of |X -| nabla_X u| at x (tangential).

    NaN if any entry is not finite, so a NaN form cannot pass.
    """
    sphere = u.base
    N = sphere.coord_dim
    q = u.degree
    xf = [float(v) for v in x]
    vals, jac = jacobian(lambda y: u.amb_fn(y).ravel(), xf)
    P = np.eye(N) - np.outer(xf, xf) / np.dot(xf, xf)
    F = frame_at(sphere, xf)
    # D[..., a]: the tangential ambient derivative along e_a
    D = np.tensordot(jac.reshape((N,) * (q + 1)), F, axes=([q], [0]))
    for axis in range(q):
        D = np.tensordot(P, D, axes=([1], [axis])).transpose(
            *range(1, axis + 1), 0, *range(axis + 1, D.ndim))
    hooked = np.einsum("A...a,Aa->a...", D, F)  # e_a -| D[..., a]
    hooks = np.abs(hooked).reshape(sphere.dim, -1).max(1)
    return worst(hooks) / worst([1.0, float(np.abs(vals).max())])


def killing_form_to_tensor(u, rng, check=True, name=None):
    """Killing 2-tensor K(X, Y) = g(X -| u, Y -| u) from a Killing form.

    With ``check`` the form is first verified Killing at points drawn
    from ``rng``.
    """
    sphere = u.base
    N = sphere.coord_dim
    q = u.degree
    if check:
        _require([killing_form_residual(u, x) for x in _check_points(sphere, rng)],
                 "form is not Killing")

    I, J = index_array(N, 2).T

    def amb(x):
        # K_AB = sum over the other slots of u_A... u_B... / (q - 1)!
        U = u.amb_fn(x)
        U = U.reshape(U.shape[:U.ndim - q] + (N, -1))
        K = (U[..., I, :] * U[..., J, :]).sum(-1) / float(math.factorial(q - 1))
        return SymTensor(N, 2, K).entries()

    return field_from_components(sphere, 2, amb, name=name or f"K^{u.name}")


# ---------------------------------------------------------------------------
# special conformal Killing tensors (flat model) and the hat map


def special_ckt_flat(k0, chart):
    """The flat-space tensor x . k0 with nabla_X K = X . k0 on a flat chart."""
    k0 = np.asarray(k0, dtype=float)
    n = len(k0)

    def comps(x):
        out = []
        for i, j in multi_indices(n, 2):
            out.append(x[i] * k0[j] + x[j] * k0[i])
        return out

    return TensorField(chart, 2, comps, name="special-flat")


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


def special_to_killing(field, rng):
    """Rescale standard-decomposition parts of a special CKT to a Killing one.

    The input is first verified special conformal Killing at points drawn
    from ``rng``.
    """
    n, p = field.base.dim, field.degree
    _require(special_conformal_residual(field, _check_points(field.base, rng)),
             "input is not special conformal Killing")
    coeffs = special_killing_coefficients(n, p)

    def hat(K):
        parts = standard_decomposition(K).parts
        return Decomposition(n, p, tuple(q.scale(c) for q, c in zip(parts, coeffs))).reconstruct()

    return derived_field(hat, field, name=f"hat({field.name})")


def special_conformal_residual(field, x):
    """|nabla K - X . k| with k = -delta K / (n + p - 1), relative.

    A float at a point; a (B,) array at a batch of B points.
    """
    T = nabla(field, x)
    n, p = T.dim, T.degree
    defect = _special_conformal_defect(T.comps, delta_op(T).comps, n, p)
    return _relative(_frame_norm_comps(defect, n, p), frame_norm(T))


def _special_conformal_defect(S, delta, n, p):
    """The slots of nabla K - X . k, k = -delta K / (n + p - 1), from the
    slots S (..., n, size) of ``nabla K`` and the components ``delta`` of
    delta K: they vanish for a special conformal Killing tensor."""
    return S - slot_products(_rows(delta * (-1.0 / (n + p - 1)), n), p - 1)


def nijenhuis(field, x):
    """Nijenhuis tensor of a degree-2 field viewed as an endomorphism.

    Returns the array N[a, b, c] = g(N_A(e_a, e_b), e_c) built from
    A (nabla_X A) Y - A (nabla_Y A) X - (nabla_{AX} A) Y + (nabla_{AY} A) X,
    with A and nabla A from one jet: ``(n, n, n)`` at a point and
    ``(B, n, n, n)`` at a batch of B points.
    """
    if field.degree != 2:
        raise ConfigError("nijenhuis needs a degree-2 field")
    dense = dense_array(field.base.dim, 2)
    vals, S = _nabla_jet(field, x)
    A, DA = vals[..., dense], S[..., dense]  # DA[c] = nabla_{e_c} A
    # M[a, b] = A (nabla_a A) e_b and Q[a, b] = (nabla_{A e_a} A) e_b
    M = np.einsum("...ij,...ajb->...abi", A, DA)
    Q = np.einsum("...ca,...cib->...abi", A, DA)
    return M - np.swapaxes(M, -3, -2) - Q + np.swapaxes(Q, -3, -2)


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

    Every product is one matmul: float64 at a float point or a batch, a
    DualArray's at Duals of a float seeding.
    """
    x = list(x)
    F = split.base.frame(x)
    P = point_array(split.projector_fn(x), x)
    return np.swapaxes(P @ F, -1, -2) @ (split.base.metric_matrix(x) @ F)


def condition_d1_residual(split, x):
    """Residual of the geodesic-invariance condition (d1) of the split at x.

    (d1) says the symmetrized second fundamental form of each distribution
    vanishes: for u, v in E1, (I - P1)[(nabla_u P1) v + (nabla_v P1) u] = 0,
    and for u, v in E2, P1[...] = 0.  The residual is the largest entry over
    orthonormal eigenvectors u, v of the projector P1.  As K = n P1 - n1 g
    is the split's Staeckel tensor and g is parallel, nabla P1 is nabla K / n,
    read off one ``nabla``.  A float at a point; a (B,) array at a batch of
    B points.
    """
    single = not np.ndim(x[0])
    points = [list(x)] if single else [list(p) for p in x]
    n, n1 = split.base.dim, split.n1
    P = _projector_frame_matrix(split, np.transpose(points))
    w, V = np.linalg.eigh(0.5 * (P + np.swapaxes(P, -1, -2)))
    if np.any((w > 0.5).sum(-1) != n1):
        raise VerificationError("projector rank differs from declared n1")
    dP = nabla(distribution_stackel(split), points).comps[..., dense_array(n, 2)] / n
    # H[i, j] = (nabla_{v_i} P1) v_j + (nabla_{v_j} P1) v_i; eigh sorts the
    # eigenvalues, so the last n1 eigenvectors span E1 and the rest E2
    H = np.einsum("...ci,...cae,...ej->...ija", V, dP, V)
    H = H + np.swapaxes(H, -3, -2)
    n2 = n - n1
    r1 = (np.eye(n) - P)[..., None, None, :, :] @ H[..., n2:, n2:, :, None]
    r2 = P[..., None, None, :, :] @ H[..., :n2, :n2, :, None]
    res = np.abs(np.concatenate([r1.reshape(len(points), -1),
                                 r2.reshape(len(points), -1)], -1)).max(-1)
    res = finite_or_nan(res)
    return float(res[0]) if single else res


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


def hopf_split(sphere):
    """Vertical/horizontal splitting of the circle fibration on S^3."""
    J = hopf_generator()

    def projector(x):
        # xi = J x; projector onto span(xi): xi xi^T / |xi|^2 with |xi| = |x|
        xi = [sum(J[i, j] * x[j] for j in range(4) if J[i, j]) for i in range(4)]
        r2 = d_dot(x, x)
        return [[xi[i] * xi[j] / r2 for j in range(4)] for i in range(4)]

    return DistributionSplit(sphere, 1, projector, name="hopf")


def _tangential(c, x):
    """c - (c . x) x / |x|^2: the constant vector c projected tangent to the
    sphere through x, generic over scalars."""
    dot = d_dot(c, x)
    r2 = d_dot(x, x)
    return [c[i] - dot * x[i] / r2 for i in range(len(c))]


def tilted_split(sphere):
    """Generic line field on S^3 violating the geodesic-invariance condition."""
    c = np.array([0.9, 0.1, -0.3, 0.5])

    def projector(x):
        eta = _tangential(c, x)
        nrm = d_dot(eta, eta)
        return [[eta[i] * eta[j] / nrm for j in range(4)] for i in range(4)]

    return DistributionSplit(sphere, 1, projector, name="tilted")


# ---------------------------------------------------------------------------
# conformal Killing tensors on Riemannian products


def _lift_field(product, which, factor_field):
    """Lift a field from one factor to the product (zero on the other slots).

    ``gather[k]`` is the position in the factor's packed components of the
    product's k-th multi-index where it stays in the factor's slots; the
    ``outside`` slots hold the constant 0.0.  One ``take`` when the
    components are a DualArray.
    """
    p = factor_field.degree
    factor = product.second if which else product.first
    off = product.first.dim if which else 0
    m1 = product.first.coord_dim
    coords = slice(m1, None) if which else slice(0, m1)
    counts = _repeat_counts(product.dim, p)[:, off:off + factor.dim]
    outside = counts.sum(axis=-1) != p
    gather = np.where(outside, 0, positions(counts))

    def comps(x):
        sub = factor_field.comps_fn(list(x[coords]))
        if not isinstance(sub, DualArray):
            return [0.0 if out else sub[k] for k, out in zip(gather, outside)]
        lifted = sub.take(gather)
        lifted[outside] = 0.0
        return lifted

    return TensorField(product, p, comps, name=f"lift{which + 1}({factor_field.name})")


def product_ckt(product, rng, K1=None, K2=None, pairs=()):
    """Trace-free conformal Killing tensor on a product manifold.

    Assembles the trace-free part of the lifted Killing tensors plus the
    symmetric products of the Killing-field pairs (xi_i on the first
    factor, zeta_i on the second).  Inputs are verified Killing on their
    factors at points drawn from ``rng``.  Ingredients of another degree
    than 2 raise ``DegreeError`` when the field is built.
    """
    core = None
    for which, K in enumerate((K1, K2)):
        if K is not None:
            verify_killing(K, rng)
            lifted = _lift_field(product, which, K)
            core = lifted if core is None else add_fields(core, lifted)
    if core is not None:
        core = tracefree_part_field(core)
    for xi, zeta in pairs:
        verify_killing(xi, rng)
        verify_killing(zeta, rng)
        cross = product_field(_lift_field(product, 0, xi), _lift_field(product, 1, zeta))
        core = cross if core is None else add_fields(core, cross)
    if core is None:
        raise ConfigError("product_ckt needs at least one ingredient")
    if core.degree != 2:
        raise DegreeError(f"product_ckt needs degree-2 ingredients, got degree {core.degree}")
    return TensorField(product, 2, core.comps_fn, name="product-ckt")


def traceless_killing_product(xi, zeta, rng, name=None):
    """The combination xi . zeta - (2/n) g(xi, zeta) g of two Killing fields.

    Trace-free by construction; Killing exactly when g(xi, zeta) is
    constant (e.g. anti-commuting rotation generators, or a unit Killing
    field paired with itself).  Both fields are first verified Killing at
    points drawn from ``rng``.
    """
    verify_killing(xi, rng)
    verify_killing(zeta, rng)
    n = xi.dim
    gidx = multi_indices(n, 2)

    def traceless_product(A, B):
        corr = d_dot(A.entries(), B.entries()) * (2.0 / n)
        return sym_product(A, B) - SymTensor(n, 2, [corr if i == j else 0.0 for i, j in gidx])

    return derived_field(traceless_product, xi, zeta, name=name or f"({xi.name}.{zeta.name})_0")


# ---------------------------------------------------------------------------
# constructor registry


CONTROL_FLOOR = 1e-3


@dataclass(frozen=True)
class CatalogEntry:
    """One registry row: builder, natural manifold, declared verdicts.

    ``expected`` maps classifier verdict names to the booleans ``classify``
    must reproduce.  A ``broken-*`` control names instead the
    ``negative_check`` whose residual must reach ``min_residual``, the one
    floor ``CONTROL_FLOOR``; its ``expected`` is that verdict false.
    ``judge`` is the only place a report is held to an entry, and
    ``declared_killing`` (``expected["killing"] is True``) the only test of
    whether the field keeps its first integral along geodesics.
    ``params`` names the parameter keys the builder reads; any other key
    is a configuration error.
    """

    key: str
    manifold_key: str
    build: object
    expected: dict = dc_field(default_factory=dict)
    negative_check: str = ""
    params: tuple = ()

    def __post_init__(self):
        if self.negative_check:
            object.__setattr__(self, "expected", {self.negative_check: False})

    @property
    def min_residual(self):
        return CONTROL_FLOOR if self.negative_check else 0.0

    @property
    def declared_killing(self):
        return self.expected.get("killing") is True

    def judge(self, report):
        """Hold a classify report to this entry.  Returns the ``verify``
        record (``expected``, ``matches_expected`` and, for a control, its
        ``negative_control``), the max residuals of the verdicts declared
        true, and whether the report passed."""
        matches = all(report.verdicts.get(k) == v for k, v in self.expected.items())
        record = {"expected": dict(sorted(self.expected.items())),
                  "matches_expected": matches}
        passed = matches
        if self.negative_check:
            observed = report.max_residuals[self.negative_check]
            caught = observed >= self.min_residual
            record["negative_control"] = {"check": self.negative_check, "observed": observed,
                                          "min_residual": self.min_residual, "pass": caught}
            passed = matches and caught
        residuals = [report.max_residuals[k] for k, v in self.expected.items()
                     if v and k in report.max_residuals]
        return record, residuals, passed


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
    return curvature_to_killing(Rc, base, name="broken-sphere-curvature")


def _generators_param(params, N):
    """The two rotation generators [[i, j], [k, l]] of ``params``: pairs
    of distinct integers in [0, N)."""
    gens = (params or {}).get("generators", [[0, 1], [1, 2]])

    def pair(g):
        return (isinstance(g, list) and len(g) == 2 and g[0] != g[1]
                and all(_is_int(i) and 0 <= i < N for i in g))

    if not (isinstance(gens, list) and len(gens) == 2 and all(map(pair, gens))):
        raise ConfigError(
            f"generators must be two pairs of distinct integers in [0, {N}), got {gens!r}")
    return gens


def _build_sym_product(base, rng, params=None):
    N = base.coord_dim
    gens = _generators_param(params, N)
    xi = killing_vector(base, _rotation_generator(N, *gens[0]), name="rot-a")
    zeta = killing_vector(base, _rotation_generator(N, *gens[1]), name="rot-b")
    return sym_product_field(xi, zeta, rng)


def _build_sym_product_hopf(base, rng, params=None):
    Ji, Jj = _anticommuting_pair()
    xi = killing_vector(base, Ji, name="hopf-i")
    zeta = killing_vector(base, Jj, name="hopf-j")
    return traceless_killing_product(xi, zeta, rng, name="sym-product-hopf")


def _build_sasakian(base, rng, params=None):
    xi = killing_vector(base, hopf_generator(), name="hopf")
    return traceless_killing_product(xi, xi, rng, name="sasakian-stackel")


def _build_broken_sym_product(base, rng, params=None):
    N = base.coord_dim
    xi = killing_vector(base, _rotation_generator(N, 0, 1), name="rot01")
    c = np.linspace(0.5, 1.0, N)
    eta = field_from_components(base, 1, lambda x: _tangential(c, x),
                                name="concircular")
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
    return killing_form_to_tensor(u, rng)


def _build_broken_killing_form(base, rng, params=None):
    omega = _killing_form_omega(base.coord_dim, 1, rng)
    sphere = base

    def amb(x):
        scale = stack([1.0 + 0.7 * x[0]])  # (..., 1)
        return scale * np.tensordot(stack(x), omega, axes=(-1, 0))

    u = FormField(sphere, 1, amb, name="non-killing-form")
    return killing_form_to_tensor(u, rng, check=False, name="broken-killing-form")


def _build_special_flat(base, rng, params=None):
    k0 = (params or {}).get("k0", [0.4, -0.3, 0.5])
    if not (isinstance(k0, list) and len(k0) == base.dim):
        raise ConfigError(f"k0 must be a list of {base.dim} numbers, got {k0!r}")
    return special_ckt_flat([finite_number(v, "k0 entry") for v in k0], base)


def _build_special_flat_hat(base, rng, params=None):
    return special_to_killing(_build_special_flat(base, rng, params), rng)


def _build_broken_special_hat(base, rng, params=None):
    g = SymTensor.metric(base.dim)
    return derived_field(lambda S: S - g.scale(0.5 * trace_Lambda(S).comps),
                         _build_special_flat(base, rng, params), name="broken-special-hat")


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
    return product_ckt(base, rng, K1=K1, pairs=[(xi, zeta)])


def _build_broken_product(base, rng, params=None):
    f1, f2 = base.first, base.second
    xi = killing_vector(f1, _rotation_generator(f1.coord_dim, 0, 1), name="xi")
    c = np.linspace(0.4, 1.0, f2.coord_dim)
    eta = field_from_components(f2, 1, lambda x: _tangential(c, x), name="concircular")
    return product_field(_lift_field(base, 0, xi), _lift_field(base, 1, eta),
                         name="broken-product-ckt")


def _build_metric(base, rng, params=None):
    return metric_field(base)


def constructor_catalog():
    """All registry entries, keyed by constructor string."""
    entries = [
        CatalogEntry(
            "metric", "sphere:2", _build_metric,
            expected={"killing": True, "conformal": True, "tracefree": False,
                      "divfree": True, "special_conformal": True},
        ),
        CatalogEntry(
            "sphere-curvature", "sphere:3", _build_sphere_curvature,
            expected={"killing": True, "conformal": True, "tracefree": False},
        ),
        CatalogEntry(
            "sphere-curvature-weyl", "sphere:3", _build_sphere_curvature_weyl,
            expected={"killing": True, "conformal": True, "tracefree": True,
                      "stackel": True, "divfree": True},
        ),
        CatalogEntry(
            "sym-product", "sphere:2", _build_sym_product,
            expected={"killing": True, "conformal": True}, params=("generators",),
        ),
        CatalogEntry(
            "sym-product-hopf", "sphere:3", _build_sym_product_hopf,
            expected={"killing": True, "conformal": True, "tracefree": True,
                      "stackel": True, "divfree": True},
        ),
        CatalogEntry(
            "sasakian-stackel", "sphere:3", _build_sasakian,
            expected={"killing": True, "conformal": True, "tracefree": True,
                      "stackel": True, "divfree": True},
        ),
        CatalogEntry(
            "killing-form:q=1", "sphere:3",
            lambda base, rng, params=None: _build_killing_form(base, rng, 1),
            expected={"killing": True, "conformal": True},
        ),
        CatalogEntry(
            "killing-form:q=2", "sphere:4",
            lambda base, rng, params=None: _build_killing_form(base, rng, 2),
            expected={"killing": True, "conformal": True},
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
            params=("k0",),
        ),
        CatalogEntry(
            "hopf-stackel", "sphere:3", _build_hopf_stackel,
            expected={"killing": True, "conformal": True, "tracefree": True,
                      "stackel": True, "divfree": True},
        ),
        CatalogEntry(
            "product-ckt", "product:sphere:2,sphere:2", _build_product_ckt,
            expected={"killing": False, "conformal": True, "tracefree": True},
        ),
        # negative controls
        CatalogEntry("broken-sphere-curvature", "sphere:3", _build_broken_curvature,
                     negative_check="killing"),
        CatalogEntry("broken-sym-product", "sphere:2", _build_broken_sym_product,
                     negative_check="killing"),
        CatalogEntry("broken-killing-form", "sphere:3", _build_broken_killing_form,
                     negative_check="killing"),
        CatalogEntry("broken-special-hat", "euclidean:3", _build_broken_special_hat,
                     negative_check="killing", params=("k0",)),
        CatalogEntry("broken-hopf-stackel", "sphere:3", _build_broken_hopf,
                     negative_check="killing"),
        CatalogEntry("broken-product-ckt", "product:sphere:2,sphere:2", _build_broken_product,
                     negative_check="conformal"),
    ]
    return {e.key: e for e in entries}


def stable_stream(seed, label):
    """Deterministic per-task RNG: seed combined with a stable label hash."""
    return np.random.default_rng([seed, zlib.crc32(str(label).encode())])


def build_constructor(key, seed=42, params=None):
    """Instantiate a catalog constructor on its manifold.

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
    field = entry.build(manifold_from_key(entry.manifold_key), stable_stream(seed, key),
                        params=params)
    return field, entry
