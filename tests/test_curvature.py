"""Curvature, q(R), and the second-order identity checks.

The sphere q(R) eigenvalue is checked against an independent dense
brute-force oracle built directly from the constant-curvature components.
"""

import numpy as np
import pytest

from symkt.curvature import (
    lichnerowicz_defect,
    qR_act,
    qrh_check,
    ricci_killing_residual,
    riemann,
)
from symkt.errors import DegreeError
from symkt.fields import random_polynomial_field, random_tangential_field, scalar_field
from symkt.manifolds import (
    EmbeddedSphere,
    conformal_rescale,
    euclidean_chart,
    manifold_from_key,
    poincare_ball_chart,
    stereographic_sphere_chart,
)
from symkt.symtensor import (
    SymTensor,
    inner,
    norm,
    random_sym_tensor,
    random_tracefree_tensor,
    trace_Lambda,
)

# ---------------------------------------------------------------------------
# dense brute-force q(R) oracle (independent code path)


def dense_qR_sphere(K_dense, n, p):
    """q(R) K on the unit sphere from dense arrays and explicit loops.

    Uses R[i,j,k,l] = d_il d_jk - d_ik d_jl, the derivation action on each
    tensor slot, and q(R) = sum_{i<j} (e_i ^ e_j)* R_{ij} with
    (X ^ Y)* acting slot-wise as Z -> g(X,Z) Y - g(Y,Z) X.
    """
    I = np.eye(n)
    R = np.einsum("il,jk->ijkl", I, I) - np.einsum("ik,jl->ijkl", I, I)

    def act(A, T):
        # derivation action of the endomorphism A on slot index m
        out = np.zeros_like(T)
        for m in range(p):
            out += np.moveaxis(np.tensordot(A, T, axes=([1], [m])), 0, m)
        return out

    out = np.zeros_like(K_dense)
    for i in range(n):
        for j in range(i + 1, n):
            Rij = R[i, j]  # matrix acting on vectors: (R_{ij} Z)_l = R[i,j,k,l] Z_k
            wedge = np.outer(I[j], I[i]) - np.outer(I[i], I[j])
            out += act(wedge, act(Rij.T, K_dense))
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_sphere_qR_eigenvalue_vs_oracle(n, p):
    rng = np.random.default_rng([61, n, p])
    sp = EmbeddedSphere(n)
    x = sp.sample_point(rng)
    rm = riemann(sp, x)
    K = random_tracefree_tensor(n, p, rng)
    got = qR_act(sp, x, K, rm=rm)
    oracle = dense_qR_sphere(K.to_dense(), n, p)
    assert np.abs(got.to_dense() - oracle).max() <= 1e-10 * max(1.0, norm(K))
    want = K.scale(float(p * (n + p - 2)))
    assert norm(got - want) <= 1e-8 * max(1.0, norm(K))


def test_flat_curvature_zero():
    eu = euclidean_chart(4)
    rng = np.random.default_rng(67)
    rm = riemann(eu, eu.sample_point(rng))
    assert np.abs(rm.R4).max() <= 1e-14
    K = random_sym_tensor(4, 2, rng)
    assert norm(qR_act(eu, eu.sample_point(rng), K)) <= 1e-13


def test_sphere_sign_anchor():
    # curvature operator is minus the identity on the unit sphere:
    # R(X,Y,Z,V) = g(X,V) g(Y,Z) - g(X,Z) g(Y,V)
    sp = EmbeddedSphere(2)
    rng = np.random.default_rng(71)
    rm = riemann(sp, sp.sample_point(rng))
    assert np.isclose(rm.R4[0, 1, 1, 0], 1.0, atol=1e-12)
    assert np.isclose(rm.scal, 2.0, atol=1e-12)


def test_riemann_symmetries_and_bianchi():
    for key, tol in (("stereographic:2", 1e-8), ("hyperbolic:3", 1e-8),
                     ("sphere:3", 1e-12)):
        base = manifold_from_key(key)
        rng = np.random.default_rng(73)
        rm = riemann(base, base.sample_point(rng))
        scale = max(1.0, np.abs(rm.R4).max())
        assert rm.symmetry_residual() <= tol * scale
        assert rm.bianchi_residual() <= tol * scale


def test_hyperbolic_sectional():
    hy = poincare_ball_chart(2)
    rng = np.random.default_rng(79)
    rm = riemann(hy, hy.sample_point(rng))
    assert np.isclose(rm.sectional(0, 1), -1.0, atol=1e-8)


def test_qR_is_ricci_on_vectors():
    st = stereographic_sphere_chart(3)
    rng = np.random.default_rng(83)
    x = st.sample_point(rng)
    rm = riemann(st, x)
    v = SymTensor(3, 1, rng.standard_normal(3))
    got = qR_act(st, x, v, rm=rm)
    want = SymTensor(3, 1, rm.ricci @ np.asarray(v.comps, dtype=float))
    assert norm(got - want) <= 1e-10


def test_qR_self_adjoint():
    hy = poincare_ball_chart(3)
    rng = np.random.default_rng(89)
    x = hy.sample_point(rng)
    rm = riemann(hy, x)
    for p in (1, 2, 3):
        A = random_sym_tensor(3, p, rng)
        B = random_sym_tensor(3, p, rng)
        lhs = inner(qR_act(hy, x, A, rm=rm), B)
        rhs = inner(A, qR_act(hy, x, B, rm=rm))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, norm(A) * norm(B))


def test_qrh_identity():
    rng = np.random.default_rng(97)
    for key in ("euclidean:3", "sphere:3", "hyperbolic:2"):
        base = manifold_from_key(key)
        for _ in range(3):
            x = base.sample_point(rng)
            h = random_sym_tensor(base.dim, 2, rng)
            assert qrh_check(base, x, h) <= 1e-8


def test_qrh_on_metric_matches_ricci_relation():
    # (R_ring g)(X,Y) = -Ric(X,Y), so the identity closes on h = g
    sp = EmbeddedSphere(3)
    rng = np.random.default_rng(101)
    x = sp.sample_point(rng)
    assert qrh_check(sp, x, SymTensor.metric(3)) <= 1e-12
    assert norm(qR_act(sp, x, SymTensor.metric(3))) <= 1e-12


def test_qrh_check_refuses_a_tensor_of_another_degree():
    # a degree error like every other one, which callers catching
    # ValueError still catch
    base = manifold_from_key("sphere:3")
    x = base.sample_point(np.random.default_rng(103))
    for p in (1, 3):
        with pytest.raises(DegreeError, match="degree-2"):
            qrh_check(base, x, random_sym_tensor(3, p, np.random.default_rng(p)))


def test_lichnerowicz_defect_refuses_a_scalar_field():
    eu = euclidean_chart(3)
    f = scalar_field(eu, lambda x: x[0] * x[1])
    with pytest.raises(DegreeError, match="degree >= 1"):
        lichnerowicz_defect(f, eu.sample_point(np.random.default_rng(107)))


def test_nonpositive_curvature_quadratic_form():
    rng = np.random.default_rng(103)
    for n in (2, 3, 4):
        hy = poincare_ball_chart(n)
        x = hy.sample_point(rng)
        rm = riemann(hy, x)
        for p in (1, 2, 3):
            for _ in range(5):
                K = random_tracefree_tensor(n, p, rng)
                val = inner(qR_act(hy, x, K, rm=rm), K)
                assert val <= 1e-10


def test_ricci_field_matches_riemann_contraction():
    from symkt.curvature import ricci_field
    from symkt.multiindex import multi_indices

    for key in ("sphere:3", "hyperbolic:2", "stereographic:2"):
        base = manifold_from_key(key)
        rng = np.random.default_rng(127)
        x = base.sample_point(rng)
        rm = riemann(base, x)
        got = ricci_field(base)(list(x))
        want = [rm.ricci[a, b] for a, b in multi_indices(base.dim, 2)]
        assert np.allclose(got.values(), want, atol=1e-11)


def test_scalar_curvature_is_differentiable_at_a_dual_point():
    # riemann at the Duals of a jacobian keeps scal a Dual; g is parallel,
    # so e_a(scal) is the trace of slot a of nabla Ric
    from symkt.curvature import ricci_field
    from symkt.dual import jacobian
    from symkt.fields import nabla
    from symkt.manifolds import frame_at

    base = manifold_from_key("conformal:bump:euclidean:3")
    x = list(base.sample_point(np.random.default_rng(131)))
    _, J = jacobian(lambda X: [riemann(base, X).scal], x)
    got = J[0] @ frame_at(base, x)
    T = nabla(ricci_field(base), x)
    want = np.array([trace_Lambda(s).comps[0] for s in T.slots])
    assert np.abs(want).max() >= 1e-4
    assert np.abs(got - want).max() <= 1e-10
    assert type(riemann(base, x).scal) is float


def test_conformal_connection_closed_form():
    # the generic frame connection of the rescaled backend must agree with
    # nabla'_X Y = nabla_X Y + df(X) Y + df(Y) X - g(X,Y) grad f in the
    # rescaled frame: gamma'[a][b][c] = e^-f (gamma[a][b][c]
    #                                   + d_ac f_b - d_ab f_c)
    from symkt.dual import jacobian, value_of
    from symkt.manifolds import conformal_rescale, frame_at, gamma_frame

    base = manifold_from_key("sphere:2")
    wrapped = conformal_rescale(base)
    rng = np.random.default_rng(131)
    x = base.sample_point(rng)
    n = base.dim
    gam = np.array([[[value_of(v) for v in r] for r in s]
                    for s in gamma_frame(base, list(x))])
    gamw = np.array([[[value_of(v) for v in r] for r in s]
                     for s in gamma_frame(wrapped, list(x))])
    fval = value_of(wrapped.f_fn(list(x)))
    _, jac = jacobian(lambda y: [wrapped.f_fn(y)], list(x))
    F = frame_at(base, x)
    f_frame = F.T @ np.array([value_of(g) for g in jac[0]])
    want = np.empty_like(gam)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                want[a, b, c] = np.exp(-fval) * (
                    gam[a, b, c]
                    + (f_frame[b] if a == c else 0.0)
                    - (f_frame[c] if a == b else 0.0)
                )
    assert np.abs(gamw - want).max() <= 1e-12


def test_lichnerowicz_identity_flat_and_sphere():
    eu = euclidean_chart(3)
    rng = np.random.default_rng(107)
    f = random_polynomial_field(eu, 2, rng)
    for _ in range(5):
        assert lichnerowicz_defect(f, eu.sample_point(rng)) <= 1e-9
    sp = EmbeddedSphere(2)
    g = random_tangential_field(sp, 2, rng)
    for _ in range(5):
        assert lichnerowicz_defect(g, sp.sample_point(rng)) <= 1e-6


def test_lichnerowicz_degree_one():
    sp = EmbeddedSphere(2)
    rng = np.random.default_rng(109)
    f = random_tangential_field(sp, 1, rng)
    assert lichnerowicz_defect(f, sp.sample_point(rng)) <= 1e-6


def test_ricci_killing_residual_cases():
    rng = np.random.default_rng(113)
    sp = EmbeddedSphere(2)
    x = sp.sample_point(rng)
    assert ricci_killing_residual(sp, x, rng.standard_normal(2)) <= 1e-8
    eu = euclidean_chart(3)
    assert ricci_killing_residual(eu, eu.sample_point(rng),
                                  rng.standard_normal(3)) <= 1e-12

    def bump(x):
        return 0.25 * (x[0] * x[0] * x[1] + 0.5 * x[1] * x[2] * x[2] + x[0])

    # the metric exp(2 bump) delta
    pert = conformal_rescale(euclidean_chart(3, radius=0.8), bump, key="bumped-flat")
    vals = [
        ricci_killing_residual(pert, pert.sample_point(rng), rng.standard_normal(3))
        for _ in range(5)
    ]
    assert max(vals) >= 1e-4  # negative control: genuinely violated
