"""Backends: frames, connection coefficients, samplers, catalog keys."""

import numpy as np
import pytest

from symkt.dual import DualArray, jacobian, seed, value_of
from symkt.errors import ConfigError
from symkt.manifolds import (
    Chart,
    ConformalRescale,
    EmbeddedSphere,
    MAX_KEY_DIM,
    ProductManifold,
    christoffel,
    euclidean_chart,
    flat_torus_chart,
    frame_at,
    frame_components,
    gamma_frame,
    manifold_from_key,
    poincare_ball_chart,
    stereographic_sphere_chart,
)
from symkt.suites import DEFAULT_GEOMETRY_KEYS

ALL_KEYS = [
    "euclidean:3",
    "sphere:2",
    "sphere:3",
    "stereographic:2",
    "hyperbolic:3",
    "torus:2",
    "product:sphere:2,sphere:2",
    "conformal:bump:euclidean:3",
    "conformal:bump:sphere:2",
    "product:(product:sphere:2,sphere:2),euclidean:2",
]


def test_euclidean_frame_is_standard_basis():
    eu = euclidean_chart(3)
    assert np.allclose(frame_at(eu, np.zeros(3)), np.eye(3))


def test_stereographic_frame_at_origin():
    st = stereographic_sphere_chart(2)
    # conformal factor 4 at the origin, so frame vectors are half length
    assert np.allclose(frame_at(st, np.zeros(2)), 0.5 * np.eye(2))


@pytest.mark.parametrize("key", ALL_KEYS)
def test_frame_gram_identity(key):
    base = manifold_from_key(key)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = base.sample_point(rng)
        F = frame_at(base, x)
        G = np.array(
            [[value_of(v) for v in row] for row in base.metric_matrix(list(x))]
        )
        assert np.abs(F.T @ G @ F - np.eye(base.dim)).max() <= 1e-13


@pytest.mark.parametrize("key", ALL_KEYS)
def test_gamma_frame_metric_compatible(key):
    # gamma[a][b][c] antisymmetric in (b, c) for orthonormal frames
    base = manifold_from_key(key)
    rng = np.random.default_rng(5)
    x = base.sample_point(rng)
    gam = gamma_frame(base, list(x))
    n = base.dim
    worst = 0.0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                worst = max(
                    worst,
                    abs(value_of(gam[a][b][c]) + value_of(gam[a][c][b])),
                )
    assert worst <= 1e-12


def test_christoffel_euclidean_and_stereographic_origin():
    eu = euclidean_chart(3)
    rng = np.random.default_rng(7)
    assert np.abs(christoffel(eu, eu.sample_point(rng))).max() == 0.0
    st = stereographic_sphere_chart(2)
    assert np.abs(christoffel(st, np.zeros(2))).max() <= 1e-15


def test_christoffel_symmetry_lower_indices():
    hy = poincare_ball_chart(3)
    rng = np.random.default_rng(9)
    x = hy.sample_point(rng)
    G = christoffel(hy, x)
    assert np.abs(G - G.transpose(0, 2, 1)).max() <= 1e-14


def test_christoffel_rejects_non_charts():
    with pytest.raises(ConfigError):
        christoffel(EmbeddedSphere(2), np.array([0.0, 0.0, 1.0]))


def test_product_of_charts_is_not_a_chart():
    pr = manifold_from_key("product:euclidean:2,hyperbolic:2")
    assert not pr.is_chart
    with pytest.raises(ConfigError):
        christoffel(pr, pr.sample_point(np.random.default_rng(3)))


def test_dmetric_matches_finite_differences():
    st = stereographic_sphere_chart(3)
    rng = np.random.default_rng(11)
    x = st.sample_point(rng)
    # G = c I and d_k G = 2 c phi_k I, from the chart's factor and log-gradient
    c = st.factor(x)
    assert np.array_equal(c * np.eye(3), st.metric_matrix(list(x)))
    dG = (2.0 * c) * st.log_gradient(x)[:, None, None] * np.eye(3)
    h = 1e-5
    for k in range(3):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        fd = (st.metric_matrix(list(xp)) - st.metric_matrix(list(xm))) / (2 * h)
        assert np.abs(fd - dG[k]).max() <= 1e-6


@pytest.mark.parametrize(
    "key",
    [
        "euclidean:3",
        "torus:2",
        "stereographic:2",
        "stereographic:3",
        "hyperbolic:2",
        "hyperbolic:3",
    ],
)
def test_christoffel_and_frame_connection_agree(key):
    # geodesics use coordinate Christoffel symbols and nabla uses the frame
    # coefficients gamma: nabla_{e_a} e_b built from Gamma plus exact frame
    # derivatives must equal sum_c gamma[a][b][c] e_c
    base = manifold_from_key(key)
    n = base.dim
    rng = np.random.default_rng(23)
    for _ in range(3):
        x = base.sample_point(rng)
        F = frame_at(base, x)  # F[k, a] = component k of e_a
        _, jac = jacobian(lambda y: base.frame(y).ravel(), list(x))
        dF = np.array([[value_of(g) for g in row] for row in jac]).reshape(n, n, n)
        gam = np.array(
            [[[value_of(g) for g in gb] for gb in ga] for ga in gamma_frame(base, list(x))]
        )
        coord = np.einsum("ia,kbi->abk", F, dF) + np.einsum(
            "kij,ia,jb->abk", christoffel(base, x), F, F
        )
        frame = np.einsum("abc,kc->abk", gam, F)
        assert np.abs(coord - frame).max() <= 1e-12


def test_sphere_sampler_on_sphere():
    sp = EmbeddedSphere(3, radius=2.0)
    rng = np.random.default_rng(15)
    for _ in range(10):
        x = sp.sample_point(rng)
        assert abs(np.linalg.norm(x) - 2.0) <= 1e-14


def test_product_structure():
    pr = manifold_from_key("product:sphere:2,sphere:2")
    assert isinstance(pr, ProductManifold)
    assert pr.dim == 4 and pr.coord_dim == 6
    rng = np.random.default_rng(17)
    x = pr.sample_point(rng)
    assert abs(np.linalg.norm(x[:3]) - 1.0) <= 1e-14
    assert abs(np.linalg.norm(x[3:]) - 1.0) <= 1e-14


def test_nested_product_key_round_trips():
    key = "product:(product:sphere:2,sphere:2),euclidean:2"
    pr = manifold_from_key(key)
    assert pr.key == key
    assert pr.dim == 6 and pr.coord_dim == 8
    assert pr.first.key == "product:sphere:2,sphere:2"


def test_torus_sampler_in_box():
    to = flat_torus_chart(2)
    rng = np.random.default_rng(19)
    for _ in range(5):
        x = to.sample_point(rng)
        assert np.all(x >= 0.0) and np.all(x < 2 * np.pi)


def test_unknown_keys_rejected():
    for bad in (
        "noexist:3",
        "sphere:x",
        "sphere:1",
        "sphere",
        "euclidean:1",
        "product:(product:sphere:2,sphere:2,euclidean:2",
        "product:product:sphere:2,sphere:2),euclidean:2",
        "product:sphere:2),(sphere:2",
        "product:product:sphere:2,sphere:2,euclidean:2",
    ):
        with pytest.raises(ConfigError):
            manifold_from_key(bad)


@pytest.mark.parametrize("key", [
    "sphere:1000000",
    "euclidean:9",
    "torus:99999999999999999999",
    "product:sphere:2,hyperbolic:9",
    "product:(product:sphere:2,stereographic:100),euclidean:2",
    "conformal:bump:euclidean:9",
])
def test_dimension_cap_rejects_at_parse_time(key):
    # raised while parsing, before any backend of that size is built
    with pytest.raises(ConfigError, match="cap"):
        manifold_from_key(key)


def test_dimension_cap_is_inclusive():
    assert MAX_KEY_DIM == 8
    assert manifold_from_key(f"euclidean:{MAX_KEY_DIM}").dim == MAX_KEY_DIM


def test_conformal_wrapper_delegates_sampling():
    cw = manifold_from_key("conformal:bump:euclidean:3")
    rng1 = np.random.default_rng(21)
    rng2 = np.random.default_rng(21)
    base = euclidean_chart(3)
    assert np.allclose(cw.sample_point(rng1), base.sample_point(rng2))
    with pytest.raises(ConfigError):
        cw.geodesic_rhs(np.zeros(6))


FRAME_CONTRACT_KEYS = list(DEFAULT_GEOMETRY_KEYS) + ["stereographic:3"]


@pytest.mark.parametrize("key", FRAME_CONTRACT_KEYS)
def test_frame_is_one_m_by_n_array(key):
    # one frame format: (m, n), column a is e_a; float64 at a float point,
    # a DualArray (dual numbers) at a seeded point, frame_at its float view
    base = manifold_from_key(key)
    shape = (base.coord_dim, base.dim)
    rng = np.random.default_rng(29)
    for _ in range(3):
        x = base.sample_point(rng)
        F = base.frame(list(x))
        assert isinstance(F, np.ndarray) and F.shape == shape and F.dtype == np.float64
        Fd = base.frame(seed(list(x)))
        assert isinstance(Fd, DualArray) and Fd.shape == shape
        assert np.array_equal(frame_at(base, x), F)
        assert np.array_equal(frame_at(base, x), value_of(Fd))


def _reference_frame_components(base, x, vec):
    # reference: each backend's own pullback, per factor for products and
    # exp(f) times the base's for conformal rescalings
    if isinstance(base, ProductManifold):
        m1 = base.first.coord_dim
        return np.concatenate([
            _reference_frame_components(base.first, x[:m1], vec[:m1]),
            _reference_frame_components(base.second, x[m1:], vec[m1:]),
        ])
    if isinstance(base, ConformalRescale):
        f = value_of(base.f_fn(list(x)))
        return np.exp(f) * _reference_frame_components(base.base, x, vec)
    if isinstance(base, EmbeddedSphere):
        return frame_at(base, x).T @ np.asarray(vec, dtype=float)
    G = base.metric_matrix(list(np.asarray(x, dtype=float)))
    return frame_at(base, x).T @ (G @ np.asarray(vec, dtype=float))


@pytest.mark.parametrize("key", FRAME_CONTRACT_KEYS)
def test_shared_frame_components_matches_backend_formulas(key):
    base = manifold_from_key(key)
    assert all(
        cls.__dict__["frame_components"] is frame_components
        for cls in (Chart, EmbeddedSphere, ProductManifold, ConformalRescale)
    )
    rng = np.random.default_rng(31)
    for _ in range(25):
        x = base.sample_point(rng)
        vec = rng.standard_normal(base.coord_dim)
        got = base.frame_components(x, vec)
        want = _reference_frame_components(base, x, vec)
        if isinstance(base, (Chart, EmbeddedSphere)):
            assert np.array_equal(got, want)
        else:
            # one BLAS sum over the zero-padded block frame (or the rescaled
            # metric) rounds differently from the per-factor sums
            assert np.abs(got - want).max() <= 4 * np.finfo(float).eps * max(
                1.0, np.abs(want).max())
