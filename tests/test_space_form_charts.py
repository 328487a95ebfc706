"""Space-form charts: closed-form metric jet, Christoffel symbols and geodesics.

Every chart is g = c(x) delta of curvature sign kappa.  The closed forms
are pinned against the dual-number jet of that metric.
"""

import numpy as np
import pytest

from symkt.dual import jacobian
from symkt.manifolds import (
    MAX_KEY_DIM,
    christoffel,
    euclidean_chart,
    manifold_from_key,
    poincare_ball_chart,
    stereographic_sphere_chart,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SPACE_FORMS = {-1.0: poincare_ball_chart, 0.0: euclidean_chart, 1.0: stereographic_sphere_chart}

# Largest |got - want| / (eps max(1, max |want|)) seen over 9000 random draws
# of kappa, n and the point: 2.95 (dG), 2.71 (Gamma), 3.85 (acceleration).
CLOSED_FORM_EPS = 16 * np.finfo(float).eps


def _dual_metric_jet(chart, x):
    """Reference: the metric and its partials dG[k] from a dual-number jacobian."""
    n = chart.dim
    vals, jac = jacobian(lambda X: chart.metric_matrix(X).ravel(), list(x))
    G = np.asarray(vals, dtype=float).reshape(n, n)
    return G, np.asarray(jac, dtype=float).reshape(n, n, n).transpose(2, 0, 1)


def _dual_christoffel(chart, x):
    """Reference: Gamma^k_ij = 1/2 g^kl (d_i g_jl + d_j g_il - d_l g_ij)."""
    G, dG = _dual_metric_jet(chart, x)
    first = dG.transpose(2, 0, 1) + dG.transpose(2, 1, 0) - dG
    return 0.5 * np.einsum("kl,lij->kij", np.linalg.inv(G), first)


def _close_to(got, want):
    return np.abs(got - want).max() <= CLOSED_FORM_EPS * max(1.0, np.abs(want).max())


@hypothesis.given(st.sampled_from(sorted(SPACE_FORMS)), st.integers(2, MAX_KEY_DIM),
                  st.integers(0, 2**32 - 1))
@hypothesis.settings(max_examples=80, deadline=None)
def test_closed_forms_match_the_dual_metric_jet(kappa, n, seed):
    # at a point of the sampling ball, with a unit velocity
    chart = SPACE_FORMS[kappa](n)
    assert chart.kappa == kappa
    rng = np.random.default_rng(seed)
    x = chart.sample_point(rng)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    G, dG = chart.metric_jet(x)
    want_G, want_dG = _dual_metric_jet(chart, x)
    assert np.array_equal(G, want_G)
    assert _close_to(dG, want_dG)
    gam = christoffel(chart, x)
    want_gam = _dual_christoffel(chart, x)
    assert _close_to(gam, want_gam)
    acc = chart.geodesic_rhs(np.concatenate((x, v)))[n:]
    assert _close_to(acc, -np.einsum("kij,i,j->k", want_gam, v, v))
    if kappa == 0.0:
        assert not dG.any() and not gam.any() and not acc.any()


# the acceleration of the right-hand side against the contraction of
# ``christoffel``: largest relative difference seen over 10000 draws
# (2000 per key, speeds 1e-3..1e3) 6.7e-16
RHS_KEYS = ["euclidean:3", "torus:3", "stereographic:2", "stereographic:3", "hyperbolic:3"]


@hypothesis.given(st.sampled_from(RHS_KEYS), st.integers(0, 2**32 - 1),
                  st.floats(1e-3, 1e3))
@hypothesis.settings(max_examples=100, deadline=None)
def test_geodesic_rhs_is_minus_gamma_of_v_v(key, seed, speed):
    chart = manifold_from_key(key)
    rng = np.random.default_rng(seed)
    x = chart.sample_point(rng)
    assert chart.contains(x)
    v = speed * rng.standard_normal(chart.dim)
    rhs = chart.geodesic_rhs(np.concatenate((x, v)))
    want = -np.einsum("kij,i,j->k", christoffel(chart, x), v, v)
    assert rhs[:chart.dim].tobytes() == v.tobytes()
    assert np.abs(rhs[chart.dim:] - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("key", ["euclidean:3", "torus:3"])
def test_flat_chart_acceleration_is_the_log_gradient_itself(key, monkeypatch):
    # grad phi is zero on a flat chart, so it is returned as the
    # acceleration, not rebuilt as |v|^2 g - 2 (g . v) v
    chart = manifold_from_key(key)
    g = np.array([0.5, -1.0, 2.0])
    monkeypatch.setattr(chart, "log_gradient", lambda x: g)
    v = np.array([1.0, 2.0, 3.0])
    rhs = chart.geodesic_rhs(np.concatenate((np.array([0.1, 0.2, 0.3]), v)))
    assert rhs.tobytes() == np.concatenate((v, g)).tobytes()
