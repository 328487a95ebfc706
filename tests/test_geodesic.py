"""Geodesic flow: conservation, order of accuracy, negative controls."""

import numpy as np
import pytest

from symkt.constructors import build_constructor
from symkt.errors import DomainError
from symkt.fields import TensorField, metric_field
from symkt.geodesic import drift_series, geodesic_drift, rk4_geodesic
from symkt.manifolds import (
    EmbeddedSphere,
    euclidean_chart,
    manifold_from_key,
    poincare_ball_chart,
)


def tangent_ic(sphere, rng):
    x = sphere.sample_point(rng)
    v = sphere.tangent_projection(x, rng.standard_normal(sphere.coord_dim))
    return x, v / np.linalg.norm(v)


def test_sphere_geodesics_are_great_circles():
    sp = EmbeddedSphere(2)
    rng = np.random.default_rng(3)
    x0, v0 = tangent_ic(sp, rng)
    # exact solution: cos(t) x0 + sin(t) v0 for unit speed
    steps, dt = 1000, 1e-3
    for k, (x, v) in enumerate(rk4_geodesic(sp, x0, v0, steps, dt), start=1):
        pass
    t = steps * dt
    want = np.cos(t) * x0 + np.sin(t) * v0
    assert np.abs(x - want).max() <= 1e-10


def test_metric_energy_conservation():
    rng = np.random.default_rng(5)
    for base in (
        EmbeddedSphere(2),
        poincare_ball_chart(2),
        manifold_from_key("torus:2"),
        manifold_from_key("stereographic:3"),
        # delegates to the curved chart factor's right-hand side
        manifold_from_key("product:euclidean:2,hyperbolic:2"),
    ):
        if isinstance(base, EmbeddedSphere):
            x0, v0 = tangent_ic(base, rng)
        else:
            x0 = 0.1 * base.sample_point(rng)
            v0 = rng.standard_normal(base.coord_dim)
            v0 = 0.05 * v0 / np.linalg.norm(v0)
        f = metric_field(base)
        assert geodesic_drift(f, x0, v0, 2000, 1e-3, check_domain=False) <= 1e-9


def test_hopf_stackel_drift_small():
    field, _ = build_constructor("hopf-stackel")
    rng = np.random.default_rng(7)
    x0, v0 = tangent_ic(field.base, rng)
    assert geodesic_drift(field, x0, v0, 10000, 1e-3) <= 1e-7


def test_negative_control_drifts():
    field, _ = build_constructor("broken-hopf-stackel")
    rng = np.random.default_rng(9)
    x0, v0 = tangent_ic(field.base, rng)
    assert geodesic_drift(field, x0, v0, 2000, 1e-3) >= 1e-3


def test_random_sym2_field_is_not_conserved():
    # generic (non-Killing) degree-2 field on the 2-sphere drifts
    from symkt.fields import random_tangential_field

    sp = EmbeddedSphere(2)
    rng = np.random.default_rng(13)
    field = random_tangential_field(sp, 2, rng)
    x0, v0 = tangent_ic(sp, rng)
    assert geodesic_drift(field, x0, v0, 2000, 1e-3) >= 1e-3


def test_rk4_order():
    field, _ = build_constructor("hopf-stackel")
    rng = np.random.default_rng(11)
    x0, v0 = tangent_ic(field.base, rng)
    series = drift_series(field, x0, v0, 200, 0.05, halvings=1)
    assert series[0] / series[1] >= 16.0


def test_domain_exit_raises():
    eu = euclidean_chart(2, radius=0.5)
    f = metric_field(eu)
    with pytest.raises(DomainError):
        geodesic_drift(f, np.array([0.4, 0.0]), np.array([1.0, 0.0]), 1000, 1e-2)


def test_drift_fails_closed_when_the_first_integral_turns_nan():
    # the integral is finite at the start and NaN once x[0] > 0.2005;
    # max(0.0, nan) is 0.0, so a dropped NaN would read as zero drift
    eu = euclidean_chart(3)

    def comps(x):
        return [np.where(x[0] > 0.2005, float("nan"), 1.0)] * 6

    field = TensorField(eu, 2, comps, name="nan-beyond-0.2005")
    d = geodesic_drift(field, [0.2, 0.0, 0.0], [1.0, 0.0, 0.0], 20, 1e-3)
    assert np.isnan(d)
