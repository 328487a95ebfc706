"""Geodesic flow: conservation, order of accuracy, negative controls."""

import numpy as np
import pytest

from symkt.constructors import build_constructor
from symkt.errors import ConfigError, DomainError
from symkt.fields import TensorField, metric_field
from symkt.constructors import stable_stream
from symkt.geodesic import drift_series, geodesic_drift, initial_condition, rk4_geodesic
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


def _former_initial_condition(base, rng):
    """The draws of the CLI before it shared ``initial_condition``."""
    x0 = base.sample_point(rng)
    v0 = rng.standard_normal(base.coord_dim)
    if isinstance(base, EmbeddedSphere):
        v0 = base.tangent_projection(x0, v0)
    v0 = v0 / np.linalg.norm(v0)
    if base.key.startswith("euclidean"):
        x0 = 0.2 * x0
        v0 = 0.05 * v0
    return x0, v0


@pytest.mark.parametrize("key", ["sphere:3", "euclidean:3", "hyperbolic:3"])
def test_initial_condition_keeps_the_former_draws(key):
    base = manifold_from_key(key)
    a, b = stable_stream(42, "cli-geodesic"), stable_stream(42, "cli-geodesic")
    for _ in range(3):
        got, want = initial_condition(base, a), _former_initial_condition(base, b)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_initial_condition_is_tangent_to_each_sphere_factor():
    base = manifold_from_key("product:(product:sphere:2,euclidean:2),sphere:3")
    x0, v0 = initial_condition(base, np.random.default_rng(7))
    assert np.isclose(np.linalg.norm(v0), 1.0, rtol=1e-15)
    assert abs(np.dot(x0[:3], v0[:3])) <= 1e-15
    assert abs(np.dot(x0[5:], v0[5:])) <= 1e-15
    assert np.abs(v0[3:5]).min() > 0.0


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


def test_radius_two_sphere_keeps_the_sphere_and_the_energy():
    # every sphere:n key has radius 1, where the curvature term's 1/radius**2
    # is also 1/radius; the domain check raises if x leaves the sphere
    sp = EmbeddedSphere(3, radius=2.0)
    x0, v0 = tangent_ic(sp, np.random.default_rng(19))
    assert geodesic_drift(metric_field(sp), x0, v0, 2000, 1e-3, check_domain=True) <= 1e-9


@pytest.mark.parametrize("key", ["product:sphere:2,hyperbolic:3",
                                 "product:(product:sphere:2,euclidean:2),sphere:3"])
def test_product_trajectory_is_its_factors_trajectories(key):
    # the product right-hand side splits y = (x1, x2, v1, v2) into the
    # factors' states and interleaves their derivatives back: run apart,
    # the factors give the same bits
    base = manifold_from_key(key)
    x0, v0 = initial_condition(base, np.random.default_rng(23))
    m1 = base.first.coord_dim
    joint = rk4_geodesic(base, x0, v0, 300, 1e-2)
    first = rk4_geodesic(base.first, x0[:m1], v0[:m1], 300, 1e-2)
    second = rk4_geodesic(base.second, x0[m1:], v0[m1:], 300, 1e-2)
    for (x, v), (x1, v1), (x2, v2) in zip(joint, first, second, strict=True):
        assert x.tobytes() == x1.tobytes() + x2.tobytes()
        assert v.tobytes() == v1.tobytes() + v2.tobytes()


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


@pytest.mark.parametrize("steps", [0, 20])
def test_drift_is_nan_when_the_first_integral_is_nan_at_the_start(steps):
    # only F(0) is NaN; with no step |F[1:] - F(0)| is empty and would
    # read as zero drift, so the drift reduces |F - F(0)|
    eu = euclidean_chart(3)

    def comps(x):
        return [np.where(x[0] < 0.2005, float("nan"), 1.0)] * 6

    field = TensorField(eu, 2, comps, name="nan-before-0.2005")
    d = geodesic_drift(field, [0.2, 0.0, 0.0], [1.0, 0.0, 0.0], steps, 1e-3)
    assert np.isnan(d)


@pytest.mark.parametrize("steps, dt", [(50, 0.0), (50, -1e-3), (50, float("nan")),
                                       (50, float("inf")), (-5, 1e-3)])
def test_drift_refuses_a_run_that_measures_nothing(steps, dt):
    # unchecked, dt 0 and steps -5 read a drift of 0.0 from this start
    # (2.7e-3 over 50 steps of 1e-3), and an infinite dt read NaN
    field, _ = build_constructor("broken-hopf-stackel")
    x0, v0 = tangent_ic(field.base, np.random.default_rng(9))
    with pytest.raises(ConfigError):
        geodesic_drift(field, x0, v0, steps, dt, check_domain=False)
    with pytest.raises(ConfigError):
        drift_series(field, x0, v0, steps, dt)


def test_drift_series_refuses_negative_halvings():
    field, _ = build_constructor("broken-hopf-stackel")
    x0, v0 = tangent_ic(field.base, np.random.default_rng(9))
    with pytest.raises(ConfigError, match="halvings"):
        drift_series(field, x0, v0, 20, 1e-3, halvings=-1)
