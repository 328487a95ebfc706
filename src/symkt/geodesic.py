"""Geodesic flow and drift of polynomial first integrals.

A symmetric tensor field K yields the function F(t) = K(gamma'(t), ...,
gamma'(t)) along geodesics; F is constant exactly when the symmetrized
covariant derivative of K vanishes.  The integrator is the classical
fixed-step fourth-order one-step method; adequacy is demonstrated by
step-halving in the test-suite rather than adaptive control.  The drift
integrates first and then evaluates F at every point of the trajectory in
one batched call of the field.
"""

import numpy as np

from .errors import DomainError
from .manifolds import EmbeddedSphere, ProductManifold
from .obs import worst
from .symtensor import SymTensor, poly_eval

__all__ = ["initial_condition", "rk4_geodesic", "geodesic_drift", "drift_series"]


def _tangent(base, x, v):
    """v with its part on each embedded-sphere factor made tangent at x."""
    if isinstance(base, EmbeddedSphere):
        return base.tangent_projection(x, v)
    if isinstance(base, ProductManifold):
        m1 = base.first.coord_dim
        return np.concatenate([_tangent(base.first, x[:m1], v[:m1]),
                               _tangent(base.second, x[m1:], v[m1:])])
    return v


def initial_condition(base, rng):
    """A geodesic start (x0, v0) drawn from rng: the point, then a Gaussian
    velocity made tangent to every sphere factor and normalized.

    On a euclidean chart x0 is scaled by 0.2 and v0 by 0.05, so that the
    trajectory stays in the sampling domain.
    """
    x0 = base.sample_point(rng)
    v0 = _tangent(base, x0, rng.standard_normal(base.coord_dim))
    v0 = v0 / np.linalg.norm(v0)
    if base.key.startswith("euclidean"):
        return 0.2 * x0, 0.05 * v0
    return x0, v0


def rk4_geodesic(base, x0, v0, steps, dt):
    """Integrate the geodesic equation; yields (x, v) after every step."""
    x = np.asarray(x0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    rhs = base.geodesic_rhs
    for _ in range(steps):
        k1x, k1v = rhs(x, v)
        k2x, k2v = rhs(x + 0.5 * dt * k1x, v + 0.5 * dt * k1v)
        k3x, k3v = rhs(x + 0.5 * dt * k2x, v + 0.5 * dt * k2v)
        k4x, k4v = rhs(x + dt * k3x, v + dt * k3v)
        x = x + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        yield x, v


def geodesic_drift(field, x0, v0, steps, dt, check_domain=True):
    """Max relative drift of K(gamma', ..., gamma') along one trajectory.

    Returns max_t |F(t) - F(0)| / max(1, |F(0)|), NaN if any value along
    the trajectory is not finite.  Raises DomainError at the first step
    that leaves the sampling domain of a chart backend.
    """
    base = field.base
    xs, vs = [np.asarray(x0, dtype=float)], [np.asarray(v0, dtype=float)]
    for x, v in rk4_geodesic(base, x0, v0, steps, dt):
        if check_domain and not base.contains(x):
            raise DomainError("geodesic left the sampling domain")
        xs.append(x)
        vs.append(v)
    X, V = np.array(xs), np.array(vs)
    K = SymTensor(base.dim, field.degree, field.batch(X))
    F = poly_eval(K, base.frame_components(list(X.T), V))
    # |F - F(0)|, not |F[1:] - F(0)|, which is empty with no step and misses a NaN F(0)
    return float(worst(np.abs(F - F[0])) / max(1.0, abs(F[0])))


def drift_series(field, x0, v0, steps, dt, halvings=1):
    """Drift at dt, dt/2, ... (same total time), for order checks."""
    out = []
    for k in range(halvings + 1):
        out.append(
            geodesic_drift(field, x0, v0, steps * 2**k, dt / 2**k, check_domain=False)
        )
    return out
