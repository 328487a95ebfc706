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

from .errors import ConfigError, DomainError
from .io import finite_number
from .manifolds import EmbeddedSphere, ProductManifold
from .obs import worst
from .symtensor import SymTensor, poly_eval

__all__ = ["DRIFT_TOL", "initial_condition", "rk4_geodesic", "geodesic_drift",
           "drift_series"]

# largest drift of a first integral that counts as conserved
DRIFT_TOL = 1e-7


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
    """Integrate the geodesic equation; yields (x, v) after every step.

    The state is one packed array y = (x, v) and each step allocates a new
    one, so the yielded views ``y[:m]``, ``y[m:]`` stay valid.  The step
    constants are 0-d float64 arrays, bound once: numpy multiplies an
    array by one faster than by a Python float, with the same bits.
    """
    m = len(x0)
    y = np.concatenate((np.asarray(x0, dtype=float), np.asarray(v0, dtype=float)))
    rhs = base.geodesic_rhs
    half, full, sixth, two = (np.array(c, dtype=float) for c in (0.5 * dt, dt, dt / 6.0, 2.0))
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + half * k1)
        k3 = rhs(y + half * k2)
        k4 = rhs(y + full * k3)
        y = y + sixth * (k1 + two * k2 + two * k3 + k4)
        yield y[:m], y[m:]


def geodesic_drift(field, x0, v0, steps, dt, check_domain=True):
    """Max relative drift of K(gamma', ..., gamma') along one trajectory.

    Returns max_t |F(t) - F(0)| / max(1, |F(0)|), NaN if any value along
    the trajectory is not finite.  Raises DomainError at the first step
    that leaves the sampling domain, as the backend's ``contains`` draws
    it (a chart's ball, an embedded sphere's surface, each factor of a
    product), and ConfigError for a negative ``steps`` or a ``dt`` that is
    not finite and > 0.  With ``steps = 0`` the drift is 0, or NaN when
    F(0) is not finite.
    """
    # a negative step count, or a zero or non-finite step, measures
    # nothing and would read as conserved
    if steps < 0:
        raise ConfigError(f"steps must be >= 0, got {steps}")
    if not finite_number(dt, "dt") > 0.0:
        raise ConfigError(f"dt must be > 0, got {dt}")
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
    """Drift at dt, dt/2, ... (same total time), for order checks; a
    negative ``halvings`` raises ConfigError, as ``geodesic_drift`` does for
    its ``steps`` and ``dt``."""
    if halvings < 0:
        raise ConfigError(f"halvings must be >= 0, got {halvings}")
    out = []
    for k in range(halvings + 1):
        out.append(
            geodesic_drift(field, x0, v0, steps * 2**k, dt / 2**k, check_domain=False)
        )
    return out
