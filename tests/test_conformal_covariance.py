"""Conformal covariance of the conformal Killing operator on every field.

For a trace-free field K of degree p and the metric exp(2f) g, the field
K^ = ``wrap_conformal_field(conformal_rescale(base), K)`` keeps the
contravariant tensor, so its frame components carry exp(p f), and the
trace-free part of d on the rescaled backend obeys

    d0^(K^) = exp((p - 1) f) d0(K).

This holds for any trace-free field, Killing or not, so one residual reads
``ConformalRescale``'s frame and connection and ``wrap_conformal_field``'s
weight at O(1) sensitivity.  ``d0_op`` is the trace-free projection only
for trace-free input, hence every K is a ``tracefree_part_field``.

The random fields' rows divide by |d0 K|, which is O(1) there.  The
catalog's rows (each entry's trace-free part on its ``conformal:bump:KEY``
wrapper) divide by max(1, |nabla K|), as ``classify``'s residuals do:
most entries are conformal Killing, so d0 K vanishes up to rounding on
both sides and only a wrong frame, connection or weight leaves a residual.
"""

import numpy as np
import pytest

from symkt.cartan import frame_norm
from symkt.constructors import _lift_field, build_constructor, constructor_catalog
from symkt.dual import d_exp
from symkt.fields import (
    TensorField,
    add_fields,
    d0_op,
    nabla,
    random_polynomial_field,
    random_tangential_field,
    tracefree_part_field,
    wrap_conformal_field,
)
from symkt.manifolds import EmbeddedSphere, conformal_rescale, manifold_from_key
from symkt.symtensor import norm

KEYS = ["euclidean:3", "sphere:3", "stereographic:3", "product:sphere:2,sphere:2"]
DEGREES = [1, 2, 3]
POINTS = 20


def _random_field(base, p, rng):
    if isinstance(base, EmbeddedSphere):
        return random_tangential_field(base, p, rng)
    return random_polynomial_field(base, p, rng)


def _tracefree_field(key, p, seed):
    base = manifold_from_key(key)
    rng = np.random.default_rng(seed)
    if key.startswith("product:"):
        lifted = [_lift_field(base, which, _random_field(factor, p, rng))
                  for which, factor in enumerate((base.first, base.second))]
        return tracefree_part_field(add_fields(*lifted)), rng
    return tracefree_part_field(_random_field(base, p, rng)), rng


def _covariance_residual(K, wrapped, weighted, rng, by_scale=False):
    """Worst relative distance of d0^(weighted) from exp((p-1) f) d0(K) at
    ``POINTS`` sampled points: over |want|, or over max(1, |nabla K|)."""
    base, p = K.base, K.degree
    points = [list(base.sample_point(rng)) for _ in range(POINTS)]
    f = np.array([wrapped.f_fn(x) for x in points])
    T = nabla(K, points)
    want = d0_op(T).scale(np.exp((p - 1) * f)[:, None])
    got = d0_op(nabla(weighted, points))
    return float(np.max(norm(got - want) / (np.maximum(1.0, frame_norm(T)) if by_scale
                                             else norm(want))))


def _mutant(wrapped, K):
    """K on ``wrapped`` with the weight exp((p + 1) f) in place of exp(p f)."""
    p, f_fn = K.degree, wrapped.f_fn
    return TensorField(wrapped, p, lambda x: [d_exp((p + 1.0) * f_fn(x)) * v
                                              for v in K.comps_fn(x)], name="mutant")


@pytest.mark.parametrize("p", DEGREES)
@pytest.mark.parametrize("key", KEYS)
def test_conformal_killing_operator_is_conformally_covariant(key, p):
    K, rng = _tracefree_field(key, p, seed=100 * p + KEYS.index(key))
    wrapped = conformal_rescale(K.base)
    assert _covariance_residual(K, wrapped, wrap_conformal_field(wrapped, K), rng) <= 1e-13


@pytest.mark.parametrize("p", DEGREES)
@pytest.mark.parametrize("key", KEYS)
def test_a_wrong_conformal_weight_breaks_the_covariance(key, p):
    # the mutant: exp((p + 1) f) where wrap_conformal_field puts exp(p f)
    K, rng = _tracefree_field(key, p, seed=100 * p + KEYS.index(key))
    wrapped = conformal_rescale(K.base)
    assert _covariance_residual(K, wrapped, _mutant(wrapped, K), rng) > 1e-3


CATALOG = list(constructor_catalog())


def _catalog_case(key):
    K = tracefree_part_field(build_constructor(key, seed=3)[0])
    wrapped = conformal_rescale(K.base, key=f"conformal:bump:{K.base.key}")
    return K, wrapped, np.random.default_rng(CATALOG.index(key))


@pytest.mark.parametrize("key", CATALOG)
def test_catalog_tracefree_parts_are_conformally_covariant(key):
    K, wrapped, rng = _catalog_case(key)
    weighted = wrap_conformal_field(wrapped, K)
    assert _covariance_residual(K, wrapped, weighted, rng, by_scale=True) <= 1e-13


@pytest.mark.parametrize("key", [key for key in CATALOG if key != "metric"])
def test_a_wrong_weight_breaks_the_catalog_rows(key):
    # the metric's trace-free part vanishes, so no weight can show there
    K, wrapped, rng = _catalog_case(key)
    assert _covariance_residual(K, wrapped, _mutant(wrapped, K), rng, by_scale=True) > 1e-3
