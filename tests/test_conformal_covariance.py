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
"""

import numpy as np
import pytest

from symkt.constructors import _lift_field
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


def _covariance_residual(K, wrapped, weighted, rng):
    """Worst relative distance of d0^(weighted) from exp((p-1) f) d0(K) at
    ``POINTS`` sampled points."""
    base, p = K.base, K.degree
    points = [list(base.sample_point(rng)) for _ in range(POINTS)]
    f = np.array([wrapped.f_fn(x) for x in points])
    want = d0_op(nabla(K, points)).scale(np.exp((p - 1) * f)[:, None])
    got = d0_op(nabla(weighted, points))
    return float(np.max(norm(got - want) / norm(want)))


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
    f_fn = wrapped.f_fn
    mutant = TensorField(wrapped, p, lambda x: [d_exp((p + 1.0) * f_fn(x)) * v
                                               for v in K.comps_fn(x)], name="mutant")
    assert _covariance_residual(K, wrapped, mutant, rng) > 1e-3
