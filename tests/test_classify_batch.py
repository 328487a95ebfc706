"""The classifier on a batch of sample points.

``classify`` draws all its points first and differentiates the field once
for the whole batch: Duals carry an ``(m, B)`` gradient, ``gamma_frame``
and ``nabla`` take a ``(B, m)`` batch, and every residual is an array
reduction.  The per-sample loop it replaced is kept here as the reference,
on the single-point API.
"""

import math

import numpy as np
import pytest

from symkt.cartan import FrameTensor, cartan_decompose, frame_norm, pi2_star, supported_pair
from symkt.classify import RESIDUAL_KEYS, classify
from symkt.constructors import (
    build_constructor,
    constructor_catalog,
    special_conformal_residual,
)
from symkt.dual import value_of
from symkt.errors import ConfigError, DomainError
from symkt.fields import (
    TensorField,
    d_op,
    delta_op,
    nabla,
    random_polynomial_field,
    random_tangential_field,
    wrap_conformal_field,
)
from symkt.manifolds import EmbeddedSphere, manifold_from_key
from symkt.multiindex import multi_indices, sym_size
from symkt.obs import worst
from symkt.symtensor import SymTensor, mult_L, norm, trace_Lambda, tracefree_part

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

EPS = np.finfo(float).eps


def _L_field(field):
    n = field.base.dim

    def comps(x):
        return mult_L(SymTensor(n, field.degree, field.comps_fn(x))).entries()

    return TensorField(field.base, field.degree + 2, comps, name=f"L({field.name})")


def _reference(field, samples, tol, seed):
    """Residuals, maxima and verdicts sample by sample, one nabla per point."""
    base = field.base
    n, p = base.dim, field.degree
    rng = np.random.default_rng(seed)
    res = {k: [] for k in RESIDUAL_KEYS}
    use_parts = supported_pair(n, p)
    points = []
    for _ in range(samples):
        x = base.sample_point(rng)
        points.append(list(x))
        T = nabla(field, x)
        s = frame_norm(T)
        scale = max(1.0, s) if math.isfinite(s) else math.nan
        K = field(x)
        dK = d_op(field, x, T=T)
        deltaK = delta_op(field, x, T=T)
        res["killing"].append(norm(dK) / scale)
        res["conformal"].append(norm(tracefree_part(dK)) / scale)
        res["tracefree"].append((norm(trace_Lambda(K)) if p >= 2 else 0.0) / scale)
        res["divfree"].append(norm(deltaK) / scale)
        res["special_conformal"].append(special_conformal_residual(field, x, T=T, deltaK=deltaK))
        diffs = [value_of(T.slots[a][(b,) + I]) - value_of(T.slots[b][(a,) + I])
                 for a in range(n) for b in range(a + 1, n)
                 for I in multi_indices(n, p - 1)]
        res["codazzi"].append(worst([abs(d) for d in diffs], empty=0.0) / scale)
        if use_parts:
            T0 = FrameTensor([tracefree_part(s) for s in T.slots]) if p >= 2 else T
            parts = cartan_decompose(T0)
            res["p1"].append(frame_norm(parts.P1) / scale)
            res["p2"].append(frame_norm(parts.P2) / scale)
            res["p3"].append(frame_norm(parts.P3) / scale)
            if p == 2:
                c2 = (n + 2 * p - 4) / ((n + 2 * p - 2) * (n + p - 3))
                k_vec = delta_op(field, x, T=T0).scale(-c2)
                res["special1"].append(frame_norm(T0 - pi2_star(k_vec)) / scale)
        if p == 2:
            dtr = SymTensor(n, 1, [trace_Lambda(s).comps[0] for s in T.slots])
            res["two_tensor"].append(norm(dtr - deltaK.scale(2.0)) / scale)
    maxes = {k: worst(v) for k, v in res.items()}
    killing = maxes["killing"] <= tol
    tracefree = maxes["tracefree"] <= tol
    special = maxes["special_conformal"] <= tol
    verdicts = {
        "killing": killing,
        "tracefree": tracefree,
        "special_conformal": special,
        "stackel": killing and tracefree,
        "conformal": maxes["conformal"] <= tol or killing or special,
        "divfree": maxes["divfree"] <= tol or (killing and tracefree),
        "codazzi": maxes["codazzi"] <= tol,
    }
    return points, res, verdicts


def _within(got, want, ulps):
    """Entry by entry within ``ulps`` eps max(1, |want|); NaN matches NaN."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    assert np.all(np.abs(got[ok] - want[ok]) <= ulps * EPS * np.maximum(1.0, np.abs(want[ok])))


def _catalog_fields():
    out = [build_constructor(key)[0] for key in constructor_catalog()]
    return out + [_L_field(build_constructor("hopf-stackel")[0])]


@pytest.mark.parametrize("field", _catalog_fields(), ids=lambda f: f.name)
def test_classify_matches_the_per_sample_loop(field):
    tol = 1e-11 if field.base.key.startswith("euclidean") else 1e-9
    rep = classify(field, samples=100, tol=tol, seed=42)
    points, res, verdicts = _reference(field, 100, tol, 42)
    assert np.array_equal(np.array(rep.points), np.array(points))
    assert rep.verdicts == verdicts
    for key in RESIDUAL_KEYS:
        _within(rep.residuals[key], res[key], 8)


def _backend_fields():
    """A field of each degree 1-4 on each backend family."""
    rng = np.random.default_rng(5)
    chart = manifold_from_key("hyperbolic:3")
    product = manifold_from_key("product:sphere:2,euclidean:2")
    conformal = manifold_from_key("conformal:bump:sphere:3")
    out = []
    for p in (1, 2, 3, 4):
        out.append(random_tangential_field(EmbeddedSphere(3), p, rng))
        out.append(random_polynomial_field(chart, p, rng))
        out.append(random_polynomial_field(product, p, rng))
        out.append(wrap_conformal_field(
            conformal, random_tangential_field(EmbeddedSphere(3), p, rng)))
    return out


_BACKEND_FIELDS = _backend_fields()


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(st.sampled_from(range(len(_BACKEND_FIELDS))),
                  st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_batched_nabla_equals_per_point(index, count, seed):
    field = _BACKEND_FIELDS[index]
    rng = np.random.default_rng(seed)
    points = np.array([field.base.sample_point(rng) for _ in range(count)])
    n, p = field.base.dim, field.degree
    got = nabla(field, points).comps
    assert got.shape == (count, n, sym_size(n, p))
    for b in range(count):
        want = nabla(field, points[b]).comps
        assert np.all(np.abs(got[b] - want) <= 8 * EPS * max(1.0, np.abs(want).max()))


def test_a_nan_sample_fails_only_itself():
    # the field is NaN at the first sample only: that sample's residuals
    # are NaN and the verdicts false, the other samples stay finite
    eu = manifold_from_key("euclidean:3")
    first = list(eu.sample_point(np.random.default_rng(4)))

    def comps(x):
        bad = np.where(value_of(x[0]) == first[0], math.nan, 0.0)
        return [x[0] * x[1] + bad, x[1], 0.0 * x[2], x[2], 1.0 + 0.0 * x[0], x[0]]

    rep = classify(TensorField(eu, 2, comps, name="nan-at-one"), samples=12, seed=4)
    assert rep.points[0] == first
    for key in ("killing", "conformal", "tracefree", "divfree", "codazzi", "p1", "p2",
                "p3", "special1", "two_tensor", "special_conformal"):
        vals = rep.residuals[key]
        assert math.isnan(vals[0]), key
        assert all(math.isfinite(v) for v in vals[1:]), key
        assert math.isnan(rep.max_residuals[key]), key
    assert not any(rep.verdicts.values()), rep.verdicts


def test_a_batch_with_a_point_off_the_domain_raises():
    sp = EmbeddedSphere(3)
    field = build_constructor("hopf-stackel")[0]
    rng = np.random.default_rng(3)
    points = [sp.sample_point(rng) for _ in range(4)]
    nabla(field, points)
    points[2] = 1.5 * points[2]
    with pytest.raises(DomainError):
        nabla(field, points)


def test_classify_needs_a_sample():
    field = build_constructor("hopf-stackel")[0]
    for samples in (0, -3):
        with pytest.raises(ConfigError):
            classify(field, samples=samples)
