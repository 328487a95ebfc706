"""Fields, frames and the packed algebra on a batch of points.

A scalar may be a float, a Dual or a (B,) float array.  Evaluating a field,
a frame or an algebra kernel on B points at once must give the per-point
values; ``geodesic_drift`` evaluates its first integral that way, and the
pointwise loop it replaced is kept here as the reference.
"""

import numpy as np
import pytest

from symkt.constructors import build_constructor, constructor_catalog
from symkt.fields import (
    metric_field,
    random_polynomial_field,
    random_tangential_field,
    wrap_conformal_field,
)
from symkt.geodesic import geodesic_drift, rk4_geodesic
from symkt.manifolds import EmbeddedSphere, frame_components, manifold_from_key
from symkt.multiindex import sym_size
from symkt.symtensor import (
    SymTensor,
    change_basis,
    contract,
    mult_L,
    poly_eval,
    standard_decomposition,
    sym_product,
    trace_Lambda,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

EPS = np.finfo(float).eps
B = 7


def _close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    scale = max(1.0, np.abs(want).max(initial=0.0))
    assert np.abs(got - want).max(initial=0.0) <= 4 * EPS * scale


def _points(base, rng, count=B):
    return np.array([base.sample_point(rng) for _ in range(count)])


def _fields():
    out = {key: build_constructor(key)[0] for key in constructor_catalog()}
    for key in ("sphere:3", "hyperbolic:3"):
        out[f"metric@{key}"] = metric_field(manifold_from_key(key))
    rng = np.random.default_rng(17)
    out["tangential"] = random_tangential_field(EmbeddedSphere(3), 2, rng)
    out["polynomial"] = random_polynomial_field(manifold_from_key("hyperbolic:3"), 2, rng)
    conformal = manifold_from_key("conformal:bump:sphere:3")
    out["conformal-hopf"] = wrap_conformal_field(conformal, out["hopf-stackel"])
    return out


FIELDS = _fields()


@pytest.mark.parametrize("key", sorted(FIELDS))
def test_batched_field_equals_pointwise(key):
    field = FIELDS[key]
    X = _points(field.base, np.random.default_rng(3))
    got = field.batch(X)
    assert got.shape == (B, sym_size(field.dim, field.degree))
    _close(got, np.array([field(x).comps for x in X]))


BACKEND_KEYS = ["euclidean:3", "sphere:3", "stereographic:3", "hyperbolic:3",
                "torus:2", "product:sphere:2,euclidean:2",
                "conformal:bump:sphere:3", "conformal:bump:euclidean:3"]


@pytest.mark.parametrize("key", BACKEND_KEYS)
def test_batched_frame_and_frame_components_equal_pointwise(key):
    base = manifold_from_key(key)
    rng = np.random.default_rng(5)
    X = _points(base, rng)
    V = rng.standard_normal(X.shape)
    cols = list(X.T)
    F = base.frame(cols)
    assert F.shape == (B, base.coord_dim, base.dim) and F.dtype == np.float64
    _close(F, [base.frame(list(x)) for x in X])
    _close(base.metric_matrix(cols), [base.metric_matrix(list(x)) for x in X])
    _close(frame_components(base, cols, V),
           [frame_components(base, x, v) for x, v in zip(X, V)])


def test_sphere_frame_sign_is_chosen_per_point():
    # points on both sides of the equator x_N = 0 use opposite reflections
    sphere = EmbeddedSphere(2)
    X = np.array([[0.6, 0.0, 0.8], [0.6, 0.0, -0.8], [0.0, 1.0, 0.0]])
    F = sphere.frame(list(X.T))
    for k, x in enumerate(X):
        assert np.array_equal(F[k], sphere.frame(list(x)))


def _integral_value(field, x, v):
    # the per-point first integral geodesic_drift evaluated before batching
    vf = field.base.frame_components(x, v)
    K = field(list(x))
    return float(poly_eval(K, list(vf)))


def _pointwise_drift(field, x0, v0, steps, dt):
    F0 = _integral_value(field, np.asarray(x0, dtype=float), np.asarray(v0, dtype=float))
    drifts = [abs(_integral_value(field, x, v) - F0)
              for x, v in rk4_geodesic(field.base, x0, v0, steps, dt)]
    if not np.isfinite(drifts + [F0]).all():
        return float("nan")
    return max(drifts, default=0.0) / max(1.0, abs(F0))


def _initial_condition(base, rng):
    x0 = base.sample_point(rng)
    v0 = rng.standard_normal(base.coord_dim)
    if isinstance(base, EmbeddedSphere):
        v0 = base.tangent_projection(x0, v0)
    v0 = v0 / np.linalg.norm(v0)
    if not isinstance(base, EmbeddedSphere):
        x0, v0 = 0.3 * x0, 0.05 * v0  # stay inside the chart's domain
    return x0, v0


DRIFT_KEYS = sorted(
    [k for k, e in constructor_catalog().items() if e.declared_killing]
    + ["broken-hopf-stackel", "metric@sphere:3", "metric@hyperbolic:3"]
)


@pytest.mark.parametrize("key", DRIFT_KEYS)
def test_drift_matches_the_pointwise_loop(key):
    field = FIELDS[key]
    rng = np.random.default_rng(23)
    for _ in range(2):
        x0, v0 = _initial_condition(field.base, rng)
        got = geodesic_drift(field, x0, v0, 150, 2e-3)
        want = _pointwise_drift(field, x0, v0, 150, 2e-3)
        assert np.isfinite(want)
        assert abs(got - want) <= 1e-14


# ---------------------------------------------------------------------------
# the packed algebra with a batch axis equals its per-point results


def _array(seed_, shape):
    """Random floats over several magnitudes, with some +-0 entries."""
    rng = np.random.default_rng(seed_)
    out = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    out[rng.random(shape) < 0.1] = 0.0
    out[rng.random(shape) < 0.05] = -0.0
    return out


SHAPES = st.tuples(st.integers(1, 5), st.integers(0, 4), st.integers(1, 4),
                   st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(SHAPES, st.integers(1, 5))
def test_batched_algebra_equals_per_point(shape, m):
    n, p, b, s = shape
    K = SymTensor(n, p, _array([s, 0], (b, sym_size(n, p))))
    X = _array([s, 1], (b, n))
    Km = SymTensor(m, p, _array([s, 2], (b, sym_size(m, p))))
    M = _array([s, 3], (b, m, n))
    v = SymTensor(n, 1, _array([s, 4], (b, n)))
    rows = [SymTensor(n, p, K.comps[r]) for r in range(b)]
    vrows = [SymTensor(n, 1, v.comps[r]) for r in range(b)]

    def same(batched, per_point):
        assert np.array_equal(np.asarray(batched), np.array(per_point))

    same(poly_eval(K, X), [poly_eval(rows[r], X[r]) for r in range(b)])
    # a batch of tensors through one matrix, and one tensor through a batch
    same(change_basis(Km, M).comps,
         [change_basis(SymTensor(m, p, Km.comps[r]), M[r]).comps for r in range(b)])
    one = SymTensor(m, p, Km.comps[0])
    same(change_basis(one, M).comps, [change_basis(one, M[r]).comps for r in range(b)])
    same(sym_product(v, K).comps,
         [sym_product(vrows[r], rows[r]).comps for r in range(b)])
    same(mult_L(K).comps, [mult_L(rows[r]).comps for r in range(b)])
    if p >= 1:
        same(contract(v, K).comps, [contract(vrows[r], rows[r]).comps for r in range(b)])
    if p >= 2:
        same(trace_Lambda(K).comps, [trace_Lambda(rows[r]).comps for r in range(b)])
    parts = standard_decomposition(K).parts
    for i, part in enumerate(parts):
        same(part.comps, [standard_decomposition(rows[r]).parts[i].comps for r in range(b)])
