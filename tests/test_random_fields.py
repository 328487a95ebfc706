"""The random polynomial fields against their numpy-scalar loops.

``random_polynomial_field`` and ``random_tangential_field`` hold their
coefficients as nested lists of Python floats.  ``ref_polynomial_comps``
and ``ref_tangential_amb`` below are the former loops over the numpy
coefficient arrays, kept verbatim (renamed).  The values are the same
floats and every operation is the same, so each component must match bit
for bit, down to the sign of a zero, at float points, batches, dual
points and jet points.
"""

import numpy as np
import pytest

from symkt.dual import d_dot, hessian, jacobian
from symkt.fields import random_polynomial_field, random_tangential_field
from symkt.manifolds import EmbeddedSphere, manifold_from_key, point_array
from symkt.multiindex import sym_size
from symkt.symtensor import SymTensor, change_basis

# ---------------------------------------------------------------------------
# references: the numpy-scalar loops


def ref_polynomial_comps(chart, degree, rng):
    n = chart.dim
    size = sym_size(n, degree)
    c0 = rng.standard_normal(size)
    c1 = rng.standard_normal((size, n))
    c2 = rng.standard_normal((size, n, n))

    def comps(x):
        out = []
        for k in range(size):
            v = c0[k]
            for i in range(n):
                v = v + c1[k, i] * x[i]
                for j in range(n):
                    v = v + c2[k, i, j] * x[i] * x[j]
            out.append(v)
        return out

    return comps


def ref_tangential_comps(sphere, degree, rng):
    N = sphere.coord_dim
    size = sym_size(N, degree)
    c0 = rng.standard_normal(size)
    c1 = rng.standard_normal((size, N))

    def amb(x):
        out = []
        for k in range(size):
            v = c0[k]
            for i in range(N):
                v = v + c1[k, i] * x[i]
            out.append(v)
        return out

    def comps(x):
        r2 = d_dot(x, x)
        proj = point_array(
            [[(1.0 if i == j else 0.0) - x[i] * x[j] / r2 for j in range(N)]
             for i in range(N)],
            x,
        )
        K = SymTensor(N, degree, amb(x))
        return change_basis(change_basis(K, proj), sphere.frame(x)).entries()

    return comps


class SignedZerosRng:
    """Standard normal draws of a seeded generator, about a third of them
    replaced by 0.0 and a third by -0.0."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def standard_normal(self, shape):
        a = self.rng.standard_normal(shape)
        pick = self.rng.integers(0, 3, size=a.shape)
        return np.where(pick == 0, 0.0, np.where(pick == 1, -0.0, a))


# ---------------------------------------------------------------------------
# exact comparison


def _bits(values):
    """The float64 bytes of a sequence of float or array values."""
    return np.array([np.asarray(v, dtype=float) for v in values]).tobytes()


def _same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert _bits(g) == _bits(w)


def _signed_zero_points(point):
    """The point, and copies with one coordinate set to 0.0 and to -0.0."""
    out = [list(point)]
    for i in range(len(point)):
        for z in (0.0, -0.0):
            y = list(point)
            y[i] = z
            out.append(y)
    return out


def _check(comps, ref, points):
    for x in points:
        _same([comps(x)], [ref(x)])
        _same(jacobian(comps, x), jacobian(ref, x))
        _same(hessian(comps, x), hessian(ref, x))
    X = np.array(points)
    _same(comps(list(X.T.copy())), ref(list(X.T.copy())))


RNGS = [lambda: np.random.default_rng(71), lambda: SignedZerosRng(72)]


@pytest.mark.parametrize("make_rng", RNGS, ids=["normal", "signed-zeros"])
@pytest.mark.parametrize("key", ["euclidean:3", "hyperbolic:3", "stereographic:2",
                                 "product:sphere:2,sphere:2", "conformal:bump:euclidean:3"])
@pytest.mark.parametrize("degree", [1, 2])
def test_polynomial_field_matches_numpy_loop(make_rng, key, degree):
    base = manifold_from_key(key)
    comps = random_polynomial_field(base, degree, make_rng()).comps_fn
    ref = ref_polynomial_comps(base, degree, make_rng())
    point = 0.5 * base.sample_point(np.random.default_rng(73))
    _check(comps, ref, _signed_zero_points(point))


@pytest.mark.parametrize("make_rng", RNGS, ids=["normal", "signed-zeros"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("degree", [1, 2])
def test_tangential_field_matches_numpy_loop(make_rng, n, degree):
    sphere = EmbeddedSphere(n)
    comps = random_tangential_field(sphere, degree, make_rng()).comps_fn
    ref = ref_tangential_comps(sphere, degree, make_rng())
    # zeroed coordinates leave the sphere, which the components do not need
    point = sphere.sample_point(np.random.default_rng(74))
    _check(comps, ref, _signed_zero_points(point))
