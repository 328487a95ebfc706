"""Model Riemannian manifolds and their orthonormal-frame data.

Every backend exposes the same small surface:

* ``dim`` - intrinsic dimension n, ``coord_dim`` - number of evaluation
  coordinates m (chart coordinates, or ambient coordinates for embedded
  spheres and products involving them);
* ``frame(x)`` - the orthonormal frame as an (m, n) ndarray whose column
  a is e_a;
* ``metric_matrix(x)`` - the (m, m) coordinate/ambient metric as an
  ndarray;
* ``frame_components(x, vec)`` - frame coefficients F^T G v of a
  coordinate/ambient vector (one shared function);
* ``sample_point(rng)`` - seedable domain sampler;
* ``contains(x)`` - whether a float point lies in the sampling domain
  (``nabla`` refuses a point outside it, and ``geodesic_drift`` a
  trajectory that leaves it);
* ``geodesic_rhs(y)`` - right-hand side of the geodesic equation on the
  packed state ``y = (x, v)`` of length 2m: the packed ``(x', v')``.

``frame`` and ``metric_matrix`` are generic over scalars: float64 arrays
at a float point, a :class:`~symkt.dual.DualArray` at a point or batch
of Duals of a float seeding, object arrays at a point of Jets or nested
Duals, and ``(B, m, n)`` float arrays at a batch point, whose coordinates
are ``(B,)`` arrays (see :func:`point_array`).

Every chart is a conformally flat space form, g = c(x) delta of curvature
sign kappa (:class:`Chart`): its frame is c^(-1/2) times the identity, and
its metric derivative, Christoffel symbols and geodesic right-hand side
are float closed forms in c and the gradient of log(c)/2 (``factor``,
``log_gradient``), so chart geodesics build no dual numbers.  Other
conformally flat metrics exp(2 f) delta are :func:`conformal_rescale` of a
flat chart.

The frame connection coefficients g(nabla_{e_a} e_b, e_c) are computed
once for all backends from the Koszul formula with orthonormal arguments,
as contractions of the frame, its exact first derivatives (forward-mode
duals) and the metric; ``gamma_frame`` takes a point or a ``(B, m)`` batch
of points, whose frame jet is one seeding of Duals with ``(m, B)``
gradients.  ``connection_jet`` adds their first derivatives,
by the product rule on the same contraction, from one second-order jet of
the frame and metric; curvature and nabla^2 are assembled from it in
:mod:`symkt.curvature` and :mod:`symkt.fields`.

Only the embedded sphere remembers its frame (``_frame_memo``), per
seeding of Duals or Jets, so the components and the connection of one
seeding (``fields._nabla_jet``, ``fields._nabla2_jet``) share one
Householder evaluation, as do the frames of a product or conformal wrapper
over it.  Those and the charts evaluate theirs afresh: in a seed-7
``verify`` pass and a small geometry suite none of their calls at Duals
found its frame remembered, where the sphere's memo served 86 of 160.
``connection_jet`` keeps no jet; :mod:`symkt.curvature` keeps the jet
seeding, connection jet and curvature of the last float point.

Sign conventions are pinned by the unit sphere: the curvature operator on
2-forms is minus the identity there, i.e. R(X,Y,Z,V) = g(X,V)g(Y,Z) -
g(X,Z)g(Y,V).
"""

import functools
import math
import re
from typing import NamedTuple

import numpy as np

from .dual import (
    Dual,
    DualArray,
    Jet,
    _unpack,
    _unpack_jets,
    d_dot,
    d_exp,
    d_sqrt,
    dual_array,
    first_order,
    seed,
    seed_jets,
    stack,
    value_of,
)
from .errors import ConfigError

__all__ = [
    "Chart",
    "EmbeddedSphere",
    "ProductManifold",
    "ConformalRescale",
    "euclidean_chart",
    "stereographic_sphere_chart",
    "poincare_ball_chart",
    "flat_torus_chart",
    "conformal_rescale",
    "manifold_from_key",
    "MAX_KEY_DIM",
    "point_array",
    "sample_points",
    "frame_at",
    "frame_components",
    "gamma_frame",
    "ConnectionJet",
    "connection_jet",
    "christoffel",
    "bump_function",
]


# ---------------------------------------------------------------------------
# generic linear algebra (floats, Duals or Jets)


def point_array(data, x):
    """Matrix ``data`` as an array at point x.

    ``data`` is nested sequences of scalars, or an array already computed
    at x.  At a point of Duals of a float seeding the result is a
    :class:`~symkt.dual.DualArray` (float entries are its constants); at a
    point of Jets or nested Duals an object array; else float64,
    column-major so each frame vector e_a is contiguous: BLAS sums depend
    on the layout in the last bit, and the reports are pinned to this one.
    At a batch point (coordinates of shape (B,)) the result is (B, rows,
    cols), each entry broadcast over the batch.
    """
    if isinstance(data, DualArray):
        return data
    if first_order(x[0]):
        if isinstance(data, np.ndarray):
            return DualArray.constant(data, x[0])
        rows = [list(row) for row in data]
        return dual_array([v for row in rows for v in row], (len(rows), len(rows[0])),
                          like=x[0])
    if isinstance(x[0], (Dual, Jet)):
        return np.array(data, dtype=object, order="F")
    batch = np.shape(x[0])
    if not batch:
        return np.array(data, dtype=float, order="F")
    if isinstance(data, np.ndarray):
        return np.ascontiguousarray(np.broadcast_to(data, batch + data.shape[-2:]))
    out = np.empty(batch + (len(data), len(data[0])))
    for i, row in enumerate(data):
        for j, v in enumerate(row):
            out[..., i, j] = v
    return out


def _points(c):
    """A scalar c as it meets (..., rows, cols) matrices: a batch c of shape
    (B,) gets two trailing axes, so each point's matrix meets its own c."""
    return c[..., None, None] if isinstance(c, np.ndarray) else c


def frame_components(base, x, vec):
    """Frame coefficients F^T (G v) of a coordinate/ambient vector at x.

    Generic over scalars, like ``frame`` and ``metric_matrix``; at a batch
    point ``vec`` is (B, m) and the result (B, n).
    """
    x = list(x)
    vec = vec if isinstance(vec, np.ndarray) else stack(vec)
    Gv = base.metric_matrix(x) @ vec[..., None]
    return (np.swapaxes(base.frame(x), -1, -2) @ Gv)[..., 0]


def sample_points(base, count, rng):
    """``count`` points of ``base``, drawn one by one, as a (count, m) array."""
    return np.array([base.sample_point(rng) for _ in range(count)])


def _block_diag(A, B):
    (r, c), lead = A.shape[-2:], np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    shape = lead + (r + B.shape[-2], c + B.shape[-1])
    if isinstance(A, DualArray):
        out = DualArray.constant(np.zeros(shape), A)
    else:
        out = np.full(shape, 0.0, dtype=np.result_type(A, B), order="F")
    out[..., :r, :c] = A
    out[..., r:, c:] = B
    return out


def _frame_memo(frame):
    """``EmbeddedSphere.frame``, remembering its last value at Duals or Jets.

    At a point of Duals or Jets the frame is computed once per coordinates,
    and kept on the sphere, keyed by the identity of the scalars (the same
    scalars are the same seeding; the entry holds them, so an identity is
    never reused): a field's components and the connection at the same
    seeding share it, at Duals (``fields._nabla_jet``) and at Jets (the
    point ``curvature`` keeps, ``nabla2``), and so do the frames of a product
    or conformal wrapper built on the sphere at its slice of the same
    scalars.  Other scalars are computed afresh.  The remembered frame is
    read-only.  Float and batch points pass through.
    """

    @functools.wraps(frame)
    def memo_frame(self, x):
        if not isinstance(x[0], (Dual, Jet)):
            return frame(self, x)
        coords, F = getattr(self, "_frame_at_seeding", ((), None))
        if len(x) != len(coords) or any(u is not v for u, v in zip(x, coords)):
            F = frame(self, x)
            F.setflags(write=False)
            self._frame_at_seeding = (tuple(x), F)
        return F

    return memo_frame


# ---------------------------------------------------------------------------
# chart backend


class Chart:
    """Conformally flat space-form chart, g = c(x) delta of curvature sign kappa.

    The factor is c = 1 for kappa = 0 (``euclidean``, ``torus``) and
    c = 4/(1 + kappa |x|^2)^2 otherwise: kappa = 1 is the unit sphere in
    stereographic coordinates, kappa = -1 the Poincare ball.  With
    phi = 1/2 log c, whose gradient is grad phi = -2 kappa x / (1 + kappa
    |x|^2), the metric jet, the Christoffel symbols and the geodesic
    right-hand side are the closed forms of a conformal change of the flat
    metric (Besse, *Einstein Manifolds*, 1987, 1.J), on floats.  Custom
    conformal metrics exp(2 f) delta are ``conformal_rescale`` of a flat
    chart.

    Parameters
    ----------
    dim : int
        Dimension n >= 2.
    kappa : float
        Curvature sign: 0 (flat), 1 or -1.
    radius : float
        Sampling ball radius around the origin.
    key : str
        Catalog key used in reports.
    box : tuple or None
        If given, sample uniformly from the box [0, box_i) instead of the
        ball (used by the flat torus chart).
    """

    is_chart = True

    def __init__(self, dim, kappa=0.0, radius=1.0, key="chart", box=None):
        self.dim = dim
        self.coord_dim = dim
        self.kappa = kappa
        self.radius = radius
        self.key = key
        self.box = box

    def factor(self, x):
        """The conformal factor c at x, generic over scalars; 1.0 when flat."""
        if self.kappa == 0:
            return 1.0
        r2 = d_dot(x, x)
        s = 1.0 + self.kappa * r2
        return 4.0 / (s * s)

    def log_gradient(self, x):
        """grad phi = -2 kappa x / (1 + kappa |x|^2) at a float point, phi = log(c) / 2."""
        x = np.asarray(x, dtype=float)
        return (-2.0 * self.kappa / (1.0 + self.kappa * float(x.dot(x)))) * x

    def _diagonal(self, d, x):
        return point_array([[d if i == j else 0.0 for j in range(self.dim)]
                            for i in range(self.dim)], x)

    def metric_matrix(self, x):
        return self._diagonal(self.factor(x), x)

    def frame(self, x):
        return self._diagonal(1.0 / d_sqrt(self.factor(x)), x)

    def sample_point(self, rng):
        if self.box is not None:
            return np.array([rng.uniform(0.0, b) for b in self.box])
        v = rng.standard_normal(self.dim)
        r = self.radius * rng.uniform(0.05, 0.95) ** (1.0 / self.dim)
        return v / math.sqrt(v.dot(v)) * r  # the dot and sqrt of np.linalg.norm

    def contains(self, x):
        if self.box is not None:
            return True
        x = np.asarray(x, dtype=float)
        return math.sqrt(x.dot(x)) <= self.radius * 1.05

    def geodesic_rhs(self, y):
        """(v, -Gamma(v, v)) = (v, |v|^2 grad phi - 2 (grad phi . v) v).

        On a flat chart grad phi is zero (NaN where |x|^2 overflows), so it
        is its own acceleration and is returned as it is.
        """
        m = self.coord_dim
        x, v = y[:m], y[m:]
        p = self.log_gradient(x)
        if self.kappa == 0:
            return np.concatenate((v, p))
        out = np.empty(2 * m)
        out[:m] = v
        np.subtract(float(v.dot(v)) * p, (2.0 * float(p.dot(v))) * v, out=out[m:])
        return out

    # own class entry: perfbench/tracing.py wraps cls.__dict__["frame_components"]
    frame_components = frame_components


def christoffel(chart, x):
    """Coordinate Christoffel symbols Gamma^k_ij of a chart, shape (k,i,j).

    Gamma^k_ij = delta^k_i phi_j + delta^k_j phi_i - delta_ij phi_k, with
    phi_k the chart's ``log_gradient``.
    """
    if not getattr(chart, "is_chart", False):
        raise ConfigError("christoffel symbols are only defined for chart backends")
    p = chart.log_gradient(x)
    eye = np.eye(chart.dim)
    return eye[:, :, None] * p + eye[:, None, :] * p[:, None] - eye * p[:, None, None]


# ---------------------------------------------------------------------------
# embedded sphere backend


class EmbeddedSphere:
    """Round sphere S^n of given radius, handled in ambient coordinates.

    Points are ambient vectors of length ``radius``; the orthonormal
    tangent frame comes from the Householder reflection taking the last
    ambient basis vector to the unit normal, which is deterministic and
    smooth away from a single antipodal point.  The reflection's sign is
    chosen per point from the value of the last unit-normal coordinate.
    """

    is_chart = False

    def __init__(self, dim, radius=1.0):
        self.dim = dim
        self.coord_dim = dim + 1
        self.radius = radius
        self.key = f"sphere:{dim}"
        self._eye = np.eye(dim + 1, dim)  # the Householder frame's identity part
        self._eye.setflags(write=False)

    def metric_matrix(self, x):
        return point_array(np.eye(self.coord_dim), x)

    @_frame_memo
    def frame(self, x):
        """F[i, a] = delta_ia - 2 w_a w_i / |w|^2, the Householder matrix of
        w = x / |x| + s e_N without its last column: one outer product of
        the stacked w (a DualArray at a seeded point)."""
        r2 = d_dot(x, x)
        inv_r = 1.0 / d_sqrt(r2)
        u = [xi * inv_r for xi in x]
        s = np.where(value_of(u[-1]) >= 0.0, 1.0, -1.0)[()]
        w = list(u)
        w[-1] = w[-1] + s
        wsq = d_dot(w, w)
        W = stack(w)
        outer = (2.0 * W[..., :-1])[..., None, :] * W[..., :, None]
        return point_array(self._eye - outer / _points(wsq), x)

    def sample_point(self, rng):
        v = rng.standard_normal(self.coord_dim)
        return v / math.sqrt(v.dot(v)) * self.radius  # the dot and sqrt of np.linalg.norm

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        return abs(math.sqrt(x.dot(x)) - self.radius) <= 1e-9 * self.radius

    def geodesic_rhs(self, y):
        """(v, -|v|^2 / r^2 x)."""
        m = self.coord_dim
        x, v = y[:m], y[m:]
        speed2 = float(v.dot(v)) / self.radius**2
        out = np.empty(2 * m)
        out[:m] = v
        np.multiply(-speed2, x, out=out[m:])
        return out

    # own class entry: perfbench/tracing.py wraps cls.__dict__["frame_components"]
    frame_components = frame_components

    def tangent_projection(self, x, vec):
        x = np.asarray(x, dtype=float)
        return np.asarray(vec, dtype=float) - x * (np.dot(x, vec) / np.dot(x, x))


# ---------------------------------------------------------------------------
# product backend


class ProductManifold:
    """Riemannian product of two backends (coordinates concatenated).

    Not a chart, even of two charts: it has no conformal factor, so no
    coordinate Christoffel symbols.
    """

    is_chart = False

    def __init__(self, first, second):
        self.first = first
        self.second = second
        self.dim = first.dim + second.dim
        self.coord_dim = first.coord_dim + second.coord_dim
        self.key = "product:" + ",".join(
            f"({k})" if "," in k else k for k in (first.key, second.key)
        )

    def _split(self, x):
        m1 = self.first.coord_dim
        return list(x[:m1]), list(x[m1:])

    def metric_matrix(self, x):
        x1, x2 = self._split(x)
        return _block_diag(self.first.metric_matrix(x1), self.second.metric_matrix(x2))

    def frame(self, x):
        x1, x2 = self._split(x)
        return _block_diag(self.first.frame(x1), self.second.frame(x2))

    def sample_point(self, rng):
        return np.concatenate(
            [self.first.sample_point(rng), self.second.sample_point(rng)]
        )

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        m1 = self.first.coord_dim
        return self.first.contains(x[:m1]) and self.second.contains(x[m1:])

    def geodesic_rhs(self, y):
        """The factors' right-hand sides on their packed states (x1, v1) and
        (x2, v2), interleaved back as (x1', x2', v1', v2')."""
        m1, m = self.first.coord_dim, self.coord_dim
        m2 = m - m1
        d1 = self.first.geodesic_rhs(np.concatenate((y[:m1], y[m:m + m1])))
        d2 = self.second.geodesic_rhs(np.concatenate((y[m1:m], y[m + m1:])))
        return np.concatenate((d1[:m1], d2[:m2], d1[m1:], d2[m2:]))

    # own class entry: perfbench/tracing.py wraps cls.__dict__["frame_components"]
    frame_components = frame_components


# ---------------------------------------------------------------------------
# conformal rescaling wrapper


class ConformalRescale:
    """Backend for the metric exp(2 f) g on top of any base backend.

    The orthonormal frame is exp(-f) times the base frame; all connection
    and curvature data then flow through the generic Koszul path.  Fields
    are transported with :func:`symkt.fields.wrap_conformal_field`.
    """

    def __init__(self, base, f_fn, key=None):
        self.base = base
        self.f_fn = f_fn
        self.dim = base.dim
        self.coord_dim = base.coord_dim
        self.key = key or f"conformal:{base.key}"
        self.is_chart = False

    def metric_matrix(self, x):
        return _points(d_exp(2.0 * self.f_fn(x))) * self.base.metric_matrix(x)

    def frame(self, x):
        return _points(d_exp(-1.0 * self.f_fn(x))) * self.base.frame(x)

    def sample_point(self, rng):
        return self.base.sample_point(rng)

    def contains(self, x):
        return self.base.contains(x)

    def geodesic_rhs(self, y):
        raise ConfigError("geodesic flow not provided for conformal wrappers")

    # own class entry: perfbench/tracing.py wraps cls.__dict__["frame_components"]
    frame_components = frame_components


# ---------------------------------------------------------------------------
# frame connection (shared by all backends)


def frame_at(base, x):
    """Frame at a float point, as a float array (m, n)."""
    return np.asarray(base.frame(list(x)), dtype=float)


def _bracket(F, dF):
    """Flat coordinate/ambient Lie brackets of the frame fields.

    bracket[..., a, b, k] = [e_a, e_b]^k = sum_i (e_a^i d_i e_b^k -
    e_b^i d_i e_a^k), from the frame F (..., m, n) and its partials dF
    (..., m, m, n) with dF[i, k, b] = d_i F[k, b] (the layout of
    :class:`ConnectionJet`).  It is bilinear in (F, dF), so its derivative
    is two calls by the product rule; leading axes broadcast.
    """
    # t[a, b, k, i] = e_a^i d_i e_b^k
    t = F.swapaxes(-1, -2)[..., :, None, None, :] * dF.swapaxes(-1, -3)[..., None, :, :, :]
    return np.add.reduce(t - t.swapaxes(-4, -3), axis=-1)


def _koszul(bracket, GF):
    """Connection coefficients gamma[..., a, b, c] from the Koszul formula.

    With orthonormal arguments only the Lie bracket terms survive:

        2 g(nabla_{e_a} e_b, e_c) =
            g([e_a,e_b], e_c) - g([e_a,e_c], e_b) - g([e_b,e_c], e_a),

    from the frame's ``_bracket`` and G F (..., m, n).  It is linear in
    each, so its derivative is the contraction of the bracket's
    derivative with G F plus that of the bracket with d(G F); leading
    axes broadcast.
    """
    gb = bracket @ GF[..., None, :, :]  # gb[a, b, c] = g([e_a, e_b], e_c)
    gc = gb.swapaxes(-1, -2)  # views: gb's last axis moved to -2, then to -3
    return 0.5 * (gb - gc - gc.swapaxes(-2, -3))


def gamma_frame(base, x):
    """Connection coefficients gamma[a, b, c] = g(nabla_{e_a} e_b, e_c).

    The Koszul contraction (``_koszul``) of the frame, its exact first
    derivatives (forward-mode duals) and the metric.  At a point (any dual
    level) it returns an (n, n, n) array of its scalars; at a batch of B
    points (a ``(B, m)`` array or nested sequence) a ``(B, n, n, n)`` float
    array, from one seeding and one frame evaluation for the whole batch.
    """
    return _frame_connection(base, seed(x), x)[1]


def _frame_connection(base, X, x):
    """The frame F and ``gamma`` at x from the frame at X = ``seed(x)``.

    The frame's values and partials are unpacked as ``jacobian`` unpacks
    them; ``gamma`` is their Koszul contraction and F is stored
    column-major, as the backends build it.  ``fields._nabla_jet`` passes
    the seeding of a field's components, whose sphere frame is remembered.
    """
    m, n = base.coord_dim, base.dim
    vals, jac = _unpack(base.frame(X).ravel(), X)
    lead = vals.shape[:-1]  # (B,) at a batch, () at a point
    F = vals.reshape(lead + (m, n))
    # [..., i, k, b] = d_i F[k, b]
    dF = jac.reshape(lead + (m, n, m)).swapaxes(-1, -2).swapaxes(-2, -3)
    coords = list(np.asarray(x, dtype=float).T) if lead else list(x)
    gamma = _koszul(_bracket(F, dF), base.metric_matrix(coords) @ F)
    # each (m, n) frame column-major like the backends' frames: einsum sums
    # depend on the layout
    return np.swapaxes(np.swapaxes(F, -1, -2).copy(), -1, -2), gamma


class ConnectionJet(NamedTuple):
    """Frame and connection at a point with their first partials.

    ``F`` (m, n) is the frame, ``dF`` (m, m, n) its partials with
    ``dF[i] = d_i F``, ``gamma`` (n, n, n) the coefficients of
    :func:`gamma_frame` and ``dgamma`` (m, n, n, n) their partials with
    ``dgamma[i] = d_i gamma``.
    """

    F: np.ndarray
    dF: np.ndarray
    gamma: np.ndarray
    dgamma: np.ndarray


def connection_jet(base, x):
    """The :class:`ConnectionJet` at x from one hessian of frame and metric.

    ``gamma`` is the Koszul contraction of the frame jet and ``dgamma`` its
    product-rule derivative; the frame's bracket serves both, so the jet
    takes three brackets.  Float arrays at a float point; object arrays
    of Duals at a dual point, so curvature built from the jet can be
    differentiated once more.  ``x`` may be a caller's seeding, the Jets
    of ``seed_jets``, at which a field's components then share the sphere
    frame it remembers; jets of another length raise, as ``hessian`` does.
    No jet is kept here: ``curvature`` keeps the jet of its last float
    point, with its seeding.
    """
    Y = x if isinstance(x[0], Jet) and x[0].m == len(x) else seed_jets(x)
    m, n = base.coord_dim, base.dim
    mn = m * n
    vals, grads, hess = _unpack_jets(
        np.concatenate([base.frame(Y).ravel(), base.metric_matrix(Y).ravel()]), Y)
    F, G = vals[:mn].reshape(m, n), vals[mn:].reshape(m, m)
    dF = grads[:mn].reshape(m, n, m).transpose(2, 0, 1)  # [i, k, b] = d_i F[k, b]
    dG = grads[mn:].reshape(m, m, m).transpose(2, 0, 1)  # [i, k, l] = d_i G[k, l]
    ddF = hess[:mn].reshape(m, n, m, m).transpose(3, 2, 0, 1)  # [j, i, k, b] = d_j d_i F[k, b]
    GF, bracket = G @ F, _bracket(F, dF)
    gamma = _koszul(bracket, GF)
    dgamma = (_koszul(_bracket(dF, dF), GF) + _koszul(_bracket(F, ddF), GF)
              + _koszul(bracket, dG @ F + G @ dF))
    return ConnectionJet(F, dF, gamma, dgamma)


# ---------------------------------------------------------------------------
# catalog


def euclidean_chart(n, radius=2.0):
    return Chart(n, radius=radius, key=f"euclidean:{n}")


def stereographic_sphere_chart(n, radius=0.8):
    """Unit sphere in stereographic coordinates, g = 4/(1+|x|^2)^2 delta."""
    return Chart(n, kappa=1.0, radius=radius, key=f"stereographic:{n}")


def poincare_ball_chart(n, radius=0.7):
    """Hyperbolic space of curvature -1, g = 4/(1-|x|^2)^2 delta."""
    return Chart(n, kappa=-1.0, radius=radius, key=f"hyperbolic:{n}")


def flat_torus_chart(n):
    return Chart(n, key=f"torus:{n}", box=(2 * np.pi,) * n)


def bump_function(m):
    """Fixed low-degree polynomial used as the conformal factor exponent."""

    def f(x):
        s = 0.3 * x[0]
        if m > 1:
            s = s + 0.2 * x[0] * x[1]
        s = s - 0.15 * x[-1] * x[-1]
        return 0.1 * s

    return f


def conformal_rescale(base, f_fn=None, key=None):
    if f_fn is None:
        f_fn = bump_function(base.coord_dim)
    return ConformalRescale(base, f_fn, key=key)


def _split_product_arg(body):
    """Split ``KEY1,KEY2`` at its first comma outside parentheses.

    A factor that is itself a product is wrapped in one pair of
    parentheses, ``product:(product:sphere:2,sphere:2),euclidean:2``; that
    pair is stripped from each side.
    """
    depth = 0
    split = None
    for k, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                break
        elif ch == "," and depth == 0 and split is None:
            split = k
    if depth != 0:
        raise ConfigError(f"unbalanced parentheses in product spec {body!r}")
    if split is None:
        raise ConfigError(f"cannot split product spec {body!r}")
    return tuple(
        side[1:-1] if side.startswith("(") and side.endswith(")") else side
        for side in (body[:split].strip(), body[split + 1:].strip())
    )


# Largest n accepted in a ``name:n`` key: the size the multi-index tables
# are built for (see ``multiindex``); a larger key is a configuration error.
MAX_KEY_DIM = 8


def manifold_from_key(key):
    """Build a catalog manifold from its string key.

    Keys: ``euclidean:n``, ``sphere:n`` (embedded), ``stereographic:n``,
    ``hyperbolic:n``, ``torus:n``, ``product:KEY1,KEY2`` and
    ``conformal:bump:KEY``, with 2 <= n <= ``MAX_KEY_DIM`` in every
    ``name:n`` part, n written in ASCII digits without a leading zero.  A
    product factor that contains a comma is parenthesised:
    ``product:(product:sphere:2,sphere:2),euclidean:2``.  The built
    manifold's ``key`` is canonical: ``manifold_from_key(b.key).key ==
    b.key``.
    """
    key = key.strip()
    if key.startswith("product:"):
        first, second = _split_product_arg(key[len("product:"):])
        return ProductManifold(manifold_from_key(first), manifold_from_key(second))
    if key.startswith("conformal:bump:"):
        base = manifold_from_key(key[len("conformal:bump:"):])
        return conformal_rescale(base, key="conformal:bump:" + base.key)
    parts = key.split(":")
    if len(parts) != 2:
        raise ConfigError(f"unknown manifold key {key!r}")
    name, dim_s = parts
    # int() would also take "+3", "0_3", " 3", "03" and non-ASCII digits
    if not re.fullmatch(r"[1-9][0-9]*", dim_s, flags=re.ASCII):
        raise ConfigError(f"bad dimension in manifold key {key!r}")
    n = int(dim_s)
    if n < 2:
        raise ConfigError(f"manifolds need dimension >= 2, got {key!r}")
    if n > MAX_KEY_DIM:
        raise ConfigError(f"manifold dimension above the cap {MAX_KEY_DIM}: {key!r}")
    if name == "euclidean":
        return euclidean_chart(n)
    if name == "sphere":
        return EmbeddedSphere(n)
    if name == "stereographic":
        return stereographic_sphere_chart(n)
    if name == "hyperbolic":
        return poincare_ball_chart(n)
    if name == "torus":
        return flat_torus_chart(n)
    raise ConfigError(f"unknown manifold key {key!r}")
