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
* ``geodesic_rhs(x, v)`` - right-hand side of the geodesic equation.

``frame`` and ``metric_matrix`` are generic over scalars: float64 arrays
at a float point, object arrays of dual numbers at a dual point, and
``(B, m, n)`` float arrays at a batch point, whose coordinates are ``(B,)``
arrays (see :func:`point_array`).

The frame connection coefficients g(nabla_{e_a} e_b, e_c) are computed
once for all backends from the Koszul formula with orthonormal arguments,
as contractions of the frame, its exact first derivatives (forward-mode
duals) and the metric.  ``connection_jet`` adds their first derivatives,
by the product rule on the same contraction, from one second-order jet of
the frame and metric; curvature and nabla^2 are assembled from it in
:mod:`symkt.curvature` and :mod:`symkt.fields`.

Sign conventions are pinned by the unit sphere: the curvature operator on
2-forms is minus the identity there, i.e. R(X,Y,Z,V) = g(X,V)g(Y,Z) -
g(X,Z)g(Y,V).
"""

import re
from typing import NamedTuple

import numpy as np

from .dual import Dual, Jet, d_exp, d_sqrt, hessian, jacobian, value_of
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
    """Matrix ``data`` (nested sequences of scalars) as an ndarray at point x.

    Object dtype at a dual or jet point x, else float64, column-major so each
    frame vector e_a is contiguous: BLAS sums depend on the layout in the
    last bit, and the reports are pinned to this one.  At a batch point
    (coordinates of shape (B,)) the result is (B, rows, cols), each entry
    broadcast over the batch.
    """
    if isinstance(x[0], (Dual, Jet)):
        return np.array(data, dtype=object, order="F")
    batch = np.shape(x[0])
    if not batch:
        return np.array(data, dtype=float, order="F")
    out = np.empty(batch + (len(data), len(data[0])))
    for i, row in enumerate(data):
        for j, v in enumerate(row):
            out[..., i, j] = v
    return out


def _scale_points(c, M):
    """c * M for a scalar c, or per point for a batch c of shape (B,)."""
    return c[..., None, None] * M if isinstance(c, np.ndarray) else c * M


def frame_components(base, x, vec):
    """Frame coefficients F^T (G v) of a coordinate/ambient vector at x.

    Generic over scalars, like ``frame`` and ``metric_matrix``; at a batch
    point ``vec`` is (B, m) and the result (B, n).
    """
    x = list(x)
    Gv = base.metric_matrix(x) @ np.asarray(vec)[..., None]
    return (np.swapaxes(base.frame(x), -1, -2) @ Gv)[..., 0]


def _cholesky(G):
    n = len(G)
    L = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = G[i][j]
            for k in range(j):
                s = s - L[i][k] * L[j][k]
            if i == j:
                L[i][j] = d_sqrt(s)
            else:
                L[i][j] = s / L[j][j]
    return L


def _frame_from_metric(G, x):
    """Inverse transpose of the Cholesky factor of the nested-list metric G.

    Solves L^T E = I column by column; column a of E is frame vector e_a,
    and E^T G E = I by construction.
    """
    n = len(G)
    L = _cholesky(G)
    E = [[0.0] * n for _ in range(n)]
    for a in range(n):
        for i in range(n - 1, -1, -1):
            s = 1.0 if i == a else 0.0
            for k in range(i + 1, n):
                s = s - L[k][i] * E[k][a]
            E[i][a] = s / L[i][i]
    return point_array(E, x)


def _block_diag(A, B):
    (r, c), lead = A.shape[-2:], np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    shape = lead + (r + B.shape[-2], c + B.shape[-1])
    out = np.full(shape, 0.0, dtype=np.result_type(A, B), order="F")
    out[..., :r, :c] = A
    out[..., r:, c:] = B
    return out


# ---------------------------------------------------------------------------
# chart backend


class Chart:
    """Coordinate patch with a smooth metric.

    Parameters
    ----------
    dim : int
        Dimension n >= 2.
    metric_fn : callable
        x (length-n sequence of generic scalars) -> n x n nested list,
        symmetric positive definite on the domain.
    radius : float
        Sampling ball radius around the origin.
    key : str
        Catalog key used in reports.
    box : tuple or None
        If given, sample uniformly from the box [0, box_i) instead of the
        ball (used by the flat torus chart).
    """

    is_chart = True

    def __init__(self, dim, metric_fn, radius=1.0, key="chart", box=None):
        self.dim = dim
        self.coord_dim = dim
        self._metric_fn = metric_fn
        self.radius = radius
        self.key = key
        self.box = box

    def metric_matrix(self, x):
        return point_array(self._metric_fn(x), x)

    def frame(self, x):
        return _frame_from_metric(self._metric_fn(x), x)

    def metric(self, x):
        """Metric matrix at a float point as a float array."""
        return np.asarray(self.metric_matrix(list(x)), dtype=float)

    def metric_jet(self, x):
        """Metric G[i,j] and its partials dG[k,i,j] = d g_ij / d x_k.

        Both come from one forward-mode jacobian at a float point.
        """
        n = self.dim
        vals, jac = jacobian(lambda X: self.metric_matrix(X).ravel(), list(x))
        G = np.asarray(vals, dtype=float).reshape(n, n)
        dG = np.asarray(jac, dtype=float).reshape(n, n, n)
        return G, dG.transpose(2, 0, 1)

    def sample_point(self, rng):
        if self.box is not None:
            return np.array([rng.uniform(0.0, b) for b in self.box])
        v = rng.standard_normal(self.dim)
        r = self.radius * rng.uniform(0.05, 0.95) ** (1.0 / self.dim)
        return v / np.linalg.norm(v) * r

    def contains(self, x):
        if self.box is not None:
            return True
        return float(np.linalg.norm(x)) <= self.radius * 1.05

    def geodesic_rhs(self, x, v):
        G = christoffel(self, x)
        acc = -np.einsum("kij,i,j->k", G, v, v)
        return v, acc

    # own class entry: perfbench/tracing.py wraps cls.__dict__["frame_components"]
    frame_components = frame_components


def christoffel(chart, x):
    """Coordinate Christoffel symbols Gamma^k_ij of a chart, shape (k,i,j)."""
    if not getattr(chart, "is_chart", False):
        raise ConfigError("christoffel symbols are only defined for chart backends")
    G, dG = chart.metric_jet(x)
    # first[l,i,j] = d_i g_jl + d_j g_il - d_l g_ij
    first = dG.transpose(2, 0, 1) + dG.transpose(2, 1, 0) - dG
    return 0.5 * np.einsum("kl,lij->kij", np.linalg.inv(G), first)


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

    def metric_matrix(self, x):
        return point_array(np.eye(self.coord_dim), x)

    def frame(self, x):
        N = self.coord_dim
        r2 = x[0] * x[0]
        for xi in x[1:]:
            r2 = r2 + xi * xi
        inv_r = 1.0 / d_sqrt(r2)
        u = [xi * inv_r for xi in x]
        s = np.where(value_of(u[-1]) >= 0.0, 1.0, -1.0)[()]
        w = list(u)
        w[-1] = w[-1] + s
        wsq = w[0] * w[0]
        for wi in w[1:]:
            wsq = wsq + wi * wi
        return point_array(
            [
                [(1.0 if i == a else 0.0) - 2.0 * w[a] * w[i] / wsq for a in range(N - 1)]
                for i in range(N)
            ],
            x,
        )

    def sample_point(self, rng):
        v = rng.standard_normal(self.coord_dim)
        return v / np.linalg.norm(v) * self.radius

    def contains(self, x):
        return abs(float(np.linalg.norm(x)) - self.radius) <= 1e-9 * self.radius

    def geodesic_rhs(self, x, v):
        speed2 = float(np.dot(v, v)) / self.radius**2
        return v, -speed2 * np.asarray(x, dtype=float)

    # own class entry: perfbench/tracing.py wraps cls.__dict__["frame_components"]
    frame_components = frame_components

    def tangent_projection(self, x, vec):
        x = np.asarray(x, dtype=float)
        return np.asarray(vec, dtype=float) - x * (np.dot(x, vec) / np.dot(x, x))


# ---------------------------------------------------------------------------
# product backend


class ProductManifold:
    """Riemannian product of two backends (coordinates concatenated).

    Not a chart, even of two charts: it has no metric jet, so no coordinate
    Christoffel symbols.
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
        x1, x2 = self._split(x)
        return self.first.contains(np.asarray(x1)) and self.second.contains(
            np.asarray(x2)
        )

    def geodesic_rhs(self, x, v):
        m1 = self.first.coord_dim
        dx1, dv1 = self.first.geodesic_rhs(x[:m1], v[:m1])
        dx2, dv2 = self.second.geodesic_rhs(x[m1:], v[m1:])
        return np.concatenate([dx1, dx2]), np.concatenate([dv1, dv2])

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
        return _scale_points(d_exp(2.0 * self.f_fn(x)), self.base.metric_matrix(x))

    def frame(self, x):
        return _scale_points(d_exp(-1.0 * self.f_fn(x)), self.base.frame(x))

    def sample_point(self, rng):
        return self.base.sample_point(rng)

    def contains(self, x):
        return self.base.contains(x)

    def geodesic_rhs(self, x, v):
        raise ConfigError("geodesic flow not provided for conformal wrappers")

    # own class entry: perfbench/tracing.py wraps cls.__dict__["frame_components"]
    frame_components = frame_components


# ---------------------------------------------------------------------------
# frame connection (shared by all backends)


def frame_at(base, x):
    """Frame at a float point, as a float array (m, n)."""
    return np.asarray(base.frame(list(x)), dtype=float)


def _koszul(F, dF, GF):
    """Connection coefficients gamma[..., a, b, c] from the Koszul formula.

    With orthonormal arguments only the Lie bracket terms survive:

        2 g(nabla_{e_a} e_b, e_c) =
            g([e_a,e_b], e_c) - g([e_a,e_c], e_b) - g([e_b,e_c], e_a),

    with the flat coordinate/ambient bracket of the frame fields,
    [e_a, e_b]^k = sum_i (e_a^i d_i e_b^k - e_b^i d_i e_a^k).  Takes the
    frame F (..., m, n), its partials dF (..., m, m, n) with
    dF[i, k, b] = d_i F[k, b] (the layout of :class:`ConnectionJet`) and
    G F (..., m, n).  The result is linear in each of the three, so its
    derivative is three calls by the product rule; leading axes broadcast.
    """
    # t[a, b, k, i] = e_a^i d_i e_b^k
    t = (np.swapaxes(F, -1, -2)[..., :, None, None, :]
         * np.swapaxes(dF, -1, -3)[..., None, :, :, :])
    bracket = (t - np.swapaxes(t, -4, -3)).sum(axis=-1)
    gb = bracket @ GF[..., None, :, :]  # gb[a, b, c] = g([e_a, e_b], e_c)
    return 0.5 * (gb - np.swapaxes(gb, -1, -2) - np.moveaxis(gb, -1, -3))


def gamma_frame(base, x, with_frame=False):
    """Connection coefficients gamma[a, b, c] = g(nabla_{e_a} e_b, e_c).

    The Koszul contraction (``_koszul``) of the frame, its exact first
    derivatives (forward-mode duals) and the metric; works at any dual
    level of ``x`` and returns an (n, n, n) array of its scalars.  With
    ``with_frame`` it returns ``(F, gamma)``, where F is the frame at x
    taken from the same jet: the values of ``base.frame(x)``, bit for bit,
    without evaluating the frame again.
    """
    m, n = base.coord_dim, base.dim
    vals, jac = jacobian(lambda y: base.frame(y).ravel(), list(x))
    F = point_array(vals, x).reshape(m, n)
    dF = point_array(jac, x).reshape(m, n, m).transpose(2, 0, 1)  # [i, k, b] = d_i F[k, b]
    gamma = _koszul(F, dF, base.metric_matrix(list(x)) @ F)
    # column-major like the backends' frames: einsum sums depend on the layout
    return (np.asfortranarray(F), gamma) if with_frame else gamma


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
    product-rule derivative.  Float arrays at a float point; object arrays
    of Duals at a dual point, so curvature built from the jet can be
    differentiated once more.
    """
    m, n = base.coord_dim, base.dim
    mn = m * n
    vals, grads, hess = hessian(
        lambda y: np.concatenate([base.frame(y).ravel(), base.metric_matrix(y).ravel()]),
        list(x),
    )
    F, G = vals[:mn].reshape(m, n), vals[mn:].reshape(m, m)
    dF = grads[:mn].reshape(m, n, m).transpose(2, 0, 1)  # [i, k, b] = d_i F[k, b]
    dG = grads[mn:].reshape(m, m, m).transpose(2, 0, 1)  # [i, k, l] = d_i G[k, l]
    ddF = hess[:mn].reshape(m, n, m, m).transpose(3, 2, 0, 1)  # [j, i, k, b] = d_j d_i F[k, b]
    GF = G @ F
    gamma = _koszul(F, dF, GF)
    dgamma = (_koszul(dF, dF, GF) + _koszul(F, ddF, GF)
              + _koszul(F, dF, dG @ F + G @ dF))
    return ConnectionJet(F, dF, gamma, dgamma)


# ---------------------------------------------------------------------------
# catalog


def _flat_metric(n):
    return lambda x: np.eye(n).tolist()


def _conformally_flat_chart(n, sign, radius, key):
    """Chart with g = 4/(1 + sign |x|^2)^2 delta, of constant curvature sign."""

    def metric(x):
        r2 = x[0] * x[0]
        for xi in x[1:]:
            r2 = r2 + xi * xi
        s = 1.0 + sign * r2
        c = 4.0 / (s * s)
        return [[c if i == j else 0.0 for j in range(n)] for i in range(n)]

    return Chart(n, metric, radius=radius, key=key)


def euclidean_chart(n, radius=2.0):
    return Chart(n, _flat_metric(n), radius=radius, key=f"euclidean:{n}")


def stereographic_sphere_chart(n, radius=0.8):
    """Unit sphere in stereographic coordinates, g = 4/(1+|x|^2)^2 delta."""
    return _conformally_flat_chart(n, 1.0, radius, f"stereographic:{n}")


def poincare_ball_chart(n, radius=0.7):
    """Hyperbolic space of curvature -1, g = 4/(1-|x|^2)^2 delta."""
    return _conformally_flat_chart(n, -1.0, radius, f"hyperbolic:{n}")


def flat_torus_chart(n):
    return Chart(n, _flat_metric(n), key=f"torus:{n}", box=(2 * np.pi,) * n)


def bump_function(m, scale=0.1):
    """Fixed low-degree polynomial used as the conformal factor exponent."""

    def f(x):
        s = 0.3 * x[0]
        if m > 1:
            s = s + 0.2 * x[0] * x[1]
        s = s - 0.15 * x[-1] * x[-1]
        return scale * s

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
