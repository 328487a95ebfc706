"""Curvature at a point: frame components, q(R), and identity residuals.

Curvature is assembled from the frame connection coefficients and their
first derivatives, in the convention pinned by the round sphere:
R(X,Y,Z,V) = g(X,V) g(Y,Z) - g(X,Z) g(Y,V) there, so the curvature
operator on 2-forms is minus the identity and q(R) acts on vectors as the
Ricci endomorphism (eigenvalue n-1 on the unit sphere).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cartan import FrameTensor, frame_norm, slot_sum
from .dual import Dual, Jet
from .errors import DegreeError
from .fields import TensorField, _nabla2_jet, d_delta, delta_d, nabla, rough_laplacian
from .manifolds import connection_jet
from .multiindex import index_array, multi_indices, replace_array
from .symtensor import SymTensor, derivation, norm, poly_eval, trace_Lambda

__all__ = [
    "RiemannAtPoint",
    "riemann",
    "qR_act",
    "qrh_check",
    "lichnerowicz_defect",
    "ricci_killing_residual",
    "ricci_field",
]


@dataclass(frozen=True)
class RiemannAtPoint:
    """Frame curvature data at one point.

    ``R4[a,b,c,d] = g(R(e_a,e_b) e_c, e_d)``; ``ricci[a,b] = sum_i
    R4[a,i,i,b]``; ``scal`` its trace, a Python float at a float point and
    the trace's own scalar (a ``Dual``) at a dual point.
    """

    R4: np.ndarray
    ricci: np.ndarray
    scal: object

    @classmethod
    def from_R4(cls, R):
        ricci = np.einsum("aiib->ab", R)
        scal = np.trace(ricci)
        return cls(R4=R, ricci=ricci,
                   scal=scal if ricci.dtype == object else float(scal))

    def symmetry_residual(self):
        R = self.R4
        r = max(
            np.abs(R + R.transpose(1, 0, 2, 3)).max(),
            np.abs(R + R.transpose(0, 1, 3, 2)).max(),
            np.abs(R - R.transpose(2, 3, 0, 1)).max(),
        )
        return float(r)

    def bianchi_residual(self):
        R = self.R4
        b = R + R.transpose(1, 2, 0, 3) + R.transpose(2, 0, 1, 3)
        return float(np.abs(b).max())

    def sectional(self, a, b):
        return float(self.R4[a, b, b, a])


def _curvature(jet):
    """R4[a,b,c,d] = g(R(e_a,e_b) e_c, e_d) from a :class:`ConnectionJet`.

    Generic over scalars: a float array from a jet at a float point, an
    object array of Duals from one at a dual point (so Ricci and scalar
    curvature can be differentiated in turn).
    """
    gam = jet.gamma
    # egam[a,b,c,d] = e_a(gamma[b][c][d])
    egam = np.einsum("ibcd,ia->abcd", jet.dgamma, jet.F)
    return (
        egam
        - egam.transpose(1, 0, 2, 3)
        + np.einsum("bce,aed->abcd", gam, gam)
        - np.einsum("ace,bed->abcd", gam, gam)
        - np.einsum("abe,ecd->abcd", gam - gam.transpose(1, 0, 2), gam)
    )


@lru_cache(maxsize=1)
def _kept_point(base, key):
    """The read-only (connection jet, :class:`RiemannAtPoint`) pair at the
    float point whose float64 bytes are ``key`` (which tell -0.0 from
    0.0): the last one is kept, so ``riemann``, ``qrh_check``, ``qR_act``
    without ``rm`` and ``lichnerowicz_defect`` at one point share one
    frame hessian and one curvature assembly.  ``_kept_point.cache_clear()``
    empties it.
    """
    jet = connection_jet(base, np.frombuffer(key))
    rm = RiemannAtPoint.from_R4(_curvature(jet))
    for a in (*jet, rm.R4, rm.ricci):
        a.flags.writeable = False
    return jet, rm


def _jet_and_riemann(base, x):
    """The connection jet at x and its curvature: kept at a float point,
    assembled afresh at a dual point."""
    if isinstance(x[0], (Dual, Jet)):
        jet = connection_jet(base, list(x))
        return jet, RiemannAtPoint.from_R4(_curvature(jet))
    return _kept_point(base, np.asarray(x, dtype=float).tobytes())


def riemann(base, x):
    """Frame curvature at x, with Ricci and scalar curvature.

    At a float point the result is shared with the next call at the same
    point and base (and with ``lichnerowicz_defect`` there), and its
    arrays are read-only.
    """
    return _jet_and_riemann(base, x)[1]


def qR_act(base, x, K, rm=None):
    """Curvature endomorphism q(R) K = sum e_j . e_i -| (R_{e_i e_j} K).

    ``R_{e_i e_j}`` acts on symmetric tensors as the derivation extension
    of the corresponding skew endomorphism.  Pass a precomputed
    :class:`RiemannAtPoint` in ``rm`` to amortize the curvature.
    """
    if rm is None:
        rm = riemann(base, x)
    n, p = K.dim, K.degree
    # Y[i, j] = R_{e_i e_j} K; q(R) = sum_{i<j} (e_i ^ e_j)* Y[i, j], which by
    # the skew symmetry of Y in (i, j) gathers to sum_m sum_d Y[d, I_m, I<-d]
    Y = derivation(rm.R4.transpose(0, 1, 3, 2), K.comps, p)
    idx, rep = index_array(n, p), replace_array(n, p)
    out = Y[np.arange(n), idx[:, :, None], rep].sum(axis=(1, 2))
    return SymTensor(n, p, out)


def qrh_check(base, x, h):
    """Residual of q(R) = 2 R_ring - Ric on a degree-2 tensor h.

    R_ring is the classical curvature action (R_ring h)(X,Y) =
    sum h(R_{X,e_i} Y, e_i) and Ric acts as the (sign-flipped) derivation
    Ric(h)(X,Y) = -h(Ric X, Y) - h(X, Ric Y).
    """
    if h.degree != 2:
        raise DegreeError("qrh_check needs a degree-2 tensor")
    n = base.dim
    rm = riemann(base, x)
    R, ric = rm.R4, rm.ricci
    hm = h.to_dense()
    ring = np.einsum("aibl,li->ab", R, hm)
    ric_h = -(ric @ hm) - (hm @ ric.T)
    I, J = index_array(n, 2).T
    want = SymTensor(n, 2, (2.0 * ring - ric_h)[I, J])
    got = qR_act(base, x, h, rm=rm)
    return norm(got - want) / max(1.0, norm(want))


def lichnerowicz_defect(field, x):
    """|(delta d - d delta)K - (nabla*nabla - q(R))K| at x, relative.

    One connection jet at x serves both ``nabla^2 K`` and the curvature
    (at a float point, the jet and curvature ``riemann`` keeps there), and
    one hessian of the components both ``nabla^2 K`` and the values of K
    that q(R) acts on.
    """
    if field.degree < 1:
        raise DegreeError("defect check needs degree >= 1")
    n, p = field.base.dim, field.degree
    jet, rm = _jet_and_riemann(field.base, x)
    vals, grid = _nabla2_jet(field, x, jet)
    W = FrameTensor.from_stacked(n, p, grid)
    lhs = delta_d(W) - d_delta(W)
    rl = rough_laplacian(W)
    rhs = rl - qR_act(field.base, x, SymTensor(n, p, vals), rm=rm)
    scale = max(1.0, norm(rl))
    return norm(lhs - rhs) / scale


def ricci_field(base):
    """The Ricci curvature as a degree-2 tensor field, read off ``riemann``.

    Its components take a hessian of the frame, which does not nest, so
    ``nabla`` applies to it but ``nabla2`` raises.
    """
    idx = multi_indices(base.dim, 2)

    def comps(x):
        ric = riemann(base, x).ricci
        return [ric[a, b] for a, b in idx]

    return TensorField(base, 2, comps, name="ricci")


def ricci_killing_residual(base, x, X):
    """Modified-Ricci Killing residual at x for frame vector X.

    Measures |(nabla_X Ric)(X, X) - 2/(n+2) X(scal) g(X,X)|, normalized by
    max(1, |nabla Ric|): zero iff the modified Ricci tensor satisfies the
    Killing condition in direction X.  g is parallel, so X(scal) is the
    trace of nabla_X Ric, read off the same jet.
    """
    n = base.dim
    T = nabla(ricci_field(base), x)
    Xc = np.asarray(X, dtype=float)
    nab_X = SymTensor(n, 2, slot_sum(T.comps * Xc[:, None]))
    lhs = poly_eval(nab_X, Xc)
    x_scal = float(trace_Lambda(nab_X).comps[0])
    g_xx = float(np.dot(Xc, Xc))
    denom = max(1.0, frame_norm(T))
    return abs(float(lhs) - 2.0 / (n + 2) * x_scal * g_xx) / denom
