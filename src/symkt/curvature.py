"""Curvature at a point: frame components, q(R), and identity residuals.

Curvature is assembled from the frame connection coefficients and their
first derivatives, in the convention pinned by the round sphere:
R(X,Y,Z,V) = g(X,V) g(Y,Z) - g(X,Z) g(Y,V) there, so the curvature
operator on 2-forms is minus the identity and q(R) acts on vectors as the
Ricci endomorphism (eigenvalue n-1 on the unit sphere).
"""

from dataclasses import dataclass

import numpy as np

from .cartan import frame_norm
from .dual import value_of
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
    R4[a,i,i,b]``; ``scal`` its trace.
    """

    R4: np.ndarray
    ricci: np.ndarray
    scal: float

    @classmethod
    def from_R4(cls, R):
        ricci = np.einsum("aiib->ab", R)
        return cls(R4=R, ricci=ricci, scal=float(np.trace(ricci)))

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


def riemann(base, x):
    """Frame curvature at x, with Ricci and scalar curvature."""
    return RiemannAtPoint.from_R4(_curvature(connection_jet(base, x)))


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


def qrh_check(base, x, h, rm=None):
    """Residual of q(R) = 2 R_ring - Ric on a degree-2 tensor h.

    R_ring is the classical curvature action (R_ring h)(X,Y) =
    sum h(R_{X,e_i} Y, e_i) and Ric acts as the (sign-flipped) derivation
    Ric(h)(X,Y) = -h(Ric X, Y) - h(X, Ric Y).
    """
    if h.degree != 2:
        raise ValueError("qrh_check needs a degree-2 tensor")
    n = base.dim
    if rm is None:
        rm = riemann(base, x)
    R, ric = rm.R4, rm.ricci
    hm = np.empty((n, n))
    for a in range(n):
        for b in range(n):
            hm[a, b] = h[a, b]
    ring = np.einsum("aibl,li->ab", R, hm)
    ric_h = -(ric @ hm) - (hm @ ric.T)
    want = 2.0 * ring - ric_h
    got = qR_act(base, x, h, rm=rm)
    diff = np.array(
        [got[a, b] - want[a, b] for a, b in multi_indices(n, 2)]
    )
    target = SymTensor(n, 2, [want[a, b] for a, b in multi_indices(n, 2)])
    return norm(SymTensor(n, 2, diff)) / max(1.0, norm(target))


def lichnerowicz_defect(field, x):
    """|(delta d - d delta)K - (nabla*nabla - q(R))K| at x, relative.

    One connection jet at x serves both ``nabla^2 K`` and the curvature,
    and one hessian of the components both ``nabla^2 K`` and the values of
    K that q(R) acts on.
    """
    if field.degree < 1:
        raise ValueError("defect check needs degree >= 1")
    jet = connection_jet(field.base, list(x))
    vals, W = _nabla2_jet(field, x, jet)
    lhs = delta_d(field, x, W=W) - d_delta(field, x, W=W)
    rl = rough_laplacian(field, x, W=W)
    rm = RiemannAtPoint.from_R4(_curvature(jet))
    rhs = rl - qR_act(field.base, x, SymTensor(field.base.dim, field.degree, vals), rm=rm)
    scale = max(1.0, norm(rl))
    return norm(lhs - rhs) / scale


def ricci_field(base, name="ricci"):
    """The Ricci curvature as a degree-2 tensor field.

    Its components take a hessian of the frame, which does not nest, so the
    field promises first derivatives only (``nabla``, not ``nabla2``).
    """
    idx = multi_indices(base.dim, 2)

    def comps(x):
        ric = np.einsum("aiib->ab", _curvature(connection_jet(base, x)))
        return [ric[a, b] for a, b in idx]

    return TensorField(base, 2, comps, order=1, name=name)


def ricci_killing_residual(base, x, X):
    """Modified-Ricci Killing residual at x for frame vector X.

    Measures |(nabla_X Ric)(X, X) - 2/(n+2) X(scal) g(X,X)|, normalized by
    max(1, |nabla Ric|): zero iff the modified Ricci tensor satisfies the
    Killing condition in direction X.  g is parallel, so X(scal) is the
    trace of nabla_X Ric, read off the same jet.
    """
    n = base.dim
    ric = ricci_field(base)
    T = nabla(ric, x)
    Xc = list(X)
    nab_X = T.slots[0].scale(Xc[0])
    for a in range(1, n):
        nab_X = nab_X + T.slots[a].scale(Xc[a])
    lhs = poly_eval(nab_X, Xc)
    x_scal = value_of(trace_Lambda(nab_X).comps[0])
    g_xx = float(np.dot(Xc, Xc))
    denom = max(1.0, frame_norm(T))
    return abs(value_of(lhs) - 2.0 / (n + 2) * x_scal * g_xx) / denom
