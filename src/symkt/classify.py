"""Field classification: Killing / conformal / trace-free / special flags.

All residuals are relative, divided by max(1, |nabla K|) at the sample, so
parallel fields cannot pass curved-space checks merely by being small.
The conformal residual uses the trace-free part of dK (equivalently the
trace-free projection of d applied to the trace-free part of the field,
which coincides by uniqueness of the standard decomposition).

The B sample points are drawn one by one into one (B, m) float array,
which the domain check and the seeding of the one batched jet read as
they are.  The residual stage after the jet (``_residuals``) runs, on
the raw arrays of K and of the slots S of nabla K, the kernels the
wrapped operators run (``slot_products``, ``slot_hooks``, ``slot_sum``,
``_traces``/``_deflate``, ``_cartan_comps`` with both trace-free guards,
``_pi2_star_rows``), with the same operands in the same order, and wraps
nothing, so each residual keeps the bits of the chain of wrapped tensors
(docs/conventions.md).  Every operand is computed once, and the norms of
arrays of one shape are one stack: row i of a stacked ``_norm_comps`` or
``_frame_norm_comps`` is one matmul over a contiguous row, the dot
kernel of the call on array i alone.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .cartan import (
    _cartan_comps,
    _frame_norm_comps,
    _pi2_star_rows,
    frame_norm,
    slot_hooks,
    slot_products,
    slot_sum,
    supported_pair,
)
from .constructors import _special_conformal_defect
from .errors import ConfigError, DegreeError, VerificationError
from .fields import _nabla_jet, d_op, delta_op, derived_field, nabla
from .manifolds import sample_points
from .multiindex import exchange_array
from .obs import finite_or_nan, worst
from .symtensor import (_deflate, _norm_comps, _relative, _trace_comps, _traces, norm,
                        standard_decomposition)

__all__ = ["ClassReport", "classify", "divfree_killing_parts"]

RESIDUAL_KEYS = [
    "killing",
    "conformal",
    "tracefree",
    "divfree",
    "special_conformal",
    "codazzi",
    "p1",
    "p2",
    "p3",
    "two_tensor",
    "special1",
]


@dataclass
class ClassReport:
    """Classification record for one field.

    ``residuals`` maps residual names to per-sample lists; ``max_residuals``
    to their maxima; ``verdicts`` to tolerance flags.  Flag implications
    (killing => conformal, stackel => divfree, ...) hold by construction.
    """

    name: str
    manifold: str
    degree: int
    samples: int
    tol: float
    seed: int
    residuals: dict = dc_field(default_factory=dict)
    max_residuals: dict = dc_field(default_factory=dict)
    verdicts: dict = dc_field(default_factory=dict)
    points: list = dc_field(default_factory=list)

    def to_dict(self):
        return {
            "field": self.name,
            "manifold": self.manifold,
            "degree": self.degree,
            "samples": self.samples,
            "tol": self.tol,
            "seed": self.seed,
            "max_residuals": {k: self.max_residuals[k] for k in sorted(self.max_residuals)},
            "verdicts": {k: self.verdicts[k] for k in sorted(self.verdicts)},
        }

    def sample_records(self):
        """Per-sample dump records: {"point": [...], "residuals": {...}}."""
        out = []
        for i, pt in enumerate(self.points):
            rec = {"point": [float(v) for v in pt], "residuals": {}}
            for key in sorted(self.residuals):
                vals = self.residuals[key]
                if len(vals) == len(self.points):
                    rec["residuals"][key] = vals[i]
            out.append(rec)
        return out


def _scale(s):
    """Residual normalizer max(1, |nabla K|) per point from s = |nabla K|;
    NaN where |nabla K| is not finite."""
    return finite_or_nan(np.maximum(s, 1.0))


def _norms(kernel, n, p, arrays):
    """The norms of named component arrays of one shape, by name: one
    ``kernel`` (``_norm_comps`` or ``_frame_norm_comps``) on their stack,
    whose row for each name is bit for bit the norm of that array alone."""
    return dict(zip(arrays, kernel(np.array(list(arrays.values())), n, p)))


def _codazzi_residual(S, n, p):
    """Exchange symmetry of the slot index against the first tensor
    argument, max |S[a][(b,) + I] - S[b][(a,) + I]| per point of the
    stacked slots S (..., n, size); NaN where an entry is not finite."""
    a, ia, b, ib = exchange_array(n, p)
    return finite_or_nan(np.abs(S[..., a, ia] - S[..., b, ib]).max(-1))


def _residuals(vals, S, n, p, use_parts):
    """Every residual, a per-sample list by key, from the jet of
    ``_nabla_jet``: the components ``vals`` (B, size) of K and the slots
    ``S`` (B, n, size) of nabla K, with the Cartan parts if ``use_parts``.
    """
    # g is parallel, so nabla K_0 = (nabla K)_0 and d tr K = tr nabla K
    # are read off this one jet instead of re-differentiated
    dK = slot_sum(slot_products(S, p))
    hooks = slot_hooks(S, p)
    deltaK = -slot_sum(hooks)
    traces = _traces(S, n, p) if use_parts or p == 2 else None
    # one stacked norm per shape, each array under the residual it gives:
    # the slots (nabla K itself gives the scale), then dK and (dK)_0, then
    # delta K and the two-tensor defect
    frames = {"scale": S, "special_conformal": _special_conformal_defect(S, deltaK, n, p)}
    if use_parts:
        T0, hooks0 = S, hooks
        if p >= 2:
            T0 = _deflate(traces, n, p)[0]
            hooks0 = slot_hooks(T0, p)
        P1, P2, P3, _, s2 = _cartan_comps(T0, n, p, hooks0)
        frames.update(p1=P1, p2=P2, p3=P3)
        if p == 2:
            # (nabla_X K0)(Y,Z) = g(X,Y)k(Z) + g(X,Z)k(Y) - (2/n)k(X)g(Y,Z),
            # k = -c2 delta(K0) = c2 pi2(K0)
            c2 = (n + 2 * p - 4) / ((n + 2 * p - 2) * (n + p - 3))
            frames["special1"] = T0 - _pi2_star_rows(s2 * c2, n, p - 1)
    deltas = {"divfree": deltaK}
    if p == 2:
        # d tr K = 2 delta K for Killing 2-tensors
        deltas["two_tensor"] = traces[1][..., 0] - deltaK * 2.0
    dKs = {"killing": dK, "conformal": _deflate(_traces(dK, n, p + 1), n, p + 1)[0]}
    norms = {**_norms(_frame_norm_comps, n, p, frames), **_norms(_norm_comps, n, p + 1, dKs),
             **_norms(_norm_comps, n, p - 1, deltas)}
    s = norms.pop("scale")
    special = norms.pop("special_conformal")
    scale = _scale(s)
    res = {k: [] for k in RESIDUAL_KEYS} | {k: v / scale for k, v in norms.items()}
    # normalized as special_conformal_residual does: by max(1, s), an
    # infinite s kept where _scale makes it NaN
    res["special_conformal"] = _relative(special, s)
    tracefree = _norm_comps(_trace_comps(vals, n, p), n, p - 2) if p >= 2 else 0.0
    res["tracefree"] = tracefree / scale
    res["codazzi"] = _codazzi_residual(S, n, p) / scale
    return {k: np.asarray(v, dtype=float).tolist() for k, v in res.items()}


def classify(field, samples=100, tol=1e-9, seed=42, p_parts=True):
    """Evaluate classification residuals of a field at random domain points.

    The points are drawn first and the field is differentiated once for
    all of them (one seeding of the components and the frame, unpacked
    each alone); every residual is then an array operation over the
    samples (``_residuals``).

    Parameters
    ----------
    field : TensorField, degree >= 1
    samples : number of sample points, >= 1
    tol : verdict tolerance on relative residuals
    seed : RNG seed for the sampler
    p_parts : also record Cartan projection norms of nabla of the
        trace-free part (skipped, recorded as None, for degenerate (n,p))

    Returns
    -------
    ClassReport
    """
    if field.degree < 1:
        raise DegreeError("classification needs degree >= 1")
    if samples < 1:
        raise ConfigError(f"classify needs samples >= 1, got {samples}")
    base = field.base
    n, p = base.dim, field.degree
    rng = np.random.default_rng(seed)
    use_parts = p_parts and supported_pair(n, p)

    points = sample_points(base, samples, rng)
    res = _residuals(*_nabla_jet(field, points), n, p, use_parts)
    maxes = {k: worst(v) for k, v in res.items()}
    verdicts = {k: maxes[k] <= tol for k in ("killing", "tracefree", "special_conformal")}
    verdicts["stackel"] = verdicts["killing"] and verdicts["tracefree"]
    verdicts["conformal"] = (maxes["conformal"] <= tol or verdicts["killing"]
                             or verdicts["special_conformal"])
    verdicts["divfree"] = maxes["divfree"] <= tol or verdicts["stackel"]
    verdicts["codazzi"] = maxes["codazzi"] <= tol
    return ClassReport(
        name=field.name,
        manifold=base.key,
        degree=p,
        samples=samples,
        tol=tol,
        seed=seed,
        residuals=res,
        max_residuals=maxes,
        verdicts=verdicts,
        points=points.tolist(),
    )


def divfree_killing_parts(field, samples=30, tol=1e-9, seed=42):
    """Check the standard-decomposition parts of a divergence-free Killing
    tensor for the trace-free-Killing property.

    The field must first classify as Killing with vanishing divergence
    (the gate); each part field then gets d- and delta-residuals.  Returns
    a dict part index -> {"d": ..., "delta": ..., "stackel": bool}.
    """
    if samples < 1:
        raise ConfigError(f"part analysis needs samples >= 1, got {samples}")
    report = classify(field, samples=max(10, samples // 3), tol=tol,
                      seed=seed, p_parts=False)
    if not (report.verdicts["killing"] and report.verdicts["divfree"]):
        raise VerificationError(
            "field must be divergence-free Killing before part analysis"
        )
    base, p = field.base, field.degree
    rng = np.random.default_rng(seed)
    out = {}
    for i in range(p // 2 + 1):
        deg_i = p - 2 * i
        part_field = derived_field(lambda K, i=i: standard_decomposition(K).parts[i],
                                   field, name=f"{field.name}[part {i}]")
        points = sample_points(base, samples, rng)
        T = nabla(part_field, points)
        scale = _scale(frame_norm(T))
        worst_d = worst(norm(d_op(T)) / scale)
        worst_delta = worst(norm(delta_op(T)) / scale) if deg_i >= 1 else 0.0
        out[i] = {
            "degree": deg_i,
            "d": worst_d,
            "delta": worst_delta,
            "stackel": worst_d <= tol and worst_delta <= tol,
        }
    return out
