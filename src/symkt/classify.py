"""Field classification: Killing / conformal / trace-free / special flags.

All residuals are relative, divided by max(1, |nabla K|) at the sample, so
parallel fields cannot pass curved-space checks merely by being small.
The conformal residual uses the trace-free part of dK (equivalently the
trace-free projection of d applied to the trace-free part of the field,
which coincides by uniqueness of the standard decomposition).

The B sample points are drawn one by one into one (B, m) float array,
which the domain check and the seeding of the one batched jet read as
they are.  Every operand is computed once, and the norms of tensors of
one shape are taken as one stack: row i of a stacked ``inner`` or
``frame_inner`` is one matmul over a contiguous row, the dot kernel of
the call on tensor i alone, so each residual keeps its bits.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .cartan import FrameTensor, cartan_decompose, frame_norm, pi2_star, supported_pair
from .constructors import _special_conformal_defect
from .errors import ConfigError, DegreeError, VerificationError
from .fields import _nabla_jet, d_op, delta_op, derived_field, nabla
from .multiindex import exchange_array
from .obs import finite_or_nan, worst
from .symtensor import (
    SymTensor,
    norm,
    standard_decomposition,
    trace_Lambda,
    tracefree_part,
)

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


def _sample_points(base, count, rng):
    """``count`` points of ``base`` as one (count, m) float array, drawn one
    after another from ``rng``."""
    return np.array([base.sample_point(rng) for _ in range(count)])


def _norms(tensors):
    """The norms of named tensors of one shape, all SymTensors or all
    FrameTensors, by name, taken as one stacked norm whose row for each
    name is bit for bit the norm of that tensor alone."""
    A = next(iter(tensors.values()))
    comps = np.array([t.comps for t in tensors.values()])
    if isinstance(A, FrameTensor):
        rows = frame_norm(FrameTensor.from_stacked(A.dim, A.degree, comps))
    else:
        rows = norm(SymTensor(A.dim, A.degree, comps))
    return dict(zip(tensors, rows))


def _codazzi_residual(S, n, p):
    """Exchange symmetry of the slot index against the first tensor
    argument, max |S[a][(b,) + I] - S[b][(a,) + I]| per point of the
    stacked slots S (..., n, size); NaN where an entry is not finite."""
    a, ia, b, ib = exchange_array(n, p)
    return finite_or_nan(np.abs(S[..., a, ia] - S[..., b, ib]).max(-1))


def classify(field, samples=100, tol=1e-9, seed=42, p_parts=True):
    """Evaluate classification residuals of a field at random domain points.

    The points are drawn first and the field is differentiated once for
    all of them (one batched jacobian of the components and one of the
    frame); every residual is then an array operation over the samples.

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

    points = _sample_points(base, samples, rng)
    # g is parallel, so nabla K_0 = (nabla K)_0 and d tr K = tr nabla K
    # are read off this one jet instead of re-differentiated; K is the
    # jet's value part
    vals, S = _nabla_jet(field, points)
    K = SymTensor(n, p, vals)
    T = FrameTensor.from_stacked(n, p, S)
    dK = d_op(T)
    deltaK = delta_op(T)
    # one stacked norm per shape, each tensor under the residual it gives:
    # the frame tensors (nabla K itself gives the scale), then dK and
    # (dK)_0, then delta K and the two-tensor defect
    frames = {"scale": T, "special_conformal": _special_conformal_defect(T, deltaK)}
    if use_parts:
        T0 = T
        if p >= 2:
            T0 = FrameTensor.from_stacked(n, p, tracefree_part(SymTensor(n, p, S)).comps)
        parts = cartan_decompose(T0)
        frames.update(p1=parts.P1, p2=parts.P2, p3=parts.P3)
        if p == 2:
            # (nabla_X K0)(Y,Z) = g(X,Y)k(Z) + g(X,Z)k(Y) - (2/n)k(X)g(Y,Z),
            # k = -c2 delta(K0) = c2 pi2(K0)
            c2 = (n + 2 * p - 4) / ((n + 2 * p - 2) * (n + p - 3))
            frames["special1"] = T0 - pi2_star(parts.pi2.scale(c2))
    deltas = {"divfree": deltaK}
    if p == 2:
        # d tr K = 2 delta K for Killing 2-tensors
        dtr = SymTensor(n, 1, trace_Lambda(SymTensor(n, p, S)).comps[..., 0])
        deltas["two_tensor"] = dtr - deltaK.scale(2.0)
    norms = {**_norms(frames), **_norms({"killing": dK, "conformal": tracefree_part(dK)}),
             **_norms(deltas)}
    s = norms.pop("scale")
    special = norms.pop("special_conformal")
    scale = _scale(s)
    res = {k: [] for k in RESIDUAL_KEYS}
    for key, value in norms.items():
        res[key] = value / scale
    # normalized as special_conformal_residual does: by max(1, s), an
    # infinite s kept where _scale makes it NaN
    res["special_conformal"] = special / np.maximum(1.0, s)
    res["tracefree"] = (norm(trace_Lambda(K)) if p >= 2 else 0.0) / scale
    res["codazzi"] = _codazzi_residual(S, n, p) / scale
    res = {k: np.asarray(v, dtype=float).tolist() for k, v in res.items()}

    maxes = {k: worst(v) for k, v in res.items()}
    verdicts = {}
    verdicts["killing"] = maxes["killing"] <= tol
    verdicts["tracefree"] = maxes["tracefree"] <= tol
    verdicts["special_conformal"] = maxes["special_conformal"] <= tol
    verdicts["stackel"] = verdicts["killing"] and verdicts["tracefree"]
    verdicts["conformal"] = (
        maxes["conformal"] <= tol
        or verdicts["killing"]
        or verdicts["special_conformal"]
    )
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
        points = _sample_points(base, samples, rng)
        T = nabla(part_field, points)
        scale = _scale(frame_norm(T))
        worst_d = worst(norm(d_op(T)) / scale)
        worst_delta = 0.0
        if deg_i >= 1:
            worst_delta = worst(norm(delta_op(T)) / scale)
        out[i] = {
            "degree": deg_i,
            "d": worst_d,
            "delta": worst_delta,
            "stackel": worst_d <= tol and worst_delta <= tol,
        }
    return out
