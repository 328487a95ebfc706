"""Field classification: Killing / conformal / trace-free / special flags.

All residuals are relative, divided by max(1, |nabla K|) at the sample, so
parallel fields cannot pass curved-space checks merely by being small.
The conformal residual uses the trace-free part of dK (equivalently the
trace-free projection of d applied to the trace-free part of the field,
which coincides by uniqueness of the standard decomposition).
"""

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .cartan import FrameTensor, cartan_decompose, frame_norm, supported_pair
from .constructors import _worst, special_conformal_residual
from .dual import value_of
from .errors import DegreeError, VerificationError
from .fields import TensorField, d_op, delta_op, nabla
from .multiindex import multi_indices
from .symtensor import (
    SymTensor,
    norm,
    standard_decomposition,
    trace_Lambda,
    tracefree_part,
    tracefree_sym_product,
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


def _scale(T):
    """Residual normalizer max(1, |nabla K|); NaN if |nabla K| is not finite."""
    s = frame_norm(T)
    return max(1.0, s) if math.isfinite(s) else math.nan


def _codazzi_residual(T):
    """Exchange symmetry of slot index against first tensor argument."""
    n, p = T.dim, T.degree
    if p < 1:
        return 0.0
    diffs = [
        value_of(T.slots[a][(b,) + I]) - value_of(T.slots[b][(a,) + I])
        for a in range(n) for b in range(a + 1, n) for I in multi_indices(n, p - 1)
    ]
    return _worst([abs(d) for d in diffs], empty=0.0)


def classify(field, samples=100, tol=1e-9, seed=42, p_parts=True):
    """Evaluate classification residuals of a field at random domain points.

    Parameters
    ----------
    field : TensorField, degree >= 1
    samples : number of sample points
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
    base = field.base
    n, p = base.dim, field.degree
    rng = np.random.default_rng(seed)
    res = {k: [] for k in RESIDUAL_KEYS}
    use_parts = p_parts and supported_pair(n, p)

    points = []
    for _ in range(samples):
        x = base.sample_point(rng)
        points.append(list(x))
        # g is parallel, so nabla K_0 = (nabla K)_0 and d tr K = tr nabla K
        # are read off this one jet instead of re-differentiated
        T = nabla(field, x)
        scale = _scale(T)
        K = field(x)
        dK = d_op(field, x, T=T)
        deltaK = delta_op(field, x, T=T)
        res["killing"].append(norm(dK) / scale)
        res["conformal"].append(norm(tracefree_part(dK)) / scale)
        res["tracefree"].append(
            (norm(trace_Lambda(K)) if p >= 2 else 0.0) / scale
        )
        res["divfree"].append(norm(deltaK) / scale)
        res["special_conformal"].append(special_conformal_residual(field, x, T=T))
        res["codazzi"].append(_codazzi_residual(T) / scale)
        if use_parts:
            T0 = FrameTensor([tracefree_part(s) for s in T.slots]) if p >= 2 else T
            parts = cartan_decompose(T0)
            res["p1"].append(frame_norm(parts.P1) / scale)
            res["p2"].append(frame_norm(parts.P2) / scale)
            res["p3"].append(frame_norm(parts.P3) / scale)
            if p == 2:
                # (nabla_X K0)(Y,Z) = g(X,Y)k(Z) + g(X,Z)k(Y) - (2/n)k(X)g(Y,Z)
                c2 = (n + 2 * p - 4) / ((n + 2 * p - 2) * (n + p - 3))
                k_vec = delta_op(field, x, T=T0).scale(-c2)
                model = [
                    tracefree_sym_product(SymTensor.basis_vector(n, a), k_vec)
                    for a in range(n)
                ]
                res["special1"].append(
                    frame_norm(T0 - FrameTensor(model)) / scale
                )
        if p == 2:
            # d tr K = 2 delta K for Killing 2-tensors
            dtr = SymTensor(n, 1, [trace_Lambda(s).comps[0] for s in T.slots])
            res["two_tensor"].append(norm(dtr - deltaK.scale(2.0)) / scale)

    maxes = {k: _worst(v) for k, v in res.items()}
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
        points=points,
    )


def divfree_killing_parts(field, samples=30, tol=1e-9, seed=42, gate_tol=None):
    """Check the standard-decomposition parts of a divergence-free Killing
    tensor for the trace-free-Killing property.

    The field must first classify as Killing with vanishing divergence
    (the gate); each part field then gets d- and delta-residuals.  Returns
    a dict part index -> {"d": ..., "delta": ..., "stackel": bool}.
    """
    gate_tol = tol if gate_tol is None else gate_tol
    report = classify(field, samples=max(10, samples // 3), tol=gate_tol,
                      seed=seed, p_parts=False)
    if not (report.verdicts["killing"] and report.verdicts["divfree"]):
        raise VerificationError(
            "field must be divergence-free Killing before part analysis"
        )
    base = field.base
    n, p = base.dim, field.degree
    rng = np.random.default_rng(seed)
    out = {}
    for i in range(p // 2 + 1):
        deg_i = p - 2 * i

        def comps(x, i=i):
            K = SymTensor(n, p, field.comps_fn(x))
            return list(standard_decomposition(K).parts[i].comps)

        part_field = TensorField(base, deg_i, comps,
                                 name=f"{field.name}[part {i}]")
        ds, deltas = [], []
        for _ in range(samples):
            x = base.sample_point(rng)
            T = nabla(part_field, x)
            scale = _scale(T)
            ds.append(norm(d_op(part_field, x, T=T)) / scale)
            if deg_i >= 1:
                deltas.append(norm(delta_op(part_field, x, T=T)) / scale)
        worst_d, worst_delta = _worst(ds, 0.0), _worst(deltas, 0.0)
        out[i] = {
            "degree": deg_i,
            "d": worst_d,
            "delta": worst_delta,
            "stackel": worst_d <= tol and worst_delta <= tol,
        }
    return out
