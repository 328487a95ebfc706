"""Classifier verdicts, flag implications, determinism, frame invariance."""

import numpy as np
import pytest

from symkt import io as tio
from symkt.classify import classify, divfree_killing_parts
from symkt.constructors import build_constructor
from symkt.errors import DegreeError, VerificationError
from symkt.fields import TensorField, metric_field
from symkt.manifolds import EmbeddedSphere
from symkt.symtensor import SymTensor, change_basis, mult_L, norm


def test_metric_field_verdicts():
    f = metric_field(EmbeddedSphere(2))
    rep = classify(f, samples=15, tol=1e-9, seed=4)
    assert rep.verdicts["killing"]
    assert rep.verdicts["conformal"]
    assert not rep.verdicts["tracefree"]
    assert rep.verdicts["divfree"]


def test_special_flat_verdicts():
    f, _ = build_constructor("special-flat")
    rep = classify(f, samples=15, tol=1e-11, seed=4)
    assert rep.verdicts["special_conformal"]
    assert rep.verdicts["conformal"]
    assert not rep.verdicts["killing"]
    # d K = L(k0) is nonzero, three orders above tolerance
    assert rep.max_residuals["killing"] >= 1e-8
    # special CKTs kill the first and third projections of nabla K
    assert rep.max_residuals["p1"] <= 1e-11
    assert rep.max_residuals["p3"] <= 1e-11
    assert rep.max_residuals["special1"] <= 1e-11


def test_hopf_stackel_verdicts():
    f, _ = build_constructor("hopf-stackel")
    rep = classify(f, samples=15, tol=1e-9, seed=4)
    for flag in ("killing", "tracefree", "stackel", "divfree", "conformal"):
        assert rep.verdicts[flag]
    assert rep.max_residuals["divfree"] <= 1e-9
    # P1 = P2 = 0 for trace-free Killing tensors
    assert rep.max_residuals["p1"] <= 1e-9
    assert rep.max_residuals["p2"] <= 1e-9


def test_flag_implications_hold():
    for key in ("metric", "sphere-curvature", "special-flat", "hopf-stackel",
                "product-ckt", "broken-hopf-stackel"):
        f, _ = build_constructor(key)
        rep = classify(f, samples=8, tol=1e-9, seed=4)
        v = rep.verdicts
        if v["killing"]:
            assert v["conformal"]
        if v["special_conformal"]:
            assert v["conformal"]
        assert v["stackel"] == (v["killing"] and v["tracefree"])
        if v["stackel"]:
            assert v["divfree"]


def test_verdict_monotone_in_tolerance():
    f, _ = build_constructor("hopf-stackel")
    loose = classify(f, samples=8, tol=1e-6, seed=4).verdicts
    tight = classify(f, samples=8, tol=1e-12, seed=4).verdicts
    for key, val in tight.items():
        if val:
            assert loose[key], f"loosening tol flipped {key} off"


def test_degree_gate():
    f = metric_field(EmbeddedSphere(2))
    f0 = TensorField(f.base, 0, lambda x: [1.0])
    with pytest.raises(DegreeError):
        classify(f0)


def test_classifier_determinism():
    f, _ = build_constructor("hopf-stackel")
    a = classify(f, samples=10, tol=1e-9, seed=11)
    b = classify(f, samples=10, tol=1e-9, seed=11)
    assert tio.dumps_report(a.to_dict()) == tio.dumps_report(b.to_dict())


def test_residual_norm_frame_invariance():
    # algebraic residual norms are invariant under orthogonal re-mixing
    rng = np.random.default_rng(12)
    f, _ = build_constructor("sphere-curvature")
    from symkt.fields import d_op

    x = f.base.sample_point(rng)
    dK = d_op(f, x)
    Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    assert np.isclose(norm(change_basis(dK, Q)), norm(dK), rtol=1e-12)


class _RemixedBackend:
    """Backend whose orthonormal frame is a fixed orthogonal remix of the
    base's; everything else delegates.  Exercises frame-equivariance of
    the whole differentiation pipeline."""

    def __init__(self, base, Q):
        self.base = base
        self.Q = Q
        self.dim = base.dim
        self.coord_dim = base.coord_dim
        self.key = f"remixed:{base.key}"
        self.is_chart = getattr(base, "is_chart", False)

    def frame(self, x):
        return self.base.frame(x) @ self.Q

    def metric_matrix(self, x):
        return self.base.metric_matrix(x)

    def sample_point(self, rng):
        return self.base.sample_point(rng)

    def contains(self, x):
        return self.base.contains(x)


def test_classifier_verdicts_frame_equivariant():
    rng = np.random.default_rng(14)
    Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    for key in ("hopf-stackel", "sphere-curvature", "broken-hopf-stackel"):
        f, _ = build_constructor(key)
        remixed = _RemixedBackend(f.base, Q)
        g = TensorField(
            remixed, 2,
            lambda x, inner=f.comps_fn: list(
                change_basis(SymTensor(3, 2, inner(x)), Q).comps
            ),
            name=f.name,
        )
        a = classify(f, samples=6, tol=1e-9, seed=3)
        b = classify(g, samples=6, tol=1e-9, seed=3)
        assert a.verdicts == b.verdicts
        for k in ("killing", "conformal", "divfree", "tracefree"):
            assert np.isclose(a.max_residuals[k], b.max_residuals[k],
                              rtol=1e-8, atol=1e-12)


def test_divfree_parts_gate_and_result():
    f, _ = build_constructor("hopf-stackel")
    base = f.base

    def L_comps(x):
        K = SymTensor(3, 2, f.comps_fn(x))
        return list(mult_L(K).comps)

    Lf = TensorField(base, 4, L_comps, name="L(hopf)")
    parts = divfree_killing_parts(Lf, samples=6, tol=1e-9, seed=5)
    assert set(parts) == {0, 1, 2}
    assert all(d["stackel"] for d in parts.values())

    # trace-carrying Killing tensor without divergence-freeness is rejected
    hat, _ = build_constructor("special-flat-hat")
    with pytest.raises(VerificationError):
        divfree_killing_parts(hat, samples=6, tol=1e-9, seed=5)


def test_degenerate_pair_skips_cartan_projections():
    # Killing vectors on S^2 sit at the degenerate (n,p) = (2,1); the
    # classifier must still produce core verdicts, with part norms absent
    from symkt.constructors import _rotation_generator, killing_vector

    sp = EmbeddedSphere(2)
    xi = killing_vector(sp, _rotation_generator(3, 0, 1))
    rep = classify(xi, samples=8, tol=1e-9, seed=4)
    assert rep.verdicts["killing"]
    assert rep.max_residuals["p1"] is None
