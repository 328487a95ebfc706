"""One derivative jet per point.

The metric is parallel, so nabla commutes with the trace Lambda: the
classifier reads nabla K_0 = (nabla K)_0 and d tr K = tr nabla K off a
single nabla K, and the Lichnerowicz defect reads all three second-order
operators off a single nabla^2 K, and q(R) off the same connection jet.
These tests pin the identities on every catalog backend and count the
derivative calls.
"""

import math
import sys

import numpy as np
import pytest

from symkt import curvature
from symkt.cartan import frame_norm
from symkt.classify import classify
from symkt.constructors import build_constructor, constructor_catalog
from symkt.dual import value_of
from symkt.fields import (
    TensorField,
    d_op,
    nabla,
    random_polynomial_field,
    random_tangential_field,
    tracefree_part_field,
    wrap_conformal_field,
)
from symkt.manifolds import EmbeddedSphere, euclidean_chart, gamma_frame, manifold_from_key
from symkt.symtensor import SymTensor, mult_L, norm, trace_Lambda, tracefree_part

REL = 1e-12


def _L_field(field):
    n = field.base.dim

    def comps(x):
        return list(mult_L(SymTensor(n, field.degree, field.comps_fn(x))).comps)

    return TensorField(field.base, field.degree + 2, comps,
                       name=f"L({field.name})")


def _trace_field(field):
    n = field.base.dim

    def comps(x):
        return list(trace_Lambda(SymTensor(n, field.degree, field.comps_fn(x))).comps)

    return TensorField(field.base, field.degree - 2, comps,
                       name=f"tr({field.name})")


def _generic_fields():
    """Fields with non-constant trace on each catalog backend."""
    rng = np.random.default_rng(31)
    out = [random_tangential_field(EmbeddedSphere(n), 2, rng) for n in (2, 3, 4)]
    out.append(random_polynomial_field(euclidean_chart(3), 2, rng))
    out.append(wrap_conformal_field(
        manifold_from_key("conformal:bump:euclidean:3"),
        random_polynomial_field(euclidean_chart(3), 2, rng),
    ))
    out.append(random_polynomial_field(
        manifold_from_key("product:sphere:2,sphere:2"), 2, rng))
    out.append(_L_field(build_constructor("hopf-stackel", seed=3)[0]))
    return out


_CATALOG = [build_constructor(key, seed=3)[0] for key in constructor_catalog()]
_GENERIC = _generic_fields()
_FIELDS = _CATALOG + _GENERIC


def _close(a, b):
    return norm(a - b) <= REL * max(1.0, norm(b))


def test_generic_fields_cover_the_backends():
    keys = {f.base.key for f in _FIELDS}
    assert {"sphere:2", "sphere:3", "sphere:4", "euclidean:3",
            "product:sphere:2,sphere:2"} <= keys
    assert any(k.startswith("conformal:") for k in keys)
    assert any(f.degree == 4 for f in _FIELDS)


@pytest.mark.parametrize("field", _FIELDS, ids=lambda f: f"{f.name}@{f.base.key}")
def test_nabla_commutes_with_tracefree_part(field):
    rng = np.random.default_rng(7)
    f0 = tracefree_part_field(field)
    for _ in range(3):
        x = field.base.sample_point(rng)
        T = nabla(field, x)
        T0 = nabla(f0, x)
        for a in range(field.base.dim):
            assert _close(tracefree_part(T.slots[a]), T0.slots[a])


@pytest.mark.parametrize("field", _FIELDS, ids=lambda f: f"{f.name}@{f.base.key}")
def test_d_trace_is_slot_traces(field):
    rng = np.random.default_rng(8)
    n, p = field.base.dim, field.degree
    tr = _trace_field(field)
    for _ in range(3):
        x = field.base.sample_point(rng)
        T = nabla(field, x)
        Ttr = nabla(tr, x)
        for a in range(n):
            assert _close(trace_Lambda(T.slots[a]), Ttr.slots[a])
        if p == 2:
            dtr = SymTensor(n, 1, [trace_Lambda(s).comps[0] for s in T.slots])
            assert _close(dtr, d_op(tr, x))


@pytest.mark.parametrize("field", _GENERIC, ids=lambda f: f"{f.name}@{f.base.key}")
def test_generic_fields_have_nonparallel_trace(field):
    # otherwise the identities above would hold trivially
    x = field.base.sample_point(np.random.default_rng(9))
    T = nabla(field, x)
    assert frame_norm(T) > 1e-3
    assert max(norm(trace_Lambda(s)) for s in T.slots) > 1e-3


def _count(monkeypatch, module, name):
    """Count calls of ``module.name`` through every symkt module binding it."""
    orig = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("symkt") and \
                getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("key", ["hopf-stackel", "special-flat", "L(hopf-stackel)"])
def test_classify_takes_one_nabla_per_sample(monkeypatch, key):
    import symkt.fields

    if key.startswith("L("):
        field = _L_field(build_constructor("hopf-stackel", seed=3)[0])
    else:
        field = build_constructor(key, seed=3)[0]
    calls = _count(monkeypatch, symkt.fields, "nabla")
    rep = classify(field, samples=5, seed=2)
    assert len(calls) == 5
    assert rep.max_residuals["p1"] is not None


def test_lichnerowicz_defect_takes_one_nabla2(monkeypatch):
    import symkt.fields

    sp = EmbeddedSphere(2)
    rng = np.random.default_rng(4)
    field = random_tangential_field(sp, 2, rng)
    x = sp.sample_point(rng)
    calls = _count(monkeypatch, symkt.fields, "nabla2")
    assert curvature.lichnerowicz_defect(field, x) <= 1e-6
    assert len(calls) == 1


def test_lichnerowicz_defect_takes_one_connection_jet(monkeypatch):
    # the jet of nabla2 also gives the curvature for q(R): no riemann call
    import symkt.manifolds

    sp = EmbeddedSphere(2)
    rng = np.random.default_rng(4)
    field = random_tangential_field(sp, 2, rng)
    x = sp.sample_point(rng)
    jets = _count(monkeypatch, symkt.manifolds, "connection_jet")
    rms = _count(monkeypatch, curvature, "riemann")
    assert curvature.lichnerowicz_defect(field, x) <= 1e-6
    assert len(jets) == 1
    assert len(rms) == 0


def test_riemann_evaluates_the_frame_once(monkeypatch):
    # at the jet point only: the jet's values are the frame at x
    sp = EmbeddedSphere(3)
    frame = EmbeddedSphere.frame
    calls = []

    def counted(self, x):
        calls.append(1)
        return frame(self, x)

    monkeypatch.setattr(EmbeddedSphere, "frame", counted)
    curvature.riemann(sp, sp.sample_point(np.random.default_rng(6)))
    assert len(calls) == 1


def test_nabla_evaluates_the_frame_twice(monkeypatch):
    # once at the dual point inside the field, once for the connection jet,
    # whose values also serve as the frame at x
    field = build_constructor("hopf-stackel")[0]
    frame = EmbeddedSphere.frame
    calls = []

    def counted(self, x):
        calls.append(1)
        return frame(self, x)

    monkeypatch.setattr(EmbeddedSphere, "frame", counted)
    nabla(field, field.base.sample_point(np.random.default_rng(6)))
    assert len(calls) == 2


@pytest.mark.parametrize("key", ["sphere:3", "hyperbolic:3", "product:sphere:2,sphere:2",
                                 "conformal:bump:sphere:3"])
def test_connection_jet_frame_is_the_frame(key):
    base = manifold_from_key(key)
    x = list(base.sample_point(np.random.default_rng(8)))
    F, gam = gamma_frame(base, x, with_frame=True)
    want = base.frame(x)
    assert F.tobytes(order="A") == want.tobytes(order="A")
    assert F.flags.f_contiguous == want.flags.f_contiguous
    assert np.array_equal(gam, gamma_frame(base, x))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_classify_fails_closed_on_nonfinite_samples(bad):
    # component 1 is non-finite on half of the samples; a bare max would
    # drop the NaNs and pass the field as Killing, Stackel and Codazzi
    eu = euclidean_chart(3)

    def comps(x):
        out = [0.0 * x[0]] * 6
        out[1] = out[1] + (bad if value_of(x[0]) > 0 else 0.0)
        return out

    rep = classify(TensorField(eu, 2, comps, name="half-bad"), samples=20, seed=4)
    killing = rep.residuals["killing"]
    assert 0 < sum(not math.isfinite(v) for v in killing) < len(killing)
    for key, val in rep.max_residuals.items():
        assert not math.isfinite(val), key
    assert not any(rep.verdicts.values()), rep.verdicts
