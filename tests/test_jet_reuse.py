"""One derivative jet per point.

The metric is parallel, so nabla commutes with the trace Lambda: the
classifier reads nabla K_0 = (nabla K)_0 and d tr K = tr nabla K off a
single nabla K, and the Lichnerowicz defect reads all three second-order
operators off a single nabla^2 K, and q(R) off the same connection jet.
The connection jet at a float point, and the curvature assembled from
it, are kept in ``curvature`` for the next call at the same point.  Each
backend keeps its frame at a seeding's Duals for the next call at the
same Duals.  These tests pin the identities on every catalog backend and
count the derivative calls.
"""

import hashlib
import math
import sys

import numpy as np
import pytest

from symkt import curvature, dual, fields, manifolds
from symkt.cartan import FrameTensor, frame_norm, supported_pair
from symkt.classify import classify
from symkt.constructors import build_constructor, constructor_catalog
from symkt.dual import seed, value_of
from symkt.fields import (
    TensorField,
    d_op,
    metric_field,
    nabla,
    nabla2,
    random_polynomial_field,
    random_tangential_field,
    tracefree_part_field,
    wrap_conformal_field,
)
from symkt.geodesic import geodesic_drift
from symkt.manifolds import (
    EmbeddedSphere,
    connection_jet,
    euclidean_chart,
    gamma_frame,
    manifold_from_key,
)
from symkt.multiindex import sym_size
from symkt.symtensor import SymTensor, mult_L, norm, trace_Lambda, tracefree_part

REL = 1e-12


@pytest.fixture(autouse=True)
def empty_caches():
    # call counts must not depend on what earlier tests left in the kept
    # point (a frame remembered on a backend is hit only by its own Duals)
    curvature._kept_point.cache_clear()


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
            assert _close(dtr, d_op(Ttr))


@pytest.mark.parametrize("field", _GENERIC, ids=lambda f: f"{f.name}@{f.base.key}")
def test_generic_fields_have_nonparallel_trace(field):
    # otherwise the identities above would hold trivially
    x = field.base.sample_point(np.random.default_rng(9))
    T = nabla(field, x)
    assert frame_norm(T) > 1e-3
    assert max(norm(trace_Lambda(s)) for s in T.slots) > 1e-3


def _count(monkeypatch, module, name, counts=None):
    """Count calls of ``module.name`` through every symkt module binding it,
    only those whose arguments ``counts`` accepts if it is given."""
    orig = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        if counts is None or counts(*args):
            calls.append(1)
        return orig(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("symkt") and \
                getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, counted)
    return calls


def _count_method(monkeypatch, cls, name):
    orig = getattr(cls, name)
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(1)
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize("key", ["hopf-stackel", "special-flat", "L(hopf-stackel)"])
def test_classify_takes_one_batched_jet(monkeypatch, key):
    # one seeding and one evaluation of the components for all samples; K
    # is the jet's value part, so the field is never evaluated on floats
    import symkt.dual

    if key.startswith("L("):
        field = _L_field(build_constructor("hopf-stackel", seed=3)[0])
    else:
        field = build_constructor(key, seed=3)[0]
    comps_fn, grads = field.comps_fn, []

    def counted(x):
        grads.append(x[0].grad.shape)
        return comps_fn(x)

    field.comps_fn = counted
    seeds = _count(monkeypatch, symkt.dual, "seed")
    field_calls = _count_method(monkeypatch, TensorField, "__call__")
    rep = classify(field, samples=10, seed=2)
    assert grads == [(field.base.coord_dim, 10)]
    assert len(seeds) == 1  # the components and the frame, one seeding
    assert len(field_calls) == 0
    assert rep.max_residuals["p1"] is not None


def _stage_field(case):
    if case == "hopf-stackel":
        return build_constructor(case, seed=3)[0]
    if case == "L(hopf-stackel)":
        return _L_field(build_constructor("hopf-stackel", seed=3)[0])
    key, p = case.split("/p=")  # a random polynomial field
    return random_polynomial_field(manifold_from_key(key), int(p), np.random.default_rng(3))


def _record(monkeypatch, module, name, calls, keep):
    """Record ``keep(*args)``, unless it is None, for each call of
    ``module.name`` through that binding alone."""
    orig = getattr(module, name)

    def recorded(*args):
        kept = keep(*args)
        if kept is not None:
            calls.append(kept)
        return orig(*args)

    monkeypatch.setattr(module, name, recorded)


@pytest.mark.parametrize("case", ["euclidean:3/p=1", "euclidean:2/p=1", "hopf-stackel",
                                  "euclidean:3/p=3", "L(hopf-stackel)"])
def test_classify_computes_each_operand_once(monkeypatch, case):
    # the residual stage reads the one jet: one deflation of nabla K (for
    # the Cartan parts, p >= 2) and one of dK, one trace of S (at p = 2
    # the deflation's, also read for two_tensor), one gather of the slot
    # hooks of S (at p = 1 shared by delta K and the Cartan parts), and one
    # stacked norm per shape
    import symkt.classify as C
    from symkt import cartan, symtensor

    field = _stage_field(case)
    n, p, B = field.base.dim, field.degree, 5
    parts = supported_pair(n, p)
    jets, deflations, frame_norms, norms = [], [], [], []
    _record(monkeypatch, C, "_nabla_jet", jets, lambda f, x: f)
    _record(monkeypatch, C, "_deflate", deflations, lambda traces, n, p: traces[0].shape)
    _record(monkeypatch, C, "_frame_norm_comps", frame_norms, lambda a, n, p: a.shape)
    _record(monkeypatch, C, "_norm_comps", norms, lambda a, n, p: a.shape)
    S = nabla(field, classify(field, samples=B, seed=11).points).comps

    def of_S(comps, *rest):
        return comps.shape == S.shape and comps.tobytes() == S.tobytes()

    traces = _count(monkeypatch, symtensor, "_trace_comps", of_S)
    hooks = _count(monkeypatch, cartan, "slot_hooks", of_S)
    # and the stage after the jet builds no tensor: no constructor, no wrap
    stage, residuals = [], C._residuals

    def in_stage(*args):
        stage.append(True)
        try:
            return residuals(*args)
        finally:
            stage.pop()

    monkeypatch.setattr(C, "_residuals", in_stage)
    wraps = [_count(monkeypatch, symtensor, "_tensor", lambda *a: bool(stage)),
             _count(monkeypatch, cartan, "_frame", lambda *a: bool(stage))]
    for cls in (SymTensor, FrameTensor):
        wraps.append([])
        _record(monkeypatch, cls, "__init__", wraps[-1], lambda *a: True if stage else None)
    for _ in range(2):  # exact and repeatable
        for calls in (jets, deflations, frame_norms, norms, traces, hooks, *wraps):
            calls.clear()
        classify(field, samples=B, seed=11)
        assert len(jets) == 1
        assert deflations == [S.shape] * (parts and p >= 2) + [(B, sym_size(n, p + 1))]
        assert len(traces) == (p == 2 or (parts and p >= 2))
        assert len(hooks) == 1
        assert frame_norms == [(2 + 3 * parts + (parts and p == 2),) + S.shape]
        tracefree = [(B, sym_size(n, p - 2))] if p >= 2 else []
        stacks = [(2, B, sym_size(n, p + 1)), (1 + (p == 2), B, sym_size(n, p - 1))]
        assert norms == stacks + tracefree
        assert [len(calls) for calls in wraps] == [0, 0, 0, 0]


def test_lichnerowicz_defect_takes_one_component_hessian(monkeypatch):
    # one jet seeding, at which the frame and metric are unpacked once and
    # the components once: they give nabla^2 K and the values of K that
    # q(R) acts on
    sp = EmbeddedSphere(2)
    rng = np.random.default_rng(4)
    field = random_tangential_field(sp, 2, rng)
    x = sp.sample_point(rng)
    seedings = _count(monkeypatch, dual, "seed_jets")
    unpacks = _count(monkeypatch, dual, "_unpack_jets")
    field_calls = _count_method(monkeypatch, TensorField, "__call__")
    assert curvature.lichnerowicz_defect(field, x) <= 1e-6
    assert len(seedings) == 1
    assert len(unpacks) == 2
    assert len(field_calls) == 0


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


def test_nabla_evaluates_the_frame_once(monkeypatch):
    # at the dual point inside the field; the connection reuses that frame
    # through the memo, and its values also serve as the frame at x
    field = build_constructor("hopf-stackel")[0]
    compute = EmbeddedSphere.frame.__wrapped__  # the frame without its memo
    calls = []

    def counted(self, x):
        calls.append(1)
        return compute(self, x)

    monkeypatch.setattr(EmbeddedSphere, "frame", manifolds._frame_memo(counted))
    nabla(field, field.base.sample_point(np.random.default_rng(6)))
    assert len(calls) == 1


@pytest.mark.parametrize("key", ["sphere:3", "hyperbolic:3", "product:sphere:2,sphere:2"])
def test_one_point_takes_one_frame_hessian(monkeypatch, key):
    # riemann, q(R) without rm and the Lichnerowicz defect share the jet:
    # one seeding, one unpack of the frame and metric, and the components
    # unpacked at the same seeding
    base = manifold_from_key(key)
    rng = np.random.default_rng(12)
    field = (random_tangential_field(base, 2, rng) if isinstance(base, EmbeddedSphere)
             else random_polynomial_field(base, 2, rng))
    x = base.sample_point(rng)
    seedings = _count(monkeypatch, dual, "seed_jets")
    size = sym_size(base.dim, 2)
    unpacks = []  # (outputs, seeding) of each unpack, through every binding
    _count(monkeypatch, dual, "_unpack_jets", lambda ys, X: unpacks.append((len(ys), X)))
    rm = curvature.riemann(base, x)
    K = SymTensor(base.dim, 1, rng.standard_normal(base.dim))
    assert norm(curvature.qR_act(base, x, K) - curvature.qR_act(base, x, K, rm=rm)) == 0.0
    assert curvature.lichnerowicz_defect(field, x) <= 1e-6
    assert len(seedings) == 1
    m, n = base.coord_dim, base.dim
    assert [k for k, _ in unpacks] == [m * n + m * m, size]
    assert unpacks[0][1] is unpacks[1][1]


def test_connection_jet_is_kept_per_base_and_point_bytes(monkeypatch):
    # kept by curvature, for riemann and the Lichnerowicz defect
    base = manifold_from_key("stereographic:2")
    seedings = _count(monkeypatch, dual, "seed_jets")
    unpacks = _count(monkeypatch, dual, "_unpack_jets")
    x = [0.25, 0.0]
    jet = curvature._jet_and_riemann(base, x)[0]
    assert curvature._jet_and_riemann(base, np.array(x))[0] is jet  # the same float64 bytes
    assert len(seedings) == len(unpacks) == 1
    # a different point, a fresh base of the same key, the other signed zero
    for b, y in [(base, [0.25, 0.125]), (manifold_from_key("stereographic:2"), x),
                 (base, [0.25, -0.0])]:
        other = curvature._jet_and_riemann(b, y)[0]
        assert other is not jet
        jet = other
    assert len(seedings) == len(unpacks) == 4
    info = curvature._kept_point.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 4, 1)
    # connection_jet itself keeps nothing
    assert connection_jet(base, x) is not connection_jet(base, x)
    assert len(seedings) == len(unpacks) == 6


def _jet_frames(monkeypatch):
    """Record, for each evaluation of the sphere frame behind its memo,
    whether it ran on Jets."""
    compute = EmbeddedSphere.frame.__wrapped__  # the frame without its memo
    calls = []

    def counted(self, x):
        calls.append(isinstance(x[0], dual.Jet))
        return compute(self, x)

    monkeypatch.setattr(EmbeddedSphere, "frame", manifolds._frame_memo(counted))
    return calls


@pytest.mark.parametrize("key", ["sphere:2", "sphere:3"])
def test_riemann_and_the_defect_evaluate_the_frame_once_on_jets(monkeypatch, key):
    # the defect evaluates the components at the seeding curvature keeps, so
    # the frame they evaluate is the one the connection jet evaluated there
    base = manifold_from_key(key)
    rng = np.random.default_rng(15)
    field = random_tangential_field(base, 2, rng)
    x = base.sample_point(rng)
    frames = _jet_frames(monkeypatch)
    curvature.riemann(base, x)
    assert curvature.lichnerowicz_defect(field, x) <= 1e-6
    assert frames == [True]


@pytest.mark.parametrize("key", ["sphere:2", "sphere:3", "hyperbolic:3"])
def test_nabla2_seeds_once(monkeypatch, key):
    # the components first, then the connection at the same seeding, to the
    # bits of the defect's path, which takes the connection first
    base = manifold_from_key(key)
    rng = np.random.default_rng(16)
    field = (random_tangential_field(base, 2, rng) if isinstance(base, EmbeddedSphere)
             else random_polynomial_field(base, 2, rng))
    x = base.sample_point(rng)
    frames = _jet_frames(monkeypatch)
    seedings = _count(monkeypatch, dual, "seed_jets")
    W = nabla2(field, x)
    assert len(seedings) == 1
    assert frames == [True] * isinstance(base, EmbeddedSphere)
    jet, _, Y = curvature._jet_and_riemann(base, x)
    assert W.comps.tobytes() == fields._nabla2_jet(field, x, (Y, jet))[1].tobytes()


def test_connection_jet_takes_a_seeding_of_its_own_length():
    base = manifold_from_key("sphere:2")
    x = list(base.sample_point(np.random.default_rng(18)))
    at_seeding, at_point = connection_jet(base, dual.seed_jets(x)), connection_jet(base, x)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(at_seeding, at_point))
    with pytest.raises(ValueError, match="hessian does not nest"):
        connection_jet(base, dual.seed_jets(x + [0.5])[:3])


def test_the_dual_point_branch_keeps_nothing(monkeypatch):
    base = manifold_from_key("sphere:2")
    X = seed(list(base.sample_point(np.random.default_rng(17))))
    seedings = _count(monkeypatch, dual, "seed_jets")
    first, second = (curvature._jet_and_riemann(base, X) for _ in range(2))
    assert len(seedings) == 2
    assert not any(a is b for a, b in zip(first, second))
    assert curvature._kept_point.cache_info().currsize == 0


def test_connection_jet_arrays_are_read_only():
    # the jet curvature keeps at a float point
    base = manifold_from_key("sphere:3")
    jet = curvature._jet_and_riemann(base, base.sample_point(np.random.default_rng(13)))[0]
    for a in jet:
        with pytest.raises(ValueError):
            a.flat[0] = 1.0


def test_nabla_of_ricci_field_bypasses_the_cache():
    # its connection jets are at dual points; the digest is the one pinned
    # in test_golden_jets.py
    base = manifold_from_key("sphere:2")
    x = list(base.sample_point(np.random.default_rng([1913, 99])))
    comps = np.ascontiguousarray(nabla(curvature.ricci_field(base), x).comps, dtype=float)
    digest = hashlib.sha256(repr(comps.shape).encode() + comps.tobytes()).hexdigest()
    assert digest[:16] == "756af045756b2425"
    assert curvature._kept_point.cache_info().currsize == 0


def test_riemann_and_the_defect_assemble_the_curvature_once(monkeypatch):
    base = manifold_from_key("sphere:3")
    rng = np.random.default_rng(21)
    field = random_tangential_field(base, 2, rng)
    x = base.sample_point(rng)
    calls = _count(monkeypatch, curvature, "_curvature")
    rm = curvature.riemann(base, x)
    assert curvature.lichnerowicz_defect(field, x) <= 1e-6
    assert curvature.riemann(base, list(x)) is rm  # the same float64 bytes
    assert len(calls) == 1


def test_riemann_is_kept_per_base_and_point_bytes(monkeypatch):
    base = manifold_from_key("stereographic:2")
    calls = _count(monkeypatch, curvature, "_curvature")
    x = [0.25, 0.0]
    rm = curvature.riemann(base, x)
    # a different point, a fresh base of the same key, the other signed zero
    for b, y in [(base, [0.25, 0.125]), (manifold_from_key("stereographic:2"), x),
                 (base, [0.25, -0.0])]:
        other = curvature.riemann(b, y)
        assert other is not rm
        rm = other
    assert len(calls) == 4


def test_kept_riemann_arrays_are_read_only():
    base = manifold_from_key("sphere:3")
    rm = curvature.riemann(base, base.sample_point(np.random.default_rng(13)))
    for a in (rm.R4, rm.ricci):
        with pytest.raises(ValueError):
            a.flat[0] = 1.0


def test_nabla_of_ricci_field_leaves_the_kept_riemann(monkeypatch):
    # at the point riemann kept, nabla still assembles the curvature at its
    # own dual points, to the same bits as with nothing kept
    base = manifold_from_key("sphere:2")
    x = list(base.sample_point(np.random.default_rng([1913, 99])))
    rm = curvature.riemann(base, x)
    calls = _count(monkeypatch, curvature, "_curvature")
    comps = np.ascontiguousarray(nabla(curvature.ricci_field(base), x).comps, dtype=float)
    digest = hashlib.sha256(repr(comps.shape).encode() + comps.tobytes()).hexdigest()
    assert digest[:16] == "756af045756b2425"
    assert curvature.riemann(base, x) is rm
    assert len(calls) == 1


def test_frame_is_remembered_only_at_the_seeded_duals(monkeypatch):
    product = manifold_from_key("product:sphere:2,sphere:2")
    calls = []
    compute = EmbeddedSphere.frame.__wrapped__  # the frame without its memo

    def counted(self, x):
        calls.append(1)
        return compute(self, x)

    monkeypatch.setattr(EmbeddedSphere, "frame", manifolds._frame_memo(counted))
    X = seed(list(product.sample_point(np.random.default_rng(14))))
    first = product.first.frame(X[:3])  # as a lifted factor field evaluates it
    F = product.frame(X)
    assert len(calls) == 2  # each factor once per seeding
    # the product evaluates its frame afresh, to the same bytes, from the
    # frames its factors remember
    again = product.frame(list(X))
    assert again is not F and F.flags.writeable
    assert again.val.tobytes() == F.val.tobytes() and again.grad.tobytes() == F.grad.tobytes()
    assert product.first.frame(X[:3]) is first
    assert len(calls) == 2
    for remembered in (first, product.second.frame(X[3:])):
        assert not remembered.flags.writeable
    assert len(calls) == 2
    shifted = [xi + 0.0 for xi in X]  # other Duals of the same seeding
    G = product.frame(shifted)
    assert G is not F and len(calls) == 4
    assert value_of(list(G.ravel())) == value_of(list(F.ravel()))
    x = [0.6, 0.0, 0.8]
    assert product.first.frame(x) is not product.first.frame(x)  # floats pass through
    assert len(calls) == 6


@pytest.mark.parametrize("key", ["hyperbolic:3", "stereographic:2", "euclidean:3", "torus:2",
                                 "product:euclidean:2,hyperbolic:2"])
def test_chart_geodesics_build_no_dual_numbers(monkeypatch, key):
    # the chart right-hand side and the batched first integral are float closed forms
    import symkt.dual

    base = manifold_from_key(key)
    rng = np.random.default_rng(21)
    x0 = 0.5 * base.sample_point(rng)
    v0 = rng.standard_normal(base.coord_dim)
    seeds = _count(monkeypatch, symkt.dual, "seed")
    d = geodesic_drift(metric_field(base), x0, 0.1 * v0 / np.linalg.norm(v0), 20, 1e-3)
    assert d <= 1e-9
    assert len(seeds) == 0


@pytest.mark.parametrize("key", ["sphere:3", "hyperbolic:3", "product:sphere:2,sphere:2",
                                 "conformal:bump:sphere:3"])
def test_connection_jet_frame_is_the_frame(key):
    base = manifold_from_key(key)
    x = list(base.sample_point(np.random.default_rng(8)))
    F, gam = manifolds._frame_connection(base, seed(x), x)
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
        out[1] = out[1] + np.where(value_of(x[0]) > 0, bad, 0.0)
        return out

    rep = classify(TensorField(eu, 2, comps, name="half-bad"), samples=20, seed=4)
    killing = rep.residuals["killing"]
    assert 0 < sum(not math.isfinite(v) for v in killing) < len(killing)
    for key, val in rep.max_residuals.items():
        assert not math.isfinite(val), key
    assert not any(rep.verdicts.values()), rep.verdicts
