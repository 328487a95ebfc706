"""Second-order jets against the nested dual numbers they replace.

``dual.hessian`` evaluates a function once on :class:`~symkt.dual.Jet`
scalars; ``manifolds.connection_jet`` takes the frame, the connection and
their first partials from one such evaluation, and ``riemann``, ``nabla2``
and the Lichnerowicz defect are assembled from it.  The references below
are the former nested-dual assemblies (``jacobian`` of ``gamma_frame`` and
of ``nabla``'s components), kept here only to pin the jet path: equal
within 8 eps times max(1, |reference|), as the two sum in another order.
"""

import copy
import math
import pickle

import numpy as np
import pytest

from symkt import suites
from symkt.curvature import (
    RiemannAtPoint,
    lichnerowicz_defect,
    qR_act,
    qrh_check,
    ricci_field,
    riemann,
)
from symkt.dual import Jet, d_exp, d_log, d_sqrt, hessian, jacobian, value_of
from symkt.fields import (
    SecondDerivative,
    TensorField,
    _assemble_first,
    _nabla2_jet,
    _nabla_jet,
    d_delta,
    delta_d,
    metric_field,
    nabla,
    nabla2,
    random_polynomial_field,
    random_tangential_field,
    rough_laplacian,
)
from symkt.manifolds import (
    Chart,
    EmbeddedSphere,
    connection_jet,
    euclidean_chart,
    gamma_frame,
    manifold_from_key,
)
from symkt.multiindex import multi_indices
from symkt.symtensor import SymTensor, norm

EPS = np.finfo(float).eps

# the six manifolds of the curvature benchmark, then a flat chart, a box
# chart and a larger embedded sphere
KEYS = ["sphere:2", "sphere:3", "hyperbolic:3", "stereographic:2",
        "product:sphere:2,sphere:2", "conformal:bump:euclidean:3",
        "euclidean:3", "torus:2", "sphere:4"]


# ---------------------------------------------------------------------------
# references: the nested-dual assemblies


def ref_curvature(base, x):
    """R4 from the jacobian of gamma_frame at a dual point."""
    n = base.dim
    vals, jac = jacobian(lambda y: gamma_frame(base, y).ravel(), list(x))
    gam = np.array(vals).reshape(n, n, n)
    F = base.frame(list(x))
    egam = np.einsum("bcdi,ia->abcd", np.array(jac).reshape(n, n, n, -1), F)
    return (
        egam
        - egam.transpose(1, 0, 2, 3)
        + np.einsum("bce,aed->abcd", gam, gam)
        - np.einsum("ace,bed->abcd", gam, gam)
        - np.einsum("abe,ecd->abcd", gam - gam.transpose(1, 0, 2), gam)
    )


def ref_nabla2(field, x):
    """(n, n, size) grid of nabla^2 K from the jacobian of nabla's components."""
    base = field.base
    n, p = base.dim, field.degree
    x = list(x)
    vals, jac = jacobian(lambda y: _nabla_jet(field, y)[1].ravel(), x)
    S = np.array(vals).reshape(n, -1)
    J = np.array(jac).reshape(n, S.shape[1], -1)
    F, gam = base.frame(x), gamma_frame(base, x)
    first = _assemble_first(p, S, J, F, gam)
    return first.transpose(1, 0, 2) - np.einsum("bad,dk->bak", gam, S)


def ref_lichnerowicz_defect(field, x):
    W = SecondDerivative.from_stacked(field.base.dim, field.degree, ref_nabla2(field, x))
    lhs = delta_d(W) - d_delta(W)
    rl = rough_laplacian(W)
    rm = RiemannAtPoint.from_R4(ref_curvature(field.base, x))
    rhs = rl - qR_act(field.base, x, field(x), rm=rm)
    return norm(lhs - rhs) / max(1.0, norm(rl))


def _floats(a):
    return np.vectorize(value_of, otypes=[float])(np.asarray(a, dtype=object))


def close(got, want, eps=8):
    g, w = _floats(got), _floats(want)
    assert g.shape == w.shape
    err = np.abs(g - w).max(initial=0.0)
    assert err <= eps * EPS * max(1.0, np.abs(w).max(initial=0.0)), err


def _field(base, degree, rng):
    if isinstance(base, EmbeddedSphere):
        return random_tangential_field(base, degree, rng)
    return random_polynomial_field(base, degree, rng)


# ---------------------------------------------------------------------------
# the jet scalar


def _nested_hessian(fn, x):
    """(K, m, m) Hessians from jacobian inside jacobian."""
    def grads(X):
        return [g for row in jacobian(fn, X)[1] for g in row]

    _, jac = jacobian(grads, list(x))
    return np.array(jac, dtype=object).reshape(-1, len(x), len(x))


try:
    import hypothesis
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - the property tests need hypothesis
    hypothesis = None

M = 3  # input dimension of the random expressions


def _eval(tree, X):
    """A random expression on generic scalars; sqrt/log/exp/division are
    fed arguments bounded away from their singularities."""
    op = tree[0]
    if op == "x":
        return X[tree[1]]
    if op == "c":
        return tree[1]
    a = _eval(tree[1], X)
    if op == "sqrt":
        return d_sqrt(1.0 + a * a)
    if op == "log":
        return d_log(1.0 + a * a)
    if op == "exp":
        return d_exp(a / (1.0 + a * a))
    if op == "**":
        return a ** tree[2]
    b = _eval(tree[2], X)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    return a / (1.5 + b * b)


if hypothesis is not None:
    _LEAF = st.one_of(
        st.integers(0, M - 1).map(lambda i: ("x", i)),
        st.floats(-1.5, 1.5, allow_nan=False).map(lambda c: ("c", c)),
    )

    def _extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*", "/"]), children, children),
            st.tuples(st.just("**"), children, st.integers(0, 3)),
            st.tuples(st.sampled_from(["sqrt", "log", "exp"]), children),
        )

    EXPRS = st.lists(st.recursive(_LEAF, _extend, max_leaves=6), min_size=1, max_size=3)
    POINTS = st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=M, max_size=M)
    PROPERTY = hypothesis.settings(max_examples=80, deadline=None)

    def _relclose(got, want, rel=1e-10):
        g, w = _floats(got), _floats(want)
        assert g.shape == w.shape
        for k in range(len(w)):  # per output: a cancelling one has a small scale
            assert np.abs(g[k] - w[k]).max() <= rel * max(1.0, np.abs(w[k]).max())

    @PROPERTY
    @hypothesis.given(EXPRS, POINTS)
    def test_hessian_matches_nested_jacobians(trees, x):
        def fn(X):
            return [_eval(t, X) for t in trees]

        vals, grads, hess = hessian(fn, x)
        assert vals.dtype == float and hess.shape == (len(trees), M, M)
        want_vals, want_grads = jacobian(fn, x)
        _relclose(vals, want_vals)
        _relclose(grads, np.array(want_grads, dtype=object))
        _relclose(hess, _nested_hessian(fn, x))

    @PROPERTY
    @hypothesis.given(EXPRS, POINTS)
    def test_jacobian_over_hessian_matches_triple_nesting(trees, x):
        # Duals of an enclosing jacobian ride in the jet's coefficients
        def fn(X):
            return [_eval(t, X) for t in trees]

        vals, jac = jacobian(lambda X: hessian(fn, X)[2].ravel(), x)
        wvals, wjac = jacobian(lambda X: _nested_hessian(fn, X).ravel(), x)
        _relclose(vals, wvals)
        _relclose(np.array(jac, dtype=object), np.array(wjac, dtype=object))


def test_hessian_rejects_nesting_and_keeps_constants():
    vals, grads, hess = hessian(lambda X: [X[0] * X[1], 2.5], [2.0, 3.0])
    assert vals.tolist() == [6.0, 2.5]
    assert grads.tolist() == [[3.0, 2.0], [0.0, 0.0]]
    assert hess.tolist() == [[[0.0, 1.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    with pytest.raises(ValueError):
        hessian(lambda X: hessian(lambda Y: [Y[0]], X)[0], [1.0])


def test_jet_is_a_scalar_to_the_generic_helpers():
    from symkt.manifolds import point_array
    from symkt.symtensor import _as_comps

    x = [Jet(0.5, np.eye(2)[i], np.zeros((2, 2))) for i in range(2)]
    assert value_of(d_exp(x[0]) * x[1]) == math.exp(0.5) * 0.5
    assert point_array([[x[0], 1.0]], x).dtype == object
    assert _as_comps([x[0], 2.0], 2).dtype == object


def test_each_jet_length_has_one_class_with_its_own_code():
    from symkt.dual import _rules

    seeds = []
    hessian(lambda X: seeds.extend(map(type, X)) or [X[0] * X[1]], [1.0, 2.0, 3.0])
    cls = _rules(9)
    assert seeds == [cls] * 3
    x = Jet(0.5, [1.0, 2.0, 3.0], np.eye(3))
    for y in (x, x * x, x + x, x - 1.0, 2.0 - x, x * np.float64(2.0), x / x, 1.0 / x,
              -x, d_exp(x), d_sqrt(x), d_log(x)):
        assert type(y) is cls
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is cls and (y.val, y.d) == (x.val, x.d)
    # profilers label generated code by file name, line and function
    files = {m: _rules(m * (m + 3) // 2).__mul__.__code__.co_filename for m in (1, 2, 3)}
    assert files == {m: f"<symkt.dual jets m={m}>" for m in (1, 2, 3)}


# ---------------------------------------------------------------------------
# connection, curvature and nabla2 against the nested-dual assemblies


@pytest.mark.parametrize("key", KEYS)
def test_connection_jet_matches_gamma_frame(key):
    base = manifold_from_key(key)
    x = list(base.sample_point(np.random.default_rng(5)))
    jet = connection_jet(base, x)
    F, gam = base.frame(x), gamma_frame(base, x)
    assert np.array_equal(jet.F, F)  # same values: frame arithmetic is shared
    close(jet.gamma, gam, eps=4)
    _, dgam = jacobian(lambda y: gamma_frame(base, y).ravel(), x)
    n = base.dim
    close(jet.dgamma, np.array(dgam).reshape(n, n, n, -1).transpose(3, 0, 1, 2))


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("key", KEYS)
def test_second_order_matches_nested_duals(key, degree):
    base = manifold_from_key(key)
    rng = np.random.default_rng(sum(map(ord, key)) + degree)
    field = _field(base, degree, rng)
    for _ in range(2):
        x = base.sample_point(rng)
        rm = riemann(base, x)
        want = ref_curvature(base, x)
        close(rm.R4, want)
        close(rm.ricci, np.einsum("aiib->ab", want))
        close(nabla2(field, x).comps, ref_nabla2(field, x))
        close(lichnerowicz_defect(field, x), ref_lichnerowicz_defect(field, x))


# the curvature benchmark's manifolds with stereographic:3 for
# stereographic:2, then a flat and a box chart; the product carries the
# metric field
DEFECT_KEYS = ["euclidean:3", "sphere:2", "sphere:3", "stereographic:3", "hyperbolic:3",
               "product:sphere:2,sphere:2", "conformal:bump:euclidean:3", "torus:2"]


@pytest.mark.parametrize("key,degree", [
    (key, degree) for key in DEFECT_KEYS
    for degree in ((2,) if key.startswith("product") else (1, 2, 3))])
def test_public_pieces_rebuild_the_one_jet_defect_bit_for_bit(key, degree):
    # nabla2, the three second-order operators, riemann and qR_act read the
    # same arrays as the one-jet lichnerowicz_defect and give its bits
    base = manifold_from_key(key)
    rng = np.random.default_rng(sum(map(ord, key)) + 10 * degree)
    field = metric_field(base) if key.startswith("product") else _field(base, degree, rng)
    x = base.sample_point(rng)
    W = nabla2(field, x)
    assert not W.comps.flags.writeable
    assert W.comps.tobytes() == _nabla2_jet(field, x)[1].tobytes()
    rl = rough_laplacian(W)
    qR = qR_act(base, x, field(x), rm=riemann(base, x))
    got = norm(delta_d(W) - d_delta(W) - (rl - qR)) / max(1.0, norm(rl))
    assert got == lichnerowicz_defect(field, x)


@pytest.mark.parametrize("key", ["sphere:2", "hyperbolic:2", "conformal:bump:sphere:2"])
def test_nabla_ricci_matches_nested_duals(key):
    # a jacobian outside the hessian: nabla of the Ricci field
    base = manifold_from_key(key)
    idx = multi_indices(base.dim, 2)

    def ref_comps(x):
        ric = np.einsum("aiib->ab", ref_curvature(base, x))
        return [ric[a, b] for a, b in idx]

    x = base.sample_point(np.random.default_rng(17))
    got = nabla(ricci_field(base), x)
    want = nabla(TensorField(base, 2, ref_comps), x)
    close(got.comps, want.comps)


def test_ricci_field_refuses_second_order_operators():
    # its components run a hessian, which cannot itself sit inside one
    base = manifold_from_key("sphere:3")
    ric = ricci_field(base)
    x = base.sample_point(np.random.default_rng(23))
    assert len(nabla(ric, x).slots) == base.dim
    # rough_laplacian, delta_d and d_delta read nabla2's W, so they are
    # reached only through it
    for op in (nabla2, lichnerowicz_defect):
        with pytest.raises(ValueError, match="hessian does not nest"):
            op(ric, x)


# ---------------------------------------------------------------------------
# fail closed through the jet


def _nan_field(field):
    def comps(x):
        out = list(field.comps_fn(x))
        out[1] = out[1] + math.nan
        return out

    return TensorField(field.base, field.degree, comps, name="nan-component")


def _nan_chart():
    return Chart(3, kappa=math.nan, key="nan-metric")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_field_gives_nan_defect_and_curvature_residual():
    for base in (euclidean_chart(3), EmbeddedSphere(2)):
        rng = np.random.default_rng(19)
        bad = _nan_field(_field(base, 2, rng))
        x = base.sample_point(rng)
        assert math.isnan(lichnerowicz_defect(bad, x))
        assert math.isnan(qrh_check(base, x, bad(x)))
    rm = riemann(_nan_chart(), [0.1, 0.2, 0.3])
    assert math.isnan(rm.symmetry_residual()) and math.isnan(rm.bianchi_residual())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_geometry_cases_fail_closed_on_nan_jets(monkeypatch):
    original = suites.random_polynomial_field
    monkeypatch.setattr(suites, "random_polynomial_field",
                        lambda *a, **k: _nan_field(original(*a, **k)))
    report = suites.SuiteReport("geometry", 42, 1e-9)
    suites._lichnerowicz_cases(report, 42, 3)
    cases = {c.name: c for c in report.cases}
    flat = cases["lichnerowicz:euclidean:3"]
    assert np.isnan(flat.max_residual) and not flat.passed
    assert not report.passed

    monkeypatch.setattr(suites, "manifold_from_key", lambda key: _nan_chart())
    report = suites.SuiteReport("geometry", 42, 1e-9)
    suites._per_manifold_cases("nan-metric", 3, 42, report)
    cases = {c.name: c for c in report.cases}
    for name in ("riemann-symmetries:nan-metric", "riemann-bianchi:nan-metric"):
        assert np.isnan(cases[name].max_residual) and not cases[name].passed
