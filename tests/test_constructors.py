"""Constructor factories and their defining identities."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from symkt.cartan import frame_norm
from symkt.curvature import RiemannAtPoint
from symkt import constructors
from symkt.constructors import (
    FormField,
    _anticommuting_pair,
    _rotation_generator,
    build_constructor,
    condition_d1_residual,
    constructor_catalog,
    coordinate_split,
    curvature_project,
    curvature_to_killing,
    distribution_stackel,
    hopf_generator,
    hopf_split,
    killing_form_residual,
    killing_form_sphere,
    killing_form_to_tensor,
    killing_vector,
    nijenhuis,
    special_ckt_flat,
    special_killing_coefficients,
    special_to_killing,
    sphere_curvature_generator,
    sym_product_field,
    tilted_split,
    verify_killing,
    weyl_part,
)
from symkt.errors import ConfigError, VerificationError
from symkt.dual import hessian, jacobian, value_of
from symkt.fields import TensorField, d_op, delta_op, metric_field, nabla, scalar_field
from symkt.manifolds import EmbeddedSphere, euclidean_chart
from symkt.multiindex import multi_indices
from symkt.symtensor import SymTensor, norm, sym_product, trace_Lambda

rng0 = np.random.default_rng(2025)


def killing_residual(field, samples=5, seed=0):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        x = field.base.sample_point(rng)
        T = nabla(field, x)
        worst = max(worst, norm(d_op(T)) / max(1.0, frame_norm(T)))
    return worst


# ---------------------------------------------------------------------------
# algebraic curvature tensors


def _curvature_residual(R):
    # pair symmetries and first Bianchi identity (its sum has three terms)
    rm = RiemannAtPoint.from_R4(R)
    return max(rm.symmetry_residual(), rm.bianchi_residual() / 3.0)


def test_curvature_project_fixed_point_and_idempotence():
    gen = sphere_curvature_generator(4)
    again = curvature_project(gen)
    assert np.abs(again - gen).max() <= 1e-13
    T = rng0.standard_normal((4,) * 4)
    R = curvature_project(T)
    assert _curvature_residual(R) <= 1e-13
    R2 = curvature_project(R)
    assert np.abs(R2 - R).max() <= 1e-13


def test_curvature_project_is_orthogonal_projection():
    # <T - P(T), P(S)> = 0 for random S, T
    T = rng0.standard_normal((4,) * 4)
    S = rng0.standard_normal((4,) * 4)
    PT = curvature_project(T)
    PS = curvature_project(S)
    assert abs(np.tensordot(T - PT, PS, axes=4)) <= 1e-10


def test_weyl_part_traceless():
    R = curvature_project(rng0.standard_normal((4,) * 4))
    W = weyl_part(R)
    assert np.abs(RiemannAtPoint.from_R4(W).ricci).max() <= 1e-12
    assert _curvature_residual(W) <= 1e-12


def test_curvature_to_killing_rejects_a_wrong_shape():
    sp = EmbeddedSphere(3)
    with pytest.raises(ConfigError):
        curvature_to_killing(sphere_curvature_generator(3), sp)
    with pytest.raises(ConfigError):
        curvature_to_killing(np.zeros((4, 4, 4)), sp)


def test_constant_curvature_gives_metric_field():
    sp = EmbeddedSphere(3)
    K = curvature_to_killing(sphere_curvature_generator(4), sp)
    rng = np.random.default_rng(5)
    for _ in range(3):
        x = sp.sample_point(rng)
        assert norm(K(x) - SymTensor.metric(3)) <= 1e-13


def test_curvature_killing_tensors():
    sp = EmbeddedSphere(3)
    R = curvature_project(rng0.standard_normal((4,) * 4))
    K = curvature_to_killing(R, sp)
    assert killing_residual(K) <= 1e-10
    W = curvature_to_killing(weyl_part(R), sp)
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = sp.sample_point(rng)
        assert abs(trace_Lambda(W(x)).comps[0]) <= 1e-10


# ---------------------------------------------------------------------------
# Killing vectors and products


def test_killing_vector_rejects_non_skew():
    with pytest.raises(VerificationError):
        killing_vector(EmbeddedSphere(2), np.eye(3))


def test_translation_is_parallel():
    eu = euclidean_chart(3)
    xi = killing_vector(eu, np.zeros((3, 3)), translation=[1.0, 2.0, -1.0])
    x = eu.sample_point(rng0)
    assert frame_norm(nabla(xi, x)) <= 1e-14


def test_rotation_killing_residual():
    sp = EmbeddedSphere(2)
    xi = killing_vector(sp, _rotation_generator(3, 0, 1))
    assert killing_residual(xi) <= 1e-11


def test_hopf_field_unit_length():
    sp = EmbeddedSphere(3)
    xi = killing_vector(sp, hopf_generator())
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = sp.sample_point(rng)
        assert np.isclose(np.dot(xi(x).values(), xi(x).values()), 1.0, atol=1e-13)


def test_sym_product_field_killing_and_delta_identity():
    sp = EmbeddedSphere(2)
    xi = killing_vector(sp, _rotation_generator(3, 0, 1), name="xi")
    zeta = killing_vector(sp, _rotation_generator(3, 1, 2), name="zeta")
    h = sym_product_field(xi, zeta, rng=np.random.default_rng(13))
    assert killing_residual(h) <= 1e-10

    def dot_fn(x):
        a = xi.comps_fn(x)
        b = zeta.comps_fn(x)
        return sum(u * v for u, v in zip(a, b))

    fdot = scalar_field(sp, dot_fn)
    rng = np.random.default_rng(17)
    for _ in range(5):
        x = sp.sample_point(rng)
        lhs = delta_op(nabla(h, x))
        rhs = d_op(nabla(fdot, x))
        assert norm(lhs - rhs) <= 1e-9


def test_sym_product_rejects_non_killing():
    sp = EmbeddedSphere(2)
    xi = killing_vector(sp, _rotation_generator(3, 0, 1))

    def amb(x):
        return [x[1] * x[1], x[2], -x[0]]

    from symkt.fields import field_from_components

    eta = field_from_components(sp, 1, amb)
    with pytest.raises(VerificationError):
        sym_product_field(xi, eta, rng=np.random.default_rng(19))


def test_anticommuting_pair_orthogonal():
    Ji, Jj = _anticommuting_pair()
    assert np.abs(Ji @ Jj + Jj @ Ji).max() == 0.0
    sp = EmbeddedSphere(3)
    xi = killing_vector(sp, Ji)
    zeta = killing_vector(sp, Jj)
    rng = np.random.default_rng(23)
    for _ in range(5):
        x = sp.sample_point(rng)
        assert abs(np.dot(xi(x).values(), zeta(x).values())) <= 1e-13


def test_hopf_pair_tensor_is_stackel():
    field, _ = build_constructor("sym-product-hopf")
    rng = np.random.default_rng(29)
    for _ in range(5):
        x = field.base.sample_point(rng)
        assert abs(trace_Lambda(field(x)).comps[0]) <= 1e-13
    assert killing_residual(field) <= 1e-10
    dres = max(
        norm(delta_op(nabla(field, field.base.sample_point(rng)))) for _ in range(5)
    )
    assert dres <= 1e-9


# ---------------------------------------------------------------------------
# Killing forms


def test_killing_form_q1_reduces_to_vector_product():
    sp = EmbeddedSphere(3)
    omega = np.zeros((4, 4))
    omega[0, 1], omega[1, 0] = 1.0, -1.0
    u = killing_form_sphere(omega, sp)
    rng = np.random.default_rng(31)
    x = sp.sample_point(rng)
    assert killing_form_residual(u, x) <= 1e-12
    K = killing_form_to_tensor(u, rng=rng)
    # dual Killing vector: xi_B = sum_A x_A omega_{AB}
    xi = killing_vector(sp, -omega)  # A x with A = -omega = omega^T
    want = sym_product(xi(x), xi(x)).scale(0.5)
    assert norm(K(x) - want) <= 1e-12


def test_killing_form_q2():
    sp = EmbeddedSphere(4)
    rng = np.random.default_rng(37)
    from symkt.constructors import _killing_form_omega

    omega = _killing_form_omega(5, 2, rng)
    u = killing_form_sphere(omega, sp)
    for _ in range(5):
        x = sp.sample_point(rng)
        assert killing_form_residual(u, x) <= 1e-10
    K = killing_form_to_tensor(u, rng=rng)
    assert killing_residual(K) <= 1e-9


def test_zero_form_gives_zero_tensor():
    sp = EmbeddedSphere(3)
    u = killing_form_sphere(np.zeros((4, 4)), sp)
    rng = np.random.default_rng(41)
    K = killing_form_to_tensor(u, rng, check=False)
    x = sp.sample_point(rng)
    assert norm(K(x)) == 0.0


def test_broken_form_detected():
    field, entry = build_constructor("broken-killing-form")
    assert killing_residual(field) >= 1e-3


# ---------------------------------------------------------------------------
# special conformal Killing tensors


def test_special_flat_hat_is_killing():
    K = special_ckt_flat(np.array([0.4, -0.3, 0.5]), euclidean_chart(3))
    hat = special_to_killing(K, rng=np.random.default_rng(43))
    assert killing_residual(hat) <= 1e-11
    # p = 2: hat(K) = K - tr(K) g, checked pointwise
    x = K.base.sample_point(np.random.default_rng(47))
    S = K(x)
    want = S - SymTensor.metric(3).scale(trace_Lambda(S).comps[0])
    assert norm(hat(x) - want) <= 1e-13


def test_special_killing_coefficients():
    # a_1 = -(n+p-3)/(p-1)
    for n, p in ((3, 2), (4, 2), (5, 4)):
        coeffs = special_killing_coefficients(n, p)
        assert np.isclose(coeffs[1], -(n + p - 3) / (p - 1))
    assert np.isclose(special_killing_coefficients(3, 2)[1], -2.0)


def test_special_to_killing_rejects_non_special():
    field, _ = build_constructor("hopf-stackel")
    with pytest.raises(VerificationError):
        special_to_killing(field, rng=np.random.default_rng(53))


def test_nijenhuis_special_vanishes_hat_does_not():
    K = special_ckt_flat(np.array([0.4, -0.3, 0.5]), euclidean_chart(3))
    hat = special_to_killing(K, rng=np.random.default_rng(59))
    mfield = metric_field(K.base)
    rng = np.random.default_rng(61)
    for _ in range(5):
        x = K.base.sample_point(rng)
        assert np.abs(nijenhuis(mfield, x)).max() <= 1e-14
        assert np.abs(nijenhuis(K, x)).max() <= 1e-11
        assert np.abs(nijenhuis(hat, x)).max() >= 1e-3


# ---------------------------------------------------------------------------
# distribution splits


def test_hopf_split_satisfies_d1_and_gives_stackel():
    sp = EmbeddedSphere(3)
    split = hopf_split(sp)
    rng = np.random.default_rng(67)
    for _ in range(3):
        x = sp.sample_point(rng)
        assert condition_d1_residual(split, x) <= 1e-9
    K = distribution_stackel(split)
    assert killing_residual(K) <= 1e-9
    x = sp.sample_point(rng)
    assert abs(trace_Lambda(K(x)).comps[0]) <= 1e-12


def test_coordinate_split_parallel():
    eu = euclidean_chart(3)
    K = distribution_stackel(coordinate_split(eu, 1))
    x = eu.sample_point(np.random.default_rng(71))
    assert frame_norm(nabla(K, x)) <= 1e-13


def test_tilted_split_negative_control():
    sp = EmbeddedSphere(3)
    split = tilted_split(sp)
    rng = np.random.default_rng(73)
    vals = [condition_d1_residual(split, sp.sample_point(rng)) for _ in range(3)]
    assert max(vals) >= 1e-3
    K = distribution_stackel(split)
    assert killing_residual(K) >= 1e-3


# ---------------------------------------------------------------------------
# products


def test_product_ckt_verdict_ingredients():
    field, entry = build_constructor("product-ckt")
    rng = np.random.default_rng(79)
    x = field.base.sample_point(rng)
    assert abs(trace_Lambda(field(x)).comps[0]) <= 1e-12
    from symkt.symtensor import tracefree_part

    worst = 0.0
    for _ in range(5):
        x = field.base.sample_point(rng)
        T = nabla(field, x)
        dK = d_op(T)
        worst = max(worst, norm(tracefree_part(dK)) / max(1.0, frame_norm(T)))
    assert worst <= 1e-9


def test_product_ckt_without_pairs():
    # a single lifted Killing tensor, trace-free-projected, is conformal
    from symkt.constructors import product_ckt
    from symkt.manifolds import manifold_from_key
    from symkt.symtensor import tracefree_part

    pr = manifold_from_key("product:sphere:2,sphere:2")
    R = curvature_project(np.random.default_rng(83).standard_normal((3,) * 4))
    K1 = curvature_to_killing(R, pr.first)
    h = product_ckt(pr, K1=K1, rng=np.random.default_rng(89))
    rng = np.random.default_rng(97)
    worst = 0.0
    for _ in range(4):
        x = pr.sample_point(rng)
        T = nabla(h, x)
        dK = d_op(T)
        worst = max(worst, norm(tracefree_part(dK)) / max(1.0, frame_norm(T)))
        assert abs(trace_Lambda(h(x)).comps[0]) <= 1e-12
    assert worst <= 1e-9


def _ref_lift_field(product, which, factor_field, name=None):
    """The former ``_lift_field``, which walked every multi-index at each
    evaluation, kept verbatim as the reference for the table."""
    n = product.dim
    n1 = product.first.dim
    m1 = product.first.coord_dim
    p = factor_field.degree

    def comps(x):
        xs = list(x[:m1]) if which == 0 else list(x[m1:])
        sub = factor_field.comps_fn(xs)
        nf = product.first.dim if which == 0 else product.second.dim
        sub_idx = {I: k for k, I in enumerate(multi_indices(nf, p))}
        off = 0 if which == 0 else n1
        out = []
        for I in multi_indices(n, p):
            if all(off <= i < off + nf for i in I):
                out.append(sub[sub_idx[tuple(i - off for i in I)]])
            else:
                out.append(0.0)
        return out

    return TensorField(product, p, comps,
                       name=name or f"lift{which + 1}({factor_field.name})")


def _bits(values):
    """Shape and float64 bytes of each value (a constant 0.0 beside (B,)
    arrays in a plain batch)."""
    return [(np.shape(v), np.asarray(v, dtype=float).tobytes()) for v in values]


def _same_components(comps, ref, base):
    """Bit-for-bit equal components at a float point, a Dual point, a jet
    point and a (B, m) batch, plain and seeded."""
    X = np.array([base.sample_point(np.random.default_rng([101, b])) for b in range(3)])
    x = list(X[0])
    assert _bits(comps(x)) == _bits(ref(x))
    assert _bits(comps(list(X.T.copy()))) == _bits(ref(list(X.T.copy())))
    for got, want in [(jacobian(comps, x), jacobian(ref, x)),
                      (jacobian(comps, X), jacobian(ref, X)),
                      (hessian(comps, x), hessian(ref, x))]:
        assert all(_bits(g) == _bits(w) for g, w in zip(got, want))


@pytest.mark.parametrize("key", ["product-ckt", "broken-product-ckt"])
def test_lift_table_matches_the_former_loop(monkeypatch, key):
    lifts = []

    def record(product, which, factor_field):
        lifted = lift(product, which, factor_field)
        lifts.append((lifted, _ref_lift_field(product, which, factor_field)))
        return lifted

    lift = constructors._lift_field
    monkeypatch.setattr(constructors, "_lift_field", record)
    field, _ = build_constructor(key)
    monkeypatch.setattr(constructors, "_lift_field", _ref_lift_field)
    ref, _ = build_constructor(key)
    assert len(lifts) == (3 if key == "product-ckt" else 2)
    for lifted, want in lifts:
        assert lifted.name == want.name
        _same_components(lifted.comps_fn, want.comps_fn, field.base)
    _same_components(field.comps_fn, ref.comps_fn, field.base)


def test_registry_coverage():
    catalog = constructor_catalog()
    for key in ("sphere-curvature", "sym-product", "killing-form:q=2",
                "hopf-stackel", "product-ckt", "special-flat"):
        assert key in catalog
    with pytest.raises(ConfigError):
        build_constructor("does-not-exist")


@pytest.mark.parametrize("key", ["special-flat", "special-flat-hat", "broken-special-hat"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_special_flat_rejects_a_non_finite_k0(key, bad):
    # from Python, not only through --params: no check runs on inf or NaN
    with pytest.raises(ConfigError, match="finite"):
        build_constructor(key, params={"k0": [0.4, bad, 0.5]})


# the entries declared Killing: each must conserve its first integral
# along geodesics
DECLARED_KILLING = [
    "metric", "sphere-curvature", "sphere-curvature-weyl", "sym-product",
    "sym-product-hopf", "sasakian-stackel", "killing-form:q=1",
    "killing-form:q=2", "special-flat-hat", "hopf-stackel",
]


def test_catalog_derives_controls_and_killing_entries():
    catalog = constructor_catalog()
    controls = [e for e in catalog.values() if e.negative_check]
    assert len(controls) == 6
    for e in controls:
        assert e.key.startswith("broken-")
        assert type(e.expected) is dict and e.expected == {e.negative_check: False}
        assert type(e.min_residual) is float and e.min_residual == 1e-3
    for e in catalog.values():
        if not e.negative_check:
            assert type(e.min_residual) is float and e.min_residual == 0.0
    assert [k for k, e in catalog.items() if e.declared_killing] == DECLARED_KILLING


def test_judge_fails_a_contradicted_verdict_and_an_uncaught_control():
    catalog = constructor_catalog()
    report = SimpleNamespace(
        verdicts={"killing": True, "conformal": True, "tracefree": False},
        max_residuals={"killing": 1e-12, "conformal": 2e-12, "tracefree": 0.5},
    )
    entry = catalog["sphere-curvature"]
    record, residuals, passed = entry.judge(report)
    assert record == {"expected": {"conformal": True, "killing": True, "tracefree": False},
                      "matches_expected": True}
    assert residuals == [1e-12, 2e-12] and passed is True
    report.verdicts["tracefree"] = True
    record, residuals, passed = entry.judge(report)
    assert record["matches_expected"] is False and passed is False

    control = catalog["broken-hopf-stackel"]
    for observed, caught in ((5e-4, False), (1e-3, True), (math.nan, False)):
        report = SimpleNamespace(verdicts={"killing": False},
                                 max_residuals={"killing": observed})
        record, residuals, passed = control.judge(report)
        assert record["matches_expected"] is True and residuals == []
        assert record["negative_control"]["pass"] is caught and passed is caught
        assert {k: v for k, v in record["negative_control"].items() if k != "observed"} == {
            "check": "killing", "min_residual": 1e-3, "pass": caught}
    # caught by the floor, yet contradicted by its verdict
    report = SimpleNamespace(verdicts={"killing": True}, max_residuals={"killing": 1.0})
    record, _, passed = control.judge(report)
    assert record["negative_control"]["pass"] is True
    assert record["matches_expected"] is False and passed is False


def test_verify_killing_gate():
    sp = EmbeddedSphere(2)

    def amb(x):
        return [x[1] * x[2], -x[0], x[0] * x[0]]

    from symkt.fields import field_from_components

    eta = field_from_components(sp, 1, amb)
    with pytest.raises(VerificationError):
        verify_killing(eta, np.random.default_rng(83))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_killing_gates_fail_closed_on_nan():
    # component 1 is NaN for x[0] > 0; a bare max(worst, r) drops the NaN
    # residuals, so the zero-derivative field used to pass as Killing and
    # as special conformal Killing
    eu = euclidean_chart(3)

    def comps(x):
        out = [0.0 * x[0]] * 6
        out[1] = out[1] + np.where(value_of(x[0]) > 0, math.nan, 0.0)
        return out

    field = TensorField(eu, 2, comps, name="half-nan")
    with pytest.raises(VerificationError):
        verify_killing(field, np.random.default_rng(4))
    with pytest.raises(VerificationError):
        special_to_killing(field, rng=np.random.default_rng(4))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_killing_form_gates_fail_closed_on_nan():
    sp = EmbeddedSphere(3)
    omega = np.zeros((4, 4))
    omega[0, 1], omega[1, 0] = 1.0, -1.0
    good = killing_form_sphere(omega, sp)

    def amb(x):
        out = good.amb_fn(x)
        out[2] = out[2] + (math.nan if value_of(x[0]) > 0 else 0.0)
        return out

    bad = FormField(sp, 1, amb, name="half-nan-form")
    x = np.array([0.6, 0.0, 0.8, 0.0])
    assert math.isnan(killing_form_residual(bad, x))
    with pytest.raises(VerificationError):
        killing_form_to_tensor(bad, rng=np.random.default_rng(4))
