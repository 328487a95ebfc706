"""Acceptance criteria, one test per criterion, at their stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import numpy as np
import pytest

from symkt import obs
from symkt.cartan import (
    cartan_decompose,
    conformal_weight,
    frame_norm,
    random_frame_tensor,
    supported_pair,
)
from symkt.classify import classify
from symkt.constructors import build_constructor, stable_stream
from symkt.curvature import lichnerowicz_defect, qR_act, riemann
from symkt.fields import (
    delta_op,
    d_op,
    nabla,
    random_polynomial_field,
    random_tangential_field,
    scalar_field,
    wrap_conformal_field,
)
from symkt.geodesic import drift_series, geodesic_drift, initial_condition
from symkt.io import dumps_report
from symkt.manifolds import (
    EmbeddedSphere,
    conformal_rescale,
    euclidean_chart,
    poincare_ball_chart,
)
from symkt.suites import identity_suite
from symkt.symtensor import (
    SymTensor,
    inner,
    mult_L,
    norm,
    random_tracefree_tensor,
)

SEED = 42


def _report(num, ok, detail):
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_algebraic_suite():
    rep = identity_suite(dims="2..5", degrees="0..4", trials=50, seed=SEED)
    _report(1, rep.passed and rep.max_residual <= 1e-10,
            f"algebraic suite max residual {rep.max_residual:.2e} <= 1e-10, "
            f"{len(rep.cases)} cases, 50 trials each")


def test_criterion_2_weitzenboeck_endomorphism():
    residuals = []
    pairs = 0
    for n in range(2, 6):
        for p in range(1, 5):
            if not supported_pair(n, p):
                continue
            pairs += 1
            rng = stable_stream(SEED, f"acc2:{n}:{p}")
            for _ in range(100):
                T = random_frame_tensor(n, p, rng)
                B = conformal_weight(T)
                P1, P2, P3, _, _ = cartan_decompose(T)
                want = P1.scale(float(p)) - P2.scale(float(n + p - 2)) - P3
                residuals.append(frame_norm(B - want) / max(1.0, frame_norm(T)))
    worst = obs.worst(residuals)
    _report(2, worst <= 1e-10,
            f"weight-operator identity residual {worst:.2e} <= 1e-10 on "
            f"100 random frame tensors x {pairs} (n,p) pairs")


def test_criterion_3_lichnerowicz_identity():
    eu = euclidean_chart(3)
    rng = stable_stream(SEED, "acc3:flat")
    fld = random_polynomial_field(eu, 2, rng)
    worst_flat = obs.worst([lichnerowicz_defect(fld, eu.sample_point(rng))
                             for _ in range(50)])
    sp = EmbeddedSphere(2)
    rng = stable_stream(SEED, "acc3:sphere")
    fld = random_tangential_field(sp, 2, rng)
    worst_sph = obs.worst([lichnerowicz_defect(fld, sp.sample_point(rng))
                            for _ in range(50)])
    ok = worst_flat <= 1e-6 and worst_sph <= 1e-6
    _report(3, ok,
            f"(delta d - d delta) - (rough Laplacian - q(R)) residual: "
            f"flat {worst_flat:.2e}, sphere {worst_sph:.2e}, both <= 1e-6 at 50 points")


def _dense_qR_sphere(K_dense, n, p):
    # brute-force oracle, fixed before the build: constant-curvature
    # components and the slot-wise derivation action
    I = np.eye(n)
    R = np.einsum("il,jk->ijkl", I, I) - np.einsum("ik,jl->ijkl", I, I)

    def act(A, T):
        out = np.zeros_like(T)
        for m in range(p):
            out += np.moveaxis(np.tensordot(A, T, axes=([1], [m])), 0, m)
        return out

    out = np.zeros_like(K_dense)
    for i in range(n):
        for j in range(i + 1, n):
            wedge = np.outer(I[j], I[i]) - np.outer(I[i], I[j])
            out += act(wedge, act(R[i, j].T, K_dense))
    return out


def test_criterion_4_sphere_qR_eigenvalue():
    residuals = []
    for n in (2, 3, 4):
        sp = EmbeddedSphere(n)
        rng = stable_stream(SEED, f"acc4:{n}")
        x = sp.sample_point(rng)
        rm = riemann(sp, x)
        for p in (1, 2, 3):
            for _ in range(10):
                K = random_tracefree_tensor(n, p, rng)
                got = qR_act(sp, x, K, rm=rm)
                lam = float(p * (n + p - 2))
                residuals.append(norm(got - K.scale(lam)) / max(1.0, norm(K)))
                oracle = _dense_qR_sphere(K.to_dense(), n, p)
                residuals.append(
                    np.abs(got.to_dense() - oracle).max() / max(1.0, norm(K)))
    worst = obs.worst(residuals)
    _report(4, worst <= 1e-8,
            f"q(R) = p(n+p-2) id on trace-free tensors over round spheres, "
            f"residual {worst:.2e} <= 1e-8 (vs brute-force oracle)")


POSITIVE_KEYS = [
    "metric", "sphere-curvature", "sphere-curvature-weyl", "sym-product",
    "sym-product-hopf", "sasakian-stackel", "killing-form:q=1",
    "killing-form:q=2", "special-flat", "special-flat-hat", "hopf-stackel",
    "product-ckt",
]
NEGATIVE_KEYS = [
    "broken-sphere-curvature", "broken-sym-product", "broken-killing-form",
    "broken-special-hat", "broken-hopf-stackel", "broken-product-ckt",
]


def _tolerance_for(base_key):
    return 1e-11 if base_key.startswith("euclidean") else 1e-9


@pytest.fixture(scope="module")
def classified_controls():
    out = {}
    for key in POSITIVE_KEYS + NEGATIVE_KEYS:
        field, entry = build_constructor(key, seed=SEED)
        tol = _tolerance_for(field.base.key)
        rep = classify(field, samples=100, tol=tol, seed=SEED)
        out[key] = (field, entry, rep, tol)
    return out


def test_criterion_5_constructor_classification(classified_controls):
    failures = []
    for key in POSITIVE_KEYS:
        field, entry, rep, tol = classified_controls[key]
        for verdict, expected in entry.expected.items():
            if rep.verdicts[verdict] != expected:
                failures.append(f"{key}:{verdict}")
    for key in NEGATIVE_KEYS:
        field, entry, rep, tol = classified_controls[key]
        observed = rep.max_residuals[entry.negative_check]
        if not observed >= 1e3 * tol:
            failures.append(f"{key} residual {observed:.1e} < 1e3*tol")
    _report(5, not failures,
            f"{len(POSITIVE_KEYS)} positive controls match declared verdicts "
            f"(tol 1e-9 sphere / 1e-11 flat) and {len(NEGATIVE_KEYS)} negative "
            f"controls exceed tolerance by >= 3 orders; failures: {failures}")


def test_criterion_6_identity_checks(classified_controls):
    from symkt.constructors import (
        _rotation_generator,
        killing_vector,
        nijenhuis,
        special_ckt_flat,
        special_to_killing,
        sym_product_field,
    )
    from symkt.fields import TensorField

    problems = []

    # delta(xi . zeta) = d g(xi, zeta) on a catalog Killing pair
    sp = EmbeddedSphere(3)
    rng = stable_stream(SEED, "acc6:pair")
    xi = killing_vector(sp, _rotation_generator(4, 0, 1))
    zeta = killing_vector(sp, _rotation_generator(4, 2, 3))
    h = sym_product_field(xi, zeta, rng=rng)

    def dot_fn(x):
        a, b = xi.comps_fn(x), zeta.comps_fn(x)
        return sum(u * v for u, v in zip(a, b))

    fdot = scalar_field(sp, dot_fn)
    residuals = []
    for _ in range(20):
        x = sp.sample_point(rng)
        residuals.append(norm(delta_op(nabla(h, x)) - d_op(nabla(fdot, x))))
    worst = obs.worst(residuals)
    if not worst <= 1e-9:
        problems.append(f"killing-pair divergence {worst:.1e}")

    # d tr K = 2 delta K for trace-carrying Killing 2-tensors
    for key in ("sphere-curvature", "special-flat-hat"):
        _, _, rep, tol = classified_controls[key]
        if not rep.max_residuals["two_tensor"] <= tol:
            problems.append(f"two-tensor {key} {rep.max_residuals['two_tensor']:.1e}")

    # trace-free Killing tensors are divergence free
    for key in ("sphere-curvature-weyl", "sym-product-hopf", "hopf-stackel",
                "sasakian-stackel"):
        _, _, rep, tol = classified_controls[key]
        if not rep.max_residuals["divfree"] <= 1e-9:
            problems.append(f"stackel divergence {key}")

    # L preserves divergence-free Killing tensors
    hopf, _, _, _ = classified_controls["hopf-stackel"]

    def L_comps(x):
        K = SymTensor(3, 2, hopf.comps_fn(x))
        return list(mult_L(K).comps)

    Lf = TensorField(hopf.base, 4, L_comps, name="L(hopf)")
    rng = stable_stream(SEED, "acc6:L")
    residuals = []
    for _ in range(10):
        x = hopf.base.sample_point(rng)
        T = nabla(Lf, x)
        s = max(1.0, frame_norm(T))
        residuals += [norm(d_op(T)) / s, norm(delta_op(T)) / s]
    worst = obs.worst(residuals)
    if not worst <= 1e-9:
        problems.append(f"L-preservation {worst:.1e}")

    # Nijenhuis: zero for the special CKT, nonzero for its hat
    K = special_ckt_flat(np.array([0.4, -0.3, 0.5]), euclidean_chart(3))
    hat = special_to_killing(K, rng=stable_stream(SEED, "acc6:nij"))
    rng = stable_stream(SEED, "acc6:nij2")
    specials, hats = [], []
    for _ in range(10):
        x = K.base.sample_point(rng)
        specials.append(float(np.abs(nijenhuis(K, x)).max()))
        hats.append(float(np.abs(nijenhuis(hat, x)).max()))
    nij_special, nij_hat = obs.worst(specials), obs.least(hats)
    if not nij_special <= 1e-11:
        problems.append(f"nijenhuis special {nij_special:.1e}")
    if not nij_hat >= 1e-3:
        problems.append(f"nijenhuis hat too small {nij_hat:.1e}")

    _report(6, not problems,
            "product-divergence, trace, preservation and integrability "
            f"identities all hold; problems: {problems}")


def test_criterion_7_conformal_invariance(classified_controls):
    mismatches = []
    for key in POSITIVE_KEYS:
        field, entry, rep, tol = classified_controls[key]
        wrapped = conformal_rescale(field.base)
        wfield = wrap_conformal_field(wrapped, field)
        wrep = classify(wfield, samples=30, tol=tol, seed=SEED)
        base_rep = classify(field, samples=30, tol=tol, seed=SEED)
        if wrep.verdicts["conformal"] != base_rep.verdicts["conformal"]:
            mismatches.append(key)
    _report(7, not mismatches,
            f"conformal-Killing verdicts identical for g and exp(2f) g on all "
            f"{len(POSITIVE_KEYS)} positive controls; mismatches: {mismatches}")


def test_criterion_8_nonpositive_curvature():
    values = []
    for n in (2, 3, 4):
        hy = poincare_ball_chart(n)
        rng = stable_stream(SEED, f"acc8:{n}")
        pts = [hy.sample_point(rng) for _ in range(5)]
        rms = [riemann(hy, x) for x in pts]
        for t in range(100):
            x, rm = pts[t % 5], rms[t % 5]
            p = (1, 2, 3)[t % 3]
            K = random_tracefree_tensor(n, p, rng)
            values.append(float(inner(qR_act(hy, x, K, rm=rm), K)))
    worst, count = obs.worst(values), len(values)
    _report(8, worst <= 1e-10,
            f"g(q(R)K, K) <= 1e-10 on the curvature -1 ball for {count} "
            f"random trace-free tensors (max {worst:.2e})")


def test_criterion_9_geodesic_first_integrals():
    problems = []
    for key in POSITIVE_KEYS:
        field, entry = build_constructor(key, seed=SEED)
        if not entry.declared_killing:
            continue
        x0, v0 = initial_condition(field.base, stable_stream(SEED, f"acc9:{key}"))
        drift = geodesic_drift(field, x0, v0, 10000, 1e-3, check_domain=False)
        if not drift <= 1e-7:
            problems.append(f"{key} drift {drift:.1e}")

    hopf, _ = build_constructor("hopf-stackel", seed=SEED)
    rng = stable_stream(SEED, "acc9:order")
    x0 = hopf.base.sample_point(rng)
    v0 = hopf.base.tangent_projection(x0, rng.standard_normal(4))
    v0 /= np.linalg.norm(v0)
    series = drift_series(hopf, x0, v0, 200, 0.05, halvings=1)
    ratio = series[0] / series[1]
    if not ratio >= 16.0:
        problems.append(f"order ratio {ratio:.1f} < 16")

    broken, _ = build_constructor("broken-hopf-stackel", seed=SEED)
    bad = geodesic_drift(broken, x0, v0, 2000, 1e-3, check_domain=False)
    if not bad >= 1e-3:
        problems.append(f"negative control drift {bad:.1e}")

    _report(9, not problems,
            f"drift <= 1e-7 over 1e4 RK4 steps for all Killing controls, "
            f"order ratio {ratio:.1f} >= 16, negative control {bad:.1e} >= 1e-3; "
            f"problems: {problems}")


def test_criterion_10_determinism(tmp_path):
    from symkt.cli import main

    a = identity_suite(dims="2..3", degrees="0..3", trials=10, seed=SEED)
    b = identity_suite(dims="2..3", degrees="0..3", trials=10, seed=SEED)
    same_suite = dumps_report(a.to_dict()) == dumps_report(b.to_dict())

    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--manifold", "sphere:3", "--construct", "hopf-stackel",
            "--samples", "10", "--tol", "1e-9", "--seed", "42"]
    main(args + ["--json", str(f1)])
    main(args + ["--json", str(f2)])
    same_cli = f1.read_bytes() == f2.read_bytes()
    _report(10, same_suite and same_cli,
            "identical seeds produce byte-identical JSON reports "
            f"(suite: {same_suite}, cli: {same_cli})")
