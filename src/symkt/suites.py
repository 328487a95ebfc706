"""Batch identity suites with reproducible, serializable reports.

Each case owns its RNG stream (global seed combined with a stable label
hash), so the set of sampled points is independent of case ordering and
two runs with the same seed produce byte-identical JSON reports.  Cases
come in two kinds: ``residual`` (pass iff max residual <= tol) and
``floor`` (negative controls and order checks: pass iff value >= tol).
Every case value is accumulated with ``obs.worst`` (residuals) or
``obs.least`` (floors), which return NaN when any sample is not finite,
so a NaN or inf sample fails its case either way.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .cartan import (
    _rows,
    cartan_decompose,
    conformal_weight,
    frame_inner,
    frame_norm,
    pi1,
    pi1_star,
    pi2,
    pi2_star,
    pi2_constant,
    random_frame_tensor,
    slot_hooks,
    slot_products,
    slot_sum,
    supported_pair,
)
from .classify import classify, divfree_killing_parts
from .constructors import (
    _rotation_generator,
    build_constructor,
    condition_d1_residual,
    constructor_catalog,
    hopf_split,
    killing_vector,
    nijenhuis,
    special_ckt_flat,
    special_to_killing,
    stable_stream,
    sym_product_field,
    tilted_split,
)
from .curvature import lichnerowicz_defect, qR_act, qrh_check, ricci_killing_residual, riemann
from .dual import d_dot
from .errors import ConfigError
from .fields import (
    TensorField,
    d_delta,
    d_op,
    delta_d,
    delta_op,
    metric_field,
    nabla,
    nabla2,
    product_field,
    random_polynomial_field,
    random_tangential_field,
    scalar_field,
    wrap_conformal_field,
)
from .geodesic import drift_series, geodesic_drift, initial_condition
from .manifolds import (
    EmbeddedSphere,
    conformal_rescale,
    euclidean_chart,
    frame_at,
    manifold_from_key,
    poincare_ball_chart,
)
from .obs import least, worst
from .symtensor import (
    SymTensor,
    contract,
    inner,
    mult_L,
    norm,
    random_sym_tensor,
    random_tracefree_tensor,
    standard_decomposition,
    sym_product,
    trace_Lambda,
    tracefree_part,
    tracefree_sym_product,
)

__all__ = ["SuiteCase", "SuiteReport", "identity_suite", "geometry_suite"]

ALGEBRAIC_TOL = 1e-12
SUITE_TOL = 1e-10
SPHERE_TOL = 1e-9
FLAT_TOL = 1e-11
SECOND_ORDER_TOL = 1e-6
NONPOSITIVE_TRIALS = 100


@dataclass
class SuiteCase:
    name: str
    max_residual: float
    tol: float
    kind: str = "residual"  # or "floor"

    @property
    def passed(self):
        if self.kind == "floor":
            return self.max_residual >= self.tol
        return self.max_residual <= self.tol

    def to_dict(self):
        return {
            "name": self.name,
            "max_residual": self.max_residual,
            "tol": self.tol,
            "kind": self.kind,
            "pass": self.passed,
        }


@dataclass
class SuiteReport:
    suite: str
    seed: int
    tolerance: float
    cases: list = dc_field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.cases)

    @property
    def max_residual(self):
        return worst([c.max_residual for c in self.cases if c.kind == "residual"], 0.0)

    def add(self, name, value, tol, kind="residual"):
        self.cases.append(SuiteCase(name, float(value), float(tol), kind))

    def to_dict(self):
        return {
            "suite": self.suite,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "cases": [c.to_dict() for c in self.cases],
            "pass": self.passed,
        }


def _parse_range(spec):
    if isinstance(spec, (tuple, list)):
        lo, hi = int(spec[0]), int(spec[-1])
    else:
        try:
            lo, hi = (int(v) for v in str(spec).split(".."))
        except ValueError as exc:
            raise ConfigError(f"bad range {spec!r}, expected LO..HI") from exc
    if hi < lo:
        raise ConfigError(f"empty range {spec!r}")
    return range(lo, hi + 1)


# ---------------------------------------------------------------------------
# algebraic identity suite


def _algebra_cases(n, p, trials, seed, report):
    rng = stable_stream(seed, f"alg:{n}:{p}")
    r = {k: [] for k in ("comm", "comm2", "adj", "euler", "decomp", "proj")}
    for _ in range(trials):
        K = random_sym_tensor(n, p, rng)
        sK = max(1.0, norm(K))
        v = SymTensor(n, 1, rng.standard_normal(n))

        # [Lambda, L] = 2n id + 4 deg
        t1 = trace_Lambda(mult_L(K))
        t2 = mult_L(trace_Lambda(K)) if p >= 2 else SymTensor.zero(n, p)
        r["comm"].append(norm(t1 - t2 - K.scale(2.0 * n + 4.0 * p)) / sK)

        # [Lambda, v.] = 2 v-| ; [v-|, L] = 2 v. ; [Lambda, v-|] = 0 = [L, v.]
        if p >= 1:
            c1 = trace_Lambda(sym_product(v, K)) - (
                sym_product(v, trace_Lambda(K)) if p >= 2 else SymTensor.zero(n, p - 1)
            )
            r["comm2"].append(norm(c1 - contract(v, K).scale(2.0)) / sK)
            c2 = contract(v, mult_L(K)) - mult_L(contract(v, K))
            r["comm2"].append(norm(c2 - sym_product(v, K).scale(2.0)) / sK)
            if p >= 3:
                c3 = trace_Lambda(contract(v, K)) - contract(v, trace_Lambda(K))
                r["comm2"].append(norm(c3) / sK)
        c4 = mult_L(sym_product(v, K)) - sym_product(v, mult_L(K))
        r["comm2"].append(norm(c4) / sK)

        # adjointness and Euler identity
        B = random_sym_tensor(n, p + 1, rng)
        lhs = inner(sym_product(v, K), B)
        rhs = inner(K, contract(v, B))
        r["adj"].append(abs(lhs - rhs) / max(1.0, abs(lhs)))
        lhs2 = inner(mult_L(K), B2 := random_sym_tensor(n, p + 2, rng))
        rhs2 = inner(K, trace_Lambda(B2))
        r["adj"].append(abs(lhs2 - rhs2) / max(1.0, abs(lhs2)))
        if p >= 1:
            # sum_i e_i . (e_i -| K), one slot kernel row per basis vector
            hooks = slot_hooks(_rows(K.comps, n), p)
            acc = SymTensor(n, p, slot_sum(slot_products(hooks, p - 1)))
            r["euler"].append(norm(acc - K.scale(float(p))) / sK)

        # standard decomposition round-trip, trace-free parts
        d = standard_decomposition(K)
        r["decomp"].append(norm(d.reconstruct() - K) / sK)
        for part in d.parts:
            if part.degree >= 2:
                r["decomp"].append(norm(trace_Lambda(part)) / sK)

        # projection formula against the standard-decomposition oracle
        S = random_tracefree_tensor(n, p, rng)
        out = tracefree_sym_product(v, S)
        if out.degree >= 2:
            r["proj"].append(norm(trace_Lambda(out)) / max(1.0, norm(S)))
        r["proj"].append(
            norm(out - tracefree_part(sym_product(v, S))) / max(1.0, norm(S))
        )

    report.add(f"commutator-L-Lambda:n={n},p={p}", worst(r["comm"], 0.0), ALGEBRAIC_TOL)
    report.add(f"commutators-vector:n={n},p={p}", worst(r["comm2"], 0.0), ALGEBRAIC_TOL)
    report.add(f"adjointness:n={n},p={p}", worst(r["adj"], 0.0), ALGEBRAIC_TOL)
    if p >= 1:
        report.add(f"euler-identity:n={n},p={p}", worst(r["euler"], 0.0), ALGEBRAIC_TOL)
    report.add(f"standard-decomposition:n={n},p={p}", worst(r["decomp"], 0.0), SUITE_TOL)
    report.add(f"projection-formula:n={n},p={p}", worst(r["proj"], 0.0), SUITE_TOL)


def _cartan_cases(n, p, trials, seed, report):
    rng = stable_stream(seed, f"cartan:{n}:{p}")
    r = {k: [] for k in ("c1", "c2", "part", "orth", "dproj", "weight")}
    for _ in range(trials):
        S1 = random_tracefree_tensor(n, p + 1, rng)
        got = pi1(pi1_star(S1))
        r["c1"].append(norm(got - S1.scale(p + 1.0)) / max(1.0, norm(S1)))
        S2 = random_tracefree_tensor(n, p - 1, rng)
        got2 = pi2(pi2_star(S2))
        r["c2"].append(norm(got2 - S2.scale(pi2_constant(n, p))) / max(1.0, norm(S2)))

        T = random_frame_tensor(n, p, rng)
        sT = max(1.0, frame_norm(T))
        P1, P2, P3, s1, s2 = cartan_decompose(T)
        r["part"].append(frame_norm(P1 + P2 + P3 - T) / sT)
        r["orth"] += [
            abs(frame_inner(P1, P2)) / sT**2,
            abs(frame_inner(P1, P3)) / sT**2,
            abs(frame_inner(P2, P3)) / sT**2,
            frame_norm(cartan_decompose(P1).P1 - P1) / sT,
            frame_norm(cartan_decompose(P2).P2 - P2) / sT,
            frame_norm(cartan_decompose(P3).P3 - P3) / sT,
        ]

        # trace-free part of the symmetrized derivative via the L-shift
        dK = SymTensor(n, p + 1, slot_sum(slot_products(T.comps, p)))
        deltaK = SymTensor(n, p - 1, -slot_sum(slot_hooks(T.comps, p)))
        shifted = dK + mult_L(deltaK).scale(1.0 / (n + 2 * p - 2))
        r["dproj"].append(norm(shifted - tracefree_part(dK)) / sT)

        B = conformal_weight(T)
        want = P1.scale(float(p)) - P2.scale(float(n + p - 2)) - P3
        r["weight"].append(frame_norm(B - want) / sT)
        alt = pi1_star(s1) - pi2_star(s2).scale((n + 2 * p - 4) / (n + 2 * p - 2)) - T
        r["weight"].append(frame_norm(B - alt) / sT)

    report.add(f"pi1-constant:n={n},p={p}", worst(r["c1"], 0.0), SUITE_TOL)
    report.add(f"pi2-constant:n={n},p={p}", worst(r["c2"], 0.0), SUITE_TOL)
    report.add(f"cartan-partition:n={n},p={p}", worst(r["part"], 0.0), SUITE_TOL)
    report.add(f"cartan-orthogonality:n={n},p={p}", worst(r["orth"], 0.0), SUITE_TOL)
    report.add(f"dprojection-consistency:n={n},p={p}", worst(r["dproj"], 0.0), SUITE_TOL)
    report.add(f"conformal-weight:n={n},p={p}", worst(r["weight"], 0.0), SUITE_TOL)


def identity_suite(dims="2..5", degrees="0..4", trials=50, seed=42):
    """Algebraic identity suite over ranges of (dim, degree)."""
    dims = _parse_range(dims)
    degrees = _parse_range(degrees)
    if dims.start < 2:
        raise ConfigError("identity suite needs dims >= 2")
    if degrees.start < 0:
        raise ConfigError("degrees must be non-negative")
    report = SuiteReport("identities", seed, SUITE_TOL)
    for n in dims:
        for p in degrees:
            _algebra_cases(n, p, trials, seed, report)
            if supported_pair(n, p):
                _cartan_cases(n, p, trials, seed, report)
    return report


# ---------------------------------------------------------------------------
# geometric suite


def _per_manifold_cases(key, samples, seed, report):
    base = manifold_from_key(key)
    rng = stable_stream(seed, f"geom:{key}")
    r = {k: [] for k in ("gram", "dmetric", "sym", "bianchi", "selfadj")}
    is_chart = getattr(base, "is_chart", False)
    geom_tol = 1e-8 if is_chart else 1e-12
    pts = [base.sample_point(rng) for _ in range(max(3, samples // 10))]
    for x in pts:
        F = frame_at(base, x)
        G = base.metric_matrix(list(x))
        r["gram"].append(float(np.abs(F.T @ G @ F - np.eye(base.dim)).max()))
        if is_chart:
            _, dG = base.metric_jet(x)
            h = 1e-5
            for k_dir in range(base.dim):
                xp = np.array(x, dtype=float)
                xm = xp.copy()
                xp[k_dir] += h
                xm[k_dir] -= h
                fd = (base.metric(xp) - base.metric(xm)) / (2 * h)
                r["dmetric"].append(float(np.abs(fd - dG[k_dir]).max()))
        rm = riemann(base, x)
        r["sym"].append(rm.symmetry_residual() / max(1.0, np.abs(rm.R4).max()))
        r["bianchi"].append(rm.bianchi_residual() / max(1.0, np.abs(rm.R4).max()))
        for p_deg in (1, 2):
            A = random_tracefree_tensor(base.dim, p_deg, rng)
            B = random_tracefree_tensor(base.dim, p_deg, rng)
            lhs = inner(qR_act(base, x, A, rm=rm), B)
            rhs = inner(A, qR_act(base, x, B, rm=rm))
            r["selfadj"].append(abs(lhs - rhs) / max(1.0, norm(A) * norm(B)))
    report.add(f"frame-gram:{key}", worst(r["gram"], 0.0), 1e-13)
    if is_chart:
        report.add(f"metric-derivative-selftest:{key}", worst(r["dmetric"], 0.0), 1e-6)
    report.add(f"riemann-symmetries:{key}", worst(r["sym"], 0.0), geom_tol)
    report.add(f"riemann-bianchi:{key}", worst(r["bianchi"], 0.0), geom_tol)
    report.add(f"qR-self-adjoint:{key}", worst(r["selfadj"], 0.0), 1e-10)
    return base, rng


def _sphere_eigenvalue_case(report, seed):
    res = []
    for n in (2, 3, 4):
        base = EmbeddedSphere(n)
        rng = stable_stream(seed, f"qr-eig:{n}")
        x = base.sample_point(rng)
        rm = riemann(base, x)
        for p in (1, 2, 3):
            for _ in range(5):
                K = random_tracefree_tensor(n, p, rng)
                got = qR_act(base, x, K, rm=rm)
                res.append(norm(got - K.scale(float(p * (n + p - 2)))) / max(1.0, norm(K)))
    report.add("sphere-qR-eigenvalue", worst(res, 0.0), 1e-8)


def _nonpositive_case(report, seed):
    res = [0.0]
    for n in (2, 3, 4):
        base = poincare_ball_chart(n)
        rng = stable_stream(seed, f"nonpos:{n}")
        pts = [base.sample_point(rng) for _ in range(5)]
        rms = [riemann(base, x) for x in pts]
        for t in range(NONPOSITIVE_TRIALS):
            x, rm = pts[t % len(pts)], rms[t % len(pts)]
            p = (1, 2, 3)[t % 3]
            K = random_tracefree_tensor(n, p, rng)
            res.append(float(inner(qR_act(base, x, K, rm=rm), K)))
    report.add("nonpositive-curvature-qR", worst(res), 1e-10)


def _lichnerowicz_cases(report, seed, samples):
    eu = euclidean_chart(3)
    rng = stable_stream(seed, "lichnerowicz:flat")
    fld = random_polynomial_field(eu, 2, rng)
    res = [lichnerowicz_defect(fld, eu.sample_point(rng)) for _ in range(samples)]
    report.add("lichnerowicz:euclidean:3", worst(res, 0.0), 1e-9)

    sp = EmbeddedSphere(2)
    rng = stable_stream(seed, "lichnerowicz:sphere")
    fld = random_tangential_field(sp, 2, rng)
    res = [lichnerowicz_defect(fld, sp.sample_point(rng)) for _ in range(samples)]
    report.add("lichnerowicz:sphere:2", worst(res, 0.0), SECOND_ORDER_TOL)

    mfield = metric_field(sp)
    x = sp.sample_point(rng)
    W = nabla2(mfield, x)
    both = worst([norm(delta_d(mfield, x, W=W)), norm(d_delta(mfield, x, W=W))])
    report.add("lichnerowicz:metric-field", both, 1e-12)


def _qrh_cases(report, seed):
    res = []
    for key in ("euclidean:3", "sphere:3"):
        base = manifold_from_key(key)
        rng = stable_stream(seed, f"qrh:{key}")
        for _ in range(10):
            x = base.sample_point(rng)
            h = random_sym_tensor(base.dim, 2, rng)
            res.append(qrh_check(base, x, h))
    report.add("qR-two-tensor-identity", worst(res, 0.0), 1e-8)


def _constructor_cases(report, seed, samples, drift_steps, drift_dt):
    catalog = constructor_catalog()
    for key, entry in catalog.items():
        field, _ = build_constructor(key, seed=seed)
        tol = FLAT_TOL if field.base.key.startswith("euclidean") else SPHERE_TOL
        rep = classify(field, samples=samples, tol=tol, seed=seed)
        if entry.negative_check:
            val = rep.max_residuals[entry.negative_check]
            report.add(f"negative-control:{key}", val, entry.min_residual, kind="floor")
            continue
        res = []
        ok = True
        for verdict, expected in entry.expected.items():
            if rep.verdicts[verdict] != expected:
                ok = False
            if expected and verdict in rep.max_residuals:
                res.append(rep.max_residuals[verdict])
        report.add(f"classify:{key}", worst(res, 0.0) if ok else 1.0, tol)

        # conformal invariance of the conformal-Killing verdict
        wrapped_base = conformal_rescale(field.base)
        wfield = wrap_conformal_field(wrapped_base, field)
        wrep = classify(wfield, samples=max(10, samples // 4), tol=tol, seed=seed)
        agree = wrep.verdicts["conformal"] == rep.verdicts["conformal"]
        report.add(
            f"conformal-invariance:{key}", 0.0 if agree else 1.0, 0.5
        )

        if entry.geodesic_killing:
            rng = stable_stream(seed, f"drift:{key}")
            x0, v0 = initial_condition(field.base, rng)
            d = geodesic_drift(field, x0, v0, drift_steps, drift_dt,
                               check_domain=False)
            report.add(f"geodesic-drift:{key}", d, 1e-7)


def _identity_cases(report, seed, samples):
    # delta(xi . zeta) = d g(xi, zeta) for Killing pairs
    res = []
    for key, gen_pairs in (
        ("sphere:2", ((0, 1), (1, 2))),
        ("sphere:3", ((0, 1), (2, 3))),
    ):
        base = manifold_from_key(key)
        rng = stable_stream(seed, f"killing-pair:{key}")
        N = base.coord_dim
        xi = killing_vector(base, _rotation_generator(N, *gen_pairs[0]))
        zeta = killing_vector(base, _rotation_generator(N, *gen_pairs[1]))
        h = sym_product_field(xi, zeta, rng=rng)

        def dot_fn(x, xi=xi, zeta=zeta):
            return d_dot(xi.comps_fn(x), zeta.comps_fn(x))

        fdot = scalar_field(base, dot_fn, name="g(xi,zeta)")
        for _ in range(max(5, samples // 10)):
            x = base.sample_point(rng)
            T = nabla(h, x)
            lhs = delta_op(h, x, T=T)
            rhs = d_op(fdot, x)
            res.append(norm(lhs - rhs) / max(1.0, frame_norm(T)))
    report.add("killing-pair-divergence-identity", worst(res, 0.0), SPHERE_TOL)

    # d as a derivation on random polynomial fields over a flat chart
    eu = euclidean_chart(3)
    rng = stable_stream(seed, "derivation-rule")
    res = []
    for _ in range(5):
        A = random_polynomial_field(eu, 2, rng)
        B = random_polynomial_field(eu, 1, rng)
        AB = product_field(A, B)
        for _ in range(4):
            x = eu.sample_point(rng)
            lhs = d_op(AB, x)
            rhs = sym_product(d_op(A, x), B(x)) + sym_product(A(x), d_op(B, x))
            res.append(norm(lhs - rhs) / max(1.0, norm(lhs)))
    report.add("derivation-product-rule", worst(res, 0.0), 1e-10)

    # L preserves divergence-free Killing tensors
    hopf, _ = build_constructor("hopf-stackel", seed=seed)
    base = hopf.base
    n = base.dim

    def L_comps(x):
        K = SymTensor(n, 2, hopf.comps_fn(x))
        return list(mult_L(K).comps)

    Lfield = TensorField(base, 4, L_comps, name="L(hopf-stackel)")
    rng = stable_stream(seed, "L-preserves")
    res = []
    for _ in range(max(5, samples // 10)):
        x = base.sample_point(rng)
        T = nabla(Lfield, x)
        s = max(1.0, frame_norm(T))
        res.append(norm(d_op(Lfield, x, T=T)) / s)
        res.append(norm(delta_op(Lfield, x, T=T)) / s)
    report.add("L-preserves-divfree-killing", worst(res, 0.0), SPHERE_TOL)
    parts = divfree_killing_parts(Lfield, samples=max(5, samples // 10),
                                  tol=SPHERE_TOL, seed=seed)
    res = [v for d in parts.values() for v in (d["d"], d["delta"])]
    report.add("divfree-killing-parts", worst(res), SPHERE_TOL)

    # Nijenhuis: zero for the special CKT, nonzero for its Killing hat
    eu = euclidean_chart(3)
    special = special_ckt_flat(np.array([0.4, -0.3, 0.5]), chart=eu)
    hat = special_to_killing(special, rng=stable_stream(seed, "nij"))
    rng = stable_stream(seed, "nijenhuis")
    points = [list(eu.sample_point(rng)) for _ in range(max(5, samples // 10))]
    res_special, res_hat = (np.abs(nijenhuis(f, points)).max(axis=(1, 2, 3)).tolist()
                            for f in (special, hat))
    report.add("nijenhuis-special-ckt", worst(res_special, 0.0), FLAT_TOL)
    report.add("nijenhuis-special-killing-nonzero", least(res_hat), 1e-3, kind="floor")

    # condition (d1) for the circle-fibration split, violated by the tilt
    rng = stable_stream(seed, "d1")
    sp3 = EmbeddedSphere(3)
    points = [list(sp3.sample_point(rng)) for _ in range(5)]
    res = condition_d1_residual(hopf_split(sp3), points).tolist()
    res_tilted = condition_d1_residual(tilted_split(sp3), points).tolist()
    report.add("condition-d1-hopf", worst(res), SPHERE_TOL)
    report.add("condition-d1-tilted-nonzero", least(res_tilted), 1e-3, kind="floor")

    # d tr K = 2 delta K for the trace-carrying Killing 2-tensors
    res = []
    for key in ("sphere-curvature", "special-flat-hat"):
        field, _ = build_constructor(key, seed=seed)
        rep = classify(field, samples=max(5, samples // 10),
                       tol=SPHERE_TOL, seed=seed)
        res.append(rep.max_residuals["two_tensor"])
    report.add("two-tensor-trace-identity", worst(res), SPHERE_TOL)
    _modified_ricci_cases(report, seed)


def _modified_ricci_cases(report, seed):
    # modified-Ricci Killing residual: spheres and flat space satisfy it
    rng = stable_stream(seed, "ricci")
    res = []
    for key in ("sphere:2", "euclidean:3"):
        base = manifold_from_key(key)
        for _ in range(3):
            x = base.sample_point(rng)
            X = rng.standard_normal(base.dim)
            res.append(ricci_killing_residual(base, x, X))
    report.add("modified-ricci-killing", worst(res), 1e-8)

    def bump(x):
        return 0.25 * (x[0] * x[0] * x[1] + 0.5 * x[1] * x[2] * x[2] + x[0])

    # the metric exp(2 bump) delta
    pert = conformal_rescale(euclidean_chart(3, radius=0.8), bump, key="bumped-flat")
    rng = stable_stream(seed, "ricci-neg")
    res = []
    # fixed direction mix to avoid unlucky zero directions
    for _ in range(5):
        x = pert.sample_point(rng)
        X = rng.standard_normal(3)
        res.append(ricci_killing_residual(pert, x, X))
    report.add("modified-ricci-negative-control", least(res), 1e-6, kind="floor")


def _geodesic_order_case(report, seed):
    field, _ = build_constructor("hopf-stackel", seed=seed)
    rng = stable_stream(seed, "order")
    x0, v0 = initial_condition(field.base, rng)
    series = drift_series(field, x0, v0, 200, 0.05, halvings=1)
    ratio = series[0] / max(series[1], 1e-300)
    report.add("geodesic-order-ratio", ratio, 16.0, kind="floor")

    broken, _ = build_constructor("broken-hopf-stackel", seed=seed)
    d = geodesic_drift(broken, x0, v0, 2000, 1e-3, check_domain=False)
    report.add("geodesic-drift-negative-control", d, 1e-3, kind="floor")


DEFAULT_GEOMETRY_KEYS = (
    "euclidean:3",
    "sphere:2",
    "sphere:3",
    "stereographic:2",
    "hyperbolic:2",
    "hyperbolic:3",
    "torus:2",
    "product:sphere:2,sphere:2",
    "conformal:bump:euclidean:3",
)


def geometry_suite(keys=DEFAULT_GEOMETRY_KEYS, samples=60, tol=SPHERE_TOL,
                   seed=42, drift_steps=10000, drift_dt=1e-3):
    """Geometric and constructor suite over catalog manifolds.

    Runs per-manifold frame/curvature checks for each key, then the fixed
    constructor battery (classification against declared verdicts,
    conformal invariance, negative controls, geodesic drift) and the
    statement-level identity checks.
    """
    report = SuiteReport("geometry", seed, tol)
    for key in keys:
        _per_manifold_cases(key, samples, seed, report)
    _sphere_eigenvalue_case(report, seed)
    _nonpositive_case(report, seed)
    _lichnerowicz_cases(report, seed, max(10, samples // 2))
    _qrh_cases(report, seed)
    _constructor_cases(report, seed, samples, drift_steps, drift_dt)
    _identity_cases(report, seed, samples)
    _geodesic_order_case(report, seed)
    return report
