"""Batch identity suites with reproducible, serializable reports.

Each case owns its RNG stream (global seed combined with a stable label
hash), so the set of sampled points is independent of case ordering and
two runs with the same seed produce byte-identical JSON reports.  Cases
come in two kinds: ``residual`` (pass iff max residual <= tol) and
``floor`` (negative controls and order checks: pass iff value >= tol).
Every case is recorded by ``SuiteReport.samples``, the one place that
reduces samples and builds a ``SuiteCase``: ``obs.worst`` for a residual,
``obs.least`` for a floor; a single-value case passes ``[value]``.  A
case with no samples, or with a NaN or inf sample, reads NaN and fails
either way.
"""

import math
import re
from dataclasses import dataclass, field as dc_field

import numpy as np

from .cartan import (
    FrameTensor,
    _pi2_star,
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
    d_delta,
    d_op,
    delta_d,
    delta_op,
    derived_field,
    metric_field,
    nabla,
    nabla2,
    product_field,
    random_polynomial_field,
    random_tangential_field,
    wrap_conformal_field,
)
from .geodesic import DRIFT_TOL, drift_series, geodesic_drift, initial_condition
from .manifolds import (
    MAX_KEY_DIM,
    EmbeddedSphere,
    conformal_rescale,
    euclidean_chart,
    frame_at,
    manifold_from_key,
    poincare_ball_chart,
)
from .multiindex import MAX_DEGREE
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

    def samples(self, name, values, tol, kind="residual"):
        """Add a case from its samples (a list or a 1-D array): the worst
        for a residual, the least for a floor, NaN when there is none."""
        reduce = {"residual": worst, "floor": least}[kind]
        value = reduce(values) if len(values) else math.nan
        self.cases.append(SuiteCase(name, float(value), float(tol), kind))

    def to_dict(self):
        return {
            "suite": self.suite,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "cases": [c.to_dict() for c in self.cases],
            "pass": self.passed,
        }


_RANGE = re.compile(r"([0-9]+)\.\.([0-9]+)")


def _parse_range(spec):
    """A ``(lo, hi)`` tuple or list, or a string of ASCII digits ``LO..HI``
    (no sign, space, underscore or other digit), as an inclusive range."""
    if isinstance(spec, (tuple, list)):
        lo, hi = int(spec[0]), int(spec[-1])
    else:
        match = _RANGE.fullmatch(str(spec))
        if match is None:
            raise ConfigError(f"bad range {spec!r}, expected LO..HI")
        lo, hi = int(match[1]), int(match[2])
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
        # L K, v . K, Lambda K and v -| K: each computed once, read by the
        # commutators and the adjointness checks below
        LK = mult_L(K)
        vK = sym_product(v, K)
        trK = trace_Lambda(K) if p >= 2 else None
        vhK = contract(v, K) if p >= 1 else None

        # [Lambda, L] = 2n id + 4 deg
        t2 = mult_L(trK) if p >= 2 else SymTensor.zero(n, p)
        r["comm"].append(norm(trace_Lambda(LK) - t2 - K.scale(2.0 * n + 4.0 * p)) / sK)

        # [Lambda, v.] = 2 v-| ; [v-|, L] = 2 v. ; [Lambda, v-|] = 0 = [L, v.]
        if p >= 1:
            c1 = trace_Lambda(vK) - (
                sym_product(v, trK) if p >= 2 else SymTensor.zero(n, p - 1)
            )
            r["comm2"].append(norm(c1 - vhK.scale(2.0)) / sK)
            c2 = contract(v, LK) - mult_L(vhK)
            r["comm2"].append(norm(c2 - vK.scale(2.0)) / sK)
            if p >= 3:
                c3 = trace_Lambda(vhK) - contract(v, trK)
                r["comm2"].append(norm(c3) / sK)
        c4 = mult_L(vK) - sym_product(v, LK)
        r["comm2"].append(norm(c4) / sK)

        # adjointness and Euler identity
        B = random_sym_tensor(n, p + 1, rng)
        lhs = inner(vK, B)
        rhs = inner(K, contract(v, B))
        r["adj"].append(abs(lhs - rhs) / max(1.0, abs(lhs)))
        lhs2 = inner(LK, B2 := random_sym_tensor(n, p + 2, rng))
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
        sS = max(1.0, norm(S))  # the scale of both projection residuals
        out = tracefree_sym_product(v, S)
        if out.degree >= 2:
            r["proj"].append(norm(trace_Lambda(out)) / sS)
        r["proj"].append(norm(out - tracefree_part(sym_product(v, S))) / sS)

    report.samples(f"commutator-L-Lambda:n={n},p={p}", r["comm"], ALGEBRAIC_TOL)
    report.samples(f"commutators-vector:n={n},p={p}", r["comm2"], ALGEBRAIC_TOL)
    report.samples(f"adjointness:n={n},p={p}", r["adj"], ALGEBRAIC_TOL)
    if p >= 1:
        report.samples(f"euler-identity:n={n},p={p}", r["euler"], ALGEBRAIC_TOL)
    report.samples(f"standard-decomposition:n={n},p={p}", r["decomp"], SUITE_TOL)
    report.samples(f"projection-formula:n={n},p={p}", r["proj"], SUITE_TOL)


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
        ]
        # P1, P2 and P3 re-split by one decomposition of their stack: row i
        # keeps part i, each row bit for bit its own 1-D decomposition
        again = cartan_decompose(FrameTensor.from_stacked(
            n, p, np.stack([P1.comps, P2.comps, P3.comps])))
        for i, P in enumerate((P1, P2, P3)):
            row = FrameTensor.from_stacked(n, p, again[i].comps[i])
            r["orth"].append(frame_norm(row - P) / sT)

        # trace-free part of the symmetrized derivative via the L-shift;
        # the divergence of T is -pi2(T)
        dK = SymTensor(n, p + 1, slot_sum(slot_products(T.comps, p)))
        deltaK = -s2
        shifted = dK + mult_L(deltaK).scale(1.0 / (n + 2 * p - 2))
        r["dproj"].append(norm(shifted - tracefree_part(dK)) / sT)

        B = conformal_weight(T)
        want = P1.scale(float(p)) - P2.scale(float(n + p - 2)) - P3
        r["weight"].append(frame_norm(B - want) / sT)
        # pi2*(s2) unguarded: cartan_decompose has checked s2 at the same tol
        alt = pi1_star(s1) - _pi2_star(s2).scale((n + 2 * p - 4) / (n + 2 * p - 2)) - T
        r["weight"].append(frame_norm(B - alt) / sT)

    report.samples(f"pi1-constant:n={n},p={p}", r["c1"], SUITE_TOL)
    report.samples(f"pi2-constant:n={n},p={p}", r["c2"], SUITE_TOL)
    report.samples(f"cartan-partition:n={n},p={p}", r["part"], SUITE_TOL)
    report.samples(f"cartan-orthogonality:n={n},p={p}", r["orth"], SUITE_TOL)
    report.samples(f"dprojection-consistency:n={n},p={p}", r["dproj"], SUITE_TOL)
    report.samples(f"conformal-weight:n={n},p={p}", r["weight"], SUITE_TOL)


def identity_suite(dims="2..5", degrees="0..4", trials=50, seed=42):
    """Algebraic identity suite over ranges of (dim, degree)."""
    dims = _parse_range(dims)
    degrees = _parse_range(degrees)
    if dims.start < 2:
        raise ConfigError("identity suite needs dims >= 2")
    if degrees.start < 0:
        raise ConfigError("degrees must be non-negative")
    # checked before any table is built: they grow like C(n + p - 1, p)
    if dims[-1] > MAX_KEY_DIM:
        raise ConfigError(f"identity suite dims above the cap {MAX_KEY_DIM}")
    if degrees[-1] > MAX_DEGREE:
        raise ConfigError(f"identity suite degrees above the cap {MAX_DEGREE}")
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
            # d_k G = 2 c phi_k I, against central differences of G = c I
            dG = (2.0 * base.factor(x)) * base.log_gradient(x)[:, None, None] * np.eye(base.dim)
            h = 1e-5
            for k_dir in range(base.dim):
                xp = np.array(x, dtype=float)
                xm = xp.copy()
                xp[k_dir] += h
                xm[k_dir] -= h
                fd = (base.metric_matrix(list(xp)) - base.metric_matrix(list(xm))) / (2 * h)
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
    report.samples(f"frame-gram:{key}", r["gram"], 1e-13)
    if is_chart:
        report.samples(f"metric-derivative-selftest:{key}", r["dmetric"], 1e-6)
    report.samples(f"riemann-symmetries:{key}", r["sym"], geom_tol)
    report.samples(f"riemann-bianchi:{key}", r["bianchi"], geom_tol)
    report.samples(f"qR-self-adjoint:{key}", r["selfadj"], 1e-10)


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
    report.samples("sphere-qR-eigenvalue", res, 1e-8)


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
    report.samples("nonpositive-curvature-qR", res, 1e-10)


def _lichnerowicz_cases(report, seed, samples):
    eu = euclidean_chart(3)
    rng = stable_stream(seed, "lichnerowicz:flat")
    fld = random_polynomial_field(eu, 2, rng)
    res = [lichnerowicz_defect(fld, eu.sample_point(rng)) for _ in range(samples)]
    report.samples("lichnerowicz:euclidean:3", res, 1e-9)

    sp = EmbeddedSphere(2)
    rng = stable_stream(seed, "lichnerowicz:sphere")
    fld = random_tangential_field(sp, 2, rng)
    res = [lichnerowicz_defect(fld, sp.sample_point(rng)) for _ in range(samples)]
    report.samples("lichnerowicz:sphere:2", res, SECOND_ORDER_TOL)

    mfield = metric_field(sp)
    x = sp.sample_point(rng)
    W = nabla2(mfield, x)
    report.samples("lichnerowicz:metric-field", [norm(delta_d(W)), norm(d_delta(W))], 1e-12)


def _qrh_cases(report, seed):
    res = []
    for key in ("euclidean:3", "sphere:3"):
        base = manifold_from_key(key)
        rng = stable_stream(seed, f"qrh:{key}")
        for _ in range(10):
            x = base.sample_point(rng)
            h = random_sym_tensor(base.dim, 2, rng)
            res.append(qrh_check(base, x, h))
    report.samples("qR-two-tensor-identity", res, 1e-8)


def _constructor_cases(report, seed, samples, drift_steps, drift_dt):
    catalog = constructor_catalog()
    for key, entry in catalog.items():
        field, _ = build_constructor(key, seed=seed)
        tol = FLAT_TOL if field.base.key.startswith("euclidean") else SPHERE_TOL
        rep = classify(field, samples=samples, tol=tol, seed=seed)
        record, residuals, _ = entry.judge(rep)
        control = record.get("negative_control")
        if control:
            report.samples(f"negative-control:{key}", [control["observed"]],
                           control["min_residual"], kind="floor")
            continue
        report.samples(f"classify:{key}", residuals if record["matches_expected"] else [1.0],
                       tol)

        # conformal invariance of the conformal-Killing verdict
        wrapped_base = conformal_rescale(field.base)
        wfield = wrap_conformal_field(wrapped_base, field)
        wrep = classify(wfield, samples=max(10, samples // 4), tol=tol, seed=seed)
        agree = wrep.verdicts["conformal"] == rep.verdicts["conformal"]
        report.samples(f"conformal-invariance:{key}", [0.0 if agree else 1.0], 0.5)

        if entry.declared_killing:
            rng = stable_stream(seed, f"drift:{key}")
            x0, v0 = initial_condition(field.base, rng)
            d = geodesic_drift(field, x0, v0, drift_steps, drift_dt,
                               check_domain=False)
            report.samples(f"geodesic-drift:{key}", [d], DRIFT_TOL)


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
        fdot = derived_field(lambda A, B: SymTensor.scalar(A.dim, d_dot(A.entries(), B.entries())),
                             xi, zeta, name="g(xi,zeta)")
        points = [list(base.sample_point(rng)) for _ in range(max(5, samples // 10))]
        T = nabla(h, points)
        lhs = delta_op(T)
        res.append(norm(lhs - d_op(nabla(fdot, points))) / np.maximum(1.0, frame_norm(T)))
    report.samples("killing-pair-divergence-identity", np.concatenate(res), SPHERE_TOL)

    # d as a derivation on random polynomial fields over a flat chart
    eu = euclidean_chart(3)
    rng = stable_stream(seed, "derivation-rule")
    res = []
    for _ in range(5):
        A = random_polynomial_field(eu, 2, rng)
        B = random_polynomial_field(eu, 1, rng)
        AB = product_field(A, B)
        points = [list(eu.sample_point(rng)) for _ in range(4)]
        Ax, Bx = SymTensor(3, 2, A.batch(points)), SymTensor(3, 1, B.batch(points))
        lhs = d_op(nabla(AB, points))
        rhs = (sym_product(d_op(nabla(A, points)), Bx)
               + sym_product(Ax, d_op(nabla(B, points))))
        res.append(norm(lhs - rhs) / np.maximum(1.0, norm(lhs)))
    report.samples("derivation-product-rule", np.concatenate(res), 1e-10)

    # L preserves divergence-free Killing tensors
    hopf, _ = build_constructor("hopf-stackel", seed=seed)
    base = hopf.base
    Lfield = derived_field(mult_L, hopf, name="L(hopf-stackel)")
    rng = stable_stream(seed, "L-preserves")
    points = [list(base.sample_point(rng)) for _ in range(max(5, samples // 10))]
    T = nabla(Lfield, points)
    s = np.maximum(1.0, frame_norm(T))
    res = np.concatenate([norm(d_op(T)) / s, norm(delta_op(T)) / s])
    report.samples("L-preserves-divfree-killing", res, SPHERE_TOL)
    parts = divfree_killing_parts(Lfield, samples=max(5, samples // 10),
                                  tol=SPHERE_TOL, seed=seed)
    res = [v for d in parts.values() for v in (d["d"], d["delta"])]
    report.samples("divfree-killing-parts", res, SPHERE_TOL)

    # Nijenhuis: zero for the special CKT, nonzero for its Killing hat
    eu = euclidean_chart(3)
    special = special_ckt_flat(np.array([0.4, -0.3, 0.5]), chart=eu)
    hat = special_to_killing(special, rng=stable_stream(seed, "nij"))
    rng = stable_stream(seed, "nijenhuis")
    points = [list(eu.sample_point(rng)) for _ in range(max(5, samples // 10))]
    res_special, res_hat = (np.abs(nijenhuis(f, points)).max(axis=(1, 2, 3))
                            for f in (special, hat))
    report.samples("nijenhuis-special-ckt", res_special, FLAT_TOL)
    report.samples("nijenhuis-special-killing-nonzero", res_hat, 1e-3, kind="floor")

    # condition (d1) for the circle-fibration split, violated by the tilt
    rng = stable_stream(seed, "d1")
    sp3 = EmbeddedSphere(3)
    points = [list(sp3.sample_point(rng)) for _ in range(5)]
    res = condition_d1_residual(hopf_split(sp3), points)
    res_tilted = condition_d1_residual(tilted_split(sp3), points)
    report.samples("condition-d1-hopf", res, SPHERE_TOL)
    report.samples("condition-d1-tilted-nonzero", res_tilted, 1e-3, kind="floor")

    # d tr K = 2 delta K for the trace-carrying Killing 2-tensors
    res = []
    for key in ("sphere-curvature", "special-flat-hat"):
        field, _ = build_constructor(key, seed=seed)
        rep = classify(field, samples=max(5, samples // 10),
                       tol=SPHERE_TOL, seed=seed)
        res.append(rep.max_residuals["two_tensor"])
    report.samples("two-tensor-trace-identity", res, SPHERE_TOL)
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
    report.samples("modified-ricci-killing", res, 1e-8)

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
    report.samples("modified-ricci-negative-control", res, 1e-6, kind="floor")


def _geodesic_order_case(report, seed):
    field, _ = build_constructor("hopf-stackel", seed=seed)
    rng = stable_stream(seed, "order")
    x0, v0 = initial_condition(field.base, rng)
    series = drift_series(field, x0, v0, 200, 0.05, halvings=1)
    ratio = series[0] / max(series[1], 1e-300)
    report.samples("geodesic-order-ratio", [ratio], 16.0, kind="floor")

    broken, _ = build_constructor("broken-hopf-stackel", seed=seed)
    d = geodesic_drift(broken, x0, v0, 2000, 1e-3, check_domain=False)
    report.samples("geodesic-drift-negative-control", [d], 1e-3, kind="floor")


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


def geometry_suite(keys=DEFAULT_GEOMETRY_KEYS, samples=60, seed=42,
                   drift_steps=10000, drift_dt=1e-3):
    """Geometric and constructor suite over catalog manifolds.

    Runs per-manifold frame/curvature checks for each key, then the fixed
    constructor battery (classification against declared verdicts,
    conformal invariance, negative controls, geodesic drift) and the
    statement-level identity checks.
    """
    report = SuiteReport("geometry", seed, SPHERE_TOL)
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
