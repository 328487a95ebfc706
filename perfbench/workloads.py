"""Seeded request mixes for the four benchmark workloads.

A workload is a fixed mix of request *kinds*.  One *pass* issues every kind
once, so every pass, and every run, does the same amount of work whatever
the seed; the seed only changes the inputs (sample seeds, points, initial
conditions, tensors).  All inputs are generated before the timed phase.
``execute`` calls symkt's public API and returns the list of failed checks
for one request: an empty list is a pass.

Checks fail closed.  Residuals go through :func:`finite_max`, which refuses
NaN and inf, and never through a bare ``max`` (``max(0.0, nan)`` is 0.0).

symkt is reached through module attributes (``suites.identity_suite``, not
a bare ``identity_suite``) so that the traced run, which rebinds the
functions inside each module, also sees the calls made from here.
"""

import math
import zlib
from dataclasses import dataclass

import numpy as np

from symkt import cartan, classify, constructors, curvature, fields, geodesic
from symkt import manifolds, suites, symtensor
from symkt.multiindex import sym_size

# Tolerances of the geometry suite and the acceptance tests.
DRIFT_TOL = 1e-7  # geodesic-drift:<key>
EIGEN_TOL = 1e-8  # sphere-qR-eigenvalue
NONPOS_TOL = 1e-10  # nonpositive-curvature-qR
GEOM_TOL_CHART = 1e-8  # riemann-symmetries / riemann-bianchi on charts
GEOM_TOL = 1e-12  # the same on embedded, product and conformal backends

# Inputs of each pass are cycled from a pool generated up front.
POOL_PASSES = 64


@dataclass(frozen=True)
class Sizes:
    """Per-request work.  ``smoke`` shrinks it for the harness smoke test."""

    trials: int  # identities: trials per (n, p) cell
    samples: int  # verify: classify samples per request
    steps: int  # geodesic: RK4 steps per trajectory
    pool: int  # passes of distinct inputs

    @classmethod
    def for_run(cls, smoke):
        if smoke:
            return cls(trials=1, samples=1, steps=5, pool=2)
        return cls(trials=1, samples=4, steps=50, pool=POOL_PASSES)


@dataclass(frozen=True)
class Request:
    kind: str
    units: int
    payload: tuple


def stream(seed, label):
    """The benchmark's own RNG stream for (seed, label)."""
    return np.random.default_rng([seed, zlib.crc32(label.encode())])


def finite_max(values):
    """Largest value, or None if there is none or any is NaN or infinite."""
    worst = None
    for v in values:
        v = float(v)
        if not math.isfinite(v):
            return None
        if worst is None or v > worst:
            worst = v
    return worst


def bound_problem(label, values, tol):
    """Problem text unless every value is finite and <= tol."""
    worst = finite_max(values)
    if worst is None:
        return f"{label}: non-finite or missing residual"
    if worst > tol:
        return f"{label}: {worst:.3e} > {tol:.1e}"
    return None


class Workload:
    """Request kinds, the pass pool and the executor of one workload."""

    name = ""
    unit = ""

    def __init__(self, seed, sizes):
        self.seed = seed
        self.sizes = sizes
        self.build()
        self.warmup = self.make_pass(stream(seed, f"{self.name}:warmup"))
        self.passes = [
            self.make_pass(stream(seed, f"{self.name}:pass:{k}"))
            for k in range(sizes.pool)
        ]

    def build(self):
        """Build manifolds, constructors and fields (part of set-up)."""

    def make_pass(self, rng):
        raise NotImplementedError

    def execute(self, request):
        raise NotImplementedError


# ---------------------------------------------------------------------------


class Identities(Workload):
    """identity_suite on one (n, p) cell; only the packed algebra and cartan."""

    name = "identities"
    unit = "trial"
    cells = [(n, p) for n in range(2, 6) for p in range(0, 5)]

    def make_pass(self, rng):
        return [
            Request(f"n={n},p={p}", self.sizes.trials,
                    (n, p, int(rng.integers(2**31))))
            for n, p in self.cells
        ]

    def execute(self, request):
        n, p, seed = request.payload
        report = suites.identity_suite(dims=(n, n), degrees=(p, p),
                                       trials=self.sizes.trials, seed=seed)
        # 5 algebra cases, the Euler identity for p >= 1, 6 Cartan cases
        want = 5 + (p >= 1) + 6 * cartan.supported_pair(n, p)
        problems = []
        if len(report.cases) != want:
            problems.append(f"{len(report.cases)} cases, expected {want}")
        for case in report.cases:
            if case.kind != "residual":
                problems.append(f"{case.name}: unexpected kind {case.kind}")
                continue
            problem = bound_problem(case.name, [case.max_residual], case.tol)
            if problem:
                problems.append(problem)
        return problems


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyTarget:
    """A field with the verdicts classify must reproduce on it."""

    field: object
    expected: dict
    tol: float
    negative_check: str = ""
    min_residual: float = 0.0


def verify_problems(report, target):
    """Failed checks of one classify report against its target."""
    problems = []
    for key in sorted(report.residuals):
        values = report.residuals[key]
        if values and finite_max(values) is None:
            problems.append(f"{key}: non-finite residual")
    for verdict, want in sorted(target.expected.items()):
        got = report.verdicts.get(verdict)
        if got is not want:
            problems.append(f"verdict {verdict}={got}, expected {want}")
    if target.negative_check:
        worst = finite_max(report.residuals.get(target.negative_check, []))
        if worst is None or not worst >= target.min_residual:
            problems.append(f"negative control {target.negative_check}: "
                            f"{worst} < {target.min_residual}")
    return problems


def run_verify(target, samples, seed):
    report = classify.classify(target.field, samples=samples, tol=target.tol,
                               seed=seed)
    return verify_problems(report, target)


def mult_L_field(field):
    """The degree p+2 field g.K, Killing whenever K is."""
    n = field.base.dim

    def comps(x):
        K = symtensor.SymTensor(n, field.degree, field.comps_fn(x))
        return list(symtensor.mult_L(K).comps)

    return fields.TensorField(field.base, field.degree + 2, comps,
                              name=f"L({field.name})")


def catalog_tol(base_key):
    return suites.FLAT_TOL if base_key.startswith("euclidean") else suites.SPHERE_TOL


class Verify(Workload):
    """classify of every catalog field, positives and broken-* controls."""

    name = "verify"
    unit = "sample"

    def build(self):
        self.targets = {}
        for key, entry in constructors.constructor_catalog().items():
            field, _ = constructors.build_constructor(key, seed=self.seed)
            self.targets[key] = VerifyTarget(
                field, dict(entry.expected), catalog_tol(field.base.key),
                entry.negative_check, entry.min_residual)
        hopf = self.targets["hopf-stackel"].field
        self.targets["L(hopf-stackel)"] = VerifyTarget(
            mult_L_field(hopf),
            {"killing": True, "conformal": True, "tracefree": False,
             "divfree": True},
            catalog_tol(hopf.base.key))

    def make_pass(self, rng):
        return [
            Request(key, self.sizes.samples, (key, int(rng.integers(2**31))))
            for key in self.targets
        ]

    def execute(self, request):
        key, seed = request.payload
        return run_verify(self.targets[key], self.sizes.samples, seed)


# ---------------------------------------------------------------------------


def _unit(rng, m):
    v = rng.standard_normal(m)
    return v / np.linalg.norm(v)


def _ball_point(rng, m, radius):
    return _unit(rng, m) * radius * rng.uniform(0.05, 0.95) ** (1.0 / m)


class Geodesic(Workload):
    """geodesic_drift trajectories: embedded sphere:3 and chart backends."""

    name = "geodesic"
    unit = "step"
    dt = 1e-3

    def build(self):
        self.kinds = {}
        for key in ("hopf-stackel", "sasakian-stackel", "sphere-curvature",
                    "special-flat-hat"):
            self.kinds[key], _ = constructors.build_constructor(key, seed=self.seed)
        ball = manifolds.manifold_from_key("hyperbolic:3")
        self.kinds["hyperbolic-metric"] = fields.metric_field(ball)

    def initial_condition(self, base_key, rng):
        if base_key == "sphere:3":
            x0 = _unit(rng, 4)
            v0 = rng.standard_normal(4)
            v0 -= x0 * np.dot(x0, v0)
            return x0, v0 / np.linalg.norm(v0)
        # chart trajectories start near the origin and move slowly, so
        # they stay inside the sampling domain the drift check enforces
        radius = {"euclidean:3": 0.4, "hyperbolic:3": 0.35}[base_key]
        return _ball_point(rng, 3, radius), 0.05 * _unit(rng, 3)

    def make_pass(self, rng):
        out = []
        for key, field in self.kinds.items():
            x0, v0 = self.initial_condition(field.base.key, rng)
            out.append(Request(key, self.sizes.steps, (key, x0, v0)))
        return out

    def execute(self, request):
        key, x0, v0 = request.payload
        drift = geodesic.geodesic_drift(self.kinds[key], x0, v0,
                                        self.sizes.steps, self.dt,
                                        check_domain=True)
        problem = bound_problem("drift", [drift], DRIFT_TOL)
        return [problem] if problem else []


# ---------------------------------------------------------------------------


class Curvature(Workload):
    """riemann, q(R) and the Lichnerowicz defect (nabla2) at one point."""

    name = "curvature"
    unit = "point"
    # manifold -> degree of its random field; degree 1 on the product keeps
    # its nabla2 (the costliest) near the others
    field_degrees = {"sphere:2": 2, "sphere:3": 2, "hyperbolic:3": 2,
                     "stereographic:2": 2, "product:sphere:2,sphere:2": 1,
                     "conformal:bump:euclidean:3": 2}

    def build(self):
        self.kinds = {}
        for key, deg in self.field_degrees.items():
            base = manifolds.manifold_from_key(key)
            rng = stream(self.seed, f"curvature:field:{key}")
            if isinstance(base, manifolds.EmbeddedSphere):
                field = fields.random_tangential_field(base, deg, rng)
            else:
                field = fields.random_polynomial_field(base, deg, rng)
            self.kinds[key] = field

    def make_pass(self, rng):
        out = []
        for kind, field in self.kinds.items():
            base = field.base
            x = base.sample_point(rng)
            tensors = tuple(
                symtensor.tracefree_part(symtensor.SymTensor(
                    base.dim, p, rng.standard_normal(sym_size(base.dim, p))))
                for p in (1, 2, 3)
            )
            out.append(Request(kind, 1, (kind, x, tensors)))
        return out

    def execute(self, request):
        kind, x, tensors = request.payload
        field = self.kinds[kind]
        base = field.base
        n = base.dim
        key = base.key
        problems = []

        rm = curvature.riemann(base, x)
        scale = max(1.0, float(np.abs(rm.R4).max()))
        geom_tol = GEOM_TOL_CHART if getattr(base, "is_chart", False) else GEOM_TOL
        for label, value in (("riemann symmetries", rm.symmetry_residual()),
                             ("riemann bianchi", rm.bianchi_residual())):
            problem = bound_problem(label, [value / scale], geom_tol)
            if problem:
                problems.append(problem)

        round_sphere = key.startswith(("sphere:", "stereographic:"))
        for K in tensors:
            p = K.degree
            qK = curvature.qR_act(base, x, K, rm=rm)
            if finite_max(qK.values()) is None:
                problems.append(f"q(R) on degree {p}: non-finite")
            if round_sphere:
                lam = float(p * (n + p - 2))
                err = symtensor.norm(qK - K.scale(lam)) / max(1.0, symtensor.norm(K))
                problem = bound_problem(f"q(R) eigenvalue p={p}", [err], EIGEN_TOL)
                if problem:
                    problems.append(problem)
            if key.startswith("hyperbolic:"):
                problem = bound_problem(f"g(q(R)K, K) p={p}",
                                        [symtensor.inner(qK, K)], NONPOS_TOL)
                if problem:
                    problems.append(problem)

        defect = curvature.lichnerowicz_defect(field, x)
        problem = bound_problem("lichnerowicz", [defect], suites.SECOND_ORDER_TOL)
        if problem:
            problems.append(problem)
        return problems


WORKLOADS = {w.name: w for w in (Identities, Verify, Geodesic, Curvature)}
