"""Smoke test of the benchmark harness at tiny sizes.

Run from the root of the checkout::

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from symkt import fields, io, manifolds  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke", "--seconds", "0.2",
         *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_harness():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        tracing.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


def test_every_workload_prints_every_end_to_end_metric():
    out, result = _run()
    assert result["correct"] and result["failed"] == 0
    for name in run.WORKLOAD_NAMES:
        for metric, unit in run.END_TO_END:
            entry = result["metrics"][f"{name}.{metric}"]
            assert entry["unit"] == unit
            assert math.isfinite(entry["value"]) and entry["value"] > 0
    assert f"fail_ratio (1): {', '.join(f'{n} 0' for n in run.WORKLOAD_NAMES)}" in out


def _traced(name):
    _, result = _run("--workload", name, "--trace", "1")
    assert result["correct"], result
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == \
        {n: u for n, u, _ in tracing.PER_LAYER}
    return {k: v["value"] for k, v in metrics.items()}


def test_traced_runs_isolate_their_layers():
    m = {name: _traced(name) for name in run.WORKLOAD_NAMES}
    assert m["identities"]["dual.jacobian.calls"] == 0
    assert m["identities"]["suites.identity_suite.calls"] > 0
    assert m["verify"]["dual.jacobian.calls"] > 0
    assert m["verify"]["dual.jacobian.nested_calls"] == 0
    assert m["curvature"]["dual.jacobian.nested_calls"] > 0
    for name in run.WORKLOAD_NAMES:
        on_curvature = name == "curvature"
        assert (m[name]["fields.nabla2.calls"] > 0) == on_curvature
        assert (m[name]["curvature.riemann.calls"] > 0) == on_curvature
        assert m[name]["trace.overhead_ratio"] > 0
    assert m["geodesic"]["manifolds.christoffel.calls"] > 0
    assert m["geodesic"]["geodesic.step_ms"] > 0
    verify = m["verify"]
    assert verify["manifolds.gamma_frame.distinct_ratio"] == pytest.approx(
        verify["manifolds.gamma_frame.distinct"]
        / verify["manifolds.gamma_frame.calls"])
    assert verify["classify.per_sample_ms"] > 0
    assert verify["constructors.build_constructor.calls"] == 18


class _Injected:
    """A workload whose requests carry deliberately bad results."""

    def __init__(self, targets):
        self.targets = targets

    def execute(self, request):
        return workloads.run_verify(self.targets[request.kind], 2, 7)


def test_injected_bad_results_count_as_failures():
    ball = manifolds.manifold_from_key("euclidean:3")
    literal = {"dim": 3, "degree": 2,
               "entries": [{"index": [1, 1], "value": "nan"}]}
    nan_field = fields.constant_field(ball, io.tensor_from_dict(literal))
    verify = workloads.Verify(1, workloads.Sizes.for_run(smoke=True))
    broken = verify.targets["broken-hopf-stackel"]
    positive = verify.targets["hopf-stackel"]
    targets = {
        # verdict-wise this would pass: only the NaN residuals can fail it
        "nan-literal": workloads.VerifyTarget(nan_field, {"killing": False},
                                              workloads.suites.FLAT_TOL),
        "broken-as-positive": workloads.VerifyTarget(
            broken.field, positive.expected, positive.tol),
        "positive": positive,
    }
    requests = [workloads.Request(kind, 2, ()) for kind in targets]
    records, failures = run.run_requests(_Injected(targets), requests)
    assert len(records) == 3
    assert [kind for kind, _ in failures] == ["nan-literal", "broken-as-positive"]
    assert any("non-finite" in p for p in failures[0][1])


def test_checks_refuse_non_finite_values():
    assert workloads.finite_max([0.0, float("nan"), 1.0]) is None
    assert workloads.finite_max([float("inf")]) is None
    assert workloads.finite_max([]) is None
    assert workloads.bound_problem("r", [float("nan")], 1.0)
    assert workloads.bound_problem("r", [0.5], 1.0) is None
