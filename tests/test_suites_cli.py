"""Suite aggregation and the command-line interface."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import symkt.cartan as cartan
import symkt.multiindex
import symkt.suites as suites
from symkt.cli import main
from symkt.errors import ConfigError
from symkt.io import dump_tensor, dumps_report
from symkt.manifolds import MAX_KEY_DIM, manifold_from_key
from symkt.multiindex import MAX_DEGREE
from symkt.suites import identity_suite
from symkt.symtensor import SymTensor


def test_identity_suite_passes():
    rep = identity_suite(dims="2..4", degrees="0..3", trials=8, seed=42)
    assert rep.passed
    assert rep.max_residual <= 1e-10


def test_identity_suite_passes_at_the_caps():
    # n = 8, p = 6: the largest cell --dims and --degrees accept
    rep = identity_suite(dims=(MAX_KEY_DIM, MAX_KEY_DIM), degrees=(MAX_DEGREE, MAX_DEGREE),
                         trials=1, seed=42)
    assert len(rep.cases) == 12 and rep.passed


def test_identity_suite_deterministic():
    a = identity_suite(dims="2..3", degrees="0..2", trials=5, seed=7)
    b = identity_suite(dims="2..3", degrees="0..2", trials=5, seed=7)
    assert dumps_report(a.to_dict()) == dumps_report(b.to_dict())


def test_identity_suite_fails_closed_on_nan(monkeypatch):
    # max(0.0, nan) is 0.0: a NaN residual must fail its case, not vanish
    original = suites.random_sym_tensor

    def nan_tensor(n, p, rng):
        K = original(n, p, rng)
        comps = np.array(K.comps)
        comps[0] = np.nan
        return SymTensor(n, p, comps)

    monkeypatch.setattr(suites, "random_sym_tensor", nan_tensor)
    rep = identity_suite(dims=(3, 3), degrees=(2, 2), trials=2, seed=1)
    assert not rep.passed
    fed_by_K = ("commutator-L-Lambda", "commutators-vector", "adjointness",
                "euler-identity", "standard-decomposition")
    hit = [c for c in rep.cases if c.name.split(":")[0] in fed_by_K]
    assert len(hit) == len(fed_by_K)
    assert all(np.isnan(c.max_residual) and not c.passed for c in hit)


def test_identity_suite_rejects_bad_ranges():
    with pytest.raises(ConfigError):
        identity_suite(dims="1..1")
    with pytest.raises(ConfigError):
        identity_suite(dims="3..2")
    with pytest.raises(ConfigError):
        identity_suite(dims="abc")


def test_sign_flip_mutation_fails_suite(monkeypatch):
    # meta-test: a sign error in the trace operator must be caught
    from symkt import symtensor

    original = symtensor.trace_Lambda

    def flipped(K):
        return original(K).scale(-1.0)

    monkeypatch.setattr(suites, "trace_Lambda", flipped)
    rep = identity_suite(dims="3..3", degrees="2..2", trials=3, seed=42)
    assert not rep.passed


def test_case_pass_rule():
    from symkt.suites import SuiteCase

    assert SuiteCase("a", 1e-12, 1e-10).passed
    assert not SuiteCase("a", 1e-8, 1e-10).passed
    assert SuiteCase("a", 5.0, 1.0, kind="floor").passed
    assert not SuiteCase("a", 0.1, 1.0, kind="floor").passed


def _one_case(values, kind="residual"):
    report = suites.SuiteReport("t", 0, 1.0)
    report.samples("a", values, 1.0, kind=kind)
    (case,) = report.cases
    return case


@pytest.mark.parametrize("kind", ["residual", "floor"])
@pytest.mark.parametrize("empty", [[], np.array([])], ids=["list", "array"])
def test_samples_of_an_empty_case_read_nan_and_fail(empty, kind):
    case = _one_case(empty, kind)
    assert math.isnan(case.max_residual) and not case.passed


@pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
@pytest.mark.parametrize("kind", ["residual", "floor"])
@pytest.mark.parametrize("at", [0, 1, 2])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_samples_with_a_non_finite_sample_read_nan(bad, at, kind, as_array):
    values = [2.0, 0.5, 1.0]
    values[at] = bad
    case = _one_case(np.array(values) if as_array else values, kind)
    assert math.isnan(case.max_residual) and not case.passed


def test_samples_reduce_a_list_and_an_array_alike():
    values = [0.25, 1e-3, 0.75]
    for kind, want in (("residual", 0.75), ("floor", 1e-3)):
        from_list = _one_case(values, kind).max_residual
        from_array = _one_case(np.array(values), kind).max_residual
        assert from_list == from_array == want
        assert type(from_list) is type(from_array) is float


def test_samples_reject_an_unknown_kind():
    with pytest.raises(KeyError):
        _one_case([0.0], kind="ceiling")


@pytest.mark.parametrize("trials", [0, -1])
def test_identity_suite_without_trials_fails(trials):
    # no sample is no evidence: every case reads NaN
    rep = identity_suite(dims=(3, 3), degrees=(2, 2), trials=trials, seed=1)
    assert len(rep.cases) == 12
    assert all(math.isnan(c.max_residual) and not c.passed for c in rep.cases)
    assert not rep.passed


# ---------------------------------------------------------------------------
# CLI


def test_cli_identities_exit_codes(tmp_path):
    out = tmp_path / "r.json"
    code = main(["identities", "--dims", "2..3", "--degrees", "0..2",
                 "--trials", "3", "--seed", "42", "--json", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] is True and doc["suite"] == "identities"
    assert {"name", "max_residual", "tol", "kind", "pass"} <= set(doc["cases"][0])


def test_cli_identities_bad_range_exit_2():
    assert main(["identities", "--dims", "1..1"]) == 2
    assert main(["identities", "--dims", "5..2"]) == 2


def test_cli_identities_range_with_a_sign_exits_2(capsys):
    assert main(["identities", "--dims", "2..+3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad range") and err.count("\n") == 1


def test_cli_seed_reproducibility(tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["identities", "--dims", "2..3", "--degrees", "0..2",
            "--trials", "3", "--seed", "42"]
    assert main(args + ["--json", str(f1)]) == 0
    assert main(args + ["--json", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_cli_verify_positive(tmp_path):
    out = tmp_path / "v.json"
    code = main(["verify", "--manifold", "sphere:3", "--construct",
                 "hopf-stackel", "--samples", "15", "--tol", "1e-9",
                 "--json", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["verdicts"]["stackel"] is True
    assert doc["matches_expected"] is True


def test_cli_verify_special_flat():
    code = main(["verify", "--manifold", "euclidean:3", "--construct",
                 "special-flat", "--samples", "10", "--tol", "1e-11"])
    assert code == 0  # verdicts match declared expectations


def test_cli_verify_negative_control():
    code = main(["verify", "--manifold", "sphere:3", "--construct",
                 "broken-hopf-stackel", "--samples", "8", "--tol", "1e-9"])
    assert code == 0  # the declared expectation is that the check fails


def test_cli_unknown_keys_exit_2():
    assert main(["verify", "--manifold", "sphere:3",
                 "--construct", "unknown"]) == 2
    assert main(["verify", "--manifold", "nowhere:3",
                 "--construct", "hopf-stackel"]) == 2
    assert main(["verify", "--manifold", "sphere:4",
                 "--construct", "hopf-stackel"]) == 2  # wrong manifold
    assert main(["verify", "--manifold", "sphere:3"]) == 2  # nothing to build


def test_cli_oversized_manifold_exit_2(capsys):
    for key in ("sphere:1000000", "product:sphere:2,euclidean:9"):
        assert main(["verify", "--manifold", key, "--construct",
                     "hopf-stackel"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert main(["geodesic", "--manifold", "conformal:bump:sphere:50",
                 "--construct", "hopf-stackel"]) == 2


def _refuse_tables(monkeypatch):
    """Make any index table built from here on fail the test: every table
    starts from ``multi_indices`` or the rank ``positions``, refused in
    each ``symkt`` module that imported them."""
    def refuse(*args):
        raise AssertionError(f"index table built for a rejected input: {args}")

    for name in ("multi_indices", "positions"):
        builder = getattr(symkt.multiindex, name)
        for module in [m for k, m in sys.modules.items() if k.startswith("symkt.")]:
            if getattr(module, name, None) is builder:
                monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize("command", ["verify", "geodesic"])
@pytest.mark.parametrize("dim, degree", [(1000, 6), (3, 2), (3, 7)])
def test_cli_oversized_field_file_exits_2_before_any_table(tmp_path, capsys, monkeypatch,
                                                           command, dim, degree):
    # sphere:2 has dimension 2: the dimension, then the degree cap, refuse
    path = tmp_path / "K.json"
    path.write_text(json.dumps({"dim": dim, "degree": degree, "entries": []}))
    _refuse_tables(monkeypatch)
    assert main([command, "--manifold", "sphere:2", "--field-file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag, spec", [("--dims", "2..1000"), ("--dims", "9..9"),
                                        ("--degrees", "0..7"), ("--degrees", "0..100000")])
def test_cli_identities_beyond_the_caps_exit_2_before_any_table(capsys, monkeypatch,
                                                                flag, spec):
    _refuse_tables(monkeypatch)
    assert main(["identities", flag, spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cap" in err and err.count("\n") == 1


_VERIFY = ["verify", "--manifold", "sphere:3", "--construct", "hopf-stackel"]
_GEODESIC = ["geodesic", "--manifold", "sphere:3", "--construct", "hopf-stackel"]


@pytest.mark.parametrize("argv, flag", [
    (_VERIFY + ["--samples", "0"], "--samples"),
    (_VERIFY + ["--samples", "-2"], "--samples"),
    (_VERIFY + ["--tol", "0"], "--tol"),
    (_VERIFY + ["--tol", "nan"], "--tol"),
    (["geometry", "--samples", "0"], "--samples"),
    (_VERIFY + ["--tol=-1e-9"], "--tol"),
    (["geometry", "--drift-steps", "0"], "--drift-steps"),
    (["geometry", "--drift-dt", "inf"], "--drift-dt"),
    (["geometry", "--drift-dt", "0"], "--drift-dt"),
    (["identities", "--trials", "0"], "--trials"),
    (["identities", "--trials", "-1"], "--trials"),
    (_GEODESIC + ["--steps", "0"], "--steps"),
    (_GEODESIC + ["--steps", "-5"], "--steps"),
    (_GEODESIC + ["--dt", "0"], "--dt"),
    (_GEODESIC + ["--dt", "nan"], "--dt"),
    (_GEODESIC + ["--trajectories", "0"], "--trajectories"),
    (_GEODESIC + ["--max-drift", "-1"], "--max-drift"),
    (_GEODESIC + ["--max-drift", "nan"], "--max-drift"),
])
def test_cli_rejects_counts_and_steps_out_of_range(capsys, argv, flag):
    # each of these used to pass vacuously or crash with a traceback
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} must be ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["identities"], _VERIFY, _GEODESIC, ["geometry"]],
                         ids=lambda argv: argv[0])
def test_cli_rejects_a_negative_seed(capsys, argv):
    # numpy's generators raise on a negative seed, which used to surface
    # as a traceback
    assert main(argv + ["--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"


def test_cli_geodesic(tmp_path):
    out = tmp_path / "g.json"
    code = main(["geodesic", "--manifold", "sphere:3", "--construct",
                 "hopf-stackel", "--steps", "400", "--dt", "1e-3",
                 "--trajectories", "2", "--max-drift", "1e-7",
                 "--json", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert all(r["drift"] <= 1e-7 for r in doc["trajectories"])

    code = main(["geodesic", "--manifold", "sphere:3", "--construct",
                 "broken-hopf-stackel", "--steps", "400", "--dt", "1e-3",
                 "--trajectories", "1", "--max-drift", "1e-7"])
    assert code == 1


def test_cli_geodesic_without_max_drift_fails_a_non_killing_field_file(tmp_path):
    # e1 e1 in the sphere's frame is not Killing: its drift fails the
    # default bound, while the metric's drift passes it
    path = tmp_path / "K.json"
    dump_tensor(SymTensor(3, 2, np.array([1.0, 0, 0, 0, 0, 0])), path)
    argv = ["geodesic", "--manifold", "sphere:3", "--field-file", str(path),
            "--steps", "20", "--trajectories", "2"]
    assert main(argv) == 1
    dump_tensor(SymTensor.metric(3), path)
    assert main(argv) == 0


def test_cli_geodesic_without_max_drift_passes_a_control_only_when_caught(capsys):
    argv = ["geodesic", "--manifold", "sphere:3", "--construct",
            "broken-hopf-stackel", "--trajectories", "2"]
    assert main(argv + ["--steps", "400"]) == 0
    # one step of 1e-9 is too short for the broken field to drift
    assert main(argv + ["--steps", "1", "--dt", "1e-9"]) == 1
    assert capsys.readouterr().out.endswith("pass=False\n")


def test_cli_geometry_has_no_tol_flag(capsys):
    # no geometry case reads a suite-wide tolerance
    assert main(["geometry", "--tol", "1e-9"]) == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_cli_geodesic_fails_when_no_trajectory_was_measured(tmp_path, capsys):
    out = tmp_path / "g.json"
    code = main(["geodesic", "--manifold", "euclidean:3", "--construct",
                 "special-flat-hat", "--steps", "500", "--dt", "0.1",
                 "--trajectories", "3", "--max-drift", "1e-7", "--json", str(out)])
    assert code == 1
    doc = json.loads(out.read_text())
    assert [r["status"] for r in doc["trajectories"]] == ["left-domain"] * 3
    assert doc["pass"] is False
    assert capsys.readouterr().out.endswith("pass=False\n")


def test_cli_geodesic_fails_on_a_flat_chart_whose_log_gradient_overflows(tmp_path):
    # steps of 1e300 overflow |x|^2 on the torus: grad phi, the flat
    # acceleration, is NaN there, so the drift is NaN and fails, where a
    # bare zero acceleration would read drift 0 and pass
    path, out = tmp_path / "g.json", tmp_path / "out.json"
    dump_tensor(SymTensor.metric(3), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is read, not printed
        code = main(["geodesic", "--manifold", "torus:3", "--field-file", str(path),
                     "--steps", "10", "--dt", "1e300", "--json", str(out)])
    assert code == 1
    rows = json.loads(out.read_text())["trajectories"]
    assert rows and all(r["status"] == "ok" and r["drift"] == "NaN" for r in rows)


@pytest.mark.parametrize("key", ["hyperbolic:3", "stereographic:3", "sphere:2",
                                 "product:sphere:2,euclidean:2"])
def test_cli_geodesic_fails_without_a_warning_when_a_trajectory_overflows(tmp_path, key):
    # steps of 1e300 overflow the chart factors and the embedded spheres:
    # each trajectory reads drift NaN or leaves the domain, and the run
    # fails with no numpy warning on stderr
    path, out = tmp_path / "g.json", tmp_path / "out.json"
    dump_tensor(SymTensor.metric(manifold_from_key(key).dim), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["geodesic", "--manifold", key, "--field-file", str(path),
                     "--steps", "10", "--dt", "1e300", "--json", str(out)])
    assert code == 1
    rows = json.loads(out.read_text())["trajectories"]
    assert rows and all(r["drift"] == "NaN" or r["status"] == "left-domain" for r in rows)


def test_cli_geodesic_on_a_product_of_spheres(tmp_path):
    # the velocity is tangent to both sphere factors, so no trajectory
    # leaves the product's domain
    out = tmp_path / "g.json"
    code = main(["geodesic", "--manifold", "product:sphere:2,sphere:2",
                 "--construct", "product-ckt", "--steps", "200",
                 "--trajectories", "3", "--json", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())["trajectories"]
    assert [r["status"] for r in rows] == ["ok"] * 3
    assert all(np.isfinite(r["drift"]) for r in rows)


def test_geometry_suite_byte_deterministic():
    from symkt.suites import geometry_suite

    keys = ("sphere:2", "hyperbolic:2")
    a = geometry_suite(keys=keys, samples=4, seed=9, drift_steps=100)
    b = geometry_suite(keys=keys, samples=4, seed=9, drift_steps=100)
    assert dumps_report(a.to_dict()) == dumps_report(b.to_dict())


def test_geometry_suite_runs_on_a_product_of_charts():
    from symkt.suites import geometry_suite

    key = "product:euclidean:2,hyperbolic:2"
    rep = geometry_suite(keys=(key,), samples=10, seed=5, drift_steps=100)
    mine = [c for c in rep.cases if c.name.endswith(":" + key)]
    assert {c.name.split(":")[0] for c in mine} == {
        "frame-gram", "riemann-symmetries", "riemann-bianchi", "qR-self-adjoint"
    }
    assert all(c.passed for c in mine)


def test_nabla_rejects_points_outside_domain():
    import numpy as np

    from symkt.errors import DomainError
    from symkt.fields import metric_field, nabla
    from symkt.manifolds import EmbeddedSphere, euclidean_chart

    f = metric_field(euclidean_chart(2, radius=0.5))
    with pytest.raises(DomainError):
        nabla(f, np.array([2.0, 0.0]))
    g = metric_field(EmbeddedSphere(2))
    with pytest.raises(DomainError):
        nabla(g, np.array([1.5, 0.0, 0.0]))


def test_cli_geometry_suite_small(tmp_path):
    out = tmp_path / "geo.json"
    code = main(["geometry", "--samples", "4", "--drift-steps", "300",
                 "--seed", "42", "--json", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["suite"] == "geometry" and doc["pass"] is True
    kinds = {c["kind"] for c in doc["cases"]}
    assert kinds == {"residual", "floor"}  # negative controls present


def test_cli_params_blob_and_sample_dump(tmp_path):
    dump = tmp_path / "samples.jsonl"
    code = main(["verify", "--manifold", "euclidean:3", "--construct",
                 "special-flat", "--params", '{"k0": [1.0, 0.0, 0.0]}',
                 "--samples", "6", "--tol", "1e-11",
                 "--dump-samples", str(dump)])
    assert code == 0
    lines = dump.read_text().strip().splitlines()
    assert len(lines) == 6
    rec = json.loads(lines[0])
    assert set(rec) == {"point", "residuals"}
    assert len(rec["point"]) == 3
    assert rec["residuals"]["special_conformal"] <= 1e-11
    # malformed blob is a config error
    assert main(["verify", "--manifold", "euclidean:3", "--construct",
                 "special-flat", "--params", "[1,2]"]) == 2
    assert main(["verify", "--manifold", "euclidean:3", "--construct",
                 "special-flat", "--params", '{"k0": [1.0]}']) == 2


def test_cli_field_file(tmp_path):
    path = tmp_path / "K.json"
    dump_tensor(SymTensor.metric(3), path)
    code = main(["verify", "--manifold", "euclidean:3", "--field-file",
                 str(path), "--samples", "5", "--tol", "1e-11"])
    assert code == 0
    # wrong dimension
    dump_tensor(SymTensor.metric(2), path)
    assert main(["verify", "--manifold", "euclidean:3", "--field-file",
                 str(path), "--samples", "5"]) == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--params", '{"bogus": NaN}', "--samples", "3"],
    ["verify", "--construct", "special-flat", "--samples", "3"],
    ["geodesic", "--construct", "hopf-stackel", "--steps", "10", "--trajectories", "1"],
], ids=["verify-params", "verify-construct", "geodesic-construct"])
def test_cli_field_file_refuses_constructor_flags(tmp_path, capsys, argv):
    # a field file leaves nothing for --construct or --params to build
    path = tmp_path / "K.json"
    dump_tensor(SymTensor.metric(3), path)
    code = main(argv + ["--manifold", "euclidean:3", "--field-file", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_field_file_listing_an_index_twice_exits_2(tmp_path, capsys):
    path = tmp_path / "K.json"
    path.write_text(json.dumps({"dim": 3, "degree": 2, "entries": [
        {"index": [1, 1], "value": 1.0}, {"index": [1, 1], "value": 2.0}]}))
    assert main(["verify", "--manifold", "euclidean:3", "--field-file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "[1, 1]" in err and err.count("\n") == 1


def test_geometry_residual_case_fails_closed_on_nan(monkeypatch):
    # one NaN sample among finite ones: the case must read NaN and fail
    original = suites.qrh_check
    calls = []

    def qrh_check(base, x, h):
        calls.append(1)
        return float("nan") if len(calls) == 3 else original(base, x, h)

    monkeypatch.setattr(suites, "qrh_check", qrh_check)
    report = suites.SuiteReport("geometry", 42, 1e-9)
    suites._qrh_cases(report, 42)
    (case,) = report.cases
    assert np.isnan(case.max_residual) and not case.passed
    assert not report.passed and np.isnan(report.max_residual)


def test_geometry_floor_case_fails_closed_on_nan(monkeypatch):
    # min(inf, nan) is inf: a NaN negative control must not clear its floor
    original = suites.ricci_killing_residual

    def ricci_killing_residual(base, x, X):
        if base.key == "bumped-flat":
            return float("nan")
        return original(base, x, X)

    monkeypatch.setattr(suites, "ricci_killing_residual", ricci_killing_residual)
    report = suites.SuiteReport("geometry", 42, 1e-9)
    suites._modified_ricci_cases(report, 42)
    cases = {c.name: c for c in report.cases}
    assert cases["modified-ricci-killing"].passed
    floor = cases["modified-ricci-negative-control"]
    assert floor.kind == "floor"
    assert np.isnan(floor.max_residual) and not floor.passed


@pytest.mark.parametrize("head", ['"dim": 2.9, "degree": 2', '"dim": 3, "degree": true'])
def test_cli_rejects_tensor_literals_with_a_non_integer_shape(tmp_path, capsys, head):
    path = tmp_path / "K.json"
    path.write_text('{%s, "entries": []}' % head)
    code = main(["verify", "--manifold", "euclidean:3", "--field-file",
                 str(path), "--samples", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("entries", [
    '5',
    '[5]',
    '[{"value": 1.0}]',
    '[{"index": [1, 1]}]',
    '[{"index": [1, 1], "value": "abc"}]',
    '[{"index": [1, 1], "value": "nan"}]',
    '[{"index": [1, 1], "value": NaN}]',
    '[{"index": [1, 1], "value": Infinity}]',
    '[{"index": [1, "a"], "value": 1.0}]',
], ids=["entries-not-a-list", "entry-not-an-object", "missing-index",
        "missing-value", "non-numeric-value", "nan-string-value",
        "nan-value", "inf-value", "non-integer-index"])
def test_cli_rejects_malformed_tensor_literals(tmp_path, capsys, entries):
    path = tmp_path / "K.json"
    path.write_text('{"dim": 3, "degree": 2, "entries": %s}' % entries)
    code = main(["verify", "--manifold", "euclidean:3", "--field-file",
                 str(path), "--samples", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_rejects_unknown_params(capsys):
    assert main(["verify", "--manifold", "euclidean:3", "--construct",
                 "special-flat", "--params", '{"k0": [1, 2, 3], "bogus": 1}',
                 "--samples", "3"]) == 2
    assert main(["verify", "--manifold", "sphere:3", "--construct",
                 "hopf-stackel", "--params", '{"anything": 1}',
                 "--samples", "3"]) == 2
    assert "bogus" in capsys.readouterr().err
    # the keys each builder reads still pass
    assert main(["verify", "--manifold", "euclidean:3", "--construct",
                 "special-flat", "--params", '{"k0": [1, 2, 3]}',
                 "--samples", "3", "--tol", "1e-11"]) == 0
    assert main(["verify", "--manifold", "sphere:2", "--construct",
                 "sym-product", "--params", '{"generators": [[0, 1], [0, 2]]}',
                 "--samples", "3"]) == 0


@pytest.mark.parametrize("key, manifold, params", [
    ("sym-product", "sphere:2", '{"generators": [[0, 7], [0, 1]]}'),
    ("sym-product", "sphere:2", '{"generators": [[0]]}'),
    ("sym-product", "sphere:2", '{"generators": "ab"}'),
    ("sym-product", "sphere:2", '{"generators": [[0, 1]]}'),
    ("sym-product", "sphere:2", '{"generators": [[0.5, 1], [1, 2]]}'),
    ("sym-product", "sphere:2", '{"generators": [[-1, 1], [1, 2]]}'),
    ("sym-product", "sphere:2", '{"generators": [[0, 0], [1, 2]]}'),
    ("sym-product", "sphere:2", '{"generators": [[true, 1], [1, 2]]}'),
    ("sym-product", "sphere:2", '{"generators": [[0, NaN], [1, 2]]}'),
    ("sym-product", "sphere:2", '{"generators": [[0, 1], [Infinity, 2]]}'),
    ("sym-product", "sphere:2", '{"generators": [[0, 1], [1, 1e400]]}'),
    ("special-flat", "euclidean:3", '{"k0": 3}'),
    ("special-flat", "euclidean:3", '{"k0": ["a", 1, 2]}'),
    ("special-flat", "euclidean:3", '{"k0": [1e400, 0, 0]}'),
    ("special-flat", "euclidean:3", '{"k0": [null, 0, 0]}'),
    ("special-flat", "euclidean:3", '{"k0": [NaN, 0, 0]}'),
    ("special-flat", "euclidean:3", '{"k0": [1, -Infinity, 0]}'),
    ("special-flat", "euclidean:3", '{"k0": [1, 2, %s]}' % ("9" * 400)),
    ("special-flat-hat", "euclidean:3", '{"k0": [true, 0, 0]}'),
], ids=["generator-out-of-range", "short-pair", "string", "one-pair", "float-index",
        "negative-index", "equal-indices", "bool-index", "generator-nan",
        "generator-inf", "generator-overflow", "k0-scalar", "k0-string",
        "k0-overflow", "k0-null", "k0-nan", "k0-inf", "k0-huge-int", "k0-bool"])
def test_cli_rejects_malformed_constructor_params(capsys, key, manifold, params):
    # bad configuration: exit 2 with one error line, before any check runs
    code = main(["verify", "--manifold", manifold, "--construct", key,
                 "--params", params, "--samples", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_verify_rejects_a_degree_0_field_file(tmp_path, capsys):
    path = tmp_path / "K.json"
    dump_tensor(SymTensor(3, 0, [1.5]), path)
    code = main(["verify", "--manifold", "euclidean:3", "--field-file",
                 str(path), "--samples", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "degree" in err and err.count("\n") == 1


def test_cli_reports_a_check_that_raises_as_failed(monkeypatch, capsys):
    # a sign-flipped slot kernel makes cartan_decompose raise inside the
    # suite: the CLI exits 1 with one "check failed:" line
    original = cartan.slot_hooks
    monkeypatch.setattr(cartan, "slot_hooks", lambda *args: -original(*args))
    code = main(["identities", "--dims", "3..3", "--degrees", "2..2", "--trials", "3"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("check failed: ") and err.count("\n") == 1


def test_python_m_symkt_runs_from_a_checkout(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(manifold):
        return subprocess.run(
            [sys.executable, "-m", "symkt", "geodesic", "--manifold", manifold,
             "--construct", "hopf-stackel", "--steps", "20", "--trajectories", "1"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)

    ok = run("sphere:3")
    assert ok.returncode == 0, ok.stderr
    assert "pass=True" in ok.stdout
    bad = run("sphere:+3")
    assert bad.returncode == 2
    assert bad.stderr.count("\n") == 1 and "Traceback" not in bad.stderr
