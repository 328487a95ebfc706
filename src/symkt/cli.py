"""Command-line front end: identity suites, field verification, geodesics.

Exit codes: 0 all checks passed, 1 a check failed, 2 configuration error.
Reports go to stdout as text, or to a file as canonical JSON via --json.
All configuration is by flags; no environment variables.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import io as tio
from .classify import classify
from .constructors import build_constructor, constructor_catalog, stable_stream
from .errors import ConfigError, DomainError, SymktError
from .fields import constant_field
from .geodesic import DRIFT_TOL, geodesic_drift, initial_condition
from .manifolds import manifold_from_key
from .suites import geometry_suite, identity_suite

__all__ = ["main", "run_identities", "run_verify", "run_geodesic"]


def _write_report(doc, args):
    text = tio.dumps_report(doc)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text)
    return text


def _print_suite(report, args):
    doc = report.to_dict()
    _write_report(doc, args)
    if not args.json:
        for case in report.cases:
            mark = "pass" if case.passed else "FAIL"
            print(f"[{mark}] {case.name}: {case.max_residual:.3e} "
                  f"({'<=' if case.kind == 'residual' else '>='} {case.tol:.1e})")
    print(f"suite={report.suite} seed={report.seed} "
          f"cases={len(report.cases)} pass={report.passed}")
    return 0 if report.passed else 1


def run_identities(args):
    report = identity_suite(dims=args.dims, degrees=args.degrees,
                            trials=args.trials, seed=args.seed)
    return _print_suite(report, args)


def _parse_params(args):
    """The --params JSON object.  Its values are checked where they are
    read: each catalog builder refuses a non-finite or malformed value of
    its own keys, and ``build_constructor`` refuses every other key."""
    raw = getattr(args, "params", None)
    if not raw:
        return None
    try:
        if raw.startswith("@"):
            with open(raw[1:]) as fh:
                raw = fh.read()
        doc = json.loads(raw)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"bad --params blob: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("--params must decode to a JSON object")
    return doc


def _load_field(args):
    base = manifold_from_key(args.manifold)
    if args.field_file:
        K = tio.load_tensor(args.field_file, dim=base.dim)
        return constant_field(base, K, name=f"file:{args.field_file}"), None
    if not args.construct:
        raise ConfigError("need --construct KEY or --field-file PATH")
    entry = constructor_catalog().get(args.construct)
    if entry is not None and entry.manifold_key != args.manifold:
        raise ConfigError(
            f"constructor {args.construct!r} lives on {entry.manifold_key!r}, "
            f"not {args.manifold!r}"
        )
    return build_constructor(args.construct, seed=args.seed, params=_parse_params(args))


def run_verify(args):
    field, entry = _load_field(args)
    if field.degree < 1:
        raise ConfigError(f"verify needs a tensor of degree >= 1, got degree {field.degree}")
    report = classify(field, samples=args.samples, tol=args.tol, seed=args.seed)
    if args.dump_samples:
        with open(args.dump_samples, "w") as fh:
            for rec in report.sample_records():
                fh.write(tio.dumps_report(rec))
    doc = report.to_dict()
    ok = True
    if entry is not None:
        record, _, ok = entry.judge(report)
        doc.update(record)
    _write_report(doc, args)
    if not args.json:
        for k in sorted(report.verdicts):
            print(f"{k}: {'yes' if report.verdicts[k] else 'no'}")
        for k in sorted(report.max_residuals):
            v = report.max_residuals[k]
            if v is not None:
                print(f"residual {k}: {v:.3e}")
    print(f"field={field.name} manifold={field.base.key} pass={ok}")
    return 0 if ok else 1


def run_geodesic(args):
    field, entry = _load_field(args)
    base = field.base
    rng = stable_stream(args.seed, "cli-geodesic")
    rows = []
    # a trajectory that overflows reads drift NaN (or leaves the domain) and
    # fails in the report, so numpy's warnings about it are noise on stderr;
    # the guard sits here, once per run, not in the per-step right-hand side
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(args.trajectories):
            x0, v0 = initial_condition(base, rng)
            try:
                drift = geodesic_drift(field, x0, v0, args.steps, args.dt)
                rows.append({"trajectory": t, "drift": drift, "status": "ok"})
            except DomainError:
                rows.append({"trajectory": t, "drift": None, "status": "left-domain"})
    # a run that measured no trajectory has shown nothing
    drifts = [row["drift"] for row in rows if row["status"] == "ok"]
    if args.max_drift is not None:
        ok = bool(drifts) and all(d <= args.max_drift for d in drifts)
    elif entry is not None and not entry.declared_killing:
        # a field not declared Killing passes when its drift was caught (a
        # NaN drift is not)
        ok = any(d > DRIFT_TOL for d in drifts)
    else:
        ok = bool(drifts) and all(d <= DRIFT_TOL for d in drifts)
    doc = {
        "suite": "geodesic",
        "seed": args.seed,
        "field": field.name,
        "manifold": base.key,
        "steps": args.steps,
        "dt": args.dt,
        "trajectories": rows,
        "pass": ok,
    }
    _write_report(doc, args)
    if not args.json:
        for row in rows:
            d = row["drift"]
            print(f"trajectory {row['trajectory']}: "
                  f"{'drift %.3e' % d if d is not None else row['status']}")
    print(f"geodesic field={field.name} pass={ok}")
    return 0 if ok else 1


# flags by the range they must lie in (when the subcommand has them)
_COUNT_FLAGS = ("samples", "trials", "steps", "trajectories", "drift_steps")
_POSITIVE_FLAGS = ("dt", "drift_dt", "tol")


def _check_numbers(args):
    """Raise ConfigError unless every count is >= 1, every step size and
    tolerance finite and > 0, ``--max-drift``, when given, finite and
    >= 0, and ``--seed`` >= 0: a run of zero samples or steps, or a NaN
    step, would pass every check vacuously, and numpy's generators refuse
    a negative seed."""
    def flag(name):
        return "--" + name.replace("_", "-")

    for name in _COUNT_FLAGS:
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise ConfigError(f"{flag(name)} must be >= 1, got {value}")
    for name in _POSITIVE_FLAGS:
        value = getattr(args, name, None)
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{flag(name)} must be finite and > 0, got {value}")
    value = getattr(args, "max_drift", None)
    if value is not None and not (math.isfinite(value) and value >= 0):
        raise ConfigError(f"--max-drift must be finite and >= 0, got {value}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="symkt",
        description="Symmetric tensor calculus and Killing tensor verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_id = sub.add_parser("identities", help="run the algebraic identity suite")
    p_id.add_argument("--dims", default="2..5", help="dimension range LO..HI")
    p_id.add_argument("--degrees", default="0..4", help="degree range LO..HI")
    p_id.add_argument("--trials", type=int, default=50)
    p_id.add_argument("--seed", type=int, default=42)
    p_id.add_argument("--json", metavar="PATH", default=None)
    p_id.set_defaults(func=run_identities)

    p_ver = sub.add_parser("verify", help="classify a constructed field")
    p_ver.add_argument("--manifold", required=True)
    p_ver.add_argument("--construct", default=None)
    p_ver.add_argument("--field-file", dest="field_file", default=None)
    p_ver.add_argument("--params", default=None,
                       help="constructor parameter blob: JSON object or @file")
    p_ver.add_argument("--samples", type=int, default=100)
    p_ver.add_argument("--tol", type=float, default=1e-9)
    p_ver.add_argument("--seed", type=int, default=42)
    p_ver.add_argument("--json", metavar="PATH", default=None)
    p_ver.add_argument("--dump-samples", dest="dump_samples", metavar="PATH",
                       default=None,
                       help="write one {point, residuals} record per line")
    p_ver.set_defaults(func=run_verify)

    p_geo = sub.add_parser("geodesic", help="first-integral drift along geodesics")
    p_geo.add_argument("--manifold", required=True)
    p_geo.add_argument("--construct", default=None)
    p_geo.add_argument("--field-file", dest="field_file", default=None)
    p_geo.add_argument("--steps", type=int, default=10000)
    p_geo.add_argument("--dt", type=float, default=1e-3)
    p_geo.add_argument("--trajectories", type=int, default=5)
    p_geo.add_argument("--max-drift", dest="max_drift", type=float, default=None,
                       help="pass when every drift is at most this (default: a "
                            "field expected Killing needs every drift <= 1e-7, "
                            "one expected non-Killing some drift > 1e-7)")
    p_geo.add_argument("--seed", type=int, default=42)
    p_geo.add_argument("--json", metavar="PATH", default=None)
    p_geo.set_defaults(func=run_geodesic)

    p_suite = sub.add_parser("geometry", help="run the geometric suite")
    p_suite.add_argument("--samples", type=int, default=60)
    p_suite.add_argument("--seed", type=int, default=42)
    p_suite.add_argument("--drift-steps", dest="drift_steps", type=int,
                         default=10000)
    p_suite.add_argument("--drift-dt", dest="drift_dt", type=float, default=1e-3)
    p_suite.add_argument("--json", metavar="PATH", default=None)
    p_suite.set_defaults(func=lambda a: _print_suite(
        geometry_suite(samples=a.samples, seed=a.seed,
                       drift_steps=a.drift_steps, drift_dt=a.drift_dt), a))

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code) if exc.code else 0
    try:
        _check_numbers(args)
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SymktError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
