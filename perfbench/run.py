#!/usr/bin/env python3
"""symkt benchmark: seeded closed-loop workloads against the public API.

Run from the root of a symkt checkout::

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seconds 20          # every workload, one process each

One caller in one process issues requests back to back (a closed loop, no
threads).  The timed phase repeats whole passes of the workload's request
mix until ``--seconds`` have passed and at least ``MIN_REQUESTS`` requests
ran.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See ``perfbench/README.md``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("identities", "verify", "geodesic", "curvature")
END_TO_END = (("setup_s", "s"), ("units_per_s", "1/s"), ("request_p50_ms", "ms"),
              ("request_p90_ms", "ms"), ("peak_rss_mb", "MB"))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 5  # set-ups per run: this process plus fresh child processes
# probe_seconds() on an idle core of the machine the bounds were set on
# (2 vCPUs of an Intel Xeon, Python 3.11): scaled latencies are latencies
# on a CPU running at that speed
REFERENCE_PROBE_S = 71.4e-6
MIN_REQUESTS = 100  # requests before the timed phase may end
TRACE_PASSES = 2  # fixed, so that traced counts repeat exactly for a seed
CHILD_TIMEOUT_S = 170


def import_program():
    """Import symkt from this checkout's src/ and the workload definitions."""
    package = SRC / "symkt"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no symkt sources at {package}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import symkt

    if Path(symkt.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported symkt from {symkt.__file__}, "
                         f"not from {package}")
    import workloads

    return workloads


class _Jet:
    __slots__ = ("val", "grad")

    def __init__(self, val, grad):
        self.val = val
        self.grad = grad


def probe_seconds():
    """Time of a fixed bit of object-heavy Python, like symkt's dual numbers.

    It slows down with the CPU under other tenants' load much as symkt does,
    so latency * REFERENCE_PROBE_S / probe time does not depend on the load.
    """
    t0 = time.perf_counter()
    x = _Jet(1.0, (0.5, 0.25, 0.125))
    kept = []
    for _ in range(60):
        x = _Jet(x.val * 1.0001 + 0.5,
                 tuple(a * 0.999 + b for a, b in zip(x.grad, (0.1, 0.2, 0.3))))
        kept.append(x)
        if len(kept) > 20:
            kept = kept[10:]
    {i: x.val for i in range(30)}
    return time.perf_counter() - t0


def run_requests(workload, requests, first_id=1, tracer=None, probe=False):
    """Issue requests in order; return (records, failures).

    A record is (kind, latency in s, units, probe s): with ``probe`` the
    mean of a probe just before and one just after the request, else None.
    """
    records, failures = [], []
    for i, request in enumerate(requests):
        before = probe_seconds() if probe else None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                problems = workload.execute(request)
            else:
                problems = tracer.run_request(first_id + i, workload.execute, request)
        except Exception as exc:  # a request that raises is a failed request
            problems = [f"{type(exc).__name__}: {exc}"]
        latency = time.perf_counter() - t0
        probe_s = (before + probe_seconds()) / 2 if probe else None
        records.append((request.kind, latency, request.units, probe_s))
        if problems:
            failures.append((request.kind, problems))
    return records, failures


def set_up(workloads, name, seed, smoke):
    """Build the workload's inputs and run the warm-up pass."""
    workload = workloads.WORKLOADS[name](seed, workloads.Sizes.for_run(smoke))
    _, failures = run_requests(workload, workload.warmup)
    return workload, failures


def quantile(values, q):
    """Inclusive linear-interpolation quantile, q in (0, 1)."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def median_by_kind(records, latency_of):
    """Median of latency_of(record) per request kind, and units per request."""
    latencies, units = {}, {}
    for record in records:
        latencies.setdefault(record[0], []).append(latency_of(record))
        units[record[0]] = record[2]
    return {k: statistics.median(v) for k, v in latencies.items()}, units


def probe_median(n=5):
    return statistics.median(probe_seconds() for _ in range(n))


def setup_seconds(args):
    """(scaled, unscaled) time since ``args.start``, before the import.

    Scaled like the latencies, by probes taken before the import and now.
    """
    raw = time.perf_counter() - args.start
    probe_s = (args.probe_before + probe_median()) / 2
    return raw * REFERENCE_PROBE_S / probe_s, raw


def child_setup_seconds(args):
    """(scaled, unscaled) set-up times of fresh child processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    out = []
    for _ in range((2 if args.smoke else SETUP_REPEATS) - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up child failed:\n{proc.stderr}")
        out.append(tuple(float(v) for v in proc.stdout.split()[-2:]))
    return out


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance():
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu_model(), "commit": git_commit()}


def emit(result, rows, detail):
    """Human-readable table, a detail line, then the result as the last line."""
    width = max(len(r[0]) for r in rows)
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:>14.6g}  {unit}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))


def measure(args, workloads):
    """Untraced run: the end-to-end metrics."""
    workload, failures = set_up(workloads, args.workload, args.seed, args.smoke)
    setups = [setup_seconds(args)]
    attempted = len(workload.warmup)

    min_requests = 10 if args.smoke else MIN_REQUESTS
    records = []
    begin = time.perf_counter()
    k = 0
    while time.perf_counter() - begin < args.seconds or len(records) < min_requests:
        recs, fails = run_requests(workload, workload.passes[k % len(workload.passes)],
                                   probe=True)
        records += recs
        failures += fails
        k += 1
    attempted += len(records)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups += child_setup_seconds(args)

    # Other tenants of the machine slow this CPU by up to 2x, in phases of
    # seconds to minutes.  Each latency is scaled to the reference CPU speed
    # by the probe around it, then each kind's median is taken; one pass
    # issues every kind once, so those medians give the mix's throughput
    # and latencies.
    median, units = median_by_kind(records, lambda r: r[1] * REFERENCE_PROBE_S / r[3])
    median_ms = sorted(1e3 * v for v in median.values())
    raw, _ = median_by_kind(records, lambda r: r[1])
    all_ms = [1e3 * r[1] for r in records]
    values = {
        "setup_s": statistics.median(scaled for scaled, _ in setups),
        "units_per_s": sum(units.values()) / sum(median.values()),
        "request_p50_ms": quantile(median_ms, 0.50),
        "request_p90_ms": quantile(median_ms, 0.90),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    rows = [(n, values[n], u) for n, u in END_TO_END]
    rows.append(("fail_ratio", len(failures) / attempted, "1"))
    detail = {
        "workload": args.workload, "seed": args.seed, "unit": workload.unit,
        "requests": len(records), "passes": k, "kinds": len(median),
        "units_per_pass": sum(units.values()),
        "median_probe_s": statistics.median(r[3] for r in records),
        "unscaled_units_per_s": sum(units.values()) / sum(raw.values()),
        "all_requests_p50_ms": quantile(all_ms, 0.50),
        "all_requests_p90_ms": quantile(all_ms, 0.90),
        "unscaled_setup_s": [raw for _, raw in setups], "failures": failures[:5],
        "provenance": provenance(),
    }
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    emit(result, rows, detail)


def measure_traced(args, workloads):
    """Traced run: per-layer metrics over TRACE_PASSES passes."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install(extra_modules=[workloads])
    try:
        workload, failures = set_up(workloads, args.workload, args.seed, args.smoke)
        requests = [r for k in range(TRACE_PASSES)
                    for r in workload.passes[k % len(workload.passes)]]
        t0 = time.perf_counter()
        _, fails = run_requests(workload, requests, tracer=tracer)
        traced_wall = time.perf_counter() - t0
        failures += fails
    finally:
        tracer.uninstall()
    t0 = time.perf_counter()
    _, fails = run_requests(workload, requests)
    untraced_wall = time.perf_counter() - t0
    failures += fails
    attempted = len(workload.warmup) + 2 * len(requests)

    values = tracer.layer_metrics(traced_wall / untraced_wall)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz"
    tracer.save(spans_path)
    metrics = {n: {"value": values[n], "unit": u} for n, u, _ in tracing.PER_LAYER}
    rows = [(n, values[n], u) for n, u, _ in tracing.PER_LAYER
            if values[n] or n.startswith("trace.")]
    detail = {
        "workload": args.workload, "seed": args.seed, "requests": len(requests),
        "spans": len(tracer.name), "spans_file": str(spans_path.relative_to(ROOT)),
        "traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall,
        "failures": failures[:5], "provenance": provenance(),
    }
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    emit(result, rows, detail)


def run_all(args):
    """Every workload in its own fresh process; prints each, then a summary."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    summary = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: workload {name} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
        summary.append((name, result["failed"] / result["attempted"]))
    print("== fail_ratio (1): " + ", ".join(f"{n} {r:g}" for n, r in summary))
    print(json.dumps(merged, sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload; omit to run all, one process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny request sizes, for the harness smoke test")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload is None:
        if args.setup_only:
            parser.error("--setup-only needs --workload")
        run_all(args)
        return
    # before numpy is imported: one BLAS/OpenMP thread, like the one caller
    for var in THREAD_VARS:
        os.environ[var] = "1"
    args.probe_before = probe_median()
    args.start = time.perf_counter()
    workloads = import_program()
    if args.setup_only:
        set_up(workloads, args.workload, args.seed, args.smoke)
        print(*setup_seconds(args))
    elif args.trace:
        measure_traced(args, workloads)
    else:
        measure(args, workloads)


if __name__ == "__main__":
    main()
