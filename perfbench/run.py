"""natgrad benchmark: one workload, closed loop, one client, seeded inputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload onedim-fdiv --seed 1 --seconds 20 --trace 0

Ops run back to back in whole passes over the workload's cases, at least
one pass and at most ``--seconds``; each op calls natgrad's public API and
its answer is checked against a reference (see ``workloads.py``).  With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` each op
runs once untraced and once under the tracer, and the per-layer metrics are
printed.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The benchmark
imports natgrad from ``src/`` of the checkout and exits with code 2 when
that is missing.
"""

from __future__ import annotations

import os

# Small matrices only: more BLAS threads add noise, not speed.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up is timed in fresh interpreters, this many per run; the median is
# reported.
SETUP_PROBES = 3
# op_ms_p90 needs at least ten samples beyond it.
P90_MIN_OPS = 100


def _percentile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def _setup_probe_seconds(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports natgrad, builds the
    workload's inputs and references, and exits."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
           "--setup-only"]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=120, check=False)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.decode(errors='replace').strip()}")
    return elapsed


def _environment() -> str:
    import numpy
    import scipy

    return (f"python {sys.version.split()[0]}  numpy {numpy.__version__}  "
            f"scipy {scipy.__version__}  nproc {os.cpu_count()}  "
            f"OPENBLAS_NUM_THREADS {os.environ['OPENBLAS_NUM_THREADS']}")


def _run_case(case):
    """Run one op; returns (seconds, answer, failure reason or None)."""
    start = time.perf_counter()
    try:
        answer = case.run()
    except Exception as exc:  # a failed op is measured, not fatal
        return time.perf_counter() - start, None, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, answer, case.check(answer)


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    from workloads import build

    cases = build(workload, seed)
    setup = [_setup_probe_seconds(workload, seed) for _ in range(SETUP_PROBES)]

    # Whole passes only, so every run of a workload times the same cases; no
    # pass starts that the last one says would end after --seconds.
    times, failures = [], []
    phase_start = time.perf_counter()
    pass_seconds = 0.0
    while not times or time.perf_counter() - phase_start + pass_seconds <= seconds:
        pass_start = time.perf_counter()
        for case in cases:
            elapsed, _, reason = _run_case(case)
            if reason is None:
                times.append(1e3 * elapsed)
            else:
                times.append(float("inf"))
                failures.append((len(times) - 1, case.label, reason))
        pass_seconds = time.perf_counter() - pass_start
    phase = time.perf_counter() - phase_start

    attempted = len(times)
    ok = attempted - len(failures)
    p50 = statistics.median(times)
    p90 = _percentile(times, 90) if attempted >= P90_MIN_OPS else None
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"workload {workload}  seed {seed}  closed loop, 1 client, "
          f"{attempted // len(cases)} passes of {len(cases)} ops in {phase:.3f} s")
    print(_environment())
    print(f"ops attempted {attempted}  failed {len(failures)}  "
          f"failed_share {len(failures) / attempted:.4f} (base {attempted} ops)")
    for k_fail, label, reason in failures[:10]:
        print(f"  failed op {k_fail} [{label}]: {reason}")
    print(f"op_ms_p50 {p50:.3f} ms (n={attempted})")
    if p90 is None:
        print(f"op_ms_p90 omitted: {attempted} ops < {P90_MIN_OPS}, fewer than 10 beyond p90")
    else:
        print(f"op_ms_p90 {p90:.3f} ms (n={attempted})")
    print(f"ops_per_s {ok / phase:.4f} 1/s ({ok} ok ops in {phase:.3f} s)")
    print(f"setup_s {statistics.median(setup):.4f} s (median of {len(setup)} fresh "
          f"interpreters: {', '.join(f'{s:.4f}' for s in setup)})")
    print(f"peak_rss_mb {rss_mb:.3f} MB")

    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_ms_p50": (p50, "ms"),
        "ops_per_s": (ok / phase, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return _result(attempted, len(failures), metrics)


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "natgrad").glob("*.py")))


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    from tracer import LAYERS, Tracer
    from workloads import build

    cases = build(workload, seed)
    n_pass = len(cases)
    tracer = Tracer(keep_ops=n_pass)
    untraced_ms, traced_ms, stats, failures = [], [], [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while k < n_pass or time.perf_counter() < deadline:
        case = cases[k % n_pass]
        elapsed, _, reason = _run_case(case)
        untraced_ms.append(1e3 * elapsed)
        tracer.install()
        try:
            tracer.begin_op()
            elapsed, _, reason_traced = _run_case(case)
            stats.append(tracer.end_op(k))
        finally:
            tracer.uninstall()
        traced_ms.append(1e3 * elapsed)
        if reason is not None or reason_traced is not None:
            failures.append((k, case.label, reason or reason_traced))
        k += 1

    counted = stats[:n_pass]

    def per_op(fn) -> float:
        return sum(fn(s) for s in counted) / len(counted)

    def median_ms(fn) -> float:
        return statistics.median(fn(s) for s in stats)

    def calls(*names):
        return lambda s: sum(s["calls"][n] for n in names)

    quadrature = [n for n in tracer.names if n.startswith("quadrature.")]
    line_search_calls = sum(calls("optimizer.backtracking_line_search")(s) for s in counted)
    line_search_evals = sum(s["line_search_evals"] for s in counted)
    thresholds = [v for s in counted for v in s["counters"]["gp_bench.iters_to_threshold"]]
    metrics = {
        "families.check_point.calls": (per_op(calls("families.check_point")), "count"),
        "families.log_density.calls": (per_op(calls("families.log_density")), "count"),
        "families.score.calls": (per_op(calls("families.score")), "count"),
        "families.quantile.calls": (per_op(calls("families.quantile")), "count"),
        "families.dcdf_dtheta.calls": (per_op(calls("families.dcdf_dtheta")), "count"),
        "families.self_ms": (median_ms(lambda s: s["self_ms"]["families"]), "ms"),
        "quadrature.grids.calls": (per_op(calls(*quadrature)), "count"),
        "similarity.evaluate.calls": (per_op(calls("similarity.evaluate")), "count"),
        "similarity.evaluate.ms": (median_ms(lambda s: s["ms"]["similarity.evaluate"]), "ms"),
        "similarity.grad_theta.calls": (per_op(calls("similarity.grad_theta")), "count"),
        "similarity.grad_theta.ms": (median_ms(lambda s: s["ms"]["similarity.grad_theta"]), "ms"),
        "similarity.self_ms": (median_ms(lambda s: s["self_ms"]["similarity"]), "ms"),
        "numdiff.central_gradient.calls": (per_op(calls("numdiff.central_gradient")), "count"),
        "numdiff.central_hessian.calls": (per_op(calls("numdiff.central_hessian")), "count"),
        "numdiff.ms": (median_ms(lambda s: s["self_ms"]["numdiff"]), "ms"),
        "metric.engine.calls": (per_op(calls("metric.engine")), "count"),
        "metric.engine.ms": (median_ms(lambda s: s["ms"]["metric.engine"]), "ms"),
        "metric.self_ms": (median_ms(lambda s: s["self_ms"]["metric"]), "ms"),
        "metric.fd.calls": (per_op(calls("metric.fd_local_hessian")), "count"),
        "metric.failures": (per_op(lambda s: s["raised"]["metric.engine"]), "count"),
        "optimizer.iters": (per_op(lambda s: s["counters"]["optimizer.iters"]), "count"),
        "optimizer.cost_evals": (per_op(lambda s: s["cost_evals"]), "count"),
        "optimizer.line_search.calls": (line_search_calls / len(counted), "count"),
        "optimizer.line_search.evals_per_call": (
            line_search_evals / line_search_calls if line_search_calls else 0.0, "ratio"),
        "optimizer.fallbacks": (per_op(lambda s: s["counters"]["optimizer.fallbacks"]), "count"),
        "optimizer.spd_project.calls": (per_op(calls("optimizer.spd_project")), "count"),
        "optimizer.spd_project.ms": (median_ms(lambda s: s["ms"]["optimizer.spd_project"]), "ms"),
        "optimizer.spd_project.shifted": (
            per_op(lambda s: s["counters"]["optimizer.spd_project.shifted"]), "count"),
        "optimizer.self_ms": (median_ms(lambda s: s["self_ms"]["optimizer"]), "ms"),
        "gp_bench.iters_to_threshold": (
            statistics.median(thresholds) if thresholds else 0.0, "count"),
        "validation.checks": (per_op(lambda s: s["counters"]["validation.checks"]), "count"),
        "validation.failed": (per_op(lambda s: s["counters"]["validation.failed"]), "count"),
        "trace.overhead_ms": (statistics.median(traced_ms) - statistics.median(untraced_ms), "ms"),
        "src.lines": (_src_lines(), "lines"),
    }

    print(f"workload {workload}  seed {seed}  traced run: {len(stats)} ops, each untraced "
          f"then traced; counts per op over the first pass ({n_pass} ops), times per-op medians")
    print(_environment())
    for k_fail, label, reason in failures[:10]:
        print(f"  failed op {k_fail} [{label}]: {reason}")
    print(f"op_ms_p50 untraced {statistics.median(untraced_ms):.3f} ms, "
          f"traced {statistics.median(traced_ms):.3f} ms (n={len(stats)})")
    print("self time per layer, per-op median (ms):")
    for layer in LAYERS:
        print(f"  {layer:<11} {median_ms(lambda s: s['self_ms'][layer]):10.3f}")
    print("counted ops:")
    for i, s in enumerate(counted):
        top = {n: c for n, c in s["calls"].items() if c}
        print(f"  op {i} [{cases[i].label}] total {sum(s['self_ms'].values()):.1f} ms  "
              f"iters {s['counters']['optimizer.iters']}  cost_evals {s['cost_evals']}  "
              f"calls {json.dumps(top, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.save_spans(out_dir / f"spans_{workload}_seed{seed}.npz")
    return _result(len(stats), len(failures), metrics)


def _result(attempted: int, failed: int, metrics: dict) -> dict:
    # A median over mostly failed ops is +inf, which JSON cannot carry.
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "natgrad" / "__init__.py").is_file():
        print(f"natgrad sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Extreme trial points in line searches overflow exp(); natgrad turns
    # those into errors the optimizer handles, so the warnings are noise.
    warnings.filterwarnings("ignore", category=RuntimeWarning)
    from workloads import WORKLOADS, build

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; valid: {', '.join(WORKLOADS)}")
    if args.setup_only:
        build(args.workload, args.seed)
        return 0
    run = traced_run if args.trace else timed_run
    result = run(args.workload, args.seed, args.seconds)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
