"""Re-check the known defects listed in ``records.json``.

Usage (from the root of a checkout)::

    python3 perfbench/defects.py

Each defect is a wrong or failed answer that the timed workloads keep out
of their inputs, because a benchmark op must not fail.  This script runs
each one and prints whether it still stands, so a fix (or a regression)
shows.  The two GP max-iteration runs take about 40 s each.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import contextlib
import io
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
warnings.filterwarnings("ignore", category=RuntimeWarning)

import numpy as np  # noqa: E402

import natgrad as ng  # noqa: E402
from natgrad.cli import main as cli_main  # noqa: E402
from workloads import VALIDATE_FAILING_SEEDS, gp_local_optima  # noqa: E402


def gp_w2_gate() -> tuple[bool, str]:
    trace = ng.run_benchmark(ng.BenchmarkConfig(seed=2, metrics=("w2",))).traces["w2"]
    return trace.status == "numeric_failure", f"{trace.status} at iteration {trace.iterations}"


def gp_w2_max_iters() -> tuple[bool, str]:
    present, parts = True, []
    for seed in (1, 11):
        result = ng.run_benchmark(ng.BenchmarkConfig(seed=seed, metrics=("w2",)))
        trace = result.traces["w2"]
        gap = trace.final_cost - min(gp_local_optima(result.dataset))
        present &= trace.status == "max_iters" and gap > 1e-6
        parts.append(f"seed {seed}: {trace.status}, NLL {gap:+.2e} above the optimum")
    return present, "; ".join(parts)


def gp_euclidean_stall() -> tuple[bool, str]:
    present, parts = True, []
    for seed, theta0 in ((42, (0.9268, 1.3747, 0.4434)), (2050211610, (0.8088, 1.1913, 0.4019))):
        result = ng.run_benchmark(ng.BenchmarkConfig(seed=seed, theta0=theta0,
                                                     metrics=("euclidean",)))
        trace = result.traces["euclidean"]
        optima = gp_local_optima(result.dataset) + gp_local_optima(result.dataset, [theta0])
        gap = min(abs(trace.final_cost - o) for o in optima)
        present &= gap > 1e-6
        parts.append(f"data {seed}: {trace.status} after {trace.iterations} iterations, "
                     f"NLL {gap:.2f} from the nearest local optimum")
    return present, "; ".join(parts)


def fd_wasserstein_3() -> tuple[bool, str]:
    trace = ng.optimize(ng.Gaussian1D(), ng.get_similarity("wasserstein:3"), [2.0, 3.0],
                        [0.0, 1.0], ng.OptimizerConfig(metric="fd:wasserstein:3"))
    return trace.status == "numeric_failure", f"{trace.status} at iteration {trace.iterations}"


def chi2_stall() -> tuple[bool, str]:
    trace = ng.optimize(ng.Gaussian1D(), ng.get_similarity("chi2"), [0.45037971, 1.03140094],
                        [-0.62462085, 1.35789006], ng.OptimizerConfig(metric="fdiv:chi2"))
    present = trace.status.startswith("converged") and trace.final_cost > 1e-6
    return present, f"{trace.status} at cost {trace.final_cost:.4f} (optimum 0)"


def wp3_max_iters() -> tuple[bool, str]:
    rng = np.random.default_rng(1017)
    theta0 = [rng.uniform(-2, 2), rng.uniform(1, 3)]
    target = [rng.uniform(-1, 1), rng.uniform(0.5, 1.5)]
    trace = ng.optimize(ng.Gaussian1D(), ng.get_similarity("wasserstein:3"), theta0, target,
                        ng.OptimizerConfig(metric="wp_1d:3"))
    return trace.status == "max_iters", f"{trace.status}, final cost {trace.final_cost:.2e}"


def validate_seeds() -> tuple[bool, str]:
    failing = []
    for seed in VALIDATE_FAILING_SEEDS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(["validate", "--seed", str(seed)])
        if code != 0:
            failing.append(seed)
    listed = len(VALIDATE_FAILING_SEEDS)
    return bool(failing), f"{len(failing)}/{listed} listed seeds fail: {failing}"


DEFECTS = {
    "gp_w2_extrapolation_gate": gp_w2_gate,
    "gp_w2_max_iters_above_optimum": gp_w2_max_iters,
    "gp_euclidean_stall_above_optimum": gp_euclidean_stall,
    "fd_wasserstein_3_fails_at_iteration_0": fd_wasserstein_3,
    "chi2_stall_reported_as_converged": chi2_stall,
    "wp_1d_3_hits_max_iters": wp3_max_iters,
    "validate_kl_quadrature_overflow": validate_seeds,
}


def main() -> int:
    for name, check in DEFECTS.items():
        present, observed = check()
        print(f"{name:<40} {'STANDS' if present else 'GONE  '}  {observed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
