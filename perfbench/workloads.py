"""The benchmark's workloads: seeded inputs, one library call per op, checks.

:func:`build` turns ``(name, seed)`` into one pass of :class:`Case` objects,
with all set-up (datasets, start points, reference answers) done.
Running a case calls natgrad's public API and returns the answer;
``Case.check`` compares that answer with a reference computed without the
optimizer under test.

The seed orders each pass and picks the validate batteries.  Start points,
targets and GP datasets are fixed (start points and targets from a Latin
hypercube design over fixed ranges), the same for every seed: moving the
start of a 1-D transport run by 0.1 % of its range can change its
iteration count from 15 to 26, so seeded inputs would give every run a
different amount of work.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.optimize

import natgrad as ng
from natgrad.gp_bench import DEFAULT_THETA0, DEFAULT_TRUE_THETA

WORKLOADS = ("gp-w2", "onedim-fdiv", "onedim-transport", "closed-form", "validate")

# An answer to a point-target problem is right when its final cost is at
# most this (the optimum is 0).  A GP answer solved to convergence is right
# when its final NLL is within this of a local optimum found by L-BFGS-B.
POINT_TARGET_COST_TOL = 1e-6
GP_NLL_TOL = 1e-6
# Fixed iteration budget of a gp-w2 op.  Solving to convergence takes
# 10-42 s per dataset with the finite-difference W2 metric, too long to
# repeat within one run.
GP_W2_ITERS = 20
GP_M = 30
# generate_data seeds of the gp-w2 datasets; 42 is the paper's.  Fixed, not
# drawn from the workload seed: a 20-iteration W2 descent takes from 315 to
# 410 ms depending on the dataset, so drawn datasets would add their own
# spread to a run's median.
GP_W2_DATASETS = (42, 43, 44, 45)

# Ranges of the 1-D Gaussian problems: start (mu, sigma), target (mu, sigma).
# Start sigmas below 1.5 with targets wider than 1.0 let chi2 descent leave
# the quadrature window and stop at cost ~1 (see records.json, known defects).
ONEDIM_RANGES = ((-2.0, 2.0), (1.5, 3.0), (-1.0, 1.0), (0.5, 1.0))
# The README's quick-start problem, theta0 (2, 3) to target (0, 1), is the
# first point of both 1-D workloads, so their traces can be compared with
# the counts quoted in ROADMAP.md.
README_POINT = (2.0, 3.0, 0.0, 1.0)
GP_THETA0_SPREAD = 0.2

# `natgrad validate --seed s` fails for these s in [0, 256) at the commit the
# benchmark was defined on (kl quadrature overflows at far-apart random
# points; see records.json).  The validate workload draws from the rest.
VALIDATE_SEED_RANGE = 256
VALIDATE_FAILING_SEEDS = (3, 22, 39, 74, 94, 111, 127, 134, 179, 206, 235, 240)


@dataclass(frozen=True)
class Case:
    """One op: ``run()`` makes the library call(s), ``check(answer)``
    returns ``None`` when the answer is right, else the reason it is not."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(name), int(seed)])


def design(n: int, ranges) -> np.ndarray:
    """``n`` points of a fixed Latin hypercube over ``ranges``: one point in
    each of ``n`` equal strata of every range."""
    fixed = np.random.default_rng(n)
    lo, hi = np.array(ranges, dtype=float).T
    strata = np.argsort(fixed.uniform(size=(len(ranges), n)), axis=1).T
    return lo + (hi - lo) * (strata + fixed.uniform(size=(n, len(ranges)))) / n


# -- answers and checks -----------------------------------------------------------


def _trace_summary(trace: ng.Trace) -> tuple:
    """Everything a run decided, bit for bit, except wall times."""
    rows = tuple((r.iter, r.cost, r.grad_norm, r.step_norm, r.damping, r.fallback)
                 for r in trace.records)
    return trace.status, rows


def summarize(answer) -> object:
    """Comparable form of an answer (used by the tracer transparency test)."""
    if isinstance(answer, ng.Trace):
        return _trace_summary(answer)
    if isinstance(answer, ng.BenchmarkResult):
        return {m: _trace_summary(t) for m, t in answer.traces.items()}
    if isinstance(answer, (list, tuple)):
        return [summarize(a) for a in answer]
    return answer


def _check_point_target(trace: ng.Trace) -> "str | None":
    if trace.status == "numeric_failure":
        return "numeric_failure"
    if not trace.final_cost <= POINT_TARGET_COST_TOL:
        return f"final cost {trace.final_cost:.3e} > {POINT_TARGET_COST_TOL:g} ({trace.status})"
    return None


def _independent_nll(dataset: ng.Dataset, theta) -> float:
    """GP negative log-likelihood written out from the model definition."""
    log_amp, log_ls, log_noise = theta
    x = dataset.inputs
    K = np.exp(2 * log_amp) * np.exp(-0.5 * (x[:, None] - x[None, :]) ** 2 / np.exp(2 * log_ls))
    K += np.exp(2 * log_noise) * np.eye(x.size)
    L = np.linalg.cholesky(K)
    w = np.linalg.solve(L, dataset.targets)
    return float(0.5 * w @ w + np.sum(np.log(np.diag(L))) + 0.5 * x.size * np.log(2 * np.pi))


def gp_local_optima(dataset: ng.Dataset,
                    starts=(DEFAULT_THETA0, DEFAULT_TRUE_THETA)) -> list[float]:
    """NLL at the local optima L-BFGS-B reaches from each of ``starts`` (by
    default the default start and the true parameters).  The GP likelihood
    can have several; a descent method is right when it ends at one of
    them.  The search is boxed to log-parameters in [-8, 8], where the
    kernel matrix stays finite."""
    family = ng.GpPriorEq(dataset.inputs)
    cost = ng.GpNllCost()
    optima = []
    for x0 in starts:
        res = scipy.optimize.minimize(
            lambda th: cost.evaluate(family, th, dataset), np.asarray(x0, dtype=float),
            jac=lambda th: cost.grad_theta(family, th, dataset), method="L-BFGS-B",
            bounds=[(-8.0, 8.0)] * 3, options={"ftol": 1e-15, "gtol": 1e-10, "maxiter": 5000},
        )
        optima.append(float(res.fun))
    return optima


def _check_gp_converged(trace: ng.Trace, optima: list[float]) -> "str | None":
    if trace.status == "numeric_failure":
        return "numeric_failure"
    gap = min(abs(trace.final_cost - o) for o in optima)
    if not gap <= GP_NLL_TOL:
        return f"final NLL {gap:.3e} from the nearest L-BFGS-B optimum ({trace.status})"
    return None


def _check_gp_budget(trace: ng.Trace, optima: list[float], nll0: float) -> "str | None":
    """A fixed-budget W2 descent: started where asked, went downhill, never
    below the optimum, and used its whole budget unless it converged."""
    if trace.status == "numeric_failure":
        return f"numeric_failure at iteration {trace.iterations}"
    costs = np.array([r.cost for r in trace.records])
    if not abs(costs[0] - nll0) <= 1e-9 * max(1.0, abs(nll0)):
        return f"initial NLL {costs[0]!r} differs from the model's {nll0!r}"
    if np.any(np.diff(costs) > 0.0):
        return "NLL increased between iterations"
    if not costs[-1] < costs[0]:
        return "no progress"
    if costs[-1] < min(optima) - GP_NLL_TOL:
        return f"final NLL {costs[-1]!r} below the best L-BFGS-B optimum {min(optima)!r}"
    if trace.status == "max_iters":
        if trace.iterations != GP_W2_ITERS:
            return f"stopped at iteration {trace.iterations} of {GP_W2_ITERS}"
        return None
    return _check_gp_converged(trace, optima)


def _all(checks) -> "str | None":
    reasons = [r for r in checks if r is not None]
    return "; ".join(reasons) if reasons else None


# -- workloads ----------------------------------------------------------------------


def _gp_starts(count: int) -> np.ndarray:
    return np.asarray(DEFAULT_THETA0) + design(count, [(-GP_THETA0_SPREAD, GP_THETA0_SPREAD)] * 3)


def _in_seeded_order(name: str, seed: int, cases: list[Case]) -> tuple[Case, ...]:
    return tuple(cases[i] for i in _rng(name, seed).permutation(len(cases)))


def _gp_w2(seed: int) -> tuple[Case, ...]:
    seeds = GP_W2_DATASETS
    datasets = [ng.generate_data(s, GP_M) for s in seeds]
    base_optima = [gp_local_optima(d) for d in datasets]
    starts = _gp_starts(8)
    budget = ng.OptimizerConfig(max_iters=GP_W2_ITERS, grad_tol=1e-6)

    def case(d: int, theta0: np.ndarray) -> Case:
        config = ng.BenchmarkConfig(
            m=GP_M, seed=seeds[d], theta0=tuple(theta0), metrics=("w2",), optimizer=budget
        )
        nll0 = _independent_nll(datasets[d], theta0)
        optima = base_optima[d] + gp_local_optima(datasets[d], [theta0])
        return Case(
            f"gp w2 data={seeds[d]} theta0={np.round(theta0, 3).tolist()}",
            lambda: ng.run_benchmark(config),
            lambda r: _check_gp_budget(r.traces["w2"], optima, nll0),
        )

    cases = [case(i % len(datasets), theta0) for i, theta0 in enumerate(starts)]
    return _in_seeded_order("gp-w2", seed, cases)


def _onedim(name: str, runs: tuple[tuple[str, str], ...], n_points: int,
            seed: int) -> tuple[Case, ...]:
    family = ng.Gaussian1D()

    def case(p: np.ndarray, sim_id: str, metric: str) -> Case:
        sim, config = ng.get_similarity(sim_id), ng.OptimizerConfig(metric=metric)
        return Case(
            f"gaussian1d {sim_id}/{metric} {np.round(p, 3).tolist()}",
            lambda: ng.optimize(family, sim, p[:2], p[2:], config),
            _check_point_target,
        )

    points = np.vstack([README_POINT, design(n_points - 1, ONEDIM_RANGES)])
    cases = [case(p, s, m) for p in points for s, m in runs]
    return _in_seeded_order(name, seed, cases)


def _closed_form(seed: int) -> tuple[Case, ...]:
    n_rounds = 16
    problems = [
        ("gaussian1d", "kl", "fisher", ONEDIM_RANGES),
        ("gaussian1d", "reverse_kl", "fdiv:reverse_kl", ONEDIM_RANGES),
        ("mvn_lcholesky:2", "kl", "fisher", [(-1.0, 1.0)] * 10),
        ("mvn_lcholesky:3", "kl", "fisher", [(-1.0, 1.0)] * 18),
        ("categorical_softmax:5", "fisher_rao2", "pullback", [(-1.0, 1.0)] * 10),
        ("categorical_softmax:5", "chi2", "fisher", [(-1.0, 1.0)] * 10),
    ]
    resolved = [
        (ng.get_family(f), ng.get_similarity(s), ng.OptimizerConfig(metric=m), design(n_rounds, r))
        for f, s, m, r in problems
    ]
    # The paper's GP comparison as shipped: dataset seed 42, default start.
    # Other starts let the euclidean run stall above the optimum (see
    # records.json, known defects).
    gp_metrics = ("fisher", "euclidean")
    gp_config = ng.BenchmarkConfig(m=GP_M, metrics=gp_metrics)
    gp_optima = gp_local_optima(ng.generate_data(gp_config.seed, GP_M))

    def case(c: int) -> Case:
        def run():
            traces = []
            for family, sim, opt, points in resolved:
                half = family.param_dim
                traces.append(ng.optimize(family, sim, points[c][:half], points[c][half:], opt))
            return traces, ng.run_benchmark(gp_config)

        def check(answer):
            traces, gp = answer
            return _all([_check_point_target(t) for t in traces]
                        + [_check_gp_converged(gp.traces[m], gp_optima) for m in gp_metrics])

        return Case(f"closed-form round {c}", run, check)

    cases = [case(c) for c in range(n_rounds)]
    return _in_seeded_order("closed-form", seed, cases)


def _validate(seed: int) -> tuple[Case, ...]:
    from natgrad.cli import main

    rng = _rng("validate", seed)
    pool = [s for s in range(VALIDATE_SEED_RANGE) if s not in VALIDATE_FAILING_SEEDS]

    def case(battery: int) -> Case:
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["validate", "--seed", str(battery)])
            return code, out.getvalue(), err.getvalue()

        def check(answer):
            code, out, err = answer
            lines = out.splitlines()
            rows = lines[:-1]
            if code != 0:
                return f"exit code {code}: {err.strip() or (lines[-1] if lines else '')}"
            if not rows or any(not r.endswith("PASS") for r in rows):
                return "a check did not pass"
            if lines[-1] != f"{len(rows)}/{len(rows)} checks passed":
                return f"unexpected summary {lines[-1]!r}"
            return None

        return Case(f"validate --seed {battery}", run, check)

    return tuple(case(int(b)) for b in rng.choice(pool, 6, replace=False))


def build(name: str, seed: int) -> tuple[Case, ...]:
    """Set up a workload: one pass of its cases, references computed."""
    if name == "gp-w2":
        return _gp_w2(seed)
    if name == "onedim-fdiv":
        return _onedim(name, (("chi2", "fdiv:chi2"), ("hellinger2", "fdiv:hellinger2")), 10, seed)
    if name == "onedim-transport":
        return _onedim(name, (("wasserstein:2", "w2_1d"), ("wasserstein:3", "wp_1d:3")), 4, seed)
    if name == "closed-form":
        return _closed_form(seed)
    if name == "validate":
        return _validate(seed)
    raise ValueError(f"unknown workload {name!r}; valid: {', '.join(WORKLOADS)}")
