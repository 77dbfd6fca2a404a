"""Gaussian-process hyperparameter benchmark.

Maximizes the prior marginal likelihood of a GP with an
exponentiated-quadratic kernel plus observation noise, in log-parameters
``(log amplitude, log length-scale, log noise)``, and compares how fast
different metrics drive natural-gradient descent to a near-optimal negative
log-likelihood.  The same seeded dataset and starting point are used for
every metric; per-metric failures are isolated in their own Trace.

The ``w2`` run uses the closed-form Bures-Wasserstein metric;
:func:`gp_w2_metric` is its finite-difference oracle.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .families import Dataset, GpPriorEq, eq_covariance, resolve_id
from .metric import LocalHessian, fd_local_hessian, fisher_information, resolve_metric_engine
from .optimizer import OptimizerConfig, Trace, optimize
from .similarity import Similarity, SquaredW2Gaussian

__all__ = [
    "eq_kernel",
    "gp_nll",
    "gp_nll_grad",
    "gp_fisher_metric",
    "gp_w2_metric",
    "generate_data",
    "GpNllCost",
    "BenchmarkConfig",
    "BenchmarkResult",
    "run_benchmark",
    "BENCHMARK_METRIC_IDS",
    "SUMMARY_CSV_HEADER",
]

SUMMARY_CSV_HEADER = "metric,iters_to_threshold,final_cost,status"
# Each benchmark metric's engine builder ``build(family)``.
BENCHMARK_METRICS = {
    "euclidean": partial(resolve_metric_engine, "euclidean"),
    "fisher": partial(resolve_metric_engine, "fisher"),
    "w2": partial(resolve_metric_engine, "w2_gaussian"),
}
BENCHMARK_METRIC_IDS = list(BENCHMARK_METRICS)

DEFAULT_TRUE_THETA = (0.0, 0.0, -1.5)
DEFAULT_THETA0 = (1.0, 1.2, 0.3)


def eq_kernel(inputs, log_amp: float, log_ls: float) -> np.ndarray:
    """Exponentiated-quadratic kernel matrix over a 1-D input grid."""
    return eq_covariance(inputs, log_amp, log_ls)


def gp_nll(theta, dataset: Dataset) -> float:
    """Negative log marginal likelihood of the targets under the GP prior."""
    family = GpPriorEq(dataset.inputs)
    return -family.log_density(theta, dataset.targets)


def gp_nll_grad(theta, dataset: Dataset) -> np.ndarray:
    """Gradient of :func:`gp_nll` via the trace identity
    ``d nll / d theta_i = 1/2 tr((K^-1 - a a^T) dK_i)`` with ``a = K^-1 y``."""
    family = GpPriorEq(dataset.inputs)
    return -family.score(theta, dataset.targets)


def gp_fisher_metric(theta, inputs) -> LocalHessian:
    """Fisher information of the GP prior: ``1/2 tr(K^-1 dK_i K^-1 dK_j)``."""
    return fisher_information(GpPriorEq(inputs), theta)


def gp_w2_metric(theta, inputs, u=None) -> LocalHessian:
    """Local Hessian of half the squared 2-Wasserstein distance between
    GP priors, by finite differences of the Gaussian closed form: the
    oracle for :func:`natgrad.metric.w2_local_hessian_gaussian`."""
    return fd_local_hessian(SquaredW2Gaussian(), GpPriorEq(inputs), theta, u)


def _check_size(m) -> None:
    if not isinstance(m, numbers.Integral) or m < 2:
        raise ValueError(f"m must be an integer >= 2, got {m!r}")


def _check_seed(seed) -> None:
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")


def generate_data(seed: int = 42, m: int = 30, true_theta=DEFAULT_TRUE_THETA) -> Dataset:
    """Equispaced inputs on [-3, 3] and one seeded draw from the GP prior."""
    _check_size(m)
    _check_seed(seed)
    inputs = np.linspace(-3.0, 3.0, m)
    family = GpPriorEq(inputs)
    targets = family.sample(true_theta, seed, 1)[0]
    return Dataset(inputs=inputs, targets=targets, seed=int(seed))


class GpNllCost(Similarity):
    """Likelihood cost over a fixed dataset; the only dataset-target cost."""

    name = "gp_nll"
    # The expected Hessian of a negative log-likelihood is the Fisher matrix.
    metric = "fisher"

    def target(self, family, target) -> Dataset:
        if not isinstance(target, Dataset):
            raise TypeError("gp_nll requires a Dataset target")
        # A family built on the dataset's read-only inputs holds that array.
        if not isinstance(family, GpPriorEq) or not (
                family.inputs is target.inputs or np.array_equal(family.inputs, target.inputs)):
            raise TypeError("gp_nll requires a gp_prior_eq family built on the dataset inputs")
        return target

    def _cost(self, family, theta, dataset, grad):
        if grad:
            return -family.score(theta, dataset.targets)
        return -family.log_density(theta, dataset.targets)


@dataclass(frozen=True)
class BenchmarkConfig:
    """Benchmark settings; defaults reproduce the shipped comparison.

    The threshold is the negative log-likelihood at ``true_theta`` plus
    ``threshold_offset`` nats, a finite number (not a bool).
    """

    m: int = 30
    seed: int = 42
    true_theta: tuple[float, ...] = DEFAULT_TRUE_THETA
    theta0: tuple[float, ...] = DEFAULT_THETA0
    metrics: tuple[str, ...] = tuple(BENCHMARK_METRIC_IDS)
    optimizer: OptimizerConfig = field(
        default_factory=lambda: OptimizerConfig(max_iters=2000, grad_tol=1e-6)
    )
    threshold_offset: float = 0.5

    def __post_init__(self):
        _check_size(self.m)
        _check_seed(self.seed)
        if len(self.metrics) == 0:
            raise ValueError("metrics must be non-empty")
        if isinstance(self.threshold_offset, bool) or not math.isfinite(self.threshold_offset):
            raise ValueError(f"threshold_offset must be finite, got {self.threshold_offset!r}")


@dataclass(frozen=True)
class BenchmarkResult:
    dataset: Dataset
    threshold: float
    traces: dict[str, Trace]

    def iters_to_threshold(self, metric: str) -> int:
        """First iteration whose cost is at or below the threshold, -1 if
        the run never got there."""
        for record in self.traces[metric].records:
            if record.cost <= self.threshold:
                return record.iter
        return -1

    def summary_rows(self) -> list[tuple[str, int, float, str]]:
        return [
            (m, self.iters_to_threshold(m), t.final_cost, t.status)
            for m, t in self.traces.items()
        ]

    def summary_csv(self) -> str:
        lines = [SUMMARY_CSV_HEADER]
        for metric, iters, cost, status in self.summary_rows():
            lines.append(f"{metric},{iters},{cost!r},{status}")
        return "\n".join(lines) + "\n"


def run_benchmark(config: BenchmarkConfig = BenchmarkConfig()) -> BenchmarkResult:
    """Run every configured metric from the same start on the same data."""
    dataset = generate_data(config.seed, config.m, config.true_theta)
    family = GpPriorEq(dataset.inputs)
    engines = {metric: resolve_id(metric, BENCHMARK_METRICS, "benchmark metric", "metrics", family)
               for metric in config.metrics}
    threshold = gp_nll(np.asarray(config.true_theta, dtype=float), dataset) + config.threshold_offset
    cost = GpNllCost()
    traces = {}
    for metric, engine in engines.items():
        traces[metric] = optimize(
            family, cost, np.asarray(config.theta0, dtype=float), dataset,
            config.optimizer, engine=engine,
        )
    return BenchmarkResult(dataset=dataset, threshold=float(threshold), traces=traces)
