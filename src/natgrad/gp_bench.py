"""Gaussian-process hyperparameter benchmark.

Maximizes the prior marginal likelihood of a GP with an
exponentiated-quadratic kernel plus observation noise, in log-parameters
``(log amplitude, log length-scale, log noise)``, and compares how fast
different metrics drive natural-gradient descent to a near-optimal negative
log-likelihood.  The same seeded dataset and starting point are used for
every metric; per-metric failures are isolated in their own Trace.

A benchmark metric is any metric id; the shipped ``euclidean``, ``fisher``
and ``w2`` name the own metrics of ``sq_euclidean``, ``kl`` and
``w2_gaussian`` (closed-form Bures-Wasserstein; :func:`gp_w2_metric` is its
finite-difference oracle).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, NatgradError
from .families import Dataset, GpPriorEq, check_setting, eq_covariance
from .metric import LocalHessian, fd_local_hessian, fisher_information
from .optimizer import OptimizerConfig, Trace, optimize, refusal
from .similarity import Similarity, SquaredW2Gaussian, resolve_metric_engine

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
    "SUMMARY_CSV_HEADER",
]

SUMMARY_CSV_HEADER = "metric,iters_to_threshold,final_cost,status"

DEFAULT_TRUE_THETA = (0.0, 0.0, -1.5)
DEFAULT_THETA0 = (1.0, 1.2, 0.3)
# The threshold is this many nats above the NLL at DEFAULT_TRUE_THETA.
THRESHOLD_OFFSET = 0.5


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
    GP priors, by central differences of the closed-form gradient of the
    Gaussian cost: the oracle for :func:`natgrad.metric.w2_local_hessian_gaussian`."""
    return fd_local_hessian(SquaredW2Gaussian(), GpPriorEq(inputs), theta, u)


def generate_data(seed: int = 42, m: int = 30) -> Dataset:
    """Equispaced inputs on [-3, 3] and one seeded draw from the GP prior
    at ``DEFAULT_TRUE_THETA``."""
    check_setting("m", m, least=2)
    check_setting("seed", seed, least=0)
    inputs = np.linspace(-3.0, 3.0, m)
    family = GpPriorEq(inputs)
    targets = family.sample(DEFAULT_TRUE_THETA, seed, 1)[0]
    return Dataset(inputs=inputs, targets=targets, seed=int(seed))


class GpNllCost(Similarity):
    """Likelihood cost over a fixed dataset; the only dataset-target cost."""

    name = "gp_nll"

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

    def local_hessian(self, family, theta, u=None):
        """The expected Hessian of a negative log-likelihood: the Fisher matrix."""
        return fisher_information(family, theta)


@dataclass(frozen=True)
class BenchmarkConfig:
    """Benchmark settings; defaults reproduce the shipped comparison.

    ``m`` is an integer of at least 2, ``seed`` one of at least 0, ``theta0``
    three finite numbers and ``metrics`` a non-empty sequence of metric
    ids (not a string), each resolved by ``resolve_metric_engine``.  The
    data are drawn at ``DEFAULT_TRUE_THETA``; the threshold is the negative
    log-likelihood there plus ``THRESHOLD_OFFSET`` nats.
    """

    m: int = 30
    seed: int = 42
    theta0: tuple[float, ...] = DEFAULT_THETA0
    metrics: tuple[str, ...] = ("euclidean", "fisher", "w2")
    optimizer: OptimizerConfig = field(
        default_factory=lambda: OptimizerConfig(max_iters=2000, grad_tol=1e-6)
    )

    def __post_init__(self):
        check_setting("m", self.m, least=2)
        check_setting("seed", self.seed, least=0)
        theta0 = np.asarray(self.theta0, dtype=object)
        if theta0.shape != (3,) or not all(
                isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
                for v in theta0):
            raise ValueError(f"theta0 must be three finite numbers, got {self.theta0!r}")
        if isinstance(self.metrics, str) or len(self.metrics) == 0:
            raise ValueError(f"metrics must be a non-empty sequence of ids, got {self.metrics!r}")


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
    """Run every configured metric from one start point on the same data.
    Before the first run each engine but the first (whose own run refuses at
    its first metric call) is tried at the start: a :class:`CapabilityError` raises
    :func:`optimize`'s :class:`ConfigError`; a numeric error waits for its run."""
    dataset = generate_data(config.seed, config.m)
    family = GpPriorEq(dataset.inputs)
    engines = {metric: resolve_metric_engine(metric, family) for metric in config.metrics}
    theta0, cost = family.point(config.theta0), GpNllCost()
    for engine in list(engines.values())[1:]:
        try:
            engine(theta0, np.ones(family.param_dim))
        except CapabilityError as exc:
            raise refusal(cost, engine, family, exc) from exc
        except NatgradError:
            pass
    threshold = gp_nll(np.asarray(DEFAULT_TRUE_THETA, dtype=float), dataset) + THRESHOLD_OFFSET
    traces = {metric: optimize(family, cost, theta0, dataset, config.optimizer, engine=engine)
              for metric, engine in engines.items()}
    return BenchmarkResult(dataset=dataset, threshold=float(threshold), traces=traces)
