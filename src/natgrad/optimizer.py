"""Natural-gradient descent driven by pluggable metric engines.

Each iteration solves ``H v = -g`` where ``g`` is the cost
gradient and ``H`` is the local Hessian produced by the configured metric
engine at the current iterate (re-evaluated every iteration, with the
negative gradient passed as the direction hint for direction-dependent
metrics).  ``H`` is spectrum-shifted to a damping floor before
factorization, here and nowhere else (no metric engine damps), and an
Armijo backtracking line search scales the step.  The search starts from
a predicted step (Nocedal & Wright 2006, eq. 3.60: twice the last cost
decrease over the current slope, at most 1; 1 on the first iteration)
and backtracks to the minimizer of the quadratic that interpolates the
cost at 0, its slope and the failed trial (§3.5).  A direction that is
not a descent direction is not searched: the run ends
``line_search_stalled`` with the reason ``non_descent``.

``optimize`` never lets numerical failures escape: they terminate the run
with ``status = "numeric_failure"`` on the returned :class:`Trace`, whose
``reason`` names the error.  Termination statuses are checked in the order
numeric_failure, converged_grad, converged_cost, max_iters; a line search
that accepts no step down to the step floor ``ALPHA_FLOOR`` ends the run
with ``line_search_stalled`` on that iteration, which is not convergence.
"""

from __future__ import annotations

import io
import math
import numbers
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import NatgradError, NumericError
from .families import Family
from .metric import MetricEngine, LocalHessian, resolve_metric_engine, spd_project
from .numdiff import central_hessian
from .similarity import Similarity

__all__ = [
    "OptimizerConfig",
    "StepRecord",
    "Trace",
    "Objective",
    "make_objective",
    "natural_gradient_step",
    "newton_step",
    "backtracking_line_search",
    "optimize",
]

TRACE_CSV_HEADER = "iter,cost,grad_norm,step_norm,damping,time_s"
ALPHA_FLOOR = 1e-8
# Armijo sufficient-decrease constant and largest backtracking factor.
ARMIJO_C1 = 1e-4
SHRINK = 0.5


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for :func:`optimize`.

    The step ``-H^-1 g`` is scaled by the Armijo line search alone.
    ``damping=None`` uses the scale-aware default floor.  ``metric=None``
    uses the similarity's own metric, ``Similarity.metric``.  The
    tolerances and the damping must be finite and positive: an infinite
    tolerance would report convergence at any point.  No setting is a bool.
    """

    max_iters: int = 100
    grad_tol: float = 1e-8
    cost_tol: float = 1e-14
    metric: Optional[str] = None
    damping: Optional[float] = None

    def __post_init__(self):
        if (isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral)
                or self.max_iters < 1):
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        settings = {"grad_tol": self.grad_tol, "cost_tol": self.cost_tol}
        if self.damping is not None:
            settings["damping"] = self.damping
        for name, value in settings.items():
            if isinstance(value, bool) or not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class StepRecord:
    """One optimizer iteration: state when entering it, step taken from it.

    ``damping`` is the diagonal shift added to the metric this iteration;
    terminal records have ``step_norm == 0``.  ``fallback`` is always
    False: every step is the line-searched natural-gradient step.
    """

    iter: int
    cost: float
    grad_norm: float
    step_norm: float
    damping: float
    time_s: float
    fallback: bool = False


@dataclass(frozen=True)
class Trace:
    """Full optimization history plus the termination status.

    ``reason`` says why a run ended ``numeric_failure`` (the error's class
    and message) or ``line_search_stalled``; it is empty otherwise.
    """

    records: tuple[StepRecord, ...]
    status: str
    reason: str = ""

    def __post_init__(self):
        valid = (
            "converged_grad", "converged_cost", "max_iters", "numeric_failure",
            "line_search_stalled",
        )
        if self.status not in valid:
            raise ValueError(f"unknown status {self.status!r}")

    @property
    def final_cost(self) -> float:
        return self.records[-1].cost if self.records else float("nan")

    @property
    def iterations(self) -> int:
        return self.records[-1].iter if self.records else 0

    def csv_text(self) -> str:
        out = io.StringIO()
        out.write(TRACE_CSV_HEADER + "\n")
        for r in self.records:
            out.write(
                f"{r.iter},{r.cost!r},{r.grad_norm!r},{r.step_norm!r},{r.damping!r},{r.time_s!r}\n"
            )
        return out.getvalue()

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.csv_text())


@dataclass(frozen=True)
class Objective:
    """A differentiable scalar cost: ``value(theta)`` and ``gradient(theta)``."""

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]


def make_objective(family: Family, sim: Similarity, target) -> Objective:
    """Cost ``theta -> sim(theta, target)`` over one family; the target is
    validated here, once, by ``sim.target``."""
    target = sim.target(family, target)
    return Objective(
        value=lambda theta: sim.evaluate(family, theta, target),
        gradient=lambda theta: sim.grad_theta(family, theta, target),
    )


def _solve_step(hessian: LocalHessian, grad: np.ndarray, damping) -> tuple[np.ndarray, float]:
    """Solve ``H v = -g`` after projecting H to the SPD cone."""
    projected = spd_project(hessian, damping)
    chol, info = dpotrf(projected.matrix, lower=1)
    if info != 0:
        raise NumericError(
            f"metric factorization failed after damping: {info}-th leading minor of the "
            "array is not positive definite"
        )
    v, _ = dpotrs(chol, -grad, lower=1)  # info flags bad arguments only
    if not np.all(np.isfinite(v)):
        raise NumericError("metric solve produced non-finite step")
    return v, projected.regularization_added


def natural_gradient_step(
    objective: Objective,
    metric_engine: MetricEngine,
    theta,
    damping: Optional[float] = None,
) -> tuple[np.ndarray, dict]:
    """Single preconditioned step ``theta - H^-1 g``.

    Returns the new point and a record dict with the gradient norm, step
    norm, and damping added.  A point (``Family.point``) as ``theta`` is
    validated once, for the gradient and the metric both.
    """
    g = np.asarray(objective.gradient(theta), dtype=float)
    H = metric_engine(theta, -g)
    v, added = _solve_step(H, g, damping)
    return np.asarray(theta, dtype=float) + v, {
        "grad_norm": float(np.linalg.norm(g)),
        "step_norm": float(np.linalg.norm(v)),
        "damping": added,
    }


def newton_step(
    objective: Objective,
    theta,
    damping: Optional[float] = None,
) -> tuple[np.ndarray, dict]:
    """Newton step: :func:`natural_gradient_step` whose metric is the full
    finite-difference Hessian of the cost.

    The Hessian is SPD-projected like any other metric, so this is the
    curvature every well-formed metric approaches near a minimum.
    """
    hessian = MetricEngine(
        "newton",
        lambda th, u=None: LocalHessian(central_hessian(objective.value, th), provenance="finite_difference"),
    )
    return natural_gradient_step(objective, hessian, theta, damping)


def backtracking_line_search(
    value: Callable[[np.ndarray], float],
    theta: np.ndarray,
    direction: np.ndarray,
    grad: np.ndarray,
    cost0: float,
    alpha0: float = 1.0,
) -> tuple[float, str]:
    """Armijo backtracking from ``alpha = alpha0``.

    A finite trial that fails the Armijo test is followed by the minimizer
    of the quadratic through ``cost0``, the slope ``grad . direction`` and
    that trial, clamped to ``[0.1 alpha, SHRINK alpha]``; a trial where the
    cost is undefined counts as +inf and is followed by ``SHRINK alpha``.
    A trial is accepted when ``cost <= cost0 + ARMIJO_C1 alpha g.v``.

    Returns ``(alpha, flag)`` where flag is empty on success,
    ``"non_descent"`` if the direction was not a descent direction (alpha
    is the floor), or ``"floor"`` if backtracking hit the floor without
    satisfying the Armijo condition.
    """
    slope = float(grad @ direction)
    if slope >= 0.0:
        return ALPHA_FLOOR, "non_descent"
    alpha = alpha0
    while alpha >= ALPHA_FLOOR:
        try:
            candidate = value(theta + alpha * direction)
        except NatgradError:
            candidate = float("inf")
        if not np.isfinite(candidate):
            alpha *= SHRINK
        elif candidate <= cost0 + ARMIJO_C1 * alpha * slope:
            return alpha, ""
        else:
            # Failing Armijo makes the quadratic's curvature positive.
            curvature = candidate - cost0 - slope * alpha
            alpha = min(max(-0.5 * slope * alpha * alpha / curvature, 0.1 * alpha),
                        SHRINK * alpha)
    return ALPHA_FLOOR, "floor"


def _predicted_alpha(cost: float, prev_cost: Optional[float], slope: float) -> float:
    """First trial step from the last decrease: ``min(1, 1.01 * 2 (f_k -
    f_{k-1}) / g.v)`` (Nocedal & Wright 2006, eq. 3.60), or 1 on the first
    iteration and wherever that is NaN or falls below the floor."""
    if prev_cost is None or slope == 0.0:
        return 1.0
    alpha0 = 2.02 * (cost - prev_cost) / slope
    return min(1.0, alpha0) if alpha0 >= ALPHA_FLOOR else 1.0


def optimize(
    family: Family,
    sim: Similarity,
    theta0,
    target,
    config: OptimizerConfig,
    engine: Optional[MetricEngine] = None,
) -> Trace:
    """Run natural-gradient descent; never raises past the returned Trace.

    Configuration errors (unknown metric, invalid starting point) do raise,
    since no meaningful Trace exists yet; anything numeric after that is
    captured in ``Trace.status`` and ``Trace.reason``.  The metric is
    ``config.metric``, or the similarity's own ``sim.metric`` when that is
    None.  ``engine`` overrides both: the GP benchmark passes its resolved
    engines, and tests inject fakes through it.

    A run holds three points of the family (``Family.point``), each
    validated once and keeping its state: the target (by
    :func:`make_objective`; a likelihood cost's target is its dataset), the
    iterate and the latest line-search trial, which becomes the next
    iterate with its state and its cost when the search accepts it.
    """
    if engine is None:
        metric = sim.metric if config.metric is None else config.metric
        engine = resolve_metric_engine(metric, family)
    objective = make_objective(family, sim, target)
    theta, cost, prev_cost = family.point(theta0), None, None
    records: list[StepRecord] = []
    start = time.perf_counter()

    # (point, cost) of the latest line-search trial, the last one evaluated:
    # when the search accepts a step, it is the accepted one.  A trial outside
    # the domain raises in ``family.point``, which the search reads as +inf.
    trial = None

    def trial_cost(x: np.ndarray) -> float:
        nonlocal trial
        point = family.point(x)
        trial = (point, float(objective.value(point)))
        return trial[1]

    for it in range(config.max_iters + 1):
        status, reason, step, added = "", "", 0.0, 0.0
        try:
            if cost is None:
                cost = float(objective.value(theta))
            g = np.asarray(objective.gradient(theta), dtype=float)
        except NatgradError as exc:
            status, reason = "numeric_failure", _error_reason(exc)
            break
        gn = float(np.linalg.norm(g))
        if not (np.isfinite(cost) and np.all(np.isfinite(g))):
            status, reason = "numeric_failure", "non-finite cost or gradient"
        elif gn < config.grad_tol:
            status = "converged_grad"
        elif prev_cost is not None and abs(prev_cost - cost) < config.cost_tol:
            status = "converged_cost"
        elif it == config.max_iters:
            status = "max_iters"
        else:
            try:
                v, added = _solve_step(engine(theta, -g), g, config.damping)
            except NatgradError as exc:
                status, reason = "numeric_failure", _error_reason(exc)
            else:
                alpha0 = _predicted_alpha(cost, prev_cost, float(g @ v))
                alpha, flag = backtracking_line_search(trial_cost, theta.theta, v, g, cost, alpha0)
                if flag:
                    status = "line_search_stalled"
                    reason = (f"line search ({flag}) accepted no step down to the step floor "
                              f"{ALPHA_FLOOR:g}")
                else:
                    step = float(np.linalg.norm(alpha * v))
        records.append(StepRecord(it, cost, gn, step, float(added), time.perf_counter() - start))
        if status:
            break
        prev_cost = cost
        theta, cost = trial

    return Trace(records=tuple(records), status=status, reason=reason)


def _error_reason(exc: NatgradError) -> str:
    return f"{type(exc).__name__}: {exc}"
