"""Self-check suite: every analytic metric route against an independent one.

Each check compares two computations that should agree (closed form vs
finite differences, pullback vs direct, scaled divergence metrics vs their
definitions, a step in ``theta`` vs the chain rule's step in
``xi = A^-1 theta``) and reports the worst deviation against a tolerance.  The
suite is one ordered table of (name, tolerance, deviations) rows on inputs
from one seeded generator; ``natgrad validate`` prints it.

``fisher_scale`` is a fault-injection hook for testing the suite itself:
it multiplies the analytic metrics on both sides of the divergence-scaling
check, so any value other than 1.0 must make that check's comparison with
finite differences fail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .families import CategoricalSoftmax, Gaussian1D
from .metric import (f_div_local_hessian, fd_local_hessian, fisher_information,
                     pullback_fisher_categorical, w2_local_hessian_1d, wp_local_hessian_1d)
from .numdiff import central_hessian
from .optimizer import linear_reparameterization, make_objective, natural_gradient_step
from .quadrature import DEFAULT_TAIL_MASS, composite_legendre
from .similarity import (F_DIVERGENCES, FDivergence, SquaredW2Gaussian, WassersteinP,
                         resolve_metric_engine)

__all__ = ["CheckResult", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check: passes iff ``deviation <= tolerance``."""

    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


def _rel(observed: np.ndarray, expected: np.ndarray) -> float:
    scale = max(1e-30, float(np.max(np.abs(expected))))
    return float(np.max(np.abs(observed - expected))) / scale


def _abs(observed: np.ndarray, expected: np.ndarray) -> float:
    return float(np.max(np.abs(observed - expected)))


def _newton_margin(family: Gaussian1D, kl: FDivergence) -> float:
    """Near a minimum the metric approaches the full cost Hessian linearly.

    Measures E(t) = |Fisher - full Hessian| along a ray toward the optimum
    of a KL cost; the margin is <= 0 when halving t shrinks E by at least
    1.8x over three halvings and E(0.01) is below 2% of the metric norm.
    """
    target = np.array([0.0, 1.0])
    delta = -np.array([1.0, 1.0]) / np.sqrt(2.0)
    objective = make_objective(family, kl, target)

    def deviation(t: float) -> float:
        theta = family.point(target + t * delta)
        full = central_hessian(objective.gradient, theta)
        return float(np.linalg.norm(fisher_information(family, theta).matrix - full))

    # Each t once: E(0.2), E(0.1), E(0.05), E(0.025), then E(0.01).
    halvings = [deviation(t) for t in (0.2, 0.1, 0.05, 0.025)]
    ratios = [wide / narrow for wide, narrow in zip(halvings, halvings[1:])]
    norm_h = float(np.linalg.norm(fisher_information(family, target + 0.01 * delta).matrix))
    return max(1.8 - min(ratios), deviation(0.01) / norm_h - 0.02)


def _kl_on_quantile_windows(family: Gaussian1D, a, b) -> float:
    """``KL(a || b)`` summed as ``p (log p - log q)`` by composite
    Gauss-Legendre over the union of the points' quantile windows
    ``[quantile(delta), quantile(1 - delta)]``, ``delta = DEFAULT_TAIL_MASS``:
    a route independent of the closed form."""
    levels = (DEFAULT_TAIL_MASS, 1.0 - DEFAULT_TAIL_MASS)
    ends = np.array([family.quantile(p, levels) for p in (a, b)])
    nodes, weights = composite_legendre(ends[:, 0].min(), ends[:, 1].max())
    logp, logq = (family.log_density(p, nodes) for p in (a, b))
    return float(weights @ (np.exp(logp) * (logp - logq)))


def _reparam_deviations(rng: np.random.Generator, base, kl) -> list[float]:
    """``|step_xi - A^-1 step_theta|`` of one KL natural-gradient step in
    ``theta`` and, through :func:`linear_reparameterization`, in
    ``xi = A^-1 theta``, for up to 20 random ``A``."""
    deviations, base_fisher = [], resolve_metric_engine("fisher", base)
    for _ in range(20):
        A = np.eye(2) + 0.3 * rng.uniform(-1.0, 1.0, (2, 2))
        if abs(np.linalg.det(A)) < 0.3:
            continue
        theta = np.array([rng.uniform(-1.5, 1.5), rng.uniform(0.6, 2.0)])
        objective = make_objective(base, kl, [rng.uniform(-1.5, 1.5), rng.uniform(0.6, 2.0)])
        xi = np.linalg.solve(A, theta)
        next_theta, _ = natural_gradient_step(objective, base_fisher, base.point(theta))
        next_xi, _ = natural_gradient_step(*linear_reparameterization(objective, base_fisher, A),
                                           xi)
        deviations.append(_abs(next_xi - xi, np.linalg.solve(A, next_theta - theta)))
    return deviations


def run_checks(seed: int = 0, fisher_scale: float = 1.0) -> list[CheckResult]:
    """Run the full suite; deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    gauss, cat, kl = Gaussian1D(), CategoricalSoftmax(3), FDivergence(F_DIVERGENCES["kl"])

    def gaussians(count):
        mu, sigma = rng.uniform(-2.0, 2.0, count), rng.uniform(0.4, 2.5, count)
        return [gauss.point(t) for t in np.column_stack([mu, sigma])]

    def pairs(count):
        return [(gaussians(1)[0], gaussians(1)[0]) for _ in range(count)]

    def logits(count):
        return [cat.point(rng.normal(0.0, 1.0, 3)) for _ in range(count)]

    def wp(theta, p, u):
        return wp_local_hessian_1d(gauss, theta, p, u).matrix

    fisher_rao, fixed = resolve_metric_engine("fd:fisher_rao2", cat), gauss.point([0.3, 1.4])
    # Each row's deviations are built here, in row order: the order in which
    # the rows draw from ``rng`` is part of what a seed means.
    rows = [
        ("fisher_vs_fd_kl_gaussian1d", 1e-4, [
            _rel(fd_local_hessian(kl, gauss, t).matrix, fisher_information(gauss, t).matrix)
            for t in gaussians(20)
        ]),
        ("fdiv_scaling_vs_fd", 1e-4, [
            dev
            for spec in (F_DIVERGENCES["chi2"], F_DIVERGENCES["hellinger2"])
            for t in gaussians(3)
            for analytic in [fisher_scale * f_div_local_hessian(spec, gauss, t).matrix]
            for dev in (
                _abs(analytic, spec.f_second_at_one * fisher_scale
                     * fisher_information(gauss, t).matrix),
                _rel(analytic, fd_local_hessian(FDivergence(spec), gauss, t).matrix),
            )
        ]),
        ("pullback_consistency_categorical", 1e-12, [
            _abs(pullback_fisher_categorical(cat, t).matrix, cat.fisher(t)) for t in logits(5)
        ]),
        ("fisher_rao_hessian_vs_fisher", 1e-4, [
            _rel(fisher_rao(t).matrix, fisher_information(cat, t).matrix) for t in logits(10)
        ]),
        ("w2_metric_identity_gaussian1d", 1e-4, [
            _abs(analytic, expected)
            for t in gaussians(5)
            for analytic in [w2_local_hessian_1d(gauss, t).matrix]
            for expected in (np.eye(2), fd_local_hessian(WassersteinP(2.0), gauss, t).matrix)
        ]),
        ("finsler_scale_invariance", 1e-15, [
            _abs(wp(fixed, 3.0, u), wp(fixed, 3.0, 2.0 * u)) for u in [rng.normal(0.0, 1.0, 2)]
        ]),
        ("finsler_p2_matches_w2", 1e-12, [
            _abs(wp(t, 2.0, u), w2_local_hessian_1d(gauss, t).matrix)
            for t in gaussians(5) for u in [rng.normal(0.0, 1.0, 2)]
        ]),
        ("finsler_p3_vs_fd", 5e-3, [
            _rel(fd_local_hessian(WassersteinP(3.0), gauss, t, u).matrix, wp(t, 3.0, u))
            for t in gaussians(3) for u in [rng.normal(0.0, 1.0, 2)]
        ]),
        ("newton_limit_decay", 0.0, [_newton_margin(gauss, kl)]),
        ("reparam_equivariance", 1e-8, _reparam_deviations(rng, gauss, kl)),
        ("kl_quadrature_vs_closed_form", 1e-8, [
            abs(_kl_on_quantile_windows(gauss, a, b) - kl.evaluate(gauss, a, b))
            for a, b in pairs(5)
        ]),
        ("w2_gaussian_vs_quantile_quadrature", 1e-8, [
            2.0 * abs(SquaredW2Gaussian().evaluate(gauss, a, b)
                      - WassersteinP(2.0).evaluate(gauss, a, b))
            for a, b in pairs(5)
        ]),
    ]
    # np.max, unlike max, keeps a NaN deviation wherever it stands, so the check fails.
    return [CheckResult(name, float(np.max(devs)) if devs else 0.0, tol)
            for name, tol, devs in rows]
