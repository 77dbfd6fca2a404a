"""Self-check suite: every analytic metric route against an independent one.

Each check compares two computations that should agree (closed form vs
finite differences, pullback vs direct, scaled divergence metrics vs their
definitions) and reports the worst deviation against a tolerance.  The
suite is what ``natgrad validate`` runs; it returns plain results rather
than raising so the CLI can print a table.

``fisher_scale`` is a fault-injection hook for testing the suite itself:
it multiplies the analytic Fisher matrix used on the closed-form side of
the divergence-scaling check, so any value other than 1.0 must make that
check fail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .families import CategoricalSoftmax, Gaussian1D, LinearlyReparameterized
from .metric import (
    f_div_local_hessian,
    fd_local_hessian,
    fisher_information,
    pullback_fisher_categorical,
    resolve_metric_engine,
    w2_local_hessian_1d,
    wp_local_hessian_1d,
)
from .numdiff import central_hessian
from .optimizer import make_objective, natural_gradient_step
from .similarity import (
    F_DIVERGENCES,
    FDivergence,
    WassersteinP,
    f_divergence,
    squared_w2_gaussian,
    wasserstein_p_1d,
)

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


def _random_gaussian_points(rng: np.random.Generator, count: int) -> np.ndarray:
    mu = rng.uniform(-2.0, 2.0, count)
    sigma = rng.uniform(0.4, 2.5, count)
    return np.column_stack([mu, sigma])


def check_fisher_vs_fd_kl(rng: np.random.Generator) -> CheckResult:
    family = Gaussian1D()
    kl = FDivergence(F_DIVERGENCES["kl"])
    worst = 0.0
    for theta in map(family.point, _random_gaussian_points(rng, 20)):
        fd = fd_local_hessian(kl, family, theta)
        worst = max(worst, _rel(fd.matrix, fisher_information(family, theta).matrix))
    return CheckResult("fisher_vs_fd_kl_gaussian1d", worst, 1e-4)


def check_fdiv_scaling(rng: np.random.Generator, fisher_scale: float) -> CheckResult:
    family = Gaussian1D()
    worst = 0.0
    for name in ("chi2", "hellinger2"):
        spec = F_DIVERGENCES[name]
        for theta in map(family.point, _random_gaussian_points(rng, 3)):
            analytic = fisher_scale * f_div_local_hessian(spec, family, theta).matrix
            exact = spec.f_second_at_one * fisher_scale * fisher_information(family, theta).matrix
            worst = max(worst, float(np.max(np.abs(analytic - exact))))
            fd = fd_local_hessian(FDivergence(spec), family, theta)
            worst = max(worst, _rel(analytic, fd.matrix))
    return CheckResult("fdiv_scaling_vs_fd", worst, 1e-4)


def check_pullback(rng: np.random.Generator) -> CheckResult:
    family = CategoricalSoftmax(3)
    worst = 0.0
    for _ in range(5):
        theta = family.point(rng.normal(0.0, 1.0, 3))
        pulled = pullback_fisher_categorical(family, theta)
        worst = max(worst, float(np.max(np.abs(pulled.matrix - family.fisher(theta)))))
    return CheckResult("pullback_consistency_categorical", worst, 1e-12)


def check_fisher_rao_hessian(rng: np.random.Generator) -> CheckResult:
    family = CategoricalSoftmax(3)
    sim_engine = resolve_metric_engine("fd:fisher_rao2", family)
    worst = 0.0
    for _ in range(10):
        theta = family.point(rng.normal(0.0, 1.0, 3))
        fd = sim_engine(theta)
        worst = max(worst, _rel(fd.matrix, fisher_information(family, theta).matrix))
    return CheckResult("fisher_rao_hessian_vs_fisher", worst, 1e-4)


def check_w2_identity(rng: np.random.Generator) -> CheckResult:
    family = Gaussian1D()
    worst = 0.0
    for theta in map(family.point, _random_gaussian_points(rng, 5)):
        analytic = w2_local_hessian_1d(family, theta).matrix
        worst = max(worst, float(np.max(np.abs(analytic - np.eye(2)))))
        fd = fd_local_hessian(WassersteinP(2.0), family, theta)
        worst = max(worst, float(np.max(np.abs(analytic - fd.matrix))))
    return CheckResult("w2_metric_identity_gaussian1d", worst, 1e-4)


def check_finsler_scale_invariance(rng: np.random.Generator) -> CheckResult:
    family = Gaussian1D()
    theta = family.point([0.3, 1.4])
    u = rng.normal(0.0, 1.0, 2)
    a = wp_local_hessian_1d(family, theta, 3.0, u).matrix
    b = wp_local_hessian_1d(family, theta, 3.0, 2.0 * u).matrix
    return CheckResult("finsler_scale_invariance", float(np.max(np.abs(a - b))), 1e-15)


def check_finsler_p2(rng: np.random.Generator) -> CheckResult:
    family = Gaussian1D()
    worst = 0.0
    for theta in map(family.point, _random_gaussian_points(rng, 5)):
        u = rng.normal(0.0, 1.0, 2)
        wp = wp_local_hessian_1d(family, theta, 2.0, u).matrix
        worst = max(worst, float(np.max(np.abs(wp - w2_local_hessian_1d(family, theta).matrix))))
    return CheckResult("finsler_p2_matches_w2", worst, 1e-12)


def check_finsler_p3_vs_fd(rng: np.random.Generator) -> CheckResult:
    family = Gaussian1D()
    worst = 0.0
    for theta in map(family.point, _random_gaussian_points(rng, 3)):
        u = rng.normal(0.0, 1.0, 2)
        analytic = wp_local_hessian_1d(family, theta, 3.0, u).matrix
        fd = fd_local_hessian(WassersteinP(3.0), family, theta, u).matrix
        worst = max(worst, _rel(fd, analytic))
    return CheckResult("finsler_p3_vs_fd", worst, 5e-3)


def check_newton_limit() -> CheckResult:
    """Near a minimum the metric approaches the full cost Hessian linearly.

    Measures E(t) = |Fisher - full Hessian| along a ray toward the
    optimum of a KL cost; passing means halving t shrinks E by at least
    1.8x over three halvings and E(0.01) is below 2% of the metric norm.
    """
    family = Gaussian1D()
    kl = FDivergence(F_DIVERGENCES["kl"])
    target = np.array([0.0, 1.0])
    delta = -np.array([1.0, 1.0]) / np.sqrt(2.0)
    objective = make_objective(family, kl, target)

    def deviation(t: float) -> float:
        theta = family.point(target + t * delta)
        full = central_hessian(objective.value, theta)
        return float(np.linalg.norm(fisher_information(family, theta).matrix - full))

    # Each t once: E(0.2), E(0.1), E(0.05), E(0.025), then E(0.01).
    halvings = [deviation(t) for t in (0.2, 0.1, 0.05, 0.025)]
    ratios = [wide / narrow for wide, narrow in zip(halvings, halvings[1:])]
    theta_near = target + 0.01 * delta
    norm_h = float(np.linalg.norm(fisher_information(family, theta_near).matrix))
    margin = max(1.8 - min(ratios), deviation(0.01) / norm_h - 0.02)
    return CheckResult("newton_limit_decay", margin, 0.0)


def check_reparam_equivariance(rng: np.random.Generator) -> CheckResult:
    base = Gaussian1D()
    kl = FDivergence(F_DIVERGENCES["kl"])
    worst = 0.0
    for _ in range(20):
        A = np.eye(2) + 0.3 * rng.uniform(-1.0, 1.0, (2, 2))
        if abs(np.linalg.det(A)) < 0.3:
            continue
        theta = np.array([rng.uniform(-1.5, 1.5), rng.uniform(0.6, 2.0)])
        target_theta = np.array([rng.uniform(-1.5, 1.5), rng.uniform(0.6, 2.0)])
        reparam = LinearlyReparameterized(base, A)
        xi = np.linalg.solve(A, theta)
        if not reparam.in_domain(xi):
            continue
        obj_theta = make_objective(base, kl, target_theta)
        obj_xi = make_objective(reparam, kl, np.linalg.solve(A, target_theta))
        next_theta, _ = natural_gradient_step(
            obj_theta, resolve_metric_engine("fisher", base), base.point(theta)
        )
        next_xi, _ = natural_gradient_step(
            obj_xi, resolve_metric_engine("fisher", reparam), reparam.point(xi)
        )
        step_theta = next_theta - theta
        step_xi = next_xi - xi
        worst = max(worst, float(np.max(np.abs(step_xi - np.linalg.solve(A, step_theta)))))
    return CheckResult("reparam_equivariance", worst, 1e-8)


def check_kl_quadrature(rng: np.random.Generator) -> CheckResult:
    family = Gaussian1D()
    worst = 0.0
    for _ in range(5):
        theta = family.point(_random_gaussian_points(rng, 1)[0])
        target = family.point(_random_gaussian_points(rng, 1)[0])
        quad = f_divergence(F_DIVERGENCES["kl"], family, theta, target, strategy="quadrature")
        closed = f_divergence(F_DIVERGENCES["kl"], family, theta, target, strategy="closed_form")
        worst = max(worst, abs(quad - closed))
    return CheckResult("kl_quadrature_vs_closed_form", worst, 1e-8)


def check_w2_gaussian_vs_quantile(rng: np.random.Generator) -> CheckResult:
    family = Gaussian1D()
    worst = 0.0
    for _ in range(5):
        t1 = _random_gaussian_points(rng, 1)[0]
        t2 = _random_gaussian_points(rng, 1)[0]
        closed = squared_w2_gaussian([t1[0]], [[t1[1] ** 2]], [t2[0]], [[t2[1] ** 2]])
        quad = wasserstein_p_1d(family, t1, t2, 2.0) ** 2
        worst = max(worst, abs(closed - quad))
    return CheckResult("w2_gaussian_vs_quantile_quadrature", worst, 1e-8)


def run_checks(seed: int = 0, fisher_scale: float = 1.0) -> list[CheckResult]:
    """Run the full suite; deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    return [
        check_fisher_vs_fd_kl(rng),
        check_fdiv_scaling(rng, fisher_scale),
        check_pullback(rng),
        check_fisher_rao_hessian(rng),
        check_w2_identity(rng),
        check_finsler_scale_invariance(rng),
        check_finsler_p2(rng),
        check_finsler_p3_vs_fd(rng),
        check_newton_limit(),
        check_reparam_equivariance(rng),
        check_kl_quadrature(rng),
        check_w2_gaussian_vs_quantile(rng),
    ]
