"""Acceptance checks: one test per headline property of the package.

Each test pins its tolerance explicitly and prints a single summary line
with the measured deviation, so a ``pytest -v`` run doubles as a report.
"""

import time

import numpy as np

from conftest import fd_hessian
from natgrad.families import CategoricalSoftmax, Gaussian1D
from natgrad.gp_bench import BenchmarkConfig, run_benchmark
from natgrad.metric import (
    f_div_local_hessian,
    fd_local_hessian,
    fisher_information,
    pullback_fisher_categorical,
    w2_local_hessian_1d,
    wp_local_hessian_1d,
)
from natgrad.optimizer import (
    OptimizerConfig,
    linear_reparameterization,
    make_objective,
    natural_gradient_step,
    optimize,
)
from natgrad.similarity import (
    F_DIVERGENCES,
    FDivergence,
    WassersteinP,
    get_similarity,
    resolve_metric_engine,
)

GAUSS = Gaussian1D()
CAT3 = CategoricalSoftmax(3)
KL = FDivergence(F_DIVERGENCES["kl"])


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(b))))


def test_fd_kl_curvature_recovers_analytic_fisher():
    # the finite-difference engine, given only KL evaluations, must land on
    # the closed-form Fisher information diag(1/sigma^2, 2/sigma^2)
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        mu, sigma = rng.uniform(-2.0, 2.0), rng.uniform(0.4, 2.5)
        fd = fd_local_hessian(KL, GAUSS, (mu, sigma)).matrix
        analytic = np.diag([1.0 / sigma**2, 2.0 / sigma**2])
        worst = max(worst, _rel(fd, analytic))
    elapsed = time.monotonic() - start
    assert worst < 1e-4
    assert elapsed < 10.0
    print(f"PASS fd KL curvature = Fisher: max rel dev {worst:.3e} (tol 1e-4), {elapsed:.2f}s")


def test_f_divergence_curvatures_scale_with_second_derivative_at_one():
    # curvature ratios between f-divergences are fixed scalars: 2 for
    # chi-squared, 1/2 for squared Hellinger, relative to KL
    worst_fd = 0.0
    for theta in ((0.0, 1.0), (0.3, 1.2), (-0.7, 0.8)):
        h_kl = f_div_local_hessian(F_DIVERGENCES["kl"], GAUSS, theta).matrix
        h_chi2 = f_div_local_hessian(F_DIVERGENCES["chi2"], GAUSS, theta).matrix
        h_hel = f_div_local_hessian(F_DIVERGENCES["hellinger2"], GAUSS, theta).matrix
        np.testing.assert_array_equal(h_chi2, 2.0 * h_kl)
        np.testing.assert_array_equal(h_hel, 0.5 * h_kl)
        for name, analytic in (("chi2", h_chi2), ("hellinger2", h_hel)):
            fd = fd_local_hessian(get_similarity(name), GAUSS, theta).matrix
            worst_fd = max(worst_fd, _rel(fd, analytic))
    assert worst_fd < 1e-4
    print(f"PASS f-divergence scaling exact; FD cross-check max rel dev {worst_fd:.3e} (tol 1e-4)")


def test_softmax_pullback_matches_direct_parameter_curvature():
    # diag(1/p) in probability coordinates, squeezed through the softmax
    # Jacobian, must equal the Fisher matrix computed directly in logits
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(5):
        theta = rng.normal(0.0, 1.0, 3)
        pulled = pullback_fisher_categorical(CAT3, theta).matrix
        direct = fisher_information(CAT3, theta).matrix
        worst = max(worst, float(np.max(np.abs(pulled - direct))))
    assert worst < 1e-6
    print(f"PASS softmax pullback = direct Fisher: max abs dev {worst:.3e} (tol 1e-6)")


def test_half_squared_geodesic_curvature_is_fisher_information():
    # half the squared Fisher-Rao distance bends exactly like the Fisher
    # information at its vanishing point
    rng = np.random.default_rng(303)
    engine = resolve_metric_engine("fd:fisher_rao2", CAT3)
    worst = 0.0
    for _ in range(10):
        theta = rng.normal(0.0, 1.0, 3)
        worst = max(worst, _rel(engine(theta).matrix, fisher_information(CAT3, theta).matrix))
    assert worst < 1e-4
    print(f"PASS half-squared geodesic curvature = Fisher: max rel dev {worst:.3e} (tol 1e-4)")


def test_w2_curvature_for_gaussian_is_identity():
    # in (mu, sigma) coordinates the quadratic transport cost is flat:
    # 0.5 W2^2 = 0.5 ((mu1-mu2)^2 + (sigma1-sigma2)^2)
    worst_id, worst_fd = 0.0, 0.0
    for theta in ((0.0, 1.0), (0.7, 1.6), (-1.2, 0.5)):
        H = w2_local_hessian_1d(GAUSS, theta).matrix
        worst_id = max(worst_id, _rel(H, np.eye(2)))

        def closed_form(eta, theta=np.asarray(theta)):
            return 0.5 * float((eta - theta) @ (eta - theta))

        fd = fd_hessian(closed_form, np.asarray(theta, dtype=float))
        worst_fd = max(worst_fd, float(np.max(np.abs(H - fd))))
    assert worst_id < 1e-4
    assert worst_fd < 1e-4
    print(
        f"PASS W2 curvature = identity: dev {worst_id:.3e}, "
        f"vs closed-form FD {worst_fd:.3e} (tol 1e-4)"
    )


def test_transport_curvature_scaling_order_two_and_directional_fd():
    theta = np.array([0.2, 1.1])
    u = np.array([1.0, 0.4])

    # positive rescaling of the direction changes nothing: bit for bit when
    # the scale commutes with normalization (powers of two), 1 ulp otherwise
    H_u = wp_local_hessian_1d(GAUSS, theta, 3.0, u).matrix
    np.testing.assert_array_equal(H_u, wp_local_hessian_1d(GAUSS, theta, 3.0, 4.0 * u).matrix)
    np.testing.assert_allclose(
        H_u, wp_local_hessian_1d(GAUSS, theta, 3.0, 3.7 * u).matrix, rtol=0, atol=1e-12
    )

    # order two collapses to the direction-free quadratic-transport formula
    worst_p2 = 0.0
    for th in ((0.0, 1.0), (0.5, 1.3), (-0.8, 0.7)):
        H2 = wp_local_hessian_1d(GAUSS, th, 2.0).matrix
        worst_p2 = max(worst_p2, float(np.max(np.abs(H2 - w2_local_hessian_1d(GAUSS, th).matrix))))
    assert worst_p2 < 1e-12

    # order three agrees with the directional finite-difference engine
    sim3 = WassersteinP(3.0)
    worst_p3 = 0.0
    for th, d in [
        (np.array([0.2, 1.1]), np.array([1.0, 0.4])),
        (np.array([-0.5, 0.9]), np.array([-0.3, 1.0])),
        (np.array([0.0, 1.6]), np.array([0.7, -0.7])),
    ]:
        Han = wp_local_hessian_1d(GAUSS, th, 3.0, d).matrix
        Hfd = fd_local_hessian(sim3, GAUSS, th, u=d).matrix
        worst_p3 = max(worst_p3, float(np.max(np.abs(Han - Hfd))))
    assert worst_p3 < 5e-3
    print(
        f"PASS transport curvature: scaling exact, p=2 dev {worst_p2:.3e} (tol 1e-12), "
        f"p=3 vs FD {worst_p3:.3e} (tol 5e-3)"
    )


def test_metric_approaches_full_cost_hessian_near_optimum():
    # with target (0, 1) the KL cost is 0.5 (mu^2 + sigma^2 - 1) - log sigma,
    # whose exact Hessian is [[1, 0], [0, 1 + 1/sigma^2]]; the step metric
    # must converge to it at least linearly as theta walks into the optimum
    engine = resolve_metric_engine("fisher", GAUSS)
    target = np.array([0.0, 1.0])
    direction = np.array([0.6, 0.8])
    deviations = []
    for delta in (0.15, 0.075, 0.0375, 0.01875):
        theta = target + delta * direction
        full = np.array([[1.0, 0.0], [0.0, 1.0 + 1.0 / theta[1] ** 2]])
        deviations.append(np.linalg.norm(engine(theta).matrix - full))
    ratios = [deviations[i] / deviations[i + 1] for i in range(3)]
    assert all(r >= 1.8 for r in ratios)
    print(
        "PASS metric -> full Hessian near optimum: halving ratios "
        + ", ".join(f"{r:.3f}" for r in ratios)
        + " (all >= 1.8)"
    )


def test_natural_gradient_steps_commute_with_linear_reparameterization():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(20):
        A = rng.uniform(-1.5, 1.5, size=(2, 2))
        while abs(np.linalg.det(A)) < 0.3:
            A = rng.uniform(-1.5, 1.5, size=(2, 2))
        theta0 = np.array([rng.uniform(-1, 1), rng.uniform(0.7, 1.8)])
        target = np.array([rng.uniform(-1, 1), rng.uniform(0.7, 1.8)])
        objective, fisher = make_objective(GAUSS, KL, target), resolve_metric_engine("fisher", GAUSS)

        next_theta, _ = natural_gradient_step(objective, fisher, theta0, damping=1e-14)
        next_xi, _ = natural_gradient_step(
            *linear_reparameterization(objective, fisher, A),
            np.linalg.solve(A, theta0),
            damping=1e-14,
        )
        worst = max(worst, float(np.max(np.abs(A @ next_xi - next_theta))))
    assert worst < 1e-8
    print(f"PASS steps commute with reparameterization: max dev {worst:.3e} (tol 1e-8)")


def test_fisher_metric_converges_fastest_on_gp_benchmark():
    start = time.monotonic()
    result = run_benchmark(BenchmarkConfig())  # m=30, seed=42, all three metrics
    elapsed = time.monotonic() - start
    fisher_iters = result.iters_to_threshold("fisher")
    euclid_iters = result.iters_to_threshold("euclidean")
    assert fisher_iters >= 0 and euclid_iters >= 0  # both reach the threshold
    assert fisher_iters < euclid_iters
    assert elapsed < 60.0
    print(
        f"PASS GP benchmark ordering: fisher {fisher_iters} < euclidean {euclid_iters} "
        f"iters to threshold, {elapsed:.1f}s (< 60s)"
    )


def test_kl_gaussian_descent_converges_monotonically():
    config = OptimizerConfig(metric="fisher", grad_tol=1e-8, max_iters=100)
    trace = optimize(GAUSS, KL, (2.0, 3.0), (0.0, 1.0), config)
    costs = [r.cost for r in trace.records]
    assert trace.status == "converged_grad"
    assert trace.iterations <= 100
    assert trace.records[-1].grad_norm < 1e-8
    assert all(b <= a for a, b in zip(costs, costs[1:]))
    print(
        f"PASS end-to-end descent: grad_norm {trace.records[-1].grad_norm:.3e} < 1e-8 "
        f"in {trace.iterations} iterations, cost monotone"
    )
