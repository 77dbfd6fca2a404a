"""Natural-gradient stepping, line search, trace records, termination."""

import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

import natgrad.metric
from conftest import accepts
import natgrad.optimizer
from natgrad.errors import CapabilityError, ConfigError, DivergenceInfiniteError, NumericError
from natgrad.families import (
    CategoricalSoftmax,
    Gaussian1D,
    GpPriorEq,
    MultivariateNormalLogCholesky,
)
from natgrad.gp_bench import BenchmarkConfig, generate_data, run_benchmark
from natgrad.metric import LocalHessian, MetricEngine
from natgrad.optimizer import (
    ALPHA_FLOOR,
    COST_TOL,
    SHRINK,
    TRACE_CSV_HEADER,
    Objective,
    OptimizerConfig,
    Trace,
    backtracking_line_search,
    linear_reparameterization,
    make_objective,
    natural_gradient_step,
    newton_step,
    optimize,
)
from natgrad.similarity import (
    F_DIVERGENCES,
    FDivergence,
    SquaredEuclidean,
    WassersteinP,
    get_similarity,
    resolve_metric_engine,
)

GAUSS = Gaussian1D()
KL = FDivergence(F_DIVERGENCES["kl"])


def _quadratic_objective(A, center):
    A = np.asarray(A, dtype=float)
    center = np.asarray(center, dtype=float)
    return Objective(
        value=lambda th: float(0.5 * (th - center) @ A @ (th - center)),
        gradient=lambda th: A @ (np.asarray(th, dtype=float) - center),
    )


# -- configuration validation -----------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        # Non-finite values: an infinite tolerance ends any run converged at
        # once, an infinite damping makes every step solve fail.
        {"grad_tol": np.inf},
        # A string number: accepted, comparing it raised "'<' not supported
        # between instances of 'float' and 'str'", with no key named.
        {"grad_tol": "1e-8"},
        {"max_iters": 0},
        {"grad_tol": 0.0},
        {"damping": "1e-8"},
        {"damping": 0.0},
        {"max_iters": 2.5},
        {"max_iters": 3.0},
        {"damping": np.inf},
        {"grad_tol": np.nan},
        # A bool is an Integral and a number: max_iters=True ran one iteration
        # and grad_tol=True was a tolerance of 1.0.
        {"max_iters": True},
        {"max_iters": False},
        {"grad_tol": True},
        {"grad_tol": None},
        {"damping": True},
    ],
)
def test_optimizer_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError, match=f"{next(iter(kwargs))} must be"):
        OptimizerConfig(**kwargs)


def test_optimizer_config_names_a_non_integral_max_iters():
    # Accepted, it raised "'float' object cannot be interpreted as an integer"
    # from inside optimize, with no key named.
    with pytest.raises(ValueError, match="max_iters must be an integer"):
        OptimizerConfig(max_iters=2.5)


def test_optimizer_config_has_no_line_search_setting():
    # Armijo backtracking with fixed constants is the only step rule.
    with pytest.raises(TypeError):
        OptimizerConfig(line_search=None)


def test_optimizer_config_has_no_learning_rate():
    # The Armijo search scales the step -H^-1 g; no second scale caps it.
    with pytest.raises(TypeError):
        OptimizerConfig(learning_rate=1.0)


def test_trace_rejects_unknown_status():
    with pytest.raises(ValueError):
        Trace(records=(), status="wandered_off")


def test_empty_trace_properties():
    t = Trace(records=(), status="numeric_failure")
    assert np.isnan(t.final_cost)
    assert t.iterations == 0


# -- single steps -----------------------------------------------------------------


def test_euclidean_step_is_plain_gradient_descent():
    engine = resolve_metric_engine("euclidean", GAUSS)
    obj = make_objective(GAUSS, KL, np.array([0.0, 1.0]))
    theta = np.array([1.0, 1.0])
    nxt, info = natural_gradient_step(obj, engine, theta)
    g = obj.gradient(theta)
    np.testing.assert_allclose(nxt, theta - g, atol=1e-14)
    assert info["grad_norm"] == pytest.approx(np.linalg.norm(g), abs=1e-15)
    assert info["damping"] == 0.0


def test_fisher_step_hand_solved():
    # at (1, 1) with target (0, 1): g = (1, 0), H = diag(1, 2), so the
    # step is exactly (-1, 0) and lands on the target
    engine = resolve_metric_engine("fisher", GAUSS)
    obj = make_objective(GAUSS, KL, np.array([0.0, 1.0]))
    nxt, info = natural_gradient_step(obj, engine, np.array([1.0, 1.0]))
    np.testing.assert_allclose(nxt, [0.0, 1.0], atol=1e-12)
    assert info["step_norm"] == pytest.approx(1.0, abs=1e-12)


def test_step_with_indefinite_metric_uses_projected_solve():
    # mirror of the documented projection rule: shift only the amount that
    # lifts the smallest eigenvalue to the damping floor
    engine = MetricEngine("indef", lambda th, u=None: LocalHessian(np.diag([1.0, -0.5])))
    obj = _quadratic_objective(np.eye(2), np.zeros(2))
    theta = np.array([3.0, 3.0])
    nxt, info = natural_gradient_step(obj, engine, theta, damping=1e-8)
    shifted = np.diag([1.5 + 1e-8, 1e-8])
    # eigensolver roundoff (~1e-16) lands on the 1e-8 floor, so the solve
    # along the shifted axis is only accurate to ~1e-8 relative
    np.testing.assert_allclose(nxt, theta - np.linalg.solve(shifted, theta), rtol=1e-6)
    assert info["damping"] == pytest.approx(0.5 + 1e-8, abs=1e-15)


def test_step_solve_equals_the_scipy_cholesky_wrappers_bit_for_bit(rng):
    for n in (1, 2, 3, 6):
        A = rng.normal(size=(n, n))
        H, g = LocalHessian(A @ A.T + 0.1 * np.eye(n)), rng.normal(size=n)
        v, added = natgrad.optimizer._solve_step(H, g, None)
        ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(H.matrix, lower=True), -g)
        assert added == 0.0 and v.tobytes() == ref.tobytes()


def test_step_solve_computes_no_eigenvalues_for_a_metric_above_the_floor(rng, monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    for n in (1, 2, 3, 6):
        A = rng.normal(size=(n, n))
        H = LocalHessian(A @ A.T + 0.1 * np.eye(n))  # lambda_min >= 0.1, far above the floor
        _, added = natgrad.optimizer._solve_step(H, rng.normal(size=n), None)
        assert added == 0.0
    assert calls == []
    _, added = natgrad.optimizer._solve_step(LocalHessian(np.diag([1.0, -0.5])), np.ones(2), 1e-8)
    assert len(calls) == 1 and added == pytest.approx(0.5 + 1e-8, abs=1e-15)


def test_step_solve_failures_are_numeric_errors():
    # A negative floor leaves the indefinite metric as it is.
    with pytest.raises(NumericError, match="metric factorization failed after damping: 1-th"):
        natgrad.optimizer._solve_step(LocalHessian(-np.eye(2)), np.ones(2), -2.0)
    with pytest.raises(NumericError, match="metric solve produced non-finite step"):
        natgrad.optimizer._solve_step(LocalHessian(np.eye(2)), np.array([1.0, np.inf]), None)


def test_exact_hessian_engine_solves_quadratic_in_one_step(rng):
    A = rng.normal(size=(3, 3))
    A = A @ A.T + np.eye(3)
    center = rng.normal(size=3)
    engine = MetricEngine("exact", lambda th, u=None: LocalHessian(A))
    obj = _quadratic_objective(A, center)
    nxt, _ = natural_gradient_step(obj, engine, rng.normal(size=3))
    np.testing.assert_allclose(nxt, center, atol=1e-10)


def test_step_is_identity_at_stationary_point():
    engine = resolve_metric_engine("fisher", GAUSS)
    obj = make_objective(GAUSS, KL, np.array([0.4, 1.3]))
    nxt, info = natural_gradient_step(obj, engine, np.array([0.4, 1.3]))
    np.testing.assert_allclose(nxt, [0.4, 1.3], atol=1e-12)
    assert info["grad_norm"] < 1e-12


def test_newton_step_solves_quadratic():
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    center = np.array([0.5, -0.2])
    obj = _quadratic_objective(A, center)
    nxt, _ = newton_step(obj, np.array([2.0, 2.0]))
    np.testing.assert_allclose(nxt, center, atol=1e-6)


def test_newton_approaches_natural_gradient_near_minimum():
    # close to the cost minimum the KL Hessian tends to the Fisher metric,
    # so the two steps agree to first order in the distance
    target = np.array([0.3, 1.1])
    obj = make_objective(GAUSS, KL, target)
    engine = resolve_metric_engine("fisher", GAUSS)
    d = 0.01
    theta = target + d * np.array([1.0, 1.0]) / np.sqrt(2.0)
    newton_next, _ = newton_step(obj, theta)
    natgrad_next, _ = natural_gradient_step(obj, engine, theta)
    assert np.linalg.norm(newton_next - natgrad_next) <= 0.05 * d


# -- line search -------------------------------------------------------------------


def test_line_search_accepts_full_newton_step():
    obj = _quadratic_objective(np.eye(2), np.zeros(2))
    theta = np.array([1.0, 2.0])
    direction = -theta  # exact Newton direction
    alpha, flag = backtracking_line_search(
        obj.value, theta, direction, obj.gradient(theta), obj.value(theta)
    )
    assert alpha == 1.0 and flag == ""


def test_line_search_halves_overshooting_step():
    # scalar cost theta^2 from theta = 1 with direction -4: alphas 1 and
    # 0.5 overshoot past the Armijo bound; 0.25 lands on the minimum
    value = lambda th: float(th[0] ** 2)
    alpha, flag = backtracking_line_search(
        value, np.array([1.0]), np.array([-4.0]), np.array([2.0]), 1.0
    )
    assert alpha == 0.25 and flag == ""


def test_line_search_flags_non_descent():
    value = lambda th: float(th[0] ** 2)
    alpha, flag = backtracking_line_search(
        value, np.array([1.0]), np.array([1.0]), np.array([2.0]), 1.0
    )
    assert flag == "non_descent" and alpha == ALPHA_FLOOR


def test_line_search_floor_when_no_progress_possible():
    # claimed slope is negative but the cost actually rises: every shrink
    # fails Armijo and the search reports the floor
    value = lambda th: float((th[0]) ** 2)
    alpha, flag = backtracking_line_search(
        value, np.array([1.0]), np.array([1.0]), np.array([-1.0]), 1.0
    )
    assert flag == "floor" and alpha == ALPHA_FLOOR


def test_line_search_treats_errors_as_infinite_cost():
    def value(th):
        if th[0] > 0.3:
            raise DivergenceInfiniteError("off the chart")
        return float(th[0] ** 2)

    alpha, flag = backtracking_line_search(
        value, np.array([0.0]), np.array([1.0]), np.array([-1.0]), 0.0
    )
    # alpha = 1, 0.5 raise; 0.25 evaluates and satisfies the decrease test
    assert flag == "floor" or alpha <= 0.25


def _recording(value):
    """``value`` on a 1-D line, plus the list of trial alphas it was asked for
    (theta 0 and direction 1, so the trial point is alpha itself)."""
    trials = []

    def recorded(th):
        trials.append(float(th[0]))
        return value(float(th[0]))

    return recorded, trials


@pytest.mark.parametrize(
    "value",
    [
        lambda a: 100.0 * a * a - a,  # steep wall: the quadratic's minimizer is far below 0.1 alpha
        lambda a: (1.0 - 0.9e-4) * a * a - a,  # barely fails Armijo at 1: minimizer just above 0.5
        lambda a: (a - 0.3) ** 2 - 0.09,  # exact quadratic: lands on its minimizer 0.3
        lambda a: np.sin(12.0 * a) / 12.0 - a + a ** 4,
    ],
)
def test_line_search_interpolated_trial_stays_in_the_clamp(value):
    recorded, trials = _recording(value)
    alpha, flag = backtracking_line_search(
        recorded, np.array([0.0]), np.array([1.0]), np.array([-1.0]), 0.0
    )
    assert trials[0] == 1.0 and alpha == trials[-1] and flag == ""
    for prev, nxt in zip(trials, trials[1:]):
        assert 0.1 * prev <= nxt <= SHRINK * prev


def test_line_search_moves_to_the_interpolated_minimizer():
    # cost (a - 0.3)^2 - 0.09 along the line is its own interpolating
    # quadratic, so the second trial is its minimizer
    recorded, trials = _recording(lambda a: (a - 0.3) ** 2 - 0.09)
    alpha, flag = backtracking_line_search(
        recorded, np.array([0.0]), np.array([1.0]), np.array([-0.6]), 0.0
    )
    assert flag == "" and trials == [1.0, alpha] and alpha == pytest.approx(0.3, rel=1e-12)


@pytest.mark.parametrize("bad", ["inf", "nan", "raise"])
def test_line_search_non_finite_trial_shrinks_by_shrink(bad):
    def value(a):
        if a > 0.2:
            if bad == "raise":
                raise NumericError("undefined here")
            return float(bad)
        return -a

    recorded, trials = _recording(value)
    alpha, flag = backtracking_line_search(
        recorded, np.array([0.0]), np.array([1.0]), np.array([-1.0]), 0.0
    )
    expected = [1.0]
    while expected[-1] > 0.2:
        expected.append(expected[-1] * SHRINK)
    assert trials == expected and alpha == expected[-1] and flag == ""


def test_line_search_returns_an_accepted_first_trial_below_one():
    recorded, trials = _recording(lambda a: (a - 0.5) ** 2 - 0.25)
    alpha, flag = backtracking_line_search(
        recorded, np.array([0.0]), np.array([1.0]), np.array([-1.0]), 0.0, alpha0=0.37,
    )
    assert (alpha, flag) == (0.37, "") and trials == [0.37]


def test_predicted_first_trial_falls_back_to_one():
    predicted = natgrad.optimizer._predicted_alpha
    assert predicted(1.0, None, -1.0) == 1.0  # first iteration
    assert predicted(0.9, 1.0, -1.0) == pytest.approx(0.202, rel=1e-15)  # 1.01 * 2 * 0.1 / 1
    assert predicted(0.0, 1.0, -1.0) == 1.0  # capped at 1
    assert predicted(1.5, 1.0, -1.0) == 1.0  # negative
    assert predicted(float("nan"), 1.0, -1.0) == 1.0
    assert predicted(1.0, 1.0, 0.0) == 1.0  # 0 / 0
    assert predicted(1.0 - 1e-12, 1.0, -1.0) == 1.0  # below ALPHA_FLOOR
    assert predicted(0.0, 1e300, -1e-10) == 1.0  # overflows to inf


class _Scripted(SquaredEuclidean):
    """Costs and gradients read in call order from scripts, whatever theta
    is; every point asked for is recorded."""

    def __init__(self, costs, grads):
        self.costs, self.grads, self.points = list(costs), list(grads), []

    def evaluate(self, family, theta, target):
        self.points.append(np.array(theta, dtype=float))
        return self.costs.pop(0)

    def grad_theta(self, family, theta, target):
        return np.array(self.grads.pop(0), dtype=float)


@pytest.mark.parametrize(
    "decrease, expected_alpha",
    [
        (0.1, 0.202),  # 1.01 * 2 * 0.1 / |g.v| with g.v = -1
        (2e-12, 1.0),  # predicted 4.04e-12 is below the floor
    ],
)
def test_optimize_first_trials_use_the_predicted_step(decrease, expected_alpha):
    # iteration 0 tries alpha 1 along v0 = -g0; iteration 1 tries the step
    # predicted from the decrease 0 -> 1 over g1.v1 = -1
    g0 = (np.sqrt(decrease / 2e-4), 0.0)  # Armijo at alpha 1 needs decrease >= 1e-4 |g0|^2
    sim = _Scripted(costs=[1.0, 1.0 - decrease, 0.0], grads=[g0, (1.0, 0.0), (1.0, 0.0)])
    identity = MetricEngine("identity", lambda th, u=None: LocalHessian(np.eye(2)))
    trace = optimize(GAUSS, sim, (0.0, 1.0), (0.0, 1.0), OptimizerConfig(max_iters=2),
                     engine=identity)
    assert trace.status == "max_iters" and len(sim.points) == 3
    start, first, second = sim.points
    np.testing.assert_array_equal(first, start - np.asarray(g0))
    np.testing.assert_allclose(first - second, [expected_alpha, 0.0], rtol=0, atol=1e-13)


# -- full optimization runs -----------------------------------------------------------


def test_converges_from_fixed_start():
    config = OptimizerConfig(metric="fisher", grad_tol=1e-8, max_iters=100)
    trace = optimize(GAUSS, KL, (-1.0, 2.0), (0.5, 1.0), config)
    assert trace.status == "converged_grad"
    assert trace.records[-1].grad_norm < 1e-8
    assert trace.iterations <= 100
    costs = [r.cost for r in trace.records]
    assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
    np.testing.assert_allclose(trace.final_cost, 0.0, atol=1e-12)


def test_immediate_convergence_at_target():
    config = OptimizerConfig(metric="fisher")
    trace = optimize(GAUSS, KL, (0.5, 1.0), (0.5, 1.0), config)
    assert trace.status == "converged_grad"
    assert len(trace.records) == 1
    rec = trace.records[0]
    assert rec.iter == 0 and rec.step_norm == 0.0 and rec.cost == 0.0


def test_fisher_beats_euclidean_iteration_count():
    theta0, target = (-1.0, 2.0), (0.5, 1.0)
    kwargs = dict(grad_tol=1e-6, max_iters=200)
    fisher = optimize(GAUSS, KL, theta0, target, OptimizerConfig(metric="fisher", **kwargs))
    euclid = optimize(GAUSS, KL, theta0, target, OptimizerConfig(metric="euclidean", **kwargs))
    assert fisher.status == "converged_grad" and euclid.status == "converged_grad"
    assert fisher.iterations < euclid.iterations
    for trace in (fisher, euclid):
        costs = [r.cost for r in trace.records]
        assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))


def test_max_iters_status():
    config = OptimizerConfig(metric="euclidean", max_iters=3, grad_tol=1e-14)
    trace = optimize(GAUSS, KL, (-1.0, 2.0), (0.5, 1.0), config)
    assert trace.status == "max_iters"
    assert trace.records[-1].iter == 3 and trace.records[-1].step_norm == 0.0
    assert len(trace.records) == 4


def test_converged_cost_status():
    # gradient tolerance set unreachably small so the cost-change test,
    # with its fixed tolerance COST_TOL, is the one that fires; from this
    # start the last step leaves a gradient of 4e-16, not an exact zero
    assert COST_TOL == 1e-14
    config = OptimizerConfig(metric="fisher", grad_tol=1e-300, max_iters=50)
    trace = optimize(GAUSS, KL, (0.5, 1.2), (0.5, 1.0), config)
    assert trace.status == "converged_cost"
    assert abs(trace.records[-1].cost - trace.records[-2].cost) < 1e-14
    assert trace.records[-1].grad_norm > 0.0


def test_line_search_stall_is_not_convergence():
    class Uphill(SquaredEuclidean):
        # the gradient points uphill, so no step along the search direction
        # lowers the cost
        def grad_theta(self, family, theta, target):
            return -super().grad_theta(family, theta, target)

    trace = optimize(GAUSS, Uphill(), (1.0, 1.0), (0.0, 1.0), OptimizerConfig(metric="euclidean"))
    assert trace.status == "line_search_stalled"
    assert len(trace.records) == 1
    assert trace.records[0].step_norm == 0.0 and trace.final_cost == 0.5


def test_flat_cost_stalls_at_the_step_floor():
    # No step lowers a constant cost, so the search reaches the floor and the
    # run stops there instead of taking the floor step and reading the
    # unchanged cost as convergence.
    class Flat(SquaredEuclidean):
        def evaluate(self, family, theta, target):
            return 1.0

        def grad_theta(self, family, theta, target):
            return np.ones(2)

    trace = optimize(GAUSS, Flat(), (0.0, 1.0), (0.0, 1.0), OptimizerConfig(metric="euclidean"))
    assert trace.status == "line_search_stalled"
    assert len(trace.records) == 1 and trace.iterations == 0
    assert trace.records[0].step_norm == 0.0
    assert f"step floor {ALPHA_FLOOR:g}" in trace.reason


def test_non_descent_direction_stalls_without_a_gradient_step(monkeypatch):
    # A step solve that points uphill is not replaced by a plain gradient
    # step: the search refuses it and the run says why.
    monkeypatch.setattr(natgrad.optimizer, "_solve_step", lambda H, g, damping: (g, 0.0))
    trace = optimize(GAUSS, KL, (1.0, 1.0), (0.0, 1.0), OptimizerConfig(metric="fisher"))
    assert trace.status == "line_search_stalled" and "non_descent" in trace.reason
    assert len(trace.records) == 1 and trace.records[0].step_norm == 0.0
    assert not any(r.fallback for r in trace.records)


@pytest.mark.parametrize(
    "family, sim, theta0, target, config, status",
    [
        # A rejected trial overflowed L L^T in the MVN covariance.
        (MultivariateNormalLogCholesky(2), get_similarity("chi2"),
         (-0.1029, 0.5979, -0.529, -0.3604, 0.5998), (0.0141, 0.0128, -0.5276, -0.9709, 0.8664),
         OptimizerConfig(), "converged_grad"),
        # Rejected trials divided by an underflowed length-scale in the kernel.
        (GpPriorEq(generate_data(42, 4).inputs), get_similarity("kl"),
         (-0.4717, -0.3757, 0.1706), (0.1472, 0.1154, -0.1163),
         OptimizerConfig(metric="fisher", damping=1e-14, max_iters=200), "max_iters"),
    ],
    ids=["mvn-chi2", "gp-kl"],
)
def test_rejected_trials_emit_no_floating_point_warnings(family, sim, theta0, target, config,
                                                         status):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = optimize(family, sim, theta0, target, config)
    assert trace.status == status


def test_pullback_run_projects_the_metric_once_per_iteration(monkeypatch):
    # The categorical pullback is singular; the step solve is its one floor.
    calls = []
    real = natgrad.metric.spd_project

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(natgrad.metric, "spd_project", counting)
    monkeypatch.setattr(natgrad.optimizer, "spd_project", counting)
    trace = optimize(CategoricalSoftmax(3), get_similarity("fisher_rao2"), (0.5, -0.3, 0.2),
                     (-0.4, 0.6, 0.1), OptimizerConfig(metric="pullback"))
    assert trace.status == "converged_grad" and trace.iterations >= 2
    assert len(calls) == trace.iterations
    assert all(r.damping > 0.0 for r in trace.records[:-1])


def test_fd_wasserstein_engine_descends_the_registered_cost():
    # the finite-difference engine differentiates the same half-squared W3
    # the optimizer minimizes, so its extrapolation gate holds on the path
    trace = optimize(
        GAUSS, get_similarity("wasserstein:3"), (2.0, 3.0), (0.0, 1.0),
        OptimizerConfig(metric="fd:wasserstein:3"),
    )
    assert trace.status != "numeric_failure"
    assert trace.final_cost < 1e-12


def test_fd_engine_on_smooth_costs_ignores_the_direction_hint():
    # the optimizer passes -g as a direction hint; on a smooth cost the
    # epsilon ladder misses its gate, the stencil at theta does not
    chi2 = optimize(
        GAUSS, get_similarity("chi2"), (0.5, 1.5), (0.0, 1.0), OptimizerConfig(metric="fd:chi2")
    )
    assert chi2.status == "converged_grad" and chi2.final_cost < 1e-12
    fisher_rao = optimize(
        CategoricalSoftmax(3), get_similarity("fisher_rao2"), (0.3, -0.4, 0.1), (-0.2, 0.5, 0.0),
        OptimizerConfig(metric="fd:fisher_rao2"),
    )
    assert fisher_rao.status != "numeric_failure" and fisher_rao.final_cost < 1e-12


def test_fd_fisher_rao_runs_from_random_logits_end_before_max_iters():
    # Built from 2n^2 + 1 cost values, the fd: metric read the null direction
    # (1, 1, 1) of the exact one as an eigenvalue of about -1e-9, below the
    # damping floor, so the first steps ran far along it, to logits where the
    # error grew to -1e-3, and draws 15 and 31 crawled to max_iters (31 at
    # cost 3e-2).  Differences of the gradient keep it within the floor.
    rng, family, sim = np.random.default_rng(0), CategoricalSoftmax(3), get_similarity("fisher_rao2")
    draws = [(rng.normal(0.0, 2.0, 3), rng.normal(0.0, 2.0, 3)) for _ in range(40)]
    statuses = [optimize(family, sim, theta0, target, OptimizerConfig(metric="fd:fisher_rao2")).status
                for theta0, target in draws]
    assert "max_iters" not in statuses


def test_fisher_rao_run_through_underflowing_softmax_returns_a_trace():
    # a line-search trial at extreme logits underflows softmax to an exact
    # zero; that point counts as infinitely bad instead of raising
    trace = optimize(
        CategoricalSoftmax(3), get_similarity("fisher_rao2"), (-0.87, -2.34, 3.48),
        (-0.99, 0.66, -0.52), OptimizerConfig(metric="pullback"),
    )
    assert trace.status != "numeric_failure"
    assert trace.final_cost < 1e-12


def test_default_metric_is_the_similarity_own():
    assert OptimizerConfig().metric is None
    w2 = optimize(GAUSS, get_similarity("wasserstein:2"), (2.0, 3.0), (0.0, 1.0), OptimizerConfig())
    assert w2.status == "converged_grad" and w2.iterations == 1


@pytest.mark.parametrize("A", [np.eye(2), np.array([[2.0, 1.0], [0.0, 1.0]])],
                         ids=["gaussian1d", "reparam(gaussian1d)"])
def test_w2_metric_is_the_hessian_of_the_cost(A):
    # Quantiles are affine in (mu, sigma), so half the squared W2 on the
    # quantile grid is exactly quadratic in the parameters, and the w2_1d
    # metric, integrated on that same grid, is its Hessian: one step lands
    # on the target up to roundoff.  A metric integrated on any other rule
    # is only close to that Hessian, and its one step stops short.  In
    # coordinates theta = A xi the cost is still quadratic, and the metric
    # pulled back by the chain rule is still its Hessian.
    w2 = get_similarity("wasserstein:2")
    rng = np.random.default_rng(14)
    for _ in range(20):
        theta0, target = ([rng.uniform(-2.0, 2.0), rng.uniform(0.5, 3.0)] for _ in range(2))
        if np.array_equal(A, np.eye(2)):
            trace = optimize(GAUSS, w2, theta0, target, OptimizerConfig())
            assert trace.status == "converged_grad" and trace.iterations == 1
            assert trace.final_cost < 1e-28
            continue
        objective, engine = linear_reparameterization(
            make_objective(GAUSS, w2, target), resolve_metric_engine("w2_1d", GAUSS), A)
        xi, _ = natural_gradient_step(objective, engine, np.linalg.solve(A, theta0))
        assert objective.value(xi) < 1e-28
        assert np.linalg.norm(objective.gradient(xi)) < OptimizerConfig().grad_tol


def test_transport_order_without_a_metric_is_refused_at_iteration_0():
    # Half the squared W1 is a cost, but its own metric wp_1d:1 does not
    # exist (rank one, unbounded |velocity|^-1): the metric's route raises
    # CapabilityError at its first call, and the run is refused there, after
    # the one cost evaluation at the start and before any record.
    calls = []

    class CountingW1(WassersteinP):
        def evaluate(self, family, theta, target):
            calls.append(theta)
            return super().evaluate(family, theta, target)

    sim = CountingW1(1.0)
    with pytest.raises(ConfigError, match="wasserstein:1 under the metric wasserstein:1 cannot "
                                          "run on gaussian1d: wasserstein:1 has no metric") as refused:
        optimize(GAUSS, sim, (0.0, 1.0), (1.0, 2.0), OptimizerConfig())
    assert isinstance(refused.value.__cause__, CapabilityError)
    assert len(calls) == 1


@pytest.mark.parametrize("metric, iterations", [("fisher", 37), ("w2_1d", 16)])
def test_transport_order_one_runs_with_another_metric(metric, iterations):
    trace = optimize(GAUSS, get_similarity("wasserstein:1"), (0.5, 1.5), (0.0, 1.0),
                     OptimizerConfig(metric=metric))
    assert trace.status == "converged_cost" and trace.iterations == iterations


def test_numeric_failure_on_divergent_cost():
    # A start where chi2 is +inf is configuration: refused, with the
    # divergence as the cause.  A divergence an engine raises stays numeric.
    chi2 = get_similarity("chi2")
    config = OptimizerConfig(metric="fisher", max_iters=10)
    with pytest.raises(ConfigError, match="chi2 under the metric fisher cannot run on "
                                          "gaussian1d: ") as refused:
        optimize(GAUSS, chi2, (0.0, 1.0), (0.0, 20.0), config)
    assert isinstance(refused.value.__cause__, DivergenceInfiniteError)

    def diverge(th, u=None):
        raise DivergenceInfiniteError("stencil crossed the boundary")

    trace = optimize(GAUSS, chi2, (0.0, 1.0), (0.0, 1.2), config,
                     engine=MetricEngine("diverge", diverge))
    assert trace.status == "numeric_failure" and len(trace.records) == 1
    assert trace.reason == "DivergenceInfiniteError: stencil crossed the boundary"


# The registry product of ROADMAP item 3: the four registry families, nine
# similarities and eight metric ids.  gaussian1d runs from (0.5, 1.5) to
# (0, 1); each other family draws its start and then its target from
# uniform(-0.5, 0.5) of one default_rng(0), in this order.
PRODUCT_SIMILARITIES = ("kl", "reverse_kl", "chi2", "hellinger2", "fisher_rao2",
                        "wasserstein:2", "wasserstein:3", "w2_gaussian", "sq_euclidean")
PRODUCT_METRICS = ("fisher", "fdiv:kl", "pullback", "w2_1d", "wp_1d:3", "w2_gaussian", "fd:kl",
                   "euclidean")


@pytest.fixture(scope="module")
def registry_product():
    """``{(family, similarity, metric): Trace or the ConfigError raised}``
    of one-iteration runs over the product."""
    draws = np.random.default_rng(0)
    starts = [(GAUSS, np.array([0.5, 1.5]), np.array([0.0, 1.0]))]
    for family in (MultivariateNormalLogCholesky(2), CategoricalSoftmax(3),
                   GpPriorEq(generate_data(42, 4).inputs)):
        theta0 = draws.uniform(-0.5, 0.5, family.param_dim)
        starts.append((family, theta0, draws.uniform(-0.5, 0.5, family.param_dim)))
    runs = {}
    for family, theta0, target in starts:
        for sim_id in PRODUCT_SIMILARITIES:
            for metric in PRODUCT_METRICS:
                config = OptimizerConfig(max_iters=1, metric=metric)
                try:
                    run = optimize(family, get_similarity(sim_id), theta0, target, config)
                except ConfigError as exc:
                    run = exc
                runs[family.name, sim_id, metric] = run
    return runs


def test_every_registry_triple_runs_or_is_refused_before_its_first_step(registry_product):
    # A triple either takes its first iteration or is refused: optimize
    # raises ConfigError instead of a trace, so no record exists.  A
    # capability gap and a +inf start are refused; no triple ends
    # numeric_failure at iteration 0.
    assert len(registry_product) == 4 * 9 * 8
    refused = {key for key, run in registry_product.items() if isinstance(run, ConfigError)}
    causes = [type(registry_product[key].__cause__) for key in refused]
    assert len(refused) == 147
    assert causes.count(CapabilityError) == 139 and causes.count(DivergenceInfiniteError) == 8
    for key, run in registry_product.items():
        if key not in refused:
            assert len(run.records) >= 1, (key, run.reason)
            assert run.status != "numeric_failure" or run.iterations > 0, (key, run.reason)
            assert not run.reason.startswith("CapabilityError"), (key, run.reason)
    # What runs on gaussian1d is not refused for lack of a capability.
    assert ("gaussian1d", "wasserstein:3", "wp_1d:3") not in refused
    assert ("mvn_lcholesky:2", "wasserstein:2", "fisher") in refused


def test_chi2_infinite_starts_of_the_registry_product_are_refused(registry_product):
    # The 8 starts where chi2 is +inf, all on mvn_lcholesky:2, are refused,
    # each with the divergence as its cause.
    infinite = {key: run for key, run in registry_product.items()
                if isinstance(run, ConfigError)
                and isinstance(run.__cause__, DivergenceInfiniteError)}
    assert len(infinite) == 8
    assert {key[:2] for key in infinite} == {("mvn_lcholesky:2", "chi2")}
    assert all(str(run).startswith(f"chi2 under the metric {key[2]} cannot run on "
                                   "mvn_lcholesky:2: the alpha-integral")
               for key, run in infinite.items())


def test_a_refused_triple_chains_the_capability_error_and_names_the_triple():
    family, sim = MultivariateNormalLogCholesky(2), get_similarity("wasserstein:2")
    with pytest.raises(ConfigError) as refused:
        optimize(family, sim, np.zeros(5), np.full(5, 0.1), OptimizerConfig(metric="fisher"))
    assert isinstance(refused.value.__cause__, CapabilityError)
    assert str(refused.value) == (f"wasserstein:2 under the metric fisher cannot run on "
                                  f"mvn_lcholesky:2: {refused.value.__cause__}")
    # From the metric engine, after a cost and gradient that exist.
    with pytest.raises(ConfigError, match="kl under the metric pullback cannot run on "
                                          "gaussian1d") as refused:
        optimize(GAUSS, KL, (1.0, 1.0), (0.0, 1.0), OptimizerConfig(metric="pullback"))
    assert isinstance(refused.value.__cause__, CapabilityError)


def test_numeric_failure_from_metric_engine():
    def explode(th, u=None):
        raise NumericError("metric unavailable here")

    engine = MetricEngine("explode", explode)
    config = OptimizerConfig(max_iters=10)
    trace = optimize(GAUSS, KL, (1.0, 1.0), (0.0, 1.0), config)
    assert trace.status == "converged_grad"  # sanity: normal engine works
    trace = optimize(GAUSS, KL, (1.0, 1.0), (0.0, 1.0), config, engine=engine)
    assert trace.status == "numeric_failure"
    assert len(trace.records) == 1  # cost of the starting point was recorded


def test_engine_override_is_used():
    calls = []

    def counting(th, u=None):
        calls.append(np.asarray(th, dtype=float))
        return LocalHessian(np.eye(2))

    config = OptimizerConfig(metric="fisher", grad_tol=1e-6, max_iters=200)
    trace = optimize(GAUSS, KL, (-1.0, 2.0), (0.5, 1.0), config, engine=MetricEngine("count", counting))
    assert trace.status == "converged_grad"
    assert len(calls) == trace.iterations  # one metric build per step taken


def test_direction_hint_is_negative_gradient():
    hints = []

    def recording(th, u=None):
        hints.append(None if u is None else np.asarray(u, dtype=float))
        return LocalHessian(np.eye(2))

    obj = make_objective(GAUSS, KL, np.array([0.0, 1.0]))
    theta = np.array([1.0, 1.0])
    natural_gradient_step(obj, MetricEngine("rec", recording), theta)
    np.testing.assert_allclose(hints[0], -obj.gradient(theta), atol=1e-15)


# -- reparameterization equivariance ---------------------------------------------------


def test_step_transforms_contravariantly(rng):
    # v_xi = A^-1 v_theta for theta = A xi: the natural-gradient step
    # computed in either coordinate system describes the same move
    fisher = resolve_metric_engine("fisher", GAUSS)
    for _ in range(20):
        A = rng.uniform(-1.5, 1.5, size=(2, 2))
        while abs(np.linalg.det(A)) < 0.3:
            A = rng.uniform(-1.5, 1.5, size=(2, 2))
        theta0 = np.array([rng.uniform(-1, 1), rng.uniform(0.7, 1.8)])
        target = np.array([rng.uniform(-1, 1), rng.uniform(0.7, 1.8)])
        objective = make_objective(GAUSS, KL, target)
        next_theta, _ = natural_gradient_step(objective, fisher, theta0, damping=1e-14)
        next_xi, _ = natural_gradient_step(*linear_reparameterization(objective, fisher, A),
                                           np.linalg.solve(A, theta0), damping=1e-14)
        np.testing.assert_allclose(A @ next_xi, next_theta, atol=1e-8)


def test_linear_reparameterization_hands_the_direction_on_in_theta():
    # cost c(A xi), gradient A^T g(A xi), metric A^T H(A xi) A; a direction
    # u in xi reaches the engine as A u, and no direction as None
    A = np.array([[1.2, 0.3], [-0.1, 0.9]])
    seen = []

    def recording(th, u=None):
        seen.append((np.asarray(th, dtype=float), u))
        return LocalHessian(np.array([[2.0, 0.5], [0.5, 1.0]]))

    objective = make_objective(GAUSS, KL, [0.2, 1.1])
    pulled, engine = linear_reparameterization(objective, MetricEngine("rec", recording), A)
    xi, u = np.linalg.solve(A, [0.4, 1.3]), np.array([0.3, -0.7])
    assert pulled.value(xi) == objective.value(A @ xi)
    np.testing.assert_array_equal(pulled.gradient(xi), A.T @ objective.gradient(A @ xi))
    H = engine(xi, u)
    np.testing.assert_allclose(H.matrix, A.T @ [[2.0, 0.5], [0.5, 1.0]] @ A, rtol=1e-15)
    assert H.provenance == "analytic" and engine.name == "rec"
    engine(xi)
    (th, hint), (_, none) = seen
    np.testing.assert_array_equal(th, A @ xi)
    np.testing.assert_array_equal(hint, A @ u)
    assert none is None


@pytest.mark.parametrize("A", [np.eye(3)[:2], np.ones(2), [[np.nan, 0.0], [0.0, 1.0]],
                               [[1.0, 0.0], [0.0, np.inf]]], ids=["2x3", "1-D", "nan", "inf"])
def test_linear_reparameterization_refuses_a_matrix_that_is_not_finite_and_square(A):
    fisher = resolve_metric_engine("fisher", GAUSS)
    with pytest.raises(ValueError, match="^A must be a finite square matrix"):
        linear_reparameterization(make_objective(GAUSS, KL, [0.0, 1.0]), fisher, A)


# -- trace output ------------------------------------------------------------------------


def test_trace_csv_format():
    config = OptimizerConfig(metric="fisher", grad_tol=1e-8)
    trace = optimize(GAUSS, KL, (-1.0, 2.0), (0.5, 1.0), config)
    lines = trace.csv_text().strip().split("\n")
    assert lines[0] == TRACE_CSV_HEADER == "iter,cost,grad_norm,step_norm,damping,time_s"
    assert len(lines) == len(trace.records) + 1
    iters = []
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 6
        iters.append(int(fields[0]))
        assert np.isfinite(float(fields[1]))  # cost
        assert float(fields[2]) >= 0.0  # grad_norm
        assert float(fields[5]) >= 0.0  # time_s
    assert iters == sorted(iters) and len(set(iters)) == len(iters)


def test_trace_to_csv_roundtrip(tmp_path):
    config = OptimizerConfig(metric="fisher", grad_tol=1e-8)
    trace = optimize(GAUSS, KL, (1.0, 1.0), (0.0, 1.0), config)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    assert path.read_text() == trace.csv_text()


def test_repeat_runs_identical_except_time():
    config = OptimizerConfig(metric="fisher", grad_tol=1e-8)
    a = optimize(GAUSS, KL, (-1.0, 2.0), (0.5, 1.0), config)
    b = optimize(GAUSS, KL, (-1.0, 2.0), (0.5, 1.0), config)
    assert a.status == b.status

    def strip_time(trace):
        return [line.rsplit(",", 1)[0] for line in trace.csv_text().strip().split("\n")]

    assert strip_time(a) == strip_time(b)


def test_step_norm_tail_shrinks():
    # superlinear tail: near the minimum each step is much shorter than
    # the one before it
    config = OptimizerConfig(metric="fisher", grad_tol=1e-10, max_iters=100)
    trace = optimize(GAUSS, KL, (-1.0, 2.0), (0.5, 1.0), config)
    steps = [r.step_norm for r in trace.records if r.step_norm > 0]
    assert len(steps) >= 3
    assert steps[-1] < 0.5 * steps[-2] < 0.5 * steps[-3]


def test_accepted_line_search_cost_is_not_evaluated_again(monkeypatch):
    # The point a line search accepts is the next iterate: its cost is
    # reused, so optimize makes one evaluate call fewer per accepted search.
    evaluated, trials, accepted = [], [], []

    class CountedKL(FDivergence):
        def evaluate(self, family, theta, target):
            evaluated.append(np.asarray(theta, dtype=float).tobytes())
            return super().evaluate(family, theta, target)

    real = natgrad.optimizer.backtracking_line_search

    def counting(value, *args):
        alpha, flag = real(lambda point: trials.append(point) or value(point), *args)
        accepted.append(flag == "")
        return alpha, flag

    monkeypatch.setattr(natgrad.optimizer, "backtracking_line_search", counting)
    sim = CountedKL(F_DIVERGENCES["kl"])
    trace = optimize(GAUSS, sim, (-1.0, 2.0), (0.5, 1.0), OptimizerConfig(metric="fisher"))
    assert trace.status == "converged_grad"
    assert sum(accepted) == trace.iterations >= 3
    # A trial outside the domain (sigma <= 0 here) is rejected before the cost.
    inside = [t for t in trials if accepts(GAUSS, t)]
    assert len(inside) < len(trials)
    assert len(evaluated) == 1 + len(inside)  # the start, then one per trial inside
    assert len(set(evaluated)) == len(evaluated)


def test_trial_outside_the_domain_is_not_evaluated():
    # From (0, 1) along -(0, 2): alpha 1 and 1/2 give sigma -1 and 0, and
    # only alpha 1/4, at sigma 0.5, reaches the cost.
    sim = _Scripted(costs=[1.0, 0.0], grads=[(0.0, 2.0), (1.0, 0.0)])
    identity = MetricEngine("identity", lambda th, u=None: LocalHessian(np.eye(2)))
    trace = optimize(GAUSS, sim, (0.0, 1.0), (0.0, 1.0), OptimizerConfig(max_iters=1),
                     engine=identity)
    assert trace.status == "max_iters"
    np.testing.assert_array_equal(sim.points, [[0.0, 1.0], [0.0, 0.5]])
    assert trace.records[0].step_norm == 0.5


def test_fisher_rao_run_to_the_exact_optimum_converges():
    # At this optimum the arccos distance read 0.0 while the gradient norm
    # was still 1.2e-8, and no trial could satisfy Armijo below cost 0.
    trace = optimize(
        CategoricalSoftmax(3), get_similarity("fisher_rao2"), (-0.87, -2.34, 3.48),
        (-0.99, 0.66, -0.52), OptimizerConfig(metric="pullback"),
    )
    assert trace.status == "converged_grad"
    assert trace.final_cost < 1e-20


def _count_central_gradient_calls(monkeypatch) -> list:
    """Patch ``central_gradient`` in every natgrad module that imports it;
    return the list its calls are appended to."""
    calls = []
    real = sys.modules["natgrad.numdiff"].central_gradient

    def counting(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("natgrad") and getattr(module, "central_gradient", None) is real:
            monkeypatch.setattr(module, "central_gradient", counting)
    return calls


@pytest.mark.parametrize(
    "family, sim_id, metric, theta0, target",
    [
        # the onedim-fdiv and onedim-transport problems of the benchmark
        (GAUSS, "chi2", "fdiv:chi2", (2.0, 3.0), (0.0, 1.0)),
        (GAUSS, "hellinger2", "fdiv:hellinger2", (2.0, 3.0), (0.0, 1.0)),
        (GAUSS, "wasserstein:2", "w2_1d", (2.0, 3.0), (0.0, 1.0)),
        (GAUSS, "wasserstein:3", "wp_1d:3", (2.0, 3.0), (0.0, 1.0)),
        # the point-target problems of its closed-form rounds
        (GAUSS, "kl", "fisher", (1.0, 2.0), (-0.5, 0.7)),
        (GAUSS, "reverse_kl", "fdiv:reverse_kl", (1.0, 2.0), (-0.5, 0.7)),
        (MultivariateNormalLogCholesky(2), "kl", "fisher", [0.3] * 5, [-0.2] * 5),
        (MultivariateNormalLogCholesky(3), "kl", "fisher", [0.3] * 9, [-0.2] * 9),
        (CategoricalSoftmax(5), "fisher_rao2", "pullback", [0.5, -0.5, 0, 0.2, 1], [0] * 5),
        (CategoricalSoftmax(5), "chi2", "fisher", [0.5, -0.5, 0, 0.2, 1], [0] * 5),
    ],
    ids=lambda v: getattr(v, "name", None),
)
def test_optimize_makes_no_finite_difference_gradient_call(
    monkeypatch, family, sim_id, metric, theta0, target
):
    # finite differences are the tests' oracle, not a route of the optimizer
    calls = _count_central_gradient_calls(monkeypatch)
    trace = optimize(family, get_similarity(sim_id), theta0, target, OptimizerConfig(metric=metric))
    assert trace.status != "numeric_failure" and trace.final_cost < 1e-10
    assert calls == []


def test_gp_benchmark_makes_no_finite_difference_gradient_call(monkeypatch):
    calls = _count_central_gradient_calls(monkeypatch)
    config = BenchmarkConfig(m=8, metrics=("fisher", "euclidean"), optimizer=OptimizerConfig(max_iters=5))
    traces = run_benchmark(config).traces
    assert all(t.status != "numeric_failure" and t.iterations >= 1 for t in traces.values())
    assert calls == []


def test_empty_trace_names_the_failing_cost():
    # The categorical chi2 at this start overflows (a term near e^800): the
    # trace has no record, and its reason carries the error the cost raised.
    # A start where the cost is +inf is refused instead.
    chi2 = get_similarity("chi2")
    trace = optimize(CategoricalSoftmax(3), chi2, [0, 0, -800], [0, 0, 0], OptimizerConfig())
    assert trace.records == () and trace.status == "numeric_failure"
    assert trace.reason == "NumericError: chi2 sum produced 1 non-finite terms over 3 outcomes"
    with pytest.raises(ConfigError, match="not positive definite") as refused:
        optimize(GAUSS, chi2, [0, 1], [0, 2], OptimizerConfig())
    assert isinstance(refused.value.__cause__, DivergenceInfiniteError)


def test_failure_and_stall_reasons():
    def explode(th, u=None):
        raise NumericError("metric unavailable here")

    trace = optimize(GAUSS, KL, (1.0, 1.0), (0.0, 1.0), OptimizerConfig(),
                     engine=MetricEngine("explode", explode))
    assert trace.reason == "NumericError: metric unavailable here"

    class Uphill(SquaredEuclidean):
        def grad_theta(self, family, theta, target):
            return -super().grad_theta(family, theta, target)

    trace = optimize(GAUSS, Uphill(), (1.0, 1.0), (0.0, 1.0), OptimizerConfig(metric="euclidean"))
    assert trace.status == "line_search_stalled"
    assert f"step floor {ALPHA_FLOOR:g}" in trace.reason
    converged = optimize(GAUSS, KL, (1.0, 1.0), (0.0, 1.0), OptimizerConfig())
    assert converged.status == "converged_grad" and converged.reason == ""
