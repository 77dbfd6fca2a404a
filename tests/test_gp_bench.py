"""GP hyperparameter benchmark: likelihood cost, metrics, comparison runs."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from natgrad.errors import CapabilityError, ConfigError, NumericError
from natgrad.families import Dataset, Gaussian1D, GpPriorEq
import natgrad.gp_bench
import natgrad.metric
import natgrad.similarity
from natgrad.metric import MetricEngine, spd_project, w2_local_hessian_gaussian
from natgrad.optimizer import OptimizerConfig
from natgrad.gp_bench import (
    DEFAULT_THETA0,
    DEFAULT_TRUE_THETA,
    SUMMARY_CSV_HEADER,
    BenchmarkConfig,
    BenchmarkResult,
    GpNllCost,
    eq_kernel,
    generate_data,
    gp_fisher_metric,
    gp_nll,
    gp_nll_grad,
    gp_w2_metric,
    run_benchmark,
)
from natgrad.similarity import F_DIVERGENCES, FDivergence

from conftest import fd_gradient, fd_hessian

# frozen draw for the cofactor-expansion likelihood oracle below:
# default_rng(5).normal(0, 1, 4)
ORACLE_Y4 = np.array(
    [-0.8019314252534474, -1.324358995628145, -0.24836162209524854, 0.4204452380655215]
)
ORACLE_THETA = np.array([0.3, -0.2, -1.0])

# The metric ids of the shipped comparison, in its order.
SHIPPED_METRICS = ("euclidean", "fisher", "w2")


@pytest.fixture(scope="module")
def default_result():
    return run_benchmark(BenchmarkConfig())


# -- kernel -------------------------------------------------------------------------


def test_eq_kernel_diagonal_and_unit_distance():
    K = eq_kernel(np.array([0.0, 1.0]), 0.0, 0.0)
    np.testing.assert_allclose(np.diag(K), 1.0, atol=1e-15)
    assert K[0, 1] == pytest.approx(np.exp(-0.5), abs=1e-15)
    K2 = eq_kernel(np.array([0.0, 1.0]), 0.3, 0.0)
    np.testing.assert_allclose(K2, np.exp(0.6) * K, atol=1e-15)


def test_eq_kernel_lengthscale_widens_correlation():
    x = np.array([0.0, 2.0])
    narrow = eq_kernel(x, 0.0, -0.5)[0, 1]
    wide = eq_kernel(x, 0.0, 1.0)[0, 1]
    assert narrow < wide


# -- negative log-likelihood -----------------------------------------------------------


def test_gp_nll_frozen_cofactor_oracle():
    # frozen from an independent oracle that evaluates the Gaussian
    # density with a recursive cofactor determinant and adjugate inverse
    ds = Dataset(inputs=np.linspace(-3.0, 3.0, 4), targets=ORACLE_Y4, seed=5)
    assert gp_nll(ORACLE_THETA, ds) == pytest.approx(5.659925982306762, abs=1e-10)


def test_gp_nll_single_point_scalar_formula():
    ds = Dataset(inputs=np.array([0.0]), targets=np.array([0.7]), seed=0)
    got = gp_nll(ORACLE_THETA, ds)
    k = np.exp(2 * 0.3) + np.exp(2 * -1.0)  # scalar variance: amp^2 + noise^2
    expected = 0.5 * (np.log(2 * np.pi) + np.log(k) + 0.49 / k)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(1.379923457483075, abs=1e-12)


def test_gp_nll_white_noise_limit():
    # amplitude driven to zero leaves K = I; at y = 0 only the constant
    # (m/2) log(2 pi) survives
    m = 5
    ds = Dataset(inputs=np.linspace(-3.0, 3.0, m), targets=np.zeros(m), seed=0)
    got = gp_nll(np.array([-20.0, 0.0, 0.0]), ds)
    assert got == pytest.approx(0.5 * m * np.log(2 * np.pi), abs=1e-12)


def test_gp_nll_grad_matches_fd(rng):
    ds = generate_data(seed=3, m=10)
    for _ in range(20):
        theta = rng.uniform(-1.0, 1.0, size=3)
        g = gp_nll_grad(theta, ds)
        ref = fd_gradient(lambda t: gp_nll(t, ds), theta)
        np.testing.assert_allclose(g, ref, atol=1e-5 * max(1.0, np.linalg.norm(g)))


def test_gp_nll_grad_zero_target_isolates_trace_term():
    # with y = 0 the quadratic term drops: grad_i = 1/2 tr(K^-1 dK_i)
    m = 6
    ds = Dataset(inputs=np.linspace(-3.0, 3.0, m), targets=np.zeros(m), seed=0)
    fam = GpPriorEq(ds.inputs)
    theta = np.array([0.2, -0.3, -0.8])
    state = fam.gaussian_state(theta, derivs=True)
    expected = np.array([0.5 * np.trace(np.linalg.solve(state.cov, dK)) for dK in state.dcov])
    np.testing.assert_allclose(gp_nll_grad(theta, ds), expected, atol=1e-9)


# -- metrics ------------------------------------------------------------------------------


def test_gp_fisher_matches_fd_of_kl(rng):
    inputs = np.linspace(-3.0, 3.0, 6)
    fam = GpPriorEq(inputs)
    sim = FDivergence(F_DIVERGENCES["kl"])
    for _ in range(3):
        theta = rng.uniform(-0.8, 0.8, size=3)
        H = gp_fisher_metric(theta, inputs).matrix
        ref = fd_hessian(lambda t: sim.evaluate(fam, t, theta.copy()), theta, h=1e-3)
        np.testing.assert_allclose(H, ref, atol=1e-4 * max(1.0, np.max(np.abs(H))))


def test_gp_fisher_positive_definite(rng):
    inputs = np.linspace(-3.0, 3.0, 6)
    for _ in range(50):
        theta = rng.uniform(-1.0, 1.0, size=3)
        eigs = np.linalg.eigvalsh(gp_fisher_metric(theta, inputs).matrix)
        assert eigs[0] > 0.0


def test_gp_w2_single_point_frozen_rank_one():
    # for one input the prior is a scalar normal: the squared-transport
    # curvature is the outer product of d(sqrt k)/d theta, which kills the
    # length-scale direction; frozen via the scalar closed form
    H = gp_w2_metric(ORACLE_THETA, np.array([0.0]))
    frozen = np.array(
        [
            [1.696140384853595, 0.0, 0.125978415536914],
            [0.0, 0.0, 0.0],
            [0.125978415536914, 0.0, 0.009356867699699],
        ]
    )
    np.testing.assert_allclose(H.matrix, frozen, atol=1e-6)
    assert H.provenance == "finite_difference"


def test_gp_w2_projection_makes_it_usable():
    H = gp_w2_metric(ORACLE_THETA, np.array([0.0]))
    assert np.linalg.eigvalsh(H.matrix)[0] < 1e-8  # genuinely degenerate
    projected = spd_project(H)
    assert np.linalg.eigvalsh(projected.matrix)[0] > 0.0
    assert projected.regularization_added > 0.0


def test_gp_w2_symmetric_psd_at_default_start():
    inputs = np.linspace(-3.0, 3.0, 8)
    H = gp_w2_metric(np.asarray(DEFAULT_THETA0), inputs).matrix
    np.testing.assert_array_equal(H, H.T)
    assert np.linalg.eigvalsh(H)[0] > -1e-8


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.5, 0.5)),
)
def test_gp_w2_closed_form_matches_fd_oracle(inputs, theta):
    inputs, theta = np.array(inputs), np.array(theta)
    H = w2_local_hessian_gaussian(GpPriorEq(inputs), theta).matrix
    ref = gp_w2_metric(theta, inputs).matrix
    np.testing.assert_allclose(H, ref, rtol=0, atol=1e-5 * np.max(np.abs(ref)))


def test_gp_w2_metrics_raise_numeric_error_on_overflow():
    inputs, theta = np.linspace(-1.0, 1.0, 4), np.array([400.0, 0.0, 0.0])
    with pytest.raises(NumericError):
        w2_local_hessian_gaussian(GpPriorEq(inputs), theta)
    with pytest.raises(NumericError):
        gp_w2_metric(theta, inputs)


def test_benchmark_w2_makes_no_finite_difference_call(monkeypatch):
    calls, real = [], natgrad.metric.fd_local_hessian

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (natgrad.gp_bench, natgrad.metric, natgrad.similarity):
        monkeypatch.setattr(module, "fd_local_hessian", counting)
    config = BenchmarkConfig(m=8, metrics=("w2",), optimizer=OptimizerConfig(max_iters=5))
    trace = run_benchmark(config).traces["w2"]
    assert trace.status != "numeric_failure" and trace.iterations >= 1
    assert calls == []


# -- data generation -------------------------------------------------------------------


def test_generate_data_deterministic():
    a = generate_data(seed=42, m=30)
    b = generate_data(seed=42, m=30)
    np.testing.assert_array_equal(a.targets, b.targets)
    np.testing.assert_array_equal(a.inputs, np.linspace(-3.0, 3.0, 30))
    assert a.seed == 42
    c = generate_data(seed=43, m=30)
    assert not np.array_equal(a.targets, c.targets)


def test_generate_data_distribution():
    # empirical covariance of many prior draws matches the kernel matrix
    inputs = np.linspace(-3.0, 3.0, 2)
    fam = GpPriorEq(inputs)
    theta = np.asarray(DEFAULT_TRUE_THETA)
    draws = fam.sample(theta, seed=11, count=10_000)
    emp = draws.T @ draws / draws.shape[0]
    K = fam.gaussian_state(theta).cov
    se = np.sqrt((np.outer(np.diag(K), np.diag(K)) + K**2) / draws.shape[0])
    np.testing.assert_array_less(np.abs(emp - K), 5.0 * se)


def test_generate_data_is_one_prior_draw_through_numpys_factor():
    # The family's sampler draws z L^T with L numpy's Cholesky factor of K;
    # the benchmark datasets keep their bits.
    x = np.linspace(-3.0, 3.0, 30)
    K = np.exp(-0.5 * (x[:, None] - x[None, :]) ** 2) + np.exp(-3.0) * np.eye(30)
    expected = np.random.default_rng(42).standard_normal((1, 30)) @ np.linalg.cholesky(K).T
    np.testing.assert_array_equal(generate_data(42, 30).targets, expected[0])


def test_gp_prior_on_one_input_samples_scalars():
    # sample_dim 1: a batch of scalar samples, as every other family's.
    draws = GpPriorEq([0.0]).sample(DEFAULT_TRUE_THETA, 0, 3)
    assert draws.shape == (3,)


@pytest.mark.parametrize("seed", [2.5, -1, True, "42", None])
def test_seed_is_checked_when_the_config_is_built(seed):
    # Accepted, 2.5 and -1 failed later inside numpy's default_rng, and True
    # quietly drew dataset 1.
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        BenchmarkConfig(seed=seed)
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        generate_data(seed=seed, m=4)


def test_generate_data_takes_any_non_negative_integer_seed():
    np.testing.assert_array_equal(generate_data(np.int64(7), 4).targets,
                                  generate_data(7, 4).targets)
    assert generate_data(0, 4).seed == 0


def test_generate_data_small_m():
    ds = generate_data(seed=1, m=2)
    assert ds.targets.shape == (2,)
    with pytest.raises(ValueError):
        generate_data(seed=1, m=1)
    with pytest.raises(ValueError):
        generate_data(seed=1, m=0)


@pytest.mark.parametrize("m", [2, np.int64(5)])
def test_generate_data_takes_any_integer_size(m):
    ds = generate_data(seed=1, m=m)
    np.testing.assert_array_equal(ds.inputs, np.linspace(-3.0, 3.0, int(m)))
    assert ds.targets.shape == (int(m),)


@pytest.mark.parametrize("m", [0, 1, 2.5, 4.0, "4"])
def test_generate_data_refuses_what_the_config_refuses(m):
    # One rule for both: int(2.5) used to make a 2-point dataset.
    with pytest.raises(ValueError, match="m must be an integer >= 2"):
        BenchmarkConfig(m=m)
    with pytest.raises(ValueError, match="m must be an integer >= 2"):
        generate_data(seed=1, m=m)


# -- likelihood cost object --------------------------------------------------------------


def test_gp_cost_requires_dataset_target():
    cost = GpNllCost()
    fam = GpPriorEq(np.linspace(-3.0, 3.0, 4))
    with pytest.raises(TypeError):
        cost.evaluate(fam, ORACLE_THETA, np.array([0.0, 0.0, -1.0]))


def test_gp_cost_requires_matching_family():
    cost = GpNllCost()
    ds = generate_data(seed=2, m=4)
    with pytest.raises(TypeError):
        cost.evaluate(Gaussian1D(), (0.0, 1.0), ds)
    other = GpPriorEq(np.linspace(-1.0, 1.0, 4))  # wrong evaluation grid
    with pytest.raises(TypeError):
        cost.evaluate(other, ORACLE_THETA, ds)


def test_gp_cost_knows_the_dataset_family_by_identity_and_others_by_value(monkeypatch):
    ds = generate_data(seed=2, m=4)
    fam, cost, theta = GpPriorEq(ds.inputs), GpNllCost(), np.array([0.1, 0.2, -0.5])
    calls, real = [], np.array_equal
    monkeypatch.setattr(np, "array_equal", lambda a, b: calls.append(1) or real(a, b))
    values = [cost.evaluate(fam, theta, ds) for _ in range(3)]
    grad = cost.grad_theta(fam, theta, ds)
    assert calls == []  # the family holds the dataset's own inputs
    assert values == [GpNllCost().evaluate(fam, theta, ds)] * 3
    assert grad.tobytes() == GpNllCost().grad_theta(fam, theta, ds).tobytes()
    # A family on a copy of the inputs is compared by value on every call.
    copied = GpPriorEq(np.array(ds.inputs))
    assert cost.evaluate(copied, theta, ds) == values[0] and len(calls) == 1
    # A failing pair is checked on every call.
    other = GpPriorEq(np.linspace(-1.0, 1.0, 4))
    calls.clear()
    for _ in range(2):
        with pytest.raises(TypeError):
            cost.evaluate(other, theta, ds)
    cost.evaluate(fam, theta, ds)
    assert len(calls) == 2


def test_gp_family_shares_read_only_inputs_and_copies_writeable_ones():
    ds = generate_data(seed=2, m=4)
    assert GpPriorEq(ds.inputs).inputs is ds.inputs
    inputs = np.linspace(-1.0, 1.0, 4)
    fam = GpPriorEq(inputs)
    inputs[0] = 5.0  # the caller's array, after construction
    assert fam.inputs[0] == -1.0 and not fam.inputs.flags.writeable
    theta = np.array([0.1, 0.2, -0.5])
    with pytest.raises(TypeError):
        GpNllCost().evaluate(GpPriorEq(inputs), theta, ds)  # mismatched inputs
    with pytest.raises(TypeError):
        GpNllCost().grad_theta(GpPriorEq(inputs), theta, ds)
    # A read-only view changes with its writeable base: the family copies it,
    # and a dataset copies the caller's arrays before sealing its own.
    base = np.linspace(-1.0, 1.0, 4)
    view = base[:]
    view.setflags(write=False)
    fam = GpPriorEq(view)
    base[0] = 5.0
    assert fam.inputs is not view and fam.inputs[0] == -1.0
    on_view = Dataset(inputs=view, targets=np.zeros(4), seed=0)
    assert on_view.inputs is not view and base.flags.writeable
    base[1] = 7.0
    assert on_view.inputs[1] == pytest.approx(-1.0 / 3.0)
    with pytest.raises(TypeError):
        GpNllCost().evaluate(GpPriorEq(base), theta, on_view)


def test_gp_cost_agrees_with_module_functions():
    ds = generate_data(seed=2, m=6)
    fam = GpPriorEq(ds.inputs)
    cost = GpNllCost()
    theta = np.array([0.1, 0.2, -0.5])
    assert cost.evaluate(fam, theta, ds) == pytest.approx(gp_nll(theta, ds), abs=1e-14)
    np.testing.assert_allclose(cost.grad_theta(fam, theta, ds), gp_nll_grad(theta, ds), atol=1e-14)


# -- benchmark configuration ---------------------------------------------------------------


def test_benchmark_config_validation():
    with pytest.raises(ValueError):
        BenchmarkConfig(m=1)
    with pytest.raises(ValueError):
        BenchmarkConfig(metrics=())
    assert BenchmarkConfig().metrics == ("euclidean", "fisher", "w2")


@pytest.mark.parametrize("m", [2.5, 30.0, "30"])
def test_benchmark_config_rejects_a_non_integral_size(m):
    # Accepted, m = 2.5 became a 2-point GP in generate_data.
    with pytest.raises(ValueError, match="m must be an integer"):
        BenchmarkConfig(m=m)


def test_benchmark_config_refuses_a_bare_string_of_metrics():
    # Accepted, "fisher" ran as its characters and failed inside run_benchmark
    # with "unknown benchmark metric 'f'".
    with pytest.raises(ValueError, match="metrics must be a non-empty sequence"):
        BenchmarkConfig(m=4, metrics="fisher")


@pytest.mark.parametrize(
    "theta0", ["abc", (1.0, 2.0), (1.0, 2.0, 3.0, 4.0), (1.0, float("nan"), 0.0),
               (1.0, "2", 0.0), (True, 1.0, 0.0), 1.0, ((1.0,), (2.0,), (3.0,))],
)
def test_benchmark_config_refuses_a_start_that_is_not_three_finite_numbers(theta0):
    # Accepted, "abc" failed with "could not convert string to float: 'a'"
    # and (1, 2) only inside run_benchmark.
    with pytest.raises(ValueError, match="theta0 must be three finite numbers"):
        BenchmarkConfig(m=4, theta0=theta0)


def test_benchmark_config_takes_any_three_finite_numbers():
    for theta0 in ([1, 2, 3], np.array([1.0, 1.2, 0.3]), (np.float64(1.0), 1.2, -3)):
        assert BenchmarkConfig(m=4, theta0=theta0).theta0 is theta0


def test_benchmark_unknown_metric_raises():
    with pytest.raises(ConfigError):
        run_benchmark(BenchmarkConfig(metrics=("bogus",)))


@pytest.mark.parametrize("second", ["pullback", "wp_1d:1"])
def test_benchmark_refuses_a_metric_before_its_first_run(monkeypatch, second):
    # Neither metric exists on the GP family: the refusal comes before fisher
    # runs, chained to the metric's CapabilityError.
    calls = []
    monkeypatch.setattr(natgrad.gp_bench, "optimize", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ConfigError, match=f"gp_nll under the metric {second} cannot run on "
                                          "gp_prior_eq: ") as refused:
        run_benchmark(BenchmarkConfig(m=8, metrics=("fisher", second)))
    assert isinstance(refused.value.__cause__, CapabilityError)
    assert calls == []


def test_benchmark_tries_each_engine_but_the_first_once_before_its_runs(monkeypatch):
    # One call per step of each run, and one more for every metric but the
    # first: a one-metric run does no extra work.
    calls, real = [], MetricEngine.__call__

    def counting(engine, theta, u=None):
        calls.append(engine.name)
        return real(engine, theta, u)

    monkeypatch.setattr(MetricEngine, "__call__", counting)
    config = BenchmarkConfig(m=8, metrics=("euclidean",), optimizer=OptimizerConfig(max_iters=5))
    assert run_benchmark(config).traces["euclidean"].iterations == 5
    assert calls == ["euclidean"] * 5
    calls.clear()
    traces = run_benchmark(replace(config, metrics=("euclidean", "fisher"))).traces
    assert [traces[m].status for m in traces] == ["max_iters", "max_iters"]
    assert calls == ["fisher"] + ["euclidean"] * 5 + ["fisher"] * 5


# -- full comparison ------------------------------------------------------------------------


def test_benchmark_shared_setup(default_result):
    res = default_result
    expected = generate_data(seed=42, m=30)
    np.testing.assert_array_equal(res.dataset.targets, expected.targets)
    assert res.threshold == pytest.approx(
        gp_nll(np.asarray(DEFAULT_TRUE_THETA), expected) + 0.5, abs=1e-12
    )
    assert set(res.traces) == set(SHIPPED_METRICS)


def test_benchmark_no_failures(default_result):
    for metric, trace in default_result.traces.items():
        assert trace.status in ("converged_grad", "converged_cost"), metric
        assert np.isfinite(trace.final_cost)


def test_benchmark_every_metric_reaches_threshold(default_result):
    for metric in SHIPPED_METRICS:
        assert default_result.iters_to_threshold(metric) >= 0, metric


def test_benchmark_fisher_beats_euclidean(default_result):
    fisher = default_result.iters_to_threshold("fisher")
    euclid = default_result.iters_to_threshold("euclidean")
    assert 0 <= fisher < euclid


def test_benchmark_metrics_agree_on_final_cost(default_result):
    # all non-failing runs should find the same basin on this problem
    costs = [t.final_cost for t in default_result.traces.values()]
    assert max(costs) - min(costs) < 1e-2


def test_benchmark_summary_csv(default_result):
    text = default_result.summary_csv()
    lines = text.strip().split("\n")
    assert lines[0] == SUMMARY_CSV_HEADER == "metric,iters_to_threshold,final_cost,status"
    assert len(lines) == 1 + len(SHIPPED_METRICS)
    for line in lines[1:]:
        metric, iters, cost, status = line.split(",")
        assert metric in SHIPPED_METRICS
        assert int(iters) >= -1
        assert np.isfinite(float(cost))
        assert status in ("converged_grad", "converged_cost", "max_iters", "numeric_failure")


def test_benchmark_threshold_miss_reports_minus_one():
    config = BenchmarkConfig(
        m=8,
        metrics=("euclidean",),
        optimizer=OptimizerConfig(max_iters=2, grad_tol=1e-12),
    )
    res = run_benchmark(config)
    assert res.traces["euclidean"].status == "max_iters"
    assert res.iters_to_threshold("euclidean") == -1
    row = res.summary_rows()[0]
    assert row[0] == "euclidean" and row[1] == -1


def test_benchmark_result_is_plain_data(default_result):
    assert isinstance(default_result, BenchmarkResult)
    rows = default_result.summary_rows()
    assert [r[0] for r in rows] == list(SHIPPED_METRICS)


@pytest.mark.parametrize(
    "seed, theta0", [(42, (0.9268, 1.3747, 0.4434)), (2050211610, (0.8088, 1.1913, 0.4019))]
)
def test_euclidean_run_ends_at_a_likelihood_optimum(seed, theta0):
    # From these starts the fixed-halving search stalled with the NLL
    # above the optimum; L-BFGS-B from the same start is the reference.
    res = run_benchmark(BenchmarkConfig(seed=seed, theta0=theta0, metrics=("euclidean",)))
    trace = res.traces["euclidean"]
    family, cost = GpPriorEq(res.dataset.inputs), GpNllCost()
    optimum = scipy.optimize.minimize(
        lambda th: cost.evaluate(family, th, res.dataset), np.asarray(theta0, dtype=float),
        jac=lambda th: cost.grad_theta(family, th, res.dataset), method="L-BFGS-B",
        bounds=[(-8.0, 8.0)] * 3, options={"ftol": 1e-15, "gtol": 1e-10, "maxiter": 5000},
    )
    assert optimum.success
    assert trace.status != "numeric_failure"
    assert abs(trace.final_cost - optimum.fun) <= 1e-6


@pytest.mark.parametrize(
    "metric, max_iters, bound",
    [("euclidean", 2000, 120), ("fisher", 2000, 32), ("w2", 20, 40)],
)
def test_paper_comparison_cost_evaluation_counts(monkeypatch, metric, max_iters, bound):
    # Likelihood evaluations (iterate costs and line-search trials) of the
    # default comparison; each is a kernel build and a Cholesky factorization.
    # A fixed-halving search from alpha 1 needed 307, 32 and 84.
    calls = []

    class CountingCost(GpNllCost):
        def evaluate(self, family, theta, target):
            calls.append(1)
            return super().evaluate(family, theta, target)

    monkeypatch.setattr(natgrad.gp_bench, "GpNllCost", CountingCost)
    config = BenchmarkConfig(
        seed=42, m=30, theta0=DEFAULT_THETA0, metrics=(metric,),
        optimizer=OptimizerConfig(max_iters=max_iters, grad_tol=1e-6),
    )
    trace = run_benchmark(config).traces[metric]
    assert trace.status == ("max_iters" if metric == "w2" else "converged_grad")
    assert 0 < len(calls) <= bound
