"""Similarity measures: f-divergences, Wasserstein, Fisher-Rao, combinators."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import natgrad.families
import natgrad.quadrature
from natgrad.errors import (
    CapabilityError,
    ConfigError,
    DivergenceInfiniteError,
    NumericError,
)
from natgrad.families import (
    CategoricalSoftmax,
    CategoricalState,
    Dataset,
    Gaussian1D,
    GaussianState,
    GpPriorEq,
    MultivariateNormalLogCholesky,
)
from natgrad.gp_bench import GpNllCost
from natgrad.metric import fisher_information
from natgrad.optimizer import (
    OptimizerConfig,
    _solve_step,
    linear_reparameterization,
    make_objective,
    optimize,
)
from natgrad.quadrature import DEFAULT_TAIL_MASS, composite_legendre, unit_interval_grid
from natgrad.similarity import (
    F_DIVERGENCES,
    SIMILARITY_IDS,
    FDivergence,
    Similarity,
    SquaredEuclidean,
    SquaredFisherRaoCategorical,
    SquaredW2Gaussian,
    WassersteinP,
    _fisher_rao_distance,
    get_similarity,
    own_metric_engine,
    resolve_metric_engine,
)

from conftest import fd_gradient, mvn_theta, richardson_gradient

GAUSS = Gaussian1D()
CAT3 = CategoricalSoftmax(3)


def _window_sum(spec, family, theta, target):
    """D_f of a 1-D continuous family by composite Gauss-Legendre over the
    union of the two points' quantile windows ``[quantile(delta),
    quantile(1 - delta)]``, ``delta = DEFAULT_TAIL_MASS``: a route
    independent of the closed forms."""
    points = family.point(theta), family.point(target)
    levels = (DEFAULT_TAIL_MASS, 1.0 - DEFAULT_TAIL_MASS)
    ends = np.array([family.quantile(p, levels) for p in points])
    nodes, weights = composite_legendre(ends[:, 0].min(), ends[:, 1].max())
    logp, logq = (family.log_density(p, nodes) for p in points)
    return float(weights @ spec.f(logp, logq))


def _wasserstein(theta, target, p):
    """The p-Wasserstein distance between two 1-D Gaussians, ``sqrt(2 evaluate)``."""
    return np.sqrt(2.0 * WassersteinP(p).evaluate(GAUSS, theta, target))


def _squared_w2_of_moments(mean1, cov1, mean2, cov2):
    """``W2^2`` between two Gaussians given by their moments, on ``mvn_lcholesky``."""
    family = MultivariateNormalLogCholesky(len(mean1))
    points = mvn_theta(mean1, cov1), mvn_theta(mean2, cov2)
    return 2.0 * SquaredW2Gaussian().evaluate(family, *points)


def _hellinger2_gaussian(m1, s1, m2, s2):
    # squared Hellinger integral (without the conventional 1/2):
    # 2 * (1 - BC) with the Gaussian Bhattacharyya coefficient
    bc = np.sqrt(2 * s1 * s2 / (s1**2 + s2**2)) * np.exp(-((m1 - m2) ** 2) / (4 * (s1**2 + s2**2)))
    return 2.0 * (1.0 - bc)


# -- f-divergences: closed-form anchor values -----------------------------------


def test_kl_unit_mean_shift():
    sim = FDivergence(F_DIVERGENCES["kl"])
    assert sim.evaluate(GAUSS, (1.0, 1.0), (0.0, 1.0)) == pytest.approx(0.5, abs=1e-12)


def test_kl_mean_and_scale_shift():
    # 0.5 * (tr + maha - 1 + logdet ratio) for N(0,1) against N(1,4)
    sim = FDivergence(F_DIVERGENCES["kl"])
    assert sim.evaluate(GAUSS, (0.0, 1.0), (1.0, 2.0)) == pytest.approx(
        0.4431471805599453, abs=1e-12
    )


def test_reverse_kl_swaps_arguments():
    fwd = FDivergence(F_DIVERGENCES["kl"])
    rev = FDivergence(F_DIVERGENCES["reverse_kl"])
    a, b = (0.3, 0.8), (1.1, 1.7)
    assert rev.evaluate(GAUSS, a, b) == pytest.approx(fwd.evaluate(GAUSS, b, a), abs=1e-12)


def test_chi2_variance_ratio_closed_form():
    # E_p[(q/p - 1)^2] for p = N(0, s^2), q = N(0, 1) is s/sqrt(2 - 1/s^2) - 1
    spec = F_DIVERGENCES["chi2"]
    for s in (2.0, 5.0, 20.0):
        got = FDivergence(spec).evaluate(GAUSS, (0.0, s), (0.0, 1.0))
        exact = s / np.sqrt(2.0 - 1.0 / s**2) - 1.0
        assert got == pytest.approx(exact, rel=1e-6)


def test_chi2_against_monte_carlo_oracle():
    # frozen mean of (ratio - 1)^2 over 1e6 standard normal draws, seed 123;
    # standard error 1.478e-5, closed form exp(0.01) - 1
    got = FDivergence(F_DIVERGENCES["chi2"]).evaluate(GAUSS, (0.0, 1.0), (0.1, 1.0))
    assert got == pytest.approx(0.010043176998719, abs=3 * 1.478e-5)
    assert got == pytest.approx(np.exp(0.01) - 1.0, rel=1e-8)


def test_hellinger2_closed_form():
    got = FDivergence(F_DIVERGENCES["hellinger2"]).evaluate(GAUSS, (0.0, 1.0), (1.0, 2.0))
    assert got == pytest.approx(_hellinger2_gaussian(0.0, 1.0, 1.0, 2.0), abs=1e-10)


def test_hellinger2_symmetric(rng):
    sim = FDivergence(F_DIVERGENCES["hellinger2"])
    for _ in range(10):
        a = (rng.uniform(-1, 1), rng.uniform(0.5, 2))
        b = (rng.uniform(-1, 1), rng.uniform(0.5, 2))
        assert sim.evaluate(GAUSS, a, b) == pytest.approx(sim.evaluate(GAUSS, b, a), abs=1e-10)


# Pairs whose quantile windows hold the chi2 integrand q^2/p: the target is
# not wider than theta.
FITTING_PAIRS = [((0.4, 1.3), (-0.2, 0.9)), ((0.0, 2.0), (1.0, 1.0)), ((0.3, 0.8), (0.1, 0.8)),
                 ((-1.2, 1.7), (0.5, 1.1)), ((2.0, 0.6), (1.9, 0.55))]


@pytest.mark.parametrize("name", ["chi2", "hellinger2"])
def test_alpha_integral_closed_forms_match_independent_quadrature(name):
    # scipy's adaptive quadrature over the whole line, independent of the
    # window rule; Gaussian log-densities written out here
    from scipy.integrate import quad

    spec = F_DIVERGENCES[name]
    for (m1, s1), (m2, s2) in FITTING_PAIRS:
        def integrand(x):
            logp = -0.5 * ((x - m1) / s1) ** 2 - np.log(s1 * np.sqrt(2.0 * np.pi))
            logq = -0.5 * ((x - m2) / s2) ** 2 - np.log(s2 * np.sqrt(2.0 * np.pi))
            return spec.f(logp, logq)

        oracle = quad(integrand, m1 - 40.0 * s1, m1 + 40.0 * s1, points=[m1, m2], limit=200,
                      epsabs=1e-14, epsrel=1e-12)[0]
        closed = FDivergence(spec).evaluate(GAUSS, (m1, s1), (m2, s2))
        assert closed == pytest.approx(oracle, rel=1e-9, abs=1e-12)
        windowed = _window_sum(spec, GAUSS, (m1, s1), (m2, s2))
        assert closed == pytest.approx(windowed, rel=1e-9, abs=1e-11)
        if name == "hellinger2":
            assert closed == pytest.approx(_hellinger2_gaussian(m1, s1, m2, s2), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("name", ["chi2", "hellinger2"])
def test_alpha_integral_on_a_diagonal_mvn_is_the_product_of_1d_integrals(name):
    # I(alpha) factors over independent coordinates: chi2 + 1 = prod (chi2_i + 1),
    # 1 - hellinger2 / 2 = prod (1 - hellinger2_i / 2); 1-D values by quadrature
    spec, fam = F_DIVERGENCES[name], MultivariateNormalLogCholesky(2)
    (mu, sigma), (nu, tau) = np.array([[0.4, -0.3], [1.3, 0.8]]), np.array([[-0.2, 0.1], [0.9, 0.7]])
    theta = np.array([*mu, np.log(sigma[0]), 0.0, np.log(sigma[1])])
    target = np.array([*nu, np.log(tau[0]), 0.0, np.log(tau[1])])
    ones = [_window_sum(spec, GAUSS, (mu[i], sigma[i]), (nu[i], tau[i])) for i in range(2)]
    if name == "chi2":
        expected = np.prod([1.0 + d for d in ones]) - 1.0
    else:
        expected = 2.0 - 2.0 * np.prod([1.0 - 0.5 * d for d in ones])
    assert FDivergence(spec).evaluate(fam, theta, target) == pytest.approx(expected, rel=1e-10)


def test_chi2_closed_form_where_the_window_truncates_and_descent_converges():
    # The target is wider than theta: q^2/p has scale (2/s_q^2 - 1/s_p^2)^(-1/2),
    # wider than both quantile windows, which cut chi2 to about 71.18.
    theta, target = [0.45037971, 1.03140094], [-0.62462085, 1.35789006]
    spec = F_DIVERGENCES["chi2"]
    (m1, s1), (m2, s2) = theta, target
    var = 2.0 * s1**2 - s2**2
    exact = s1**2 / (s2 * np.sqrt(var)) * np.exp((m1 - m2) ** 2 / var) - 1.0
    assert FDivergence(spec).evaluate(GAUSS, theta, target) == pytest.approx(exact, rel=1e-12)
    assert FDivergence(spec).evaluate(GAUSS, theta, target) == pytest.approx(85.41, abs=5e-3)
    trace = optimize(GAUSS, get_similarity("chi2"), theta, target, OptimizerConfig(metric="fdiv:chi2"))
    assert trace.status == "converged_grad" and trace.final_cost < 1e-12


@pytest.mark.parametrize("family", [GAUSS, MultivariateNormalLogCholesky(2)], ids=lambda f: f.name)
@pytest.mark.parametrize("sim_id", ["chi2", "hellinger2"])
def test_gaussian_alpha_divergence_runs_use_no_categorical_sum(family, sim_id, monkeypatch):
    sim = get_similarity(sim_id)
    calls, real = [], sim.forms[CategoricalState]
    monkeypatch.setitem(sim.forms, CategoricalState,
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    theta0 = np.linspace(0.4, 1.2, family.param_dim)
    target = theta0 - np.linspace(0.3, -0.2, family.param_dim)
    trace = optimize(family, sim, theta0, target, OptimizerConfig())
    assert trace.status == "converged_grad" and trace.final_cost < 1e-12
    assert calls == []


def test_kl_quadrature_matches_closed_form():
    a, b = (0.3, 0.7), (1.1, 1.9)
    quad = _window_sum(F_DIVERGENCES["kl"], GAUSS, a, b)
    closed = FDivergence(F_DIVERGENCES["kl"]).evaluate(GAUSS, a, b)
    assert quad == pytest.approx(closed, abs=1e-8)


def test_reverse_kl_quadrature_matches_closed_form():
    a, b = (0.0, 1.0), (1.0, 2.0)
    quad = _window_sum(F_DIVERGENCES["reverse_kl"], GAUSS, a, b)
    assert quad == pytest.approx(1.3068528194400547, abs=1e-8)


def test_discrete_kl_exact_summation():
    p = CAT3.probabilities(np.array([0.2, -0.1, 0.4]))
    q = CAT3.probabilities(np.array([-0.3, 0.5, 0.0]))
    expected = float(np.sum(p * np.log(p / q)))
    got = FDivergence(F_DIVERGENCES["kl"]).evaluate(CAT3, [0.2, -0.1, 0.4], [-0.3, 0.5, 0.0])
    assert got == pytest.approx(expected, abs=1e-14)


def test_gaussian_kl_mvn_monte_carlo():
    fam = MultivariateNormalLogCholesky(2)
    t1 = np.array([0.2, -0.4, 0.1, 0.5, -0.2])
    t2 = np.array([-0.3, 0.1, -0.1, -0.4, 0.15])
    closed = get_similarity("kl").evaluate(fam, t1, t2)
    xs = fam.sample(t1, seed=31, count=400_000)
    log_ratio = np.array([fam.log_density(t1, x) - fam.log_density(t2, x) for x in xs[:50_000]])
    mc = float(np.mean(log_ratio))
    se = float(np.std(log_ratio) / np.sqrt(log_ratio.size))
    assert closed == pytest.approx(mc, abs=4 * se)


# -- Wasserstein -------------------------------------------------------------------


def test_w2_mean_and_scale_shift():
    # sqrt((mu1-mu2)^2 + (s1-s2)^2) for 1-D Gaussians
    got = _wasserstein((0.0, 1.0), (1.0, 2.0), 2.0)
    assert got == pytest.approx(np.sqrt(2.0), abs=1e-9)


def test_wp_pure_translation_any_order():
    for p in (1.0, 2.0, 3.0, 4.5):
        got = _wasserstein((0.0, 1.0), (1.0, 1.0), p)
        assert got == pytest.approx(1.0, abs=1e-9)


def test_w3_scale_shift_frozen_oracle():
    # frozen from an independent discrete-transport oracle (1e4 midpoint
    # quantile atoms): 1.168370638218241; continuum value (2 sqrt(2/pi))^(1/3)
    got = _wasserstein((0.0, 1.0), (0.0, 2.0), 3.0)
    assert got == pytest.approx(1.168370638218241, abs=1e-3)
    assert got == pytest.approx((2.0 * np.sqrt(2.0 / np.pi)) ** (1.0 / 3.0), abs=1e-8)


def test_wp_order_monotone_in_p():
    # for fixed marginals, W_p is nondecreasing in p (Jensen)
    vals = [_wasserstein((0.0, 1.0), (0.5, 1.7), p) for p in (1.0, 2.0, 3.0)]
    assert vals[0] <= vals[1] + 1e-12 and vals[1] <= vals[2] + 1e-12


def test_w2_triangle_inequality(rng):
    for _ in range(25):
        pts = [(rng.uniform(-2, 2), rng.uniform(0.4, 2.5)) for _ in range(3)]
        ab = _wasserstein(pts[0], pts[1], 2.0)
        bc = _wasserstein(pts[1], pts[2], 2.0)
        ac = _wasserstein(pts[0], pts[2], 2.0)
        assert ac <= ab + bc + 1e-9


def test_wp_symmetry(rng):
    sim = WassersteinP(2.0)
    for _ in range(10):
        a = (rng.uniform(-2, 2), rng.uniform(0.4, 2.5))
        b = (rng.uniform(-2, 2), rng.uniform(0.4, 2.5))
        assert sim.evaluate(GAUSS, a, b) == pytest.approx(sim.evaluate(GAUSS, b, a), abs=1e-12)


def test_wasserstein_rejects_order_below_one():
    with pytest.raises(ValueError):
        WassersteinP(0.5)
    with pytest.raises(ValueError):
        WassersteinP(0.9)


def test_wasserstein_needs_cdf():
    with pytest.raises(CapabilityError):
        WassersteinP(2.0).evaluate(CAT3, np.zeros(3), np.ones(3))


def test_transport_grid_quantiles_take_ndtri_once_per_process(monkeypatch):
    calls = []
    for module in (natgrad.families, natgrad.quadrature):
        real = module.ndtri
        monkeypatch.setattr(module, "ndtri", lambda q, real=real: calls.append(np.size(q)) or real(q))
    sim, theta, target = WassersteinP(2.0), (0.3, 1.2), (-0.5, 0.7)
    first = (sim.evaluate(GAUSS, theta, target), sim.grad_theta(GAUSS, theta, target))
    calls.clear()
    again = (sim.evaluate(GAUSS, theta, target), sim.grad_theta(GAUSS, theta, target))
    assert calls == []
    assert again[0] == first[0] and np.array_equal(again[1], first[1])
    # The quantiles a point keeps on the grid, from the cached scores, are the
    # bits that quantile gives on the grid's levels through a fresh ndtri.
    levels = unit_interval_grid()[0]
    cached, fresh = GAUSS.point(theta).transport()[0], GAUSS.quantile(theta, levels)
    assert calls == [levels.size]
    assert cached.tobytes() == fresh.tobytes()


# -- Gaussian closed-form squared W2 --------------------------------------------------


def test_squared_w2_gaussian_1d_values():
    assert _squared_w2_of_moments([0.0], [[1.0]], [1.0], [[4.0]]) == pytest.approx(2.0, abs=1e-12)
    sim = SquaredW2Gaussian()
    assert sim.evaluate(GAUSS, (0.0, 1.0), (1.0, 2.0)) == pytest.approx(1.0, abs=1e-12)
    assert sim.evaluate(GAUSS, (3.0, 1.5), (3.0, 1.5)) == 0.0


def test_squared_w2_gaussian_matches_quantile_route(rng):
    sim = SquaredW2Gaussian()
    for _ in range(10):
        a = (rng.uniform(-2, 2), rng.uniform(0.4, 2.5))
        b = (rng.uniform(-2, 2), rng.uniform(0.4, 2.5))
        assert np.sqrt(2.0 * sim.evaluate(GAUSS, a, b)) == pytest.approx(
            _wasserstein(a, b, 2.0), abs=1e-8
        )


def test_squared_w2_gaussian_diagonal_reduction(rng):
    # diagonal covariances reduce to a sum of 1-D squared distances
    for _ in range(10):
        m1, m2 = rng.uniform(-2, 2, size=2), rng.uniform(-2, 2, size=2)
        a, b = rng.uniform(0.4, 2.5, size=2), rng.uniform(0.4, 2.5, size=2)
        got = _squared_w2_of_moments(m1, np.diag(a**2), m2, np.diag(b**2))
        expected = float(np.sum((m1 - m2) ** 2) + np.sum((a - b) ** 2))
        assert got == pytest.approx(expected, abs=1e-10)


def test_squared_w2_gaussian_commuting_exchange(rng):
    for _ in range(10):
        m = rng.uniform(-1, 1, size=2)
        a = rng.uniform(0.4, 2.0, size=2)
        got = _squared_w2_of_moments(m, np.diag(a**2), m, np.diag(a**2))
        assert got == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("sim_id", ["kl", "w2_gaussian"])
def test_gaussian_closed_forms_of_moments_need_positive_definite_covariances(sim_id):
    mean1, cov1 = np.array([0.2, -0.1]), np.array([[1.0, 0.3], [0.3, 2.0]])
    mean2, cov2 = np.array([0.5, 0.3]), np.array([[0.5, -0.1], [-0.1, 0.7]])
    family = MultivariateNormalLogCholesky(2)
    points = mvn_theta(mean1, cov1), mvn_theta(mean2, cov2)
    assert get_similarity(sim_id).evaluate(family, *points) > 0.0
    # A covariance that is not positive definite has no Gaussian state: no value.
    for bad in ([[1.0, 2.0], [2.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]]):
        with pytest.raises(NumericError):
            GaussianState.factor(mean1, mean1, np.array(bad))


def test_squared_w2_gaussian_needs_gaussian_family():
    with pytest.raises(CapabilityError):
        SquaredW2Gaussian().evaluate(CAT3, np.zeros(3), np.zeros(3))


# -- Fisher-Rao on the simplex ----------------------------------------------------


def test_fisher_rao_distance_frozen_geodesic_oracle():
    # frozen from an independent polyline geodesic minimization on the
    # simplex (25 segments): 0.644816810251 for these two points
    d = _fisher_rao_distance(np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.5, 0.3]))
    assert d == pytest.approx(0.644816810251, abs=1e-6)
    sim = SquaredFisherRaoCategorical()
    half = sim.evaluate(CAT3, np.log([0.5, 0.3, 0.2]), np.log([0.2, 0.5, 0.3]))
    assert half == pytest.approx(0.5 * d * d, abs=1e-14)


def test_fisher_rao_near_boundary():
    p = np.array([0.98, 0.01, 0.01])
    q = np.array([0.01, 0.98, 0.01])
    affinity = float(np.sum(np.sqrt(p * q)))
    assert _fisher_rao_distance(p, q) == pytest.approx(2.0 * np.arccos(affinity), abs=1e-12)


def test_fisher_rao_resolves_tiny_distances():
    # the chord formula resolves distances far below the ~3e-8 at which
    # arccos of an affinity near 1 reads exactly 0
    p = np.array([0.2, 0.3, 0.5])
    q = p + 1e-12 * np.array([1.0, -1.0, 0.0])
    chord = 2.0 * np.linalg.norm(np.sqrt(p) - np.sqrt(q))  # equals d up to O(d^3)
    assert _fisher_rao_distance(p, q) == pytest.approx(chord, rel=1e-6)
    assert _fisher_rao_distance(p, p) == 0.0


def test_fisher_rao_via_softmax_family():
    sim = SquaredFisherRaoCategorical()
    got = sim.evaluate(CAT3, np.log([0.5, 0.3, 0.2]), np.log([0.2, 0.5, 0.3]))
    d = _fisher_rao_distance(np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.5, 0.3]))
    assert got == pytest.approx(0.5 * d * d, abs=1e-12)


def test_fisher_rao_underflowed_softmax_is_a_numeric_error():
    sim, far = SquaredFisherRaoCategorical(), (800.0, 0.0, 0.0)
    with pytest.raises(NumericError):
        sim.evaluate(CAT3, far, (0.0, 0.0, 0.0))
    with pytest.raises(NumericError):
        sim.grad_theta(CAT3, (0.0, 0.0, 0.0), far)


def test_fisher_rao_needs_categorical():
    with pytest.raises(CapabilityError):
        SquaredFisherRaoCategorical().evaluate(GAUSS, (0.0, 1.0), (1.0, 1.0))


# -- identity of indiscernibles and nonnegativity ------------------------------------


@pytest.mark.parametrize("sim_id", ["kl", "reverse_kl", "chi2", "hellinger2", "w2_gaussian", "sq_euclidean"])
def test_zero_at_coincidence_gaussian(rng, sim_id):
    sim = get_similarity(sim_id)
    for _ in range(100):
        theta = (rng.uniform(-2, 2), rng.uniform(0.4, 2.5))
        val = sim.evaluate(GAUSS, theta, theta)
        assert 0.0 <= val < 1e-10


def test_zero_at_coincidence_wasserstein(rng):
    sim = WassersteinP(2.0)
    for _ in range(100):
        theta = (rng.uniform(-2, 2), rng.uniform(0.4, 2.5))
        assert sim.evaluate(GAUSS, theta, theta) == 0.0


def test_zero_at_coincidence_categorical(rng):
    sim = SquaredFisherRaoCategorical()
    for _ in range(100):
        theta = rng.normal(size=3)
        assert 0.0 <= sim.evaluate(CAT3, theta, theta) < 1e-10


def test_positive_off_coincidence(rng):
    for sim_id in ("kl", "chi2", "hellinger2"):
        sim = get_similarity(sim_id)
        for _ in range(20):
            a = (rng.uniform(-2, 2), rng.uniform(0.4, 2.5))
            b = (a[0] + rng.uniform(0.1, 1.0), a[1])
            assert sim.evaluate(GAUSS, a, b) > 1e-6


# -- gradients ---------------------------------------------------------------------


def test_kl_gradient_closed_form_and_fd(rng):
    sim = FDivergence(F_DIVERGENCES["kl"])
    for _ in range(100):
        theta = np.array([rng.uniform(-1.5, 1.5), rng.uniform(0.5, 2.0)])
        target = np.array([rng.uniform(-1.5, 1.5), rng.uniform(0.5, 2.0)])
        g = sim.grad_theta(GAUSS, theta, target)
        expected = np.array(
            [
                (theta[0] - target[0]) / target[1] ** 2,
                -1.0 / theta[1] + theta[1] / target[1] ** 2,
            ]
        )
        np.testing.assert_allclose(g, expected, atol=1e-12)
        ref = fd_gradient(lambda t: sim.evaluate(GAUSS, t, target), theta)
        np.testing.assert_allclose(g, ref, atol=1e-5)


def test_fisher_rao_gradient_matches_fd(rng):
    sim = SquaredFisherRaoCategorical()
    for _ in range(50):
        theta = rng.normal(size=3)
        target = rng.normal(size=3)
        g = sim.grad_theta(CAT3, theta, target)
        ref = fd_gradient(lambda t: sim.evaluate(CAT3, t, target), theta)
        np.testing.assert_allclose(g, ref, atol=1e-6)


def test_default_fd_gradient_chi2(rng):
    # the analytic quadrature gradient against an independent FD gradient
    sim = FDivergence(F_DIVERGENCES["chi2"])
    for _ in range(10):
        theta = np.array([rng.uniform(-1, 1), rng.uniform(0.7, 1.5)])
        target = theta + rng.uniform(-0.2, 0.2, size=2)
        target[1] = max(target[1], 0.5)
        g = sim.grad_theta(GAUSS, theta, target)
        ref = fd_gradient(lambda t: sim.evaluate(GAUSS, t, target), theta)
        np.testing.assert_allclose(g, ref, atol=1e-5)


def test_gradient_vanishes_at_coincidence(rng):
    for sim_id in ("kl", "chi2", "hellinger2", "w2_gaussian", "sq_euclidean"):
        sim = get_similarity(sim_id)
        for _ in range(20):
            theta = np.array([rng.uniform(-1.5, 1.5), rng.uniform(0.6, 2.0)])
            g = sim.grad_theta(GAUSS, theta, theta.copy())
            np.testing.assert_allclose(g, 0.0, atol=1e-7)


def test_sq_euclidean_gradient_exact(rng):
    sim = SquaredEuclidean()
    theta = rng.normal(size=2)
    theta[1] = abs(theta[1]) + 0.5
    target = theta + np.array([0.3, 0.1])
    np.testing.assert_allclose(sim.grad_theta(GAUSS, theta, target), theta - target, atol=1e-15)
    assert sim.evaluate(GAUSS, theta, target) == pytest.approx(
        0.5 * np.sum((theta - target) ** 2), abs=1e-15
    )


GRADIENT_FAMILIES = [
    GAUSS,
    *(MultivariateNormalLogCholesky(d) for d in (1, 2, 3)),
    *(CategoricalSoftmax(k) for k in (2, 3, 4, 5)),
    GpPriorEq(np.linspace(-2.0, 2.0, 4)),
]
GRADIENT_SIMILARITIES = [
    "kl", "reverse_kl", "chi2", "hellinger2", "fisher_rao2",
    "wasserstein:2", "wasserstein:3", "w2_gaussian", "sq_euclidean",
]


@st.composite
def point_pairs(draw, family):
    """A point of ``family`` and a nearby target, close enough that every
    f-divergence between them is finite."""
    def uniform(lo, hi, n):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    if isinstance(family, Gaussian1D):  # (mu, sigma)
        mu, sigma = uniform(-1.5, 1.5, 1)[0], uniform(0.5, 2.0, 1)[0]
        step, log_ratio = uniform(-0.5, 0.5, 1)[0], uniform(-0.25, 0.25, 1)[0]
        return np.array([mu, sigma]), np.array([mu + step, sigma * np.exp(log_ratio)])
    lo, hi = (-1.0, 0.5) if isinstance(family, GpPriorEq) else (-1.5, 1.5)
    theta = uniform(lo, hi, family.param_dim)
    return theta, theta + uniform(-0.3, 0.3, family.param_dim)


@pytest.mark.parametrize("sim_id", GRADIENT_SIMILARITIES)
@pytest.mark.parametrize("family", GRADIENT_FAMILIES, ids=lambda f: f.name)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_gradient_matches_fd_of_registered_cost(family, sim_id, data):
    # grad_theta is the derivative of the registered evaluate along the
    # route evaluate takes; where evaluate has no route, neither has it.
    # A chi2 pair whose weighted covariance 2 S1 - S2 is indefinite is
    # infinite, on both routes alike.
    sim = get_similarity(sim_id)
    theta, target = data.draw(point_pairs(family))
    try:
        sim.evaluate(family, theta, target)
    except (CapabilityError, DivergenceInfiniteError) as exc:
        with pytest.raises(type(exc)) as grad_exc:
            sim.grad_theta(family, theta, target)
        assert str(grad_exc.value) == str(exc)
        return
    g = sim.grad_theta(family, theta, target)
    # The O(h^6) oracle: near the chi2 boundary the gradient is steep, and a
    # two-point stencil's O(h^2) error there exceeds the 1e-8 tolerance.
    ref = richardson_gradient(lambda t: sim.evaluate(family, t, target), theta)
    # The 1-D transport costs keep their looser tolerance: W3's |gap|^3 is
    # only piecewise smooth for the oracle's stencil.
    quadrature = isinstance(family, Gaussian1D) and sim_id in ("wasserstein:2", "wasserstein:3")
    tol = 1e-6 if quadrature else 1e-8
    np.testing.assert_allclose(g, ref, rtol=0, atol=tol * max(1.0, np.max(np.abs(ref))))


def test_gradient_matches_fd_of_chi2_near_its_boundary():
    # A pair near where 2 S1 - S2 turns indefinite (chi2 5.7e4): the O(h^4)
    # oracle is 1.3e-7 off here, its O(h^6) extrapolation 3e-11.
    family, sim = MultivariateNormalLogCholesky(3), get_similarity("chi2")
    theta = np.array([0.0, 0.0, 0.0, 0.0, 0.0, -1.140625, 0.0, 0.0, -0.65625])
    target = np.array([0.0, 0.0, 0.25, -0.01171875, 0.23336437, -1.2890625, 0.0, 0.2421875,
                       -0.65625])
    assert sim.evaluate(family, theta, target) > 5e4
    ref = richardson_gradient(lambda t: sim.evaluate(family, t, target), theta)
    np.testing.assert_allclose(sim.grad_theta(family, theta, target), ref, rtol=0,
                               atol=1e-8 * max(1.0, np.max(np.abs(ref))))


def _reparam_matrix(n):
    """A fixed well-conditioned ``n x n`` matrix (condition number below 5
    for every parameter dimension here)."""
    i, j = np.indices((n, n))
    return np.eye(n) + 0.3 * np.sin(1.0 + i + 2.0 * j)


ANALYTIC_METRICS = ["fisher", *(f"fdiv:{name}" for name in F_DIVERGENCES), "pullback",
                    "w2_1d", "wp_1d:3", "w2_gaussian", "euclidean"]


@pytest.mark.parametrize("sim_id", GRADIENT_SIMILARITIES)
@pytest.mark.parametrize("family", GRADIENT_FAMILIES, ids=lambda f: f.name)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_linear_reparameterization_is_the_chain_rule(family, sim_id, data):
    # In coordinates theta = A xi the gradient is that of xi -> c(A xi,
    # target), and each analytic metric's step is the same move: A v_xi =
    # v_theta, for the direction hints u_xi and u_theta = A u_xi.  Where the
    # metric is singular (a categorical family's along (1, ..., 1), say) no
    # step is the natural gradient: the damping floor picks one, and a floor
    # added in xi is not the floor added in theta.
    sim = get_similarity(sim_id)
    theta, target = data.draw(point_pairs(family))
    try:
        sim.evaluate(family, theta, target)
    except (CapabilityError, DivergenceInfiniteError):
        return
    A = _reparam_matrix(family.param_dim)
    xi = np.linalg.solve(A, theta)
    theta = A @ xi
    objective = make_objective(family, sim, target)
    pulled = linear_reparameterization(objective, resolve_metric_engine("euclidean", family), A)[0]
    g, g_xi = objective.gradient(theta), pulled.gradient(xi)
    ref = richardson_gradient(pulled.value, xi)
    quadrature = isinstance(family, Gaussian1D) and sim_id in ("wasserstein:2", "wasserstein:3")
    tol = 1e-6 if quadrature else 1e-8
    np.testing.assert_allclose(g_xi, ref, rtol=0, atol=tol * max(1.0, np.max(np.abs(ref))))
    u_xi, ran = np.ones(family.param_dim), 0
    for metric in ANALYTIC_METRICS:
        engine = resolve_metric_engine(metric, family)
        _, engine_xi = linear_reparameterization(objective, engine, A)
        try:
            H = engine(theta, A @ u_xi)
        except CapabilityError:
            with pytest.raises(CapabilityError):
                engine_xi(xi, u_xi)
            continue
        H_xi = engine_xi(xi, u_xi)
        np.testing.assert_array_equal(H_xi.matrix, replace(H, matrix=A.T @ H.matrix @ A).matrix)
        if np.linalg.cond(H.matrix) > 1e4:  # roundoff in the solves would pass 1e-10
            continue
        v, _ = _solve_step(H, g, 1e-14)
        v_xi, _ = _solve_step(H_xi, g_xi, 1e-14)
        np.testing.assert_allclose(A @ v_xi, v, rtol=0, atol=1e-10 * max(1.0, np.max(np.abs(v))),
                                   err_msg=metric)
        ran += 1
    assert ran >= 1  # euclidean is nonsingular on every family


@pytest.mark.parametrize("sim_id", ["kl", "chi2", "hellinger2", "reverse_kl"])
def test_fdivergence_descent_on_categorical(sim_id):
    # f-divergences sum over the categorical support
    trace = optimize(CAT3, get_similarity(sim_id), [0.4, -0.6, 0.2], [-0.3, 0.5, 0.1],
                     OptimizerConfig())
    assert trace.status == "converged_grad" and trace.final_cost < 1e-12


def test_wasserstein_gradient_is_exactly_zero_at_coincidence(rng):
    for p in (1.0, 2.0, 3.0):
        for theta in rng.uniform((-1.0, 0.5), (1.0, 2.0), size=(5, 2)):
            np.testing.assert_array_equal(WassersteinP(p).grad_theta(GAUSS, theta, theta), 0.0)


def test_hellinger2_gradient_is_finite_where_the_target_density_underflows():
    # Where the target's density underflows to 0, q/p = 0: the integrand
    # of the gradient takes g(0) = 1 there, where f(0) - 0 * f'(0) would be
    # 0 * inf = NaN.  On the wide start's quadrature window the narrow
    # target's density underflows; the Gaussian gradient is closed form.
    theta, target = (0.988, 2.846), (0.335, 0.51)
    sim = get_similarity("hellinger2")
    g = sim.grad_theta(GAUSS, theta, target)
    assert np.all(np.isfinite(g))
    np.testing.assert_allclose(
        g, fd_gradient(lambda t: sim.evaluate(GAUSS, t, target), theta), atol=1e-6
    )
    trace = optimize(GAUSS, sim, theta, target, OptimizerConfig())
    assert trace.status == "converged_grad" and trace.final_cost < 1e-12
    # Gaussian families take the closed form; the sum over a categorical
    # support divides densities, and here the target's softmax underflows.
    theta, target = np.array([0.3, -0.2, 0.1]), np.array([-800.0, 0.0, 0.0])
    assert np.exp(CAT3.log_density(target, 0)) == 0.0
    g = sim.grad_theta(CAT3, theta, target)
    assert np.all(np.isfinite(g))
    np.testing.assert_allclose(
        g, fd_gradient(lambda t: sim.evaluate(CAT3, t, target), theta), atol=1e-6
    )


@pytest.mark.parametrize("name", ["chi2", "hellinger2", "kl", "reverse_kl"])
def test_fdivergence_value_and_gradient_share_the_log_densities_kept_on_the_points(
        name, monkeypatch):
    # Gaussian1D has closed forms for all four divergences and reads no
    # density.  A categorical point keeps its log-probabilities on the
    # support, the whole window, so a value and a gradient at the same two
    # points share them and call no log_density.
    calls = []
    for cls in (Gaussian1D, CategoricalSoftmax):
        def counting(self, theta, x, real=cls.log_density):
            calls.append(np.shape(x))
            return real(self, theta, x)

        monkeypatch.setattr(cls, "log_density", counting)
    cases = [(Gaussian1D(), [0.4, 1.3], [-0.2, 0.9]),
             (CategoricalSoftmax(3), [0.2, -0.1, 0.4], [-0.3, 0.5, 0.0])]
    for family, theta, target in cases:
        sim = get_similarity(name)
        theta, target = family.point(theta), family.point(target)
        calls.clear()
        value = sim.evaluate(family, theta, target)
        grad = sim.grad_theta(family, theta, target)
        assert calls == []
        # Fresh arrays give the bits the points give.
        assert sim.evaluate(family, np.array(theta), np.array(target)) == value
        fresh = sim.grad_theta(family, np.array(theta), np.array(target))
        assert fresh.tobytes() == grad.tobytes()
    # The categorical form reads the states kept on the points, and its value
    # is the sum over all three outcomes with unit weights.
    p, q = (CAT3.point(t) for t in ([0.2, -0.1, 0.4], [-0.3, 0.5, 0.0]))
    sim, seen = get_similarity(name), []
    real = sim.forms[CategoricalState]
    monkeypatch.setitem(sim.forms, CategoricalState,
                        lambda s1, s2, grad: seen.append((s1, s2)) or real(s1, s2, grad))
    value = sim.evaluate(CAT3, p, q)
    sim.grad_theta(CAT3, p, q)
    assert len(seen) == 2 and all(s1 is p.state() and s2 is q.state() for s1, s2 in seen)
    logp, logq = p.state().logs, q.state().logs
    assert len(logp) == len(logq) == 3
    assert value == float(np.ones(3) @ sim.spec.f(logp, logq))


def test_similarity_base_has_no_finite_difference_gradient():
    class ValueOnly(Similarity):
        name = "value_only"

        def evaluate(self, family, theta, target):
            return 0.0

    with pytest.raises(CapabilityError, match="value_only has no closed form on gaussian1d"):
        ValueOnly().grad_theta(GAUSS, (0.0, 1.0), (0.0, 1.0))


# -- precision near coincidence ---------------------------------------------------------

PRECISION_FAMILIES = [
    GAUSS,
    *(MultivariateNormalLogCholesky(d) for d in (2, 3, 10)),
    *(GpPriorEq(np.linspace(-2.0, 2.0, m)) for m in (5, 30)),
]


@pytest.mark.parametrize("sim_id", ["kl", "reverse_kl", "w2_gaussian"])
@pytest.mark.parametrize("family", PRECISION_FAMILIES,
                         ids=lambda f: f"{f.name}_m{f.sample_dim}" if isinstance(f, GpPriorEq) else f.name)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_gaussian_cost_is_its_local_quadratic_form_down_to_tiny_steps(family, sim_id, data):
    # The similarity's own metric is the Hessian of c(., theta) at theta, so
    # c(theta + d, theta) is 1/2 d^T H d; the mean over +-d cancels the cubic
    # term.  A cost formed as a difference of O(1) terms (trace, log-det)
    # carries roundoff of about 1e-16 absolute, all of the value at |d| = 1e-9.
    # Rounding of the covariance itself and of its factor leaves a relative
    # floor of up to about 100 eps / |d| (3e-5 at 1e-9 on gp_prior_eq with
    # m = 5), which the bound admits.
    sim = get_similarity(sim_id)
    theta, _ = data.draw(point_pairs(family))
    direction = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=family.param_dim,
                                            max_size=family.param_dim)))
    assume(np.linalg.norm(direction) > 0.1)
    hessian = sim.local_hessian(family, theta).matrix
    for size in (1e-5, 1e-7, 1e-9):
        d = size * direction / np.linalg.norm(direction)
        quadratic = 0.5 * d @ hessian @ d
        value = 0.5 * (sim.evaluate(family, theta + d, theta) + sim.evaluate(family, theta - d, theta))
        assert value == pytest.approx(quadratic, rel=max(1e-5, 1e-13 / size), abs=0.0)


def test_w2_gaussian_gradient_matches_fd_where_entries_are_tiny_or_zero():
    # Points with entries 1e-10, 2.5e-175 and 0: the finite-difference
    # oracle meets the 1e-8 bound there only if the cost carries no roundoff
    # noise near that level.
    family, sim = MultivariateNormalLogCholesky(3), get_similarity("w2_gaussian")
    rng, tiny = np.random.default_rng(5), np.array([1e-10, 2.5e-175, 0.0])
    for _ in range(200):
        theta, step = rng.uniform(-1.5, 1.5, 9), rng.uniform(-0.3, 0.3, 9)
        for v in (theta, step):
            mask = rng.random(9) < 0.3
            v[mask] = rng.choice(tiny, mask.sum())
        target = theta + step
        g = sim.grad_theta(family, theta, target)
        ref = richardson_gradient(lambda t: sim.evaluate(family, t, target), theta)
        np.testing.assert_allclose(g, ref, rtol=0, atol=1e-8 * max(1.0, np.max(np.abs(ref))))


@pytest.mark.parametrize("family", [MultivariateNormalLogCholesky(d) for d in (2, 3)],
                         ids=lambda f: f.name)
@pytest.mark.parametrize("sim_id", ["kl", "w2_gaussian"])
def test_default_runs_do_not_stop_at_a_zero_cost_with_a_gradient_left(family, sim_id):
    # A cost that reads exactly 0 while the gradient is still above grad_tol
    # is roundoff clamped to 0: no step can then pass the Armijo test.
    config, rng = OptimizerConfig(), np.random.default_rng(11)
    for _ in range(20):
        theta0, target = rng.uniform(-1.0, 1.0, (2, family.param_dim))
        last = optimize(family, get_similarity(sim_id), theta0, target, config).records[-1]
        assert not (last.cost == 0.0 and last.grad_norm >= config.grad_tol)


# -- distances registered as half squares ----------------------------------------------


def test_half_squared_distance_matches_gaussian_closed_form(rng):
    w2 = WassersteinP(2.0)
    closed = SquaredW2Gaussian()
    for _ in range(10):
        a = (rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
        b = (rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
        assert w2.evaluate(GAUSS, a, b) == pytest.approx(closed.evaluate(GAUSS, a, b), abs=1e-8)


def test_w2_between_far_apart_gaussians_is_infinite_not_nan():
    # A zero grid weight times an infinite squared quantile gap read NaN.
    with np.errstate(over="ignore"):
        value = WassersteinP(2.0).evaluate(GAUSS, (0.0, 1e300), (0.0, 1.0))
    assert value == np.inf


def test_half_squared_distance_gradient(rng):
    w2 = WassersteinP(2.0)
    theta = np.array([0.4, 1.3])
    target = np.array([1.0, 0.8])
    g = w2.grad_theta(GAUSS, theta, target)
    ref = fd_gradient(lambda t: w2.evaluate(GAUSS, t, target), theta)
    np.testing.assert_allclose(g, ref, atol=1e-5)
    # half of (mu1 - mu2)^2 + (s1 - s2)^2 between 1-D Gaussians
    np.testing.assert_allclose(g, theta - target, atol=1e-5)


# -- error paths -------------------------------------------------------------------------


def test_divergent_chi2_raises_numeric_error():
    # the probability ratio explodes on the support where softmax underflows
    # to 0; the summand is 0 * inf and the non-finite values are reported,
    # not silently clamped
    with pytest.raises(NumericError) as info:
        FDivergence(F_DIVERGENCES["chi2"]).evaluate(CAT3, (-800.0, 0.0, 0.0), np.zeros(3))
    assert info.value.diagnostics["non_finite_nodes"] == 1
    # the closed form knows the integral diverges: 2 S1 - S2 = 2 - 400 < 0
    with pytest.raises(DivergenceInfiniteError):
        FDivergence(F_DIVERGENCES["chi2"]).evaluate(GAUSS, (0.0, 1.0), (0.0, 20.0))


def test_discrete_divergence_infinite_on_underflow():
    theta = np.array([-800.0, 0.0, 0.0])  # softmax underflows to an exact zero
    target = np.zeros(3)
    with pytest.raises((DivergenceInfiniteError, NumericError)):
        FDivergence(F_DIVERGENCES["chi2"]).evaluate(CAT3, theta, target)


def test_chi2_on_a_gaussian_family_takes_the_closed_form():
    # chi2(N(0, 1) || N(1, 1)) = e - 1; the window rule misses it by 2e-9
    a, b = (0.0, 1.0), (1.0, 1.0)
    assert FDivergence(F_DIVERGENCES["chi2"]).evaluate(GAUSS, a, b) == pytest.approx(
        np.expm1(1.0), rel=1e-12)


def test_dataset_target_rejected_outside_gp_cost():
    ds = Dataset(inputs=np.arange(3.0), targets=np.zeros(3), seed=0)
    for sim_id in ("kl", "w2_gaussian", "sq_euclidean"):
        with pytest.raises(TypeError):
            get_similarity(sim_id).evaluate(GAUSS, (0.0, 1.0), ds)


# -- registry ---------------------------------------------------------------------------


def test_get_similarity_resolves_ids():
    assert get_similarity("kl").name == "kl"
    assert get_similarity("wasserstein:2").p == 2.0
    assert get_similarity("wasserstein:1.5").p == 1.5
    assert isinstance(get_similarity("fisher_rao2"), SquaredFisherRaoCategorical)
    assert isinstance(get_similarity("w2_gaussian"), SquaredW2Gaussian)
    assert isinstance(get_similarity("sq_euclidean"), SquaredEuclidean)


def test_get_similarity_unknown_lists_options():
    with pytest.raises(ConfigError) as exc:
        get_similarity("kll")
    assert "kl" in str(exc.value) and "wasserstein" in str(exc.value)


def test_get_similarity_bad_wasserstein_order():
    # A transport order is a finite p >= 1: unchecked, nan evaluates to nan
    # and inf to a finite number.
    for order in ("x", "nan", "inf", "-inf", "0.5", "-2"):
        with pytest.raises(ConfigError):
            get_similarity(f"wasserstein:{order}")
    for order in (np.nan, np.inf, 0.5):
        with pytest.raises(ValueError):
            WassersteinP(order)
    assert get_similarity("wasserstein:1").p == 1.0
    assert "wasserstein:{p}" in SIMILARITY_IDS


def test_gp_likelihood_cost_own_metric_is_the_fisher_information():
    family, theta, cost = GpPriorEq(np.array([-1.0, 0.5, 2.0])), (0.1, -0.3, -1.0), GpNllCost()
    engine = own_metric_engine(cost, family)
    assert engine.name == "gp_nll" and not cost.directional
    np.testing.assert_array_equal(engine(theta).matrix, fisher_information(family, theta).matrix)


# -- each point validated once ----------------------------------------------------------

# Family factories with a point and a target near it, so every closed form is finite.
VALIDATION_CASES = {
    "gaussian1d": (Gaussian1D, (0.3, 1.2), (0.1, 0.9)),
    "mvn_lcholesky:2": (lambda: MultivariateNormalLogCholesky(2),
                        (0.3, -0.2, 0.1, 0.2, -0.1), (0.2, -0.1, 0.05, 0.15, 0.0)),
    "categorical_softmax:3": (lambda: CategoricalSoftmax(3), (0.2, -0.1, 0.4), (-0.3, 0.5, 0.0)),
    "gp_prior_eq": (lambda: GpPriorEq(np.linspace(-1.0, 1.0, 4)),
                    (0.1, -0.2, -1.0), (0.0, -0.1, -0.9)),
}
REGISTERED_SIMILARITIES = ("kl", "reverse_kl", "chi2", "hellinger2", "fisher_rao2",
                           "wasserstein:2", "wasserstein:3", "w2_gaussian", "sq_euclidean")


@pytest.mark.parametrize("name", VALIDATION_CASES)
def test_evaluate_and_grad_theta_validate_each_fresh_argument_once_and_a_point_never(
        name, monkeypatch):
    make, theta, target = VALIDATION_CASES[name]
    checked = []
    check_point = natgrad.families.Family.check_point

    def counting_check_point(self, point):
        checked.append((id(self), np.asarray(point, dtype=float).tobytes()))
        return check_point(self, point)

    monkeypatch.setattr(natgrad.families.Family, "check_point", counting_check_point)
    ran = 0
    for sim_id in REGISTERED_SIMILARITIES:
        sim = get_similarity(sim_id)
        for method in ("evaluate", "grad_theta"):
            family = make()
            checked.clear()
            try:
                getattr(sim, method)(family, theta, target)
            except CapabilityError:
                continue
            what = f"{sim_id}.{method} on {name}"
            # No point twice, and at most the two arguments, on the one family.
            assert len(checked) == len(set(checked)) <= 2, what
            assert {owner for owner, _ in checked} <= {id(family)}, what
            points = family.point(theta), family.point(target)
            checked.clear()
            getattr(sim, method)(family, *points)
            assert checked == [], f"{what}: a point validated again"
            ran += 1
    assert ran >= 4
