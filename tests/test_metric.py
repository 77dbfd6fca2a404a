"""Local Hessian metrics: analytic engines, pullbacks, finite differences."""

import numpy as np
import pytest
import scipy.optimize
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from natgrad.errors import CapabilityError, ConfigError, NumericError
from natgrad.families import (
    CategoricalSoftmax,
    Family,
    Gaussian1D,
    GpPriorEq,
    MultivariateNormalLogCholesky,
    get_family,
)
from natgrad.metric import (
    FD_EPS_LADDER,
    LocalHessian,
    MetricEngine,
    default_damping,
    f_div_local_hessian,
    fd_local_hessian,
    fisher_information,
    monte_carlo_fisher,
    pullback_fisher_categorical,
    riemannian_pullback,
    spd_project,
    w2_local_hessian_1d,
    w2_local_hessian_gaussian,
    wp_local_hessian_1d,
)
from natgrad.numdiff import central_hessian
from natgrad.optimizer import _solve_step, linear_reparameterization, make_objective
from natgrad.similarity import (
    F_DIVERGENCES,
    METRIC_ALIASES,
    SIMILARITY_IDS,
    FDivergence,
    Similarity,
    SquaredEuclidean,
    SquaredW2Gaussian,
    WassersteinP,
    get_similarity,
    resolve_metric_engine,
)

from conftest import fd_hessian, power_law_family, random_gaussian_thetas

GAUSS = Gaussian1D()
CAT3 = CategoricalSoftmax(3)


# -- Fisher information -----------------------------------------------------------


def test_fisher_gaussian_standard_point():
    H = fisher_information(GAUSS, (0.0, 1.0))
    np.testing.assert_allclose(H.matrix, [[1.0, 0.0], [0.0, 2.0]], atol=1e-15)
    assert H.provenance == "analytic"
    assert H.regularization_added == 0.0


def test_fisher_gaussian_frozen_quadrature_oracle():
    # frozen from an 80-node Gauss-Hermite integration of the score outer
    # product at (0.7, 1.3); agreement with the closed form was 5.3e-15
    H = fisher_information(GAUSS, (0.7, 1.3))
    np.testing.assert_allclose(
        H.matrix, [[0.591715976331361, 0.0], [0.0, 1.183431952662722]], atol=1e-12
    )


def test_fisher_gaussian_random_points(rng):
    for theta in random_gaussian_thetas(rng, 20):
        H = fisher_information(GAUSS, theta)
        s2 = theta[1] ** 2
        np.testing.assert_allclose(H.matrix, np.diag([1.0 / s2, 2.0 / s2]), atol=1e-13)


def test_fisher_categorical_uniform():
    H = fisher_information(CAT3, np.zeros(3))
    p = np.full(3, 1.0 / 3.0)
    np.testing.assert_allclose(H.matrix, np.diag(p) - np.outer(p, p), atol=1e-15)


def _pulled_back(metric, family, A):
    """The KL objective and the engine ``metric`` of ``family`` in the
    coordinates xi of theta = A xi."""
    objective = make_objective(family, get_similarity("kl"),
                               np.linspace(0.1, 1.0, family.param_dim))
    return linear_reparameterization(objective, resolve_metric_engine(metric, family), A)


def test_fisher_reparameterized_categorical_is_the_congruent_matrix(rng):
    # the softmax Jacobian pulled back through A by the chain rule: A^T F(A xi) A
    A = np.array([[1.0, 0.3, 0.0], [0.2, 1.1, -0.4], [0.0, 0.5, 0.9]])
    _, fisher = _pulled_back("fisher", CAT3, A)
    for _ in range(10):
        xi = rng.normal(size=3)
        H = fisher(xi)
        np.testing.assert_allclose(H.matrix, A.T @ CAT3.fisher(A @ xi) @ A, rtol=0, atol=1e-14)
        assert H.provenance == "analytic"


def test_fisher_no_route_raises():
    # Not Gaussian and no closed form of its own: no Fisher matrix, whether
    # or not the family has a quantile; every call raises.
    class Opaque(Family):
        name = "opaque"
        param_dim = 1

        def log_density(self, theta, x):
            return 0.0

    for fam in (Opaque(), power_law_family()):
        point = fam.point((1.5,))
        for theta in (point, point, (2.0,)):
            with pytest.raises(CapabilityError, match=f"{fam.name} is not a Gaussian family"):
                fisher_information(fam, theta)


def test_monte_carlo_fisher_confidence(rng):
    H, se = monte_carlo_fisher(GAUSS, (0.0, 1.0), seed=77, count=20_000)
    assert se.shape == (2, 2) and np.all(se > 0)
    np.testing.assert_array_less(np.abs(H.matrix - np.diag([1.0, 2.0])), 4.0 * se + 1e-12)


# -- f-divergence local Hessians ----------------------------------------------------


def test_fdiv_hessian_is_scaled_fisher_exactly(rng):
    # all twice-differentiable f-divergences induce the same local metric
    # up to f''(1); the implementation scales one Fisher matrix, so the
    # ratios are exact, not approximate
    for theta in random_gaussian_thetas(rng, 5):
        F = fisher_information(GAUSS, theta).matrix
        for name, factor in (("kl", 1.0), ("reverse_kl", 1.0), ("chi2", 2.0), ("hellinger2", 0.5)):
            H = f_div_local_hessian(F_DIVERGENCES[name], GAUSS, theta)
            np.testing.assert_array_equal(H.matrix, factor * F)


def test_fdiv_hessian_matches_fd_of_divergence(rng):
    # the analytic claim: curvature of theta' -> D_f(theta', theta) at
    # theta' = theta equals f''(1) * Fisher
    for name in ("kl", "chi2", "hellinger2"):
        sim = FDivergence(F_DIVERGENCES[name])
        for theta in random_gaussian_thetas(rng, 5, sigma_range=(0.7, 1.8)):
            H = f_div_local_hessian(F_DIVERGENCES[name], GAUSS, theta).matrix
            ref = fd_hessian(lambda t: sim.evaluate(GAUSS, t, theta), theta, h=1e-3)
            np.testing.assert_allclose(H, ref, atol=2e-4 * max(1.0, np.max(np.abs(H))))


# -- pullback metrics ------------------------------------------------------------------


def test_pullback_identity_cases(rng):
    G = rng.normal(size=(3, 3))
    G = G @ G.T + np.eye(3)
    out = riemannian_pullback(np.eye(3), G)
    np.testing.assert_allclose(out.matrix, G, atol=1e-14)
    assert out.provenance == "pullback"

    J = rng.normal(size=(3, 3))
    out2 = riemannian_pullback(J, np.eye(3))
    np.testing.assert_allclose(out2.matrix, J.T @ J, atol=1e-14)


def test_pullback_general_congruence(rng):
    for _ in range(10):
        J = rng.normal(size=(4, 3))
        G = rng.normal(size=(4, 4))
        G = G @ G.T + 0.5 * np.eye(4)
        out = riemannian_pullback(J, G)
        np.testing.assert_allclose(out.matrix, J.T @ G @ J, atol=1e-12)


def test_step_solve_floors_a_rank_deficient_pullback():
    # The pullback through a dead column is a pseudo-metric, returned as it
    # is; the step solve is what floors it.
    J = np.array([[1.0, 0.0], [0.0, 0.0]])  # second column is dead
    out = riemannian_pullback(J, np.eye(2))
    np.testing.assert_array_equal(out.matrix, np.diag([1.0, 0.0]))
    assert out.regularization_added == 0.0
    v, added = _solve_step(out, np.array([1.0, 1.0]), None)
    assert np.all(np.isfinite(v))
    assert added > 0.0


def test_pullback_fisher_categorical_matches_direct(rng):
    # diag(1/p) on the simplex tangent space pulled through softmax must
    # reproduce the parameter-space Fisher matrix
    for _ in range(10):
        theta = rng.normal(size=3)
        via_pullback = pullback_fisher_categorical(CAT3, theta)
        direct = fisher_information(CAT3, theta)
        np.testing.assert_allclose(via_pullback.matrix, direct.matrix, atol=1e-6)
        assert via_pullback.provenance == "pullback"


def test_pullback_fisher_categorical_wrong_family():
    with pytest.raises(CapabilityError):
        pullback_fisher_categorical(GAUSS, (0.0, 1.0))


# -- transport metrics ------------------------------------------------------------------


def test_w2_hessian_gaussian_is_identity(rng):
    # transport velocities for (mu, sigma) are 1 and z: the metric is
    # E[diag(1, z^2)] = identity at every parameter point
    for theta in random_gaussian_thetas(rng, 10):
        H = w2_local_hessian_1d(GAUSS, theta)
        np.testing.assert_allclose(H.matrix, np.eye(2), atol=1e-8)


def test_wp_reduces_to_w2_at_p_two(rng):
    for theta in random_gaussian_thetas(rng, 5):
        u = rng.normal(size=2)
        Hw = w2_local_hessian_1d(GAUSS, theta)
        Hp = wp_local_hessian_1d(GAUSS, theta, 2.0, u)
        np.testing.assert_array_equal(Hw.matrix, Hp.matrix)


def test_wp_direction_scale_invariance(rng):
    # curvature is 0-homogeneous in the approach velocity: rescaling the
    # direction must not change the result beyond roundoff
    theta = np.array([0.4, 1.5])
    u = np.array([0.3, 0.9])
    Ha = wp_local_hessian_1d(GAUSS, theta, 3.0, u).matrix
    Hb = wp_local_hessian_1d(GAUSS, theta, 3.0, 3.7 * u).matrix
    Hc = wp_local_hessian_1d(GAUSS, theta, 3.0, 0.01 * u).matrix
    np.testing.assert_allclose(Ha, Hb, atol=1e-12)
    np.testing.assert_allclose(Ha, Hc, atol=1e-12)


def test_wp_direction_dependence_for_p_not_two():
    theta = np.array([0.0, 1.0])
    Ha = wp_local_hessian_1d(GAUSS, theta, 3.0, np.array([1.0, 0.0])).matrix
    Hb = wp_local_hessian_1d(GAUSS, theta, 3.0, np.array([0.0, 1.0])).matrix
    assert np.max(np.abs(Ha - Hb)) > 1e-3


@settings(max_examples=25, deadline=None, derandomize=True)
@given(mu=st.floats(-1.0, 1.0), sigma=st.floats(0.6, 2.0),
       angle=st.floats(0.0, 2.0 * np.pi, exclude_max=True))
def test_wp_p3_matches_directional_fd(mu, sigma, angle):
    theta, u = np.array([mu, sigma]), np.array([np.cos(angle), np.sin(angle)])
    Han = wp_local_hessian_1d(GAUSS, theta, 3.0, u).matrix
    Hfd = fd_local_hessian(WassersteinP(3.0), GAUSS, theta, u=u).matrix
    np.testing.assert_allclose(Han, Hfd, atol=5e-3 * max(1.0, np.max(np.abs(Han))))


def _wp_gaussian_moment_hessian(p, u):
    """The gaussian1d form of ``wp_local_hessian_1d`` from normal moments.

    The velocities are ``g = (1, Z)``, so along ``(m, s) = u / |u|`` the
    velocity is ``X = m + s Z`` and ``H = (2 - p) F^(2(1-p)) a a^T + (p - 1)
    F^(2-p) S`` with ``F^p = E|X|^p``, ``a = E|X|^(p-2) X g`` and ``S = E|X|^(p-2)
    g g^T``.  With ``Z = (X - m) / s`` and Stein's lemma ``E f(X) Z = s E f'(X)``
    every entry comes from ``E|X|^p``, ``E|X|^(p-2)`` (Winkelbauer 2012) and
    ``E|X|^(p-2) X = (1/p) d/dm E|X|^p``.
    """
    m, s = u / np.linalg.norm(u)
    z = -m * m / (2.0 * s * s)

    def scale(r):
        return abs(s) ** r * 2.0 ** (r / 2) * scipy.special.gamma((r + 1) / 2) / np.sqrt(np.pi)

    mp = scale(p) * scipy.special.hyp1f1(-p / 2, 0.5, z)
    mp2 = scale(p - 2) * scipy.special.hyp1f1(1 - p / 2, 0.5, z)
    signed = scale(p) * m / s**2 * scipy.special.hyp1f1(1 - p / 2, 1.5, z)
    a = np.array([signed, s * (p - 1) * mp2])
    s01 = (signed - m * mp2) / s
    S = np.array([[mp2, s01], [s01, (mp - 2 * m * signed + m * m * mp2) / s**2]])
    F = mp ** (1 / p)
    return (2 - p) * F ** (2 * (1 - p)) * np.outer(a, a) + (p - 1) * F ** (2 - p) * S


@pytest.mark.parametrize("p, tol", [(2.0, 1e-9), (3.0, 5e-4), (4.0, 1e-8)])
def test_wp_matches_the_gaussian_moment_closed_form(p, tol, rng):
    # The grid integrals against exact normal moments.  p = 3 is the least
    # accurate: |X|^(p-2) has a kink where the velocity changes sign, and the
    # grid does not place a node there.
    for theta in random_gaussian_thetas(rng, 200):
        u = rng.uniform(-1.0, 1.0, 2)
        H = wp_local_hessian_1d(GAUSS, theta, p, u).matrix
        exact = _wp_gaussian_moment_hessian(p, u)
        assert np.max(np.abs(H - exact)) <= tol * np.max(np.abs(exact))


def test_wp_rejects_bad_orders_and_directions():
    # A W_p cost takes p >= 1 (WassersteinP), its metric p > 1: at p = 1 it
    # has rank one and |velocity|^(p-2) is unbounded, so the metric's route
    # raises, before it reads theta.
    for no_metric in (lambda: WassersteinP(1.0).local_hessian(GAUSS, (0.0, 1.0), [1.0, 0.0]),
                      lambda: wp_local_hessian_1d(GAUSS, (0.0, -1.0), 1.0, [1.0, 0.0])):
        with pytest.raises(CapabilityError, match="wasserstein:1 has no metric: at p = 1 its "
                                                  "local Hessian has rank one"):
            no_metric()
    with pytest.raises(ValueError):
        WassersteinP(0.5)
    with pytest.raises(ValueError):
        wp_local_hessian_1d(GAUSS, (0.0, 1.0), 3.0)  # direction required
    with pytest.raises(ValueError):
        wp_local_hessian_1d(GAUSS, (0.0, 1.0), 3.0, np.zeros(2))
    # p = 2 is direction-free
    wp_local_hessian_1d(GAUSS, (0.0, 1.0), 2.0)


@pytest.mark.parametrize("u", [[1.0], [1.0, 0.5, 0.2], [[1.0, 0.5]]], ids=["1", "3", "1x2"])
def test_directions_of_the_wrong_shape_are_refused(u):
    # A length-1 direction would broadcast to (1, 1): the fd engine took the
    # curvature along (1, 1) at step sqrt(2) eps, and the W_p engine failed in a matmul.
    for engine in (lambda: fd_local_hessian(WassersteinP(3.0), GAUSS, (0.0, 1.0), u),
                   lambda: wp_local_hessian_1d(GAUSS, (0.0, 1.0), 3.0, u)):
        with pytest.raises(ValueError, match="direction must have length 2"):
            engine()


@pytest.mark.parametrize("u", [[np.nan, 1.0], [np.inf, 0.0], [1.0, -np.inf]],
                         ids=["nan", "inf", "-inf"])
def test_non_finite_directions_are_refused(u):
    # The fd engine once shifted theta by nan (reported as non-finite
    # parameters) or divided inf by inf (a RuntimeWarning); a zero direction
    # still takes the stencil at theta.
    for engine in (lambda: fd_local_hessian(WassersteinP(3.0), GAUSS, (0.0, 1.0), u),
                   lambda: wp_local_hessian_1d(GAUSS, (0.0, 1.0), 3.0, u)):
        with pytest.raises(ValueError, match="^direction must be finite"):
            engine()
    zero = fd_local_hessian(WassersteinP(2.0), GAUSS, (0.0, 1.0), np.zeros(2)).matrix
    np.testing.assert_array_equal(zero, fd_local_hessian(WassersteinP(2.0), GAUSS, (0.0, 1.0)).matrix)


def test_wp_small_order_blowup_guard():
    # for p < 2 the integrand carries |velocity|^(p-2); a direction whose
    # velocity vanishes at a quadrature node must be rejected, not clamped
    theta = GAUSS.point([0.0, 1.0])
    g = theta.transport(velocities=True)[1]
    u = np.array([-g[100, 1], 1.0])  # exact zero velocity at node 100
    with pytest.raises(NumericError) as exc:
        wp_local_hessian_1d(GAUSS, theta, 1.5, u)
    assert exc.value.diagnostics["nodes_near_zero"] >= 1


def test_transport_metric_needs_cdf():
    with pytest.raises(CapabilityError):
        w2_local_hessian_1d(CAT3, np.zeros(3))


@pytest.mark.parametrize("family, theta", [
    (MultivariateNormalLogCholesky(2), np.zeros(5)),
    (CAT3, np.array([0.1, 0.2, 0.3])),
    (GpPriorEq(np.linspace(-1.0, 1.0, 3)), np.array([0.1, -0.2, -1.0])),
], ids=["mvn_lcholesky:2", "categorical_softmax:3", "gp_prior_eq"])
def test_transport_without_a_quantile_raises_on_every_call(family, theta):
    # A failed transport build keeps nothing on the point, so the next call
    # on the same point fails alike instead of reading a half-built state.
    sim, engine = get_similarity("wasserstein:2"), resolve_metric_engine("w2_1d", family)
    point = family.point(theta)
    for _ in range(3):
        for op in (lambda: sim.evaluate(family, point, point),
                   lambda: sim.grad_theta(family, point, point),
                   lambda: engine(point)):
            with pytest.raises(CapabilityError):
                op()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mu=st.floats(-3.0, 3.0), sigma=st.floats(0.2, 5.0))
def test_point_velocities_match_the_cdf_ratio_and_w2_is_the_hessian_of_the_cost(mu, sigma):
    # gaussian1d velocities are (1, z), constants of the grid; they must be
    # what -dF/dtheta / rho gives there, and at p = 2 the metric built from
    # them the Hessian of the discretized half squared W2 the optimizer sees.
    # In coordinates theta = A xi the metric pulled back by the chain rule
    # is the Hessian of xi -> W2(A xi, .) alike.
    A = np.array([[1.2, 0.3], [-0.1, 0.9]])
    w2 = WassersteinP(2.0)
    theta = np.array([mu, sigma])
    point = GAUSS.point(theta)
    q, g = point.transport(velocities=True)
    ratio = -GAUSS.dcdf_dtheta(point, q) / np.exp(GAUSS.log_density(point, q))[:, None]
    assert np.max(np.abs(g - ratio)) <= 1e-13 * np.max(np.abs(g))

    def assert_is_the_hessian(H, grad, x):
        ref = central_hessian(grad, x)
        np.testing.assert_allclose(H, ref, rtol=0, atol=1e-8 * np.max(np.abs(H)))

    assert_is_the_hessian(w2_local_hessian_1d(GAUSS, point).matrix,
                          lambda eta: w2.grad_theta(GAUSS, eta, point), theta)
    objective, engine = linear_reparameterization(
        make_objective(GAUSS, w2, point), resolve_metric_engine("w2_1d", GAUSS), A)
    xi = np.linalg.solve(A, theta)
    assert_is_the_hessian(engine(xi).matrix, objective.gradient, xi)


# -- finite-difference engine -------------------------------------------------------


def test_fd_hessian_smooth_path_kl():
    sim = FDivergence(F_DIVERGENCES["kl"])
    H = fd_local_hessian(sim, GAUSS, (0.0, 1.0))
    np.testing.assert_allclose(H.matrix, [[1.0, 0.0], [0.0, 2.0]], atol=1e-4)
    assert H.provenance == "finite_difference"


def test_fd_hessian_exact_for_quadratic():
    H = fd_local_hessian(SquaredEuclidean(), GAUSS, (0.4, 1.2))
    np.testing.assert_allclose(H.matrix, np.eye(2), atol=1e-8)


def test_fd_hessian_directional_path_smooth_cost():
    # on a twice-differentiable cost the epsilon ladder must agree with
    # the stationary stencil after extrapolation
    sim = FDivergence(F_DIVERGENCES["kl"])
    H = fd_local_hessian(sim, GAUSS, (0.0, 1.0), u=np.array([1.0, 0.7]))
    np.testing.assert_allclose(H.matrix, [[1.0, 0.0], [0.0, 2.0]], atol=1e-4)


def test_fd_hessian_directional_w2():
    sim = WassersteinP(2.0)
    H = fd_local_hessian(sim, GAUSS, (0.3, 1.2), u=np.array([1.0, -0.5]))
    np.testing.assert_allclose(H.matrix, np.eye(2), atol=1e-6)


def test_fd_hessian_zero_direction_falls_back_to_smooth():
    sim = FDivergence(F_DIVERGENCES["kl"])
    Ha = fd_local_hessian(sim, GAUSS, (0.0, 1.0), u=np.zeros(2))
    Hb = fd_local_hessian(sim, GAUSS, (0.0, 1.0))
    np.testing.assert_array_equal(Ha.matrix, Hb.matrix)


def test_fd_engine_passes_the_direction_only_to_directional_costs():
    theta, u = np.array([0.5, 1.5]), np.array([0.5, 0.5])
    chi2 = resolve_metric_engine("fd:chi2", GAUSS)
    np.testing.assert_array_equal(chi2(theta, u).matrix, chi2(theta).matrix)
    w3 = resolve_metric_engine("fd:wasserstein:3", GAUSS)
    ref = fd_local_hessian(WassersteinP(3.0), GAUSS, theta, u)
    np.testing.assert_array_equal(w3(theta, u).matrix, ref.matrix)


def test_fd_hessian_gate_rejects_non_converging_ladder():
    class Kinked(Similarity):
        # curvature of the r^1.2 term blows up like r^(-0.8) as the
        # evaluation point approaches the diagonal, so successive ladder
        # extrapolants cannot agree
        name = "kinked"

        def evaluate(self, family, theta, target):
            d = np.asarray(theta, dtype=float) - np.asarray(target, dtype=float)
            r = float(np.linalg.norm(d))
            return 0.5 * r**2 + 0.05 * r**1.2

        def grad_theta(self, family, theta, target):
            d = np.asarray(theta, dtype=float) - np.asarray(target, dtype=float)
            return d * (1.0 + 0.06 * float(np.linalg.norm(d)) ** -0.8)

    with pytest.raises(NumericError) as exc:
        fd_local_hessian(Kinked(), GAUSS, (0.0, 1.0), u=np.array([1.0, 0.0]))
    assert "extrapolation_gap" in exc.value.diagnostics
    assert len(exc.value.diagnostics["eps_ladder"]) == len(FD_EPS_LADDER)


# -- SPD projection and damping ---------------------------------------------------------


def test_spd_project_leaves_definite_matrices_alone():
    H = LocalHessian(np.eye(2))
    out = spd_project(H)
    assert out.regularization_added == 0.0
    np.testing.assert_array_equal(out.matrix, np.eye(2))


def test_spd_project_uniform_shift():
    out = spd_project(np.diag([1.0, -0.5]), tau_min=1e-8)
    np.testing.assert_allclose(out.matrix, np.diag([1.5 + 1e-8, 1e-8]), atol=1e-15)
    assert out.regularization_added == pytest.approx(0.5 + 1e-8, abs=1e-15)


def test_spd_project_zero_matrix_gets_floor():
    out = spd_project(np.zeros((3, 3)))
    np.testing.assert_allclose(out.matrix, 1e-10 * np.eye(3), atol=1e-25)


def test_spd_project_accumulates_and_is_idempotent():
    once = spd_project(np.diag([1.0, -0.5]), tau_min=1e-8)
    twice = spd_project(once, tau_min=1e-8)
    np.testing.assert_array_equal(once.matrix, twice.matrix)
    assert twice.regularization_added == once.regularization_added


def test_spd_project_preserves_metadata():
    base = LocalHessian(np.diag([1.0, -1.0]), provenance="finite_difference")
    out = spd_project(base, tau_min=1e-6)
    assert out.provenance == "finite_difference"


@st.composite
def spectra(draw):
    """``(H, tau)``: a symmetric n x n matrix, 2 <= n <= 6, of one of five
    kinds, and a floor ``tau`` in [1e-2, 1], where the roundoff of the
    spectrum (~n eps |H| <= 1e-14) and the 1e-12 offsets of the near-floor
    kind stay below 1e-9 tau."""
    n = draw(st.integers(2, 6))
    tau = draw(st.floats(1e-2, 1.0))
    kind = draw(st.sampled_from(
        ["spd", "softmax_fisher", "indefinite", "near_floor", "below_floor"]))
    entries = st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n)
    q, _ = np.linalg.qr(np.array(draw(entries)).reshape(n, n) + 3.0 * np.eye(n))
    if kind == "softmax_fisher":  # rank deficient along (1, ..., 1)
        return CategoricalSoftmax(n).fisher(np.array(draw(entries))[:n]), tau
    spectrum = st.lists(st.floats(tau, 10.0), min_size=n, max_size=n)
    lam = np.array(draw(spectrum))
    if kind == "spd":
        lam[0] = draw(st.floats(tau * (1.0 + 1e-6), 10.0))
    elif kind == "below_floor":
        lam[0] = draw(st.floats(0.0, tau * (1.0 - 1e-6)))
    elif kind == "indefinite":
        lam[0] = draw(st.floats(-10.0, -1e-6))
    else:
        lam[0] = tau + draw(st.floats(-1e-12, 1e-12))
        lam[1:] = np.maximum(lam[1:], tau)
    H = (q * lam) @ q.T
    return 0.5 * (H + H.T), tau


@settings(max_examples=300, deadline=None, derandomize=True)
@given(spectra())
def test_spd_project_cholesky_probe_keeps_the_eigenvalue_shift(case):
    H, tau = case
    eigmin = float(np.linalg.eigvalsh(H)[0])  # what the shift was computed from before the probe
    out = spd_project(H, tau_min=tau)
    if eigmin >= 2.0 * tau:
        assert out.regularization_added == 0.0
        np.testing.assert_array_equal(out.matrix, LocalHessian(H).matrix)
    if eigmin <= 0.5 * tau:
        assert out.regularization_added == pytest.approx(tau - eigmin, rel=1e-12, abs=0.0)
    assert float(np.linalg.eigvalsh(out.matrix)[0]) >= tau * (1.0 - 1e-9)


def test_default_damping_scale_aware():
    assert default_damping(np.eye(2)) == pytest.approx(2e-10, rel=1e-12)
    assert default_damping(100.0 * np.eye(4)) == pytest.approx(1e-10 * 101.0, rel=1e-12)
    assert default_damping(-5.0 * np.eye(2)) == 1e-10  # floor for negative traces


# -- LocalHessian container ----------------------------------------------------------


def test_local_hessian_symmetrizes():
    H = LocalHessian(np.array([[1.0, 2.0], [0.0, 1.0]]))
    np.testing.assert_array_equal(H.matrix, [[1.0, 1.0], [1.0, 1.0]])
    assert H.dim == 2


def test_local_hessian_matrix_is_read_only():
    H = LocalHessian(np.eye(2))
    with pytest.raises(ValueError):
        H.matrix[0, 0] = 5.0


def test_local_hessian_validation():
    with pytest.raises(ValueError):
        LocalHessian(np.zeros((2, 3)))
    with pytest.raises(NumericError):
        LocalHessian(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        LocalHessian(np.eye(2), provenance="guesswork")


# -- analytic engines against the FD engine over random points ---------------------------


def test_fisher_vs_fd_invariant_gaussian(rng):
    sim = FDivergence(F_DIVERGENCES["kl"])
    for theta in random_gaussian_thetas(rng, 50, sigma_range=(0.6, 2.0)):
        H = fisher_information(GAUSS, theta).matrix
        ref = fd_local_hessian(sim, GAUSS, theta).matrix
        np.testing.assert_allclose(H, ref, atol=1e-4 * max(1.0, np.max(np.abs(H))))


def test_fisher_vs_fd_invariant_categorical(rng):
    sim = FDivergence(F_DIVERGENCES["kl"])
    for _ in range(50):
        theta = rng.normal(size=3)
        H = fisher_information(CAT3, theta).matrix
        ref = fd_local_hessian(sim, CAT3, theta).matrix
        np.testing.assert_allclose(H, ref, atol=1e-5)


def test_w2_vs_fd_invariant(rng):
    sim = WassersteinP(2.0)
    for theta in random_gaussian_thetas(rng, 10):
        H = w2_local_hessian_1d(GAUSS, theta).matrix
        ref = fd_local_hessian(sim, GAUSS, theta).matrix
        np.testing.assert_allclose(H, ref, atol=1e-5)


def test_mvn_fisher_vs_fd_of_kl(rng):
    fam = MultivariateNormalLogCholesky(2)
    sim = FDivergence(F_DIVERGENCES["kl"])
    for _ in range(5):
        theta = rng.normal(size=5) * 0.4
        H = fisher_information(fam, theta).matrix
        ref = fd_hessian(lambda t: sim.evaluate(fam, t, theta.copy()), theta, h=1e-3)
        np.testing.assert_allclose(H, ref, atol=2e-4 * max(1.0, np.max(np.abs(H))))


@st.composite
def mvn_points(draw):
    fam = MultivariateNormalLogCholesky(draw(st.integers(1, 3)))
    coords = st.floats(-0.7, 0.7)
    theta = draw(st.lists(coords, min_size=fam.param_dim, max_size=fam.param_dim))
    return fam, np.array(theta)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mvn_points())
def test_gaussian_w2_matches_fd_of_half_squared_w2_mvn(point):
    fam, theta = point
    H = w2_local_hessian_gaussian(fam, theta)
    ref = fd_local_hessian(SquaredW2Gaussian(), fam, theta).matrix
    assert H.provenance == "analytic"
    np.testing.assert_allclose(H.matrix, ref, rtol=0, atol=1e-5 * np.max(np.abs(ref)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(-3.0, 3.0), st.floats(0.2, 5.0))
def test_gaussian_w2_equals_1d_transport_metric(mu, sigma):
    H = w2_local_hessian_gaussian(GAUSS, (mu, sigma)).matrix
    np.testing.assert_allclose(H, w2_local_hessian_1d(GAUSS, (mu, sigma)).matrix, atol=1e-8)


def test_reparameterized_gaussian_w2_equals_1d_transport_metric(rng):
    # The Gaussian1D W2 metric is the identity, so the reparameterized one is A^T A.
    A = np.array([[2.0, 1.0], [0.0, 1.0]])
    (_, gaussian), (_, transport) = (_pulled_back(m, GAUSS, A) for m in ("w2_gaussian", "w2_1d"))
    for xi in [(0.1, 1.0), *random_gaussian_thetas(rng, 10)]:  # A keeps sigma = xi[1]
        H = gaussian(xi).matrix
        np.testing.assert_allclose(H, [[4.0, 2.0], [2.0, 2.0]], atol=1e-12)
        np.testing.assert_allclose(H, transport(xi).matrix, atol=1e-8)


def test_quadrature_routes_validate_theta_once_per_family_call(monkeypatch):
    fam = Gaussian1D()
    calls = []
    check = fam.check_point
    monkeypatch.setattr(fam, "check_point", lambda theta: calls.append(theta) or check(theta))
    FDivergence(F_DIVERGENCES["chi2"]).evaluate(fam, (0.3, 1.2), (0.0, 1.0))
    assert len(calls) == 2  # theta and target, once each
    calls.clear()
    point = fam.point((0.3, 1.2))
    assert len(calls) == 1
    calls.clear()
    w2_local_hessian_1d(fam, point)
    assert calls == []  # a point is not validated again
    w2_local_hessian_1d(fam, (0.4, 1.2))
    assert len(calls) == 1


def test_f_div_local_hessian_builds_one_local_hessian(monkeypatch):
    built = []
    post_init = LocalHessian.__post_init__
    monkeypatch.setattr(LocalHessian, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    for fam, theta in ((GAUSS, (0.3, 1.2)), (CategoricalSoftmax(3), (0.2, -0.1, 0.4))):
        for spec in F_DIVERGENCES.values():
            built.clear()
            f_div_local_hessian(spec, fam, theta)
            assert len(built) == 1


@st.composite
def gaussian1d_points(draw):
    return GAUSS, np.array([draw(st.floats(-2.0, 2.0)), draw(st.floats(0.4, 2.5))])


@st.composite
def gp_points(draw):
    inputs = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4)))
    theta = draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.5, 0.5)))
    return GpPriorEq(inputs), np.array(theta)


@st.composite
def categorical_points(draw):
    fam = CategoricalSoftmax(draw(st.integers(2, 4)))
    coords = st.floats(-1.5, 1.5)
    theta = draw(st.lists(coords, min_size=fam.param_dim, max_size=fam.param_dim))
    return fam, np.array(theta)


# Random points of each family, and one fixed point of each.
FAMILY_POINTS = {
    "gaussian1d": gaussian1d_points(),
    "mvn_lcholesky": mvn_points(),
    "categorical_softmax": categorical_points(),
    "gp_prior_eq": gp_points(),
}
FAMILY_EXAMPLES = {
    "gaussian1d": (GAUSS, (0.3, 1.2)),
    "mvn_lcholesky": (MultivariateNormalLogCholesky(2), (0.1, -0.2, 0.3, 0.1, -0.2)),
    "categorical_softmax": (CAT3, (0.2, -0.4, 0.1)),
    "gp_prior_eq": (GpPriorEq(np.array([-1.0, 0.5, 2.0])), (0.1, -0.3, -1.0)),
}
# Each registered similarity: whether it is directional, the families it
# accepts, and how close its own metric is to finite differences of it,
# relative to the largest entry.
OWN_METRICS = {
    **{name: (False, tuple(FAMILY_POINTS), 1e-7) for name in F_DIVERGENCES},
    "fisher_rao2": (False, ("categorical_softmax",), 1e-7),
    "wasserstein:2": (False, ("gaussian1d",), 1e-7),
    "wasserstein:3": (True, ("gaussian1d",), 5e-3),
    "w2_gaussian": (False, ("gaussian1d", "mvn_lcholesky", "gp_prior_eq"), 1e-7),
    "sq_euclidean": (False, tuple(FAMILY_POINTS), 1e-8),
}


def test_every_registered_similarity_has_an_own_metric_row():
    assert ({sim_id.partition(":")[0] for sim_id in OWN_METRICS}
            == {key.partition(":")[0] for key in SIMILARITY_IDS})
    # Every order but 2 is directional.  p = 1.5 has no row: at theta = (0, 1),
    # u = (0, 1) the exact normal-moment H00 is 0.81788, the grid form
    # wp_local_hessian_1d reads 0.80524 and fd: of the grid cost 0.8243; both
    # are limited by how the grid resolves |velocity|^(p-2) near its zero.
    w15 = get_similarity("wasserstein:1.5")
    assert w15.directional and resolve_metric_engine("wasserstein:1.5", GAUSS).name == w15.name


@pytest.mark.parametrize("sim_id, family_id", [
    (sim_id, family_id) for sim_id, (_, families, _) in OWN_METRICS.items()
    for family_id in families])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_own_metric_is_the_local_hessian_of_the_similarity(sim_id, family_id, data):
    # The cost the optimizer minimizes and the curvature of its own metric
    # are one function: no wrapper and no factor in between.  The metric id
    # of the own metric is the similarity id, and fd: of it differentiates
    # the cost itself; both take the direction only for a directional cost.
    directional, _, tol = OWN_METRICS[sim_id]
    family, theta = data.draw(FAMILY_POINTS[family_id])
    u = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=family.param_dim,
                                    max_size=family.param_dim)
                           .filter(lambda v: np.linalg.norm(v) > 0.1)))
    sim = get_similarity(sim_id)
    assert sim.directional is directional
    engine = resolve_metric_engine(sim_id, family)
    assert engine.name == sim_id
    H = engine(theta, u).matrix
    np.testing.assert_array_equal(H, sim.local_hessian(family, theta, u).matrix)
    ref = resolve_metric_engine(f"fd:{sim_id}", family)(theta, u).matrix
    np.testing.assert_allclose(H, ref, rtol=0, atol=tol * np.max(np.abs(ref)))


@pytest.mark.parametrize("sim_id", OWN_METRICS)
def test_own_metric_applies_where_its_similarity_does(sim_id):
    sim = get_similarity(sim_id)
    for family_id, (family, theta) in FAMILY_EXAMPLES.items():
        if family_id in OWN_METRICS[sim_id][1]:
            continue
        with pytest.raises(CapabilityError):
            sim.evaluate(family, theta, theta)
        with pytest.raises(CapabilityError):
            resolve_metric_engine(sim_id, family)(theta, np.ones(family.param_dim))


def test_gaussian_w2_needs_moment_derivatives():
    with pytest.raises(CapabilityError):
        w2_local_hessian_gaussian(CAT3, np.zeros(3))


# -- engine registry -----------------------------------------------------------------


def test_resolve_known_engines():
    eng = resolve_metric_engine("fisher", GAUSS)
    assert isinstance(eng, MetricEngine) and eng.name == "fisher"
    np.testing.assert_allclose(eng((0.0, 1.0)).matrix, np.diag([1.0, 2.0]), atol=1e-14)

    np.testing.assert_array_equal(
        resolve_metric_engine("euclidean", GAUSS)((0.7, 1.9)).matrix, np.eye(2)
    )

    chi2 = resolve_metric_engine("fdiv:chi2", GAUSS)((0.0, 1.0))
    np.testing.assert_allclose(chi2.matrix, np.diag([2.0, 4.0]), atol=1e-14)

    w2 = resolve_metric_engine("w2_1d", GAUSS)((0.5, 1.3))
    np.testing.assert_allclose(w2.matrix, np.eye(2), atol=1e-8)

    pb = resolve_metric_engine("pullback", CAT3)(np.zeros(3))
    assert pb.provenance == "pullback"


@pytest.mark.parametrize(
    "metric_id, family, theta",
    [
        ("fisher", GAUSS, (0.3, 1.2)),
        ("fisher", CAT3, (0.2, -0.4, 0.1)),
        ("fdiv:chi2", MultivariateNormalLogCholesky(2), (0.1, -0.2, 0.3, 0.1, -0.2)),
        ("pullback", CAT3, (0.2, -0.4, 0.1)),
        ("pullback", CategoricalSoftmax(5), (0.5, -1.0, 0.2, 0.0, 0.9)),
        ("w2_1d", GAUSS, (0.3, 1.2)),
        ("wp_1d:3", GAUSS, (0.3, 1.2)),
        ("w2_gaussian", GpPriorEq(np.array([-1.0, 0.5, 2.0])), (0.1, -0.3, -1.0)),
        ("fd:kl", GAUSS, (0.3, 1.2)),
        ("fd:wasserstein:3", GAUSS, (0.3, 1.2)),
        ("euclidean", CAT3, (0.2, -0.4, 0.1)),
    ],
)
def test_engines_return_undamped_metrics(metric_id, family, theta):
    # Only the optimizer's step solve floors a metric; the categorical
    # pullback is singular along (1, ..., 1) and comes back as it is.
    u = np.linspace(1.0, 2.0, family.param_dim)
    out = resolve_metric_engine(metric_id, family)(theta, u)
    assert out.regularization_added == 0.0


def test_resolve_wp_engine_passes_direction():
    eng = resolve_metric_engine("wp_1d:3", GAUSS)
    theta, u = np.array([0.2, 1.1]), np.array([1.0, 0.4])
    np.testing.assert_array_equal(
        eng(theta, u).matrix, wp_local_hessian_1d(GAUSS, theta, 3.0, u).matrix
    )


def test_resolve_fd_engine():
    eng = resolve_metric_engine("fd:kl", GAUSS)
    H = eng((0.0, 1.0))
    assert H.provenance == "finite_difference"
    np.testing.assert_allclose(H.matrix, np.diag([1.0, 2.0]), atol=1e-4)


def test_resolve_unknown_engine_lists_options():
    # A metric id is a similarity id, fd: and one, or an alias.
    with pytest.raises(ConfigError) as exc:
        resolve_metric_engine("fishr", GAUSS)
    assert str(exc.value).endswith(
        ", ".join([*SIMILARITY_IDS, "fd:{similarity}", *METRIC_ALIASES]))


def test_resolve_bad_arguments():
    with pytest.raises(ConfigError):
        resolve_metric_engine("fdiv:bogus", GAUSS)
    with pytest.raises(ConfigError):
        resolve_metric_engine("wp_1d:abc", GAUSS)
    # The directional W_p metric needs a finite order p > 1.  Below 1, nan
    # and inf are no W_p cost, and resolving refuses them; at p = 1 the cost
    # exists and its metric does not, so the engine resolves and every call
    # of it raises.  The alias and the similarity id behave alike.
    for order in ("0.5", "-2", "nan", "inf"):
        for metric_id in (f"wp_1d:{order}", f"wasserstein:{order}"):
            with pytest.raises(ConfigError):
                resolve_metric_engine(metric_id, GAUSS)
    for metric_id in ("wp_1d:1", "wasserstein:1"):
        engine = resolve_metric_engine(metric_id, GAUSS)
        with pytest.raises(CapabilityError, match="wasserstein:1 has no metric"):
            engine((0.0, 1.0), np.array([1.0, 0.0]))
    with pytest.raises(ConfigError):
        resolve_metric_engine("fd:nonsense", GAUSS)


@pytest.mark.parametrize("name", ["wasserstein:3", "sq_euclidean", "fisher_rao2"])
def test_fdiv_takes_f_divergence_names_only(name):
    # Each once built an engine: the W3 metric, the identity, and a
    # Fisher-Rao metric that raised on every call on gaussian1d.
    with pytest.raises(ConfigError) as info:
        resolve_metric_engine(f"fdiv:{name}", GAUSS)
    assert str(info.value).endswith("valid f-divergences: " + ", ".join(F_DIVERGENCES))
    for spec in F_DIVERGENCES.values():
        engine = resolve_metric_engine(f"fdiv:{spec.name}", GAUSS)
        assert engine.name == f"fdiv:{spec.name}"
        expected = f_div_local_hessian(spec, GAUSS, (0.3, 1.2)).matrix
        assert engine((0.3, 1.2)).matrix.tobytes() == expected.tobytes()


# -- the metric as the limit of a proximal step ---------------------------------------

PROXIMAL_LAMBDAS = (1e-2, 5e-3, 2.5e-3, 1.25e-3)
# Left out: gp_prior_eq, where at cond(G) ~ 80 the root search leaves the
# domain, and the categoricals, whose metric is singular along the all-ones
# (gauge) direction, so G^-1 g is not defined.
PROXIMAL_PAIRS = [(sim_id, family_id) for sim_id in ("kl", "reverse_kl", "chi2", "hellinger2",
                                                     "w2_gaussian")
                  for family_id in ("gaussian1d", "mvn_lcholesky:2")]
PROXIMAL_PAIRS.append(("wasserstein:2", "gaussian1d"))
# c(theta + delta, theta) is exactly quadratic in delta: W2 between 1-D
# Gaussians is |(dmu, dsigma)|, on the quantile grid as in closed form.
PROXIMAL_QUADRATIC = {("wasserstein:2", "gaussian1d"), ("w2_gaussian", "gaussian1d")}


@pytest.mark.parametrize("sim_id, family_id", PROXIMAL_PAIRS)
def test_natural_gradient_step_is_the_small_step_limit_of_the_proximal_step(sim_id, family_id):
    # argmin_delta <g, delta> + c(theta + delta, theta) / lambda solves
    # g + grad_1 c(theta + delta, theta) / lambda = 0; as lambda -> 0,
    # delta / lambda -> -G^-1 g with G the similarity's own metric, and the
    # error is O(lambda): it halves as lambda halves.
    family, sim = get_family(family_id), get_similarity(sim_id)
    rng = np.random.default_rng(5)
    for _ in range(3):
        theta = rng.uniform(-0.5, 0.5, family.param_dim)
        if family_id == "gaussian1d":
            theta[1] = rng.uniform(0.5, 2.0)
        theta = family.point(theta)
        G = sim.local_hessian(family, theta).matrix
        g = rng.normal(size=family.param_dim)
        g /= np.linalg.norm(np.linalg.solve(G, g))
        step = np.linalg.solve(G, g)  # |step| = 1
        errors = []
        for lam in PROXIMAL_LAMBDAS:
            res = scipy.optimize.root(
                lambda d: g + sim.grad_theta(family, theta.theta + d, theta) / lam, -lam * step)
            assert res.success, res.message
            errors.append(np.linalg.norm(res.x / lam + step))
        if (sim_id, family_id) in PROXIMAL_QUADRATIC:
            assert max(errors) < 1e-10
        else:
            ratios = np.array(errors[:-1]) / errors[1:]
            assert np.all((1.8 <= ratios) & (ratios <= 2.2)), ratios
