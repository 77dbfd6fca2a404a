"""Family primitives: densities, scores, CDFs, quantiles, sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import multivariate_normal

from natgrad.errors import CapabilityError, ConfigError, InvalidParameterError, NumericError
from natgrad.families import (
    FAMILY_IDS,
    CategoricalSoftmax,
    Dataset,
    Family,
    Gaussian1D,
    GpPriorEq,
    MultivariateNormalLogCholesky,
    eq_covariance,
    get_family,
)
from natgrad.quadrature import DEFAULT_TAIL_MASS, composite_legendre, gauss_legendre

from conftest import accepts, fd_gradient, power_law_family, random_gaussian_thetas

POWERLAW = power_law_family()


# -- log_density ------------------------------------------------------------


def test_gaussian_log_density_at_mode():
    fam = Gaussian1D()
    assert fam.log_density((0.0, 1.0), 0.0) == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-12)


def test_gaussian_log_density_unit_deviation():
    fam = Gaussian1D()
    expected = -0.5 * np.log(2 * np.pi) - 0.5
    assert fam.log_density((0.0, 1.0), 1.0) == pytest.approx(expected, abs=1e-12)


def test_categorical_uniform_log_mass():
    fam = CategoricalSoftmax(3)
    assert fam.log_density((0.0, 0.0, 0.0), 2) == pytest.approx(np.log(1.0 / 3.0), abs=1e-12)


def test_mvn_log_density_matches_scipy(rng):
    fam = MultivariateNormalLogCholesky(3)
    for _ in range(10):
        theta = rng.normal(size=fam.param_dim) * 0.7
        x = rng.normal(size=3)
        mean, L = fam.split(theta)
        ref = multivariate_normal(mean=mean, cov=L @ L.T).logpdf(x)
        assert fam.log_density(theta, x) == pytest.approx(ref, abs=1e-10)


def test_gp_log_density_matches_scipy(rng):
    inputs = np.linspace(-3.0, 3.0, 5)
    fam = GpPriorEq(inputs)
    for _ in range(5):
        theta = rng.uniform(-1.0, 1.0, size=3)
        y = rng.normal(size=5)
        cov = eq_covariance(inputs, theta[0], theta[1]) + np.exp(2 * theta[2]) * np.eye(5)
        ref = multivariate_normal(mean=np.zeros(5), cov=cov).logpdf(y)
        assert fam.log_density(theta, y) == pytest.approx(ref, abs=1e-10)


# -- score -------------------------------------------------------------------


def test_gaussian_score_closed_form_points():
    fam = Gaussian1D()
    np.testing.assert_allclose(fam.score((0.0, 1.0), 1.0), [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(fam.score((0.0, 1.0), 0.0), [0.0, -1.0], atol=1e-12)


def test_categorical_score_matches_finite_differences():
    fam = CategoricalSoftmax(3)
    theta = np.zeros(3)
    for x in range(3):
        ref = fd_gradient(lambda t: fam.log_density(t, x), theta)
        np.testing.assert_allclose(fam.score(theta, x), ref, atol=1e-6)


@pytest.mark.parametrize(
    "family,theta_sampler,x_sampler",
    [
        (
            Gaussian1D(),
            lambda rng: np.array([rng.uniform(-2, 2), rng.uniform(0.4, 2.5)]),
            lambda rng, th: rng.normal(th[0], th[1]),
        ),
        (
            MultivariateNormalLogCholesky(2),
            lambda rng: rng.normal(size=5) * 0.6,
            lambda rng, th: rng.normal(size=2),
        ),
        (
            CategoricalSoftmax(4),
            lambda rng: rng.normal(size=4),
            lambda rng, th: int(rng.integers(4)),
        ),
        (
            GpPriorEq(np.linspace(-2.0, 2.0, 5)),
            lambda rng: rng.uniform(-1.0, 1.0, size=3),
            lambda rng, th: rng.normal(size=5),
        ),
        (
            MultivariateNormalLogCholesky(3),
            lambda rng: rng.normal(size=9) * 0.6,
            lambda rng, th: rng.normal(size=3),
        ),
    ],
)
def test_score_matches_fd_at_random_points(rng, family, theta_sampler, x_sampler):
    for _ in range(100):
        theta = theta_sampler(rng)
        x = x_sampler(rng, theta)
        s = family.score(theta, x)
        ref = fd_gradient(lambda t: family.log_density(t, x), theta)
        tol = max(1e-6, 1e-4 * np.linalg.norm(s))
        np.testing.assert_allclose(s, ref, atol=tol)


@pytest.mark.parametrize(
    "family", [MultivariateNormalLogCholesky(2), GpPriorEq(np.linspace(-1.0, 1.0, 3))]
)
def test_gaussian_score_rejects_wrong_shaped_sample(family):
    theta = np.zeros(family.param_dim)
    for x in (np.zeros(family.sample_dim + 1), np.zeros((family.sample_dim, 1)), 0.5):
        with pytest.raises(ValueError):
            family.score(theta, x)


def test_family_base_has_no_numeric_fallbacks():
    # A family that is not Gaussian implements its score, or has none: the
    # base score reads the Gaussian state; quantile and dcdf_dtheta have no
    # bisection or finite-difference default.
    class CdfOnly(Family):
        name = "cdf_only"
        param_dim = 1

        def log_density(self, theta, x):
            return -0.5 * np.asarray(x, dtype=float) ** 2

        def cdf(self, theta, x):
            return 0.5

    fam = CdfOnly()
    with pytest.raises(CapabilityError, match="cdf_only is not a Gaussian family"):
        fam.score((1.0,), 0.5)
    for op in (fam.quantile, fam.dcdf_dtheta):
        with pytest.raises(CapabilityError):
            op((1.0,), 0.5)


# -- cdf / quantile ----------------------------------------------------------


def test_gaussian_cdf_symmetry_points():
    fam = Gaussian1D()
    assert fam.cdf((0.0, 1.0), 0.0) == pytest.approx(0.5, abs=1e-14)
    assert fam.cdf((2.0, 3.0), 2.0) == pytest.approx(0.5, abs=1e-14)
    np.testing.assert_allclose(
        fam.cdf((0.0, 1.0), np.array([0.0, 1.0])), [0.5, 0.8413447460685429], atol=1e-14
    )


def test_gaussian_cdf_against_density_integral():
    # independent oracle: adaptive quadrature of the density itself
    fam = Gaussian1D()
    ref, err = quad(lambda x: np.exp(fam.log_density((0.0, 1.0), x)), -12.0, 1.959964)
    assert err < 1e-11
    assert fam.cdf((0.0, 1.0), 1.959964) == pytest.approx(ref, abs=1e-10)
    assert fam.cdf((0.0, 1.0), 1.959964) == pytest.approx(0.975, abs=1e-6)


def test_gaussian_cdf_monotone(rng):
    fam = Gaussian1D()
    xs = np.sort(rng.uniform(-8, 8, size=200))
    vals = [fam.cdf((0.3, 1.7), x) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_gaussian_quantile_median_and_frozen_value():
    fam = Gaussian1D()
    assert fam.quantile((0.0, 1.0), 0.5) == pytest.approx(0.0, abs=1e-14)
    # 1.959964 frozen from a bisection oracle against the cdf
    assert fam.quantile((0.0, 1.0), 0.975) == pytest.approx(1.959964, abs=1e-6)


def test_gaussian_quantile_location_scale_identity(rng):
    fam = Gaussian1D()
    for _ in range(20):
        mu, sigma = rng.uniform(-2, 2), rng.uniform(0.4, 2.5)
        q = rng.uniform(0.01, 0.99)
        base = fam.quantile((0.0, 1.0), q)
        assert fam.quantile((mu, sigma), q) == pytest.approx(mu + sigma * base, abs=1e-12)


def test_gaussian_quantile_cdf_roundtrip(rng):
    fam = Gaussian1D()
    for q in rng.uniform(0.001, 0.999, size=50):
        theta = (0.4, 1.3)
        assert fam.cdf(theta, fam.quantile(theta, q)) == pytest.approx(q, abs=1e-10)


def test_quantile_rejects_out_of_range():
    fam = Gaussian1D()
    for q in (0.0, 1.0, -0.2, 1.7, float("nan")):
        with pytest.raises(ValueError):
            fam.quantile((0.0, 1.0), q)


def test_cdf_capability_error_on_multivariate():
    with pytest.raises(CapabilityError):
        MultivariateNormalLogCholesky(2).cdf(np.zeros(5), 0.0)
    with pytest.raises(CapabilityError):
        CategoricalSoftmax(3).quantile(np.zeros(3), 0.5)


# -- dcdf_dtheta --------------------------------------------------------------


def test_gaussian_dcdf_frozen_point():
    fam = Gaussian1D()
    # at (0,1), x=0: (-pdf(0), 0) = (-0.3989422804, 0)
    np.testing.assert_allclose(
        fam.dcdf_dtheta((0.0, 1.0), 0.0), [-0.3989422804014327, 0.0], atol=1e-12
    )


def test_gaussian_dcdf_vanishes_in_far_tail():
    fam = Gaussian1D()
    np.testing.assert_allclose(fam.dcdf_dtheta((0.5, 1.2), 40.0), [0.0, 0.0], atol=1e-100)


@pytest.mark.parametrize("family,theta", [(Gaussian1D(), (0.3, 1.4)), (POWERLAW, (2.5,))])
def test_dcdf_matches_fd_of_cdf(rng, family, theta):
    xs = rng.uniform(0.05, 0.95, size=20) if family.param_dim == 1 else rng.uniform(-3, 3, size=20)
    for x in xs:
        ref = fd_gradient(lambda t: family.cdf(t, x), np.asarray(theta, dtype=float))
        np.testing.assert_allclose(family.dcdf_dtheta(theta, x), ref, atol=1e-6)


# -- sampling ------------------------------------------------------------------


def test_gaussian_sample_mean_lln():
    fam = Gaussian1D()
    xs = fam.sample((0.0, 1.0), seed=7, count=100_000)
    assert abs(np.mean(xs)) < 0.02  # 3 sigma / sqrt(n) bound


def test_categorical_sample_frequencies():
    fam = CategoricalSoftmax(4)
    xs = fam.sample(np.zeros(4), seed=11, count=100_000)
    freqs = np.bincount(xs.astype(int), minlength=4) / xs.size
    np.testing.assert_allclose(freqs, 0.25, atol=0.01)


def test_sample_empty_and_deterministic():
    fam = Gaussian1D()
    assert fam.sample((0.0, 1.0), seed=3, count=0).size == 0
    a = fam.sample((1.0, 2.0), seed=42, count=64)
    b = fam.sample((1.0, 2.0), seed=42, count=64)
    np.testing.assert_array_equal(a, b)


def test_sampler_capability_error():
    with pytest.raises(CapabilityError):
        POWERLAW.sample((1.0,), seed=0, count=3)


# -- normalization -------------------------------------------------------------


def _expectation(fam, theta, fn):
    """``E[fn(X)]`` at ``theta``: the exact sum over the support of a
    categorical family, composite Gauss-Legendre over the quantile window
    ``[quantile(delta), quantile(1 - delta)]`` of a 1-D continuous one."""
    point = fam.point(theta)
    if isinstance(fam, CategoricalSoftmax):
        nodes, weights, logp = np.arange(fam.k), np.ones(fam.k), point.state().logs
    else:
        levels = (DEFAULT_TAIL_MASS, 1.0 - DEFAULT_TAIL_MASS)
        nodes, weights = composite_legendre(*fam.quantile(point, levels))
        logp = fam.log_density(point, nodes)
    return np.einsum("n,n...->...", weights * np.exp(logp), fn(nodes))


def test_gaussian_normalization_100_points(rng):
    fam = Gaussian1D()
    for theta in random_gaussian_thetas(rng, 100):
        total = _expectation(fam, theta, lambda x: np.ones_like(x))
        assert total == pytest.approx(1.0, abs=1e-8)


def test_categorical_normalization_100_points(rng):
    fam = CategoricalSoftmax(5)
    for _ in range(100):
        p = fam.probabilities(rng.normal(size=5))
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p > 0)


def test_categorical_points_keep_read_only_scipy_exact_probabilities(rng):
    from scipy.special import log_softmax, softmax

    fam = CategoricalSoftmax(5)
    for scale in (0.1, 1.0, 30.0):
        theta = scale * rng.normal(size=5)
        point = fam.point(theta)
        p = fam.probabilities(point)
        assert not p.flags.writeable and fam.probabilities(point) is p
        assert fam.probabilities(theta.copy()).tobytes() == p.tobytes()  # built fresh
        assert p.tobytes() == softmax(theta).tobytes()
        assert fam.log_density(point, np.arange(5)).tobytes() == log_softmax(theta).tobytes()
        assert fam.log_density(theta, np.arange(5)).tobytes() == log_softmax(theta).tobytes()
    with pytest.raises(InvalidParameterError):
        fam.probabilities(np.array([0.0, np.nan, 0.0, 0.0, 0.0]))


def test_categorical_expectation_is_the_exact_sum(rng):
    fam = CategoricalSoftmax(5)
    values = rng.normal(size=(5, 2))
    for _ in range(20):
        theta = rng.normal(size=5)
        got = _expectation(fam, theta, lambda x: values[x])
        np.testing.assert_allclose(got, fam.probabilities(theta) @ values, rtol=1e-14, atol=1e-15)


def _whitened_mass(log_density, mean, transform, half=8.5, n=96):
    """2-D normalization integral via the substitution x = mean + T z.

    The grid lives in z (tensor-product Gauss-Legendre on a centered box)
    so every direction is resolved even for strongly correlated densities;
    the Jacobian |det T| makes the change of variables exact.
    """
    nodes, weights = gauss_legendre(-half, half, n)
    jac = abs(np.linalg.det(transform))
    total = 0.0
    for a, wa in zip(nodes, weights):
        x = mean + (transform @ np.stack([np.full(n, a), nodes])).T
        vals = np.array([np.exp(log_density(row)) for row in x])
        total += wa * float(weights @ vals)
    return total * jac


def test_mvn_normalization_whitened_grid(rng):
    fam = MultivariateNormalLogCholesky(2)
    for _ in range(3):
        theta = rng.normal(size=5) * 0.5
        mean, L = fam.split(theta)
        mass = _whitened_mass(lambda x: fam.log_density(theta, x), mean, L)
        assert mass == pytest.approx(1.0, abs=1e-8)


def test_gp_normalization_whitened_grid(rng):
    fam = GpPriorEq(np.array([-1.0, 1.0]))
    for _ in range(2):
        theta = rng.uniform(-0.8, 0.8, size=3)
        L = np.linalg.cholesky(fam.gaussian_state(theta).cov)
        mass = _whitened_mass(lambda x: fam.log_density(theta, x), np.zeros(2), L)
        assert mass == pytest.approx(1.0, abs=1e-8)


def test_powerlaw_normalization():
    # integer exponents keep the density polynomial, so the quadrature
    # window [q(delta), q(1-delta)] captures all but ~2*delta of the mass
    fam = POWERLAW
    for a in (1.0, 2.0, 3.0, 4.0):
        total = _expectation(fam, (a,), lambda x: np.ones_like(x))
        assert total == pytest.approx(1.0, abs=1e-8)


# -- validation and rejection ----------------------------------------------------


def test_eager_rejection_of_bad_parameters():
    fam = Gaussian1D()
    for bad in [(0.0, 0.0), (0.0, -1.0), (np.nan, 1.0), (0.0, np.inf)]:
        with pytest.raises(InvalidParameterError):
            fam.check_point(bad)
    with pytest.raises(InvalidParameterError):
        fam.log_density((0.0, 1.0, 2.0), 0.0)  # wrong length


def test_a_rejected_point_names_its_values_at_full_precision():
    # The message lists the values (not numpy's array printer, which rounds
    # them and costs more than the check on a line-search trial).
    fam = Gaussian1D()
    for bad, shown in [((0.1 + 0.2, -1.0 / 3.0), "[0.30000000000000004, -0.3333333333333333]"),
                       ((0.25, np.nan), "[0.25, nan]")]:
        with pytest.raises(InvalidParameterError) as exc:
            fam.point(bad)
        assert str(exc.value).endswith(shown)


def test_invalid_parameter_error_is_value_error():
    assert issubclass(InvalidParameterError, ValueError)
    assert issubclass(CapabilityError, TypeError)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gp_data_must_be_finite(bad):
    # Accepted, a non-finite target ended every run numeric_failure and a
    # non-finite input made every state raise "covariance is not finite".
    with pytest.raises(ValueError, match="finite"):
        Dataset(inputs=[0.0, 1.0, 2.0], targets=[0.0, bad, 1.0], seed=0)
    with pytest.raises(ValueError, match="finite"):
        Dataset(inputs=[0.0, bad, 2.0], targets=[0.0, 0.5, 1.0], seed=0)
    with pytest.raises(ValueError, match="finite"):
        GpPriorEq([bad, 0.0, 1.0])


def test_dataset_validates_lengths():
    with pytest.raises(ValueError):
        Dataset(inputs=np.arange(3.0), targets=np.arange(4.0), seed=0)
    ds = Dataset(inputs=np.arange(3.0), targets=np.zeros(3), seed=1)
    with pytest.raises(ValueError):
        ds.inputs[0] = 5.0  # arrays are frozen


# -- mvn specifics ----------------------------------------------------------------


def test_mvn_split_roundtrip_and_moments():
    fam = MultivariateNormalLogCholesky(2)
    theta = np.array([0.5, -1.0, np.log(2.0), 0.3, np.log(0.5)])
    mean, L = fam.split(theta)
    np.testing.assert_allclose(mean, [0.5, -1.0])
    np.testing.assert_allclose(L, [[2.0, 0.0], [0.3, 0.5]], atol=1e-15)
    state = fam.gaussian_state(theta)
    np.testing.assert_allclose(state.mean, mean, atol=1e-15)
    np.testing.assert_allclose(state.cov, L @ L.T, atol=1e-15)


def test_mvn_sample_covariance(rng):
    fam = MultivariateNormalLogCholesky(2)
    theta = np.array([1.0, -0.5, np.log(1.5), -0.6, np.log(0.8)])
    xs = fam.sample(theta, seed=9, count=200_000)
    _, L = fam.split(theta)
    cov = L @ L.T
    emp = np.cov(xs.T)
    np.testing.assert_allclose(emp, cov, atol=0.03)


# -- gp family specifics ------------------------------------------------------------


def test_gp_covariance_derivs_match_fd(rng):
    fam = GpPriorEq(np.linspace(-2, 2, 6))
    theta = np.array([0.3, -0.4, -1.0])
    derivs = fam.gaussian_state(theta, derivs=True).dcov
    h = 1e-6
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        ref = (fam.gaussian_state(theta + e).cov - fam.gaussian_state(theta - e).cov) / (2 * h)
        np.testing.assert_allclose(derivs[i], ref, atol=1e-7)


def test_gp_rejects_numerically_bad_covariance():
    fam = GpPriorEq(np.linspace(-1, 1, 4))
    theta = (400.0, 0.0, 0.0)  # exp overflow
    with pytest.raises(NumericError):
        fam.log_density(theta, np.zeros(4))
    for op in (lambda: fam.score(theta, np.zeros(4)), lambda: fam.fisher(theta),
               lambda: fam.sample(theta, 0, 1)):
        with pytest.raises(NumericError):
            op()


def test_eq_covariance_values():
    k = eq_covariance(np.array([0.0, 1.0]), 0.0, 0.0)
    assert k[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert k[0, 1] == pytest.approx(np.exp(-0.5), abs=1e-15)
    far = eq_covariance(np.array([0.0, 60.0]), 0.0, 0.0)
    assert far[0, 1] < 1e-300


@pytest.mark.parametrize("theta, accepted", [
    ([0.0, 1.0], True), ([0.0, -1.0], False), ([0.0, np.nan], False), ([np.inf, 1.0], False),
    ([0.0, 1.0, 2.0], False), ([[0.0, 1.0]], False)])
def test_check_point_accepts_finite_vectors_inside_the_domain(theta, accepted):
    assert accepts(Gaussian1D(), theta) is accepted


@pytest.mark.parametrize("make, name, least", [(MultivariateNormalLogCholesky, "dim", 1),
                                                (CategoricalSoftmax, "k", 2)])
@pytest.mark.parametrize("size", [2.5, True, "3"])
def test_a_family_size_must_be_an_integer(make, name, least, size):
    # 2.5 once built mvn_lcholesky:2.5 with dim 2 and param_dim 6.5, and
    # True the family mvn_lcholesky:True.
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= {least}, got "):
        make(size)


# -- array contract ------------------------------------------------------------------

ARRAY_FAMILIES = [
    Gaussian1D(),
    MultivariateNormalLogCholesky(2),
    GpPriorEq(np.linspace(-1.0, 1.0, 3)),
    CategoricalSoftmax(4),
    POWERLAW,
]


def _draw_point_and_batch(data, fam):
    """A valid parameter point of ``fam`` and a batch of 1-5 sample points."""
    n = data.draw(st.integers(1, 5))

    def floats(lo, hi, size):
        return np.array(data.draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size)))

    if fam is POWERLAW:  # on (0, 1)
        return floats(0.3, 4.0, 1), floats(0.01, 0.99, n)
    if isinstance(fam, Gaussian1D):  # (mu, sigma)
        return np.concatenate([floats(-2.0, 2.0, 1), floats(0.3, 3.0, 1)]), floats(-4.0, 4.0, n)
    theta = floats(-0.7, 0.7, fam.param_dim)
    if isinstance(fam, CategoricalSoftmax):
        return theta, np.array(data.draw(st.lists(st.integers(0, fam.k - 1), min_size=n, max_size=n)))
    return theta, floats(-3.0, 3.0, n * fam.sample_dim).reshape(n, fam.sample_dim)


@pytest.mark.parametrize("fam", ARRAY_FAMILIES)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_batched_operations_equal_stacked_single_calls(fam, data):
    theta, xs = _draw_point_and_batch(data, fam)
    ops = [fam.log_density, fam.score]
    if isinstance(fam, Gaussian1D) or fam is POWERLAW:
        ops += [fam.cdf, fam.dcdf_dtheta]
        levels = data.draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=5))
        batched = fam.quantile(theta, levels)
        assert batched.shape == (len(levels),)
        np.testing.assert_allclose(batched, [fam.quantile(theta, q) for q in levels], rtol=1e-12)
    for op in ops:
        batched = op(theta, xs)
        stacked = np.stack([op(theta, x) for x in xs])
        assert batched.shape == stacked.shape == (len(xs),) + np.shape(op(theta, xs[0]))
        scale = max(1.0, float(np.max(np.abs(stacked))))
        np.testing.assert_allclose(batched, stacked, rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize("family", [ARRAY_FAMILIES[i] for i in (0, 1, 2, 3)])
def test_sample_shapes_outside_the_contract_raise(family):
    theta = np.full(family.param_dim, 0.5)
    d = family.sample_dim
    bad = [np.zeros((2, d + 1)), np.zeros((2, 2, d))]
    if isinstance(family, CategoricalSoftmax):
        bad += [2.5, np.array([0, family.k])]
    for x in bad:
        with pytest.raises(ValueError):
            family.log_density(theta, x)


# -- registry --------------------------------------------------------------------------


def test_get_family_resolves_all_ids():
    assert get_family("gaussian1d").name == "gaussian1d"
    assert get_family("mvn_lcholesky:3").sample_dim == 3
    assert get_family("mvn_lcholesky").sample_dim == 2
    assert get_family("categorical_softmax:5").param_dim == 5
    assert get_family("gp_prior_eq", inputs=np.arange(4.0)).sample_dim == 4


def test_get_family_unknown_id_lists_options():
    with pytest.raises(ConfigError) as exc:
        get_family("gaussiandd")
    for fid in FAMILY_IDS:
        assert fid.split("[")[0] in str(exc.value)


def test_get_family_gp_requires_inputs():
    with pytest.raises(ConfigError):
        get_family("gp_prior_eq")
