"""The Gaussian state a point keeps: one covariance build and one Cholesky
factor per point, with the same bits on a point as on a fresh array."""

import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import accepts, power_law_family
import natgrad.families
import natgrad.similarity
from natgrad.errors import CapabilityError, NumericError
from natgrad.families import (
    CategoricalSoftmax,
    Gaussian1D,
    GaussianState,
    GpPriorEq,
    MultivariateNormalLogCholesky,
    Point,
)
from natgrad.gp_bench import GpNllCost, generate_data
from natgrad.metric import (
    w2_local_hessian_1d,
    w2_local_hessian_gaussian,
    wp_local_hessian_1d,
)
from natgrad.optimizer import OptimizerConfig, optimize
from natgrad.similarity import Similarity, get_similarity, resolve_metric_engine

# Factories, so each call can get a fresh instance.
FACTORIES = {
    "gaussian1d": Gaussian1D,
    **{f"mvn_lcholesky:{d}": (lambda d=d: MultivariateNormalLogCholesky(d)) for d in (1, 2, 3)},
    **{f"gp_prior_eq m={m}": (lambda m=m: GpPriorEq(np.linspace(-1.0, 1.0, m)))
       for m in (1, 2, 3, 4, 5)},
}

TWO_POINT_COSTS = ("kl", "reverse_kl", "w2_gaussian")
GAUSSIAN_FORMS = ("kl", "reverse_kl", "chi2", "hellinger2", "w2_gaussian")


@st.composite
def points(draw, family):
    """A valid parameter point of ``family``."""
    def uniform(lo, hi, n):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    if isinstance(family, Gaussian1D):
        return np.concatenate([uniform(-2.0, 2.0, 1), uniform(0.3, 3.0, 1)])
    if isinstance(family, GpPriorEq):
        return uniform(-1.0, 0.5, 3)
    return uniform(-1.0, 1.0, family.param_dim)


def _samples(family):
    """Three fixed sample points in the family's batch layout."""
    xs = np.linspace(-1.0, 1.5, 3 * family.sample_dim)
    return xs if family.sample_dim == 1 else xs.reshape(3, family.sample_dim)


def _one_point_ops(family):
    xs = _samples(family)
    return [
        ("log_density", lambda f, t: f.log_density(t, xs)),
        ("score", lambda f, t: f.score(t, xs)),
        ("fisher", lambda f, t: f.fisher(t)),
        ("moments", lambda f, t: _fields(f.gaussian_state(t))[:4]),
        ("moment derivatives", lambda f, t: _fields(f.gaussian_state(t, derivs=True))),
        ("w2_metric", lambda f, t: w2_local_hessian_gaussian(f, t).matrix),
    ]


def _two_point_ops():
    ops = []
    for sim_id in TWO_POINT_COSTS:
        sim = get_similarity(sim_id)
        ops.append((f"{sim_id} value", lambda f, t, u, sim=sim: sim.evaluate(f, t, u)))
        ops.append((f"{sim_id} gradient", lambda f, t, u, sim=sim: sim.grad_theta(f, t, u)))
    return ops


def _fields(state):
    """Every array of the state; the first four are set without ``derivs``."""
    return (state.theta, state.mean, state.cov, state.chol, state.inv, state.dmu, state.dcov)


def _assert_same_bits(got, want, what):
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want), what
        for g, w in zip(got, want):
            _assert_same_bits(g, w, what)
        return
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), what


@pytest.mark.parametrize("name", FACTORIES)
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_interleaved_points_match_a_fresh_instance_bit_for_bit(name, data):
    make = FACTORIES[name]
    shared = make()
    a, other, target = (data.draw(points(shared)) for _ in range(3))
    # B differs from A in one coordinate where the domain allows it.
    b = a.copy()
    i = data.draw(st.integers(0, a.size - 1))
    b[i] = other[i]
    if not accepts(shared, b) or np.array_equal(a, b):
        b = other
    # One-point operations at the points A, B, A: the first call at a point
    # builds its state, the next ones read it (and add the derivatives); a
    # new instance given the plain array builds everything afresh.
    pa, pb, held = (shared.point(t) for t in (a, b, target))
    for point in (pa, pb, pa):
        theta = point.theta
        for what, op in _one_point_ops(shared):
            _assert_same_bits(op(shared, point), op(make(), theta), f"{what} at {theta}")
    # Two-point costs read the states of both points.
    for point in (pa, pb, pa):
        theta = point.theta
        for what, op in _two_point_ops():
            _assert_same_bits(op(shared, point, held), op(make(), theta, target),
                              f"{what} at {theta} to {target}")


@pytest.mark.parametrize("name", FACTORIES)
def test_every_array_of_the_state_is_read_only(name):
    family = FACTORIES[name]()
    theta = _fixed_point(family)
    state = family.gaussian_state(theta, derivs=True)
    for arr in _fields(state):
        assert isinstance(arr, np.ndarray) and not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0.0
    np.testing.assert_allclose(state.chol @ state.chol.T, state.cov, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(state.inv @ state.cov, np.eye(len(state.cov)), atol=1e-10)


def _fixed_point(family):
    if isinstance(family, Gaussian1D):
        return np.array([0.4, 1.3])
    return np.linspace(-0.6, 0.4, family.param_dim)


def _near_target(theta):
    """A target close to ``theta``, narrower than it, so that chi2 is finite."""
    return theta - 0.05 * np.cos(np.arange(theta.size)) ** 2


@pytest.mark.parametrize("name", FACTORIES)
def test_the_state_keeps_its_log_determinant_through_the_derivatives(name):
    family = FACTORIES[name]()
    theta = _fixed_point(family)
    point = family.point(theta)
    state = point.state()
    assert isinstance(state.log_det, float)
    assert state.log_det == 2.0 * float(np.log(state.chol.diagonal()).sum())
    np.testing.assert_allclose(state.log_det, np.linalg.slogdet(state.cov)[1], rtol=1e-12)
    derived = point.state(derivs=True)
    assert derived is not state and derived.log_det == state.log_det
    assert derived.memo is state.memo  # what the state keeps stays with it


@pytest.mark.parametrize("sim_id", GAUSSIAN_FORMS)
@pytest.mark.parametrize("name", FACTORIES)
def test_a_gradient_after_the_value_has_the_bits_of_a_fresh_one(name, sim_id):
    # A line-search trial's value comes first and its gradient next, at one
    # point; the gradient must not depend on that order.  The same point
    # against two targets, and chi2 next to hellinger2 (another alpha), must
    # not hand one integral's factor to the other.
    family, sim, other = FACTORIES[name](), get_similarity(sim_id), get_similarity("hellinger2")
    theta = _fixed_point(family)
    target, far = _near_target(theta), _near_target(_near_target(theta))
    point, held, held_far = (family.point(t) for t in (theta, target, far))
    value = sim.evaluate(family, point, held)
    fresh = FACTORIES[name]()
    _assert_same_bits(value, sim.evaluate(fresh, theta, target), f"{sim_id} value")
    _assert_same_bits(sim.grad_theta(family, point, held), sim.grad_theta(fresh, theta, target),
                      f"{sim_id} gradient after its value")
    other.evaluate(family, point, held)
    sim.evaluate(family, point, held_far)
    _assert_same_bits(sim.grad_theta(family, point, held), sim.grad_theta(fresh, theta, target),
                      f"{sim_id} gradient after other values")
    _assert_same_bits(sim.evaluate(family, point, held), value, f"{sim_id} value again")


def test_a_point_builds_its_state_once_and_keeps_it():
    family = MultivariateNormalLogCholesky(2)
    a = np.full(5, 0.1)
    point = family.point(a)
    assert isinstance(point, Point) and family.point(point) is point
    assert not point.theta.flags.writeable and np.asarray(point) is point.theta
    first = family.gaussian_state(point)
    assert family.gaussian_state(point) is first  # kept on the point
    assert isinstance(first, GaussianState) and first.inv is None and first.dcov is None
    assert all(not arr.flags.writeable for arr in _fields(first)[:4])
    derived = family.gaussian_state(point, derivs=True)  # adds to the state, no new factor
    assert derived.chol is first.chol and family.gaussian_state(point) is derived
    # A plain array, or a point of another instance, is validated and built
    # fresh, with the same bits.
    for fresh in (family.gaussian_state(a), MultivariateNormalLogCholesky(2).gaussian_state(point)):
        assert fresh is not first
        _assert_same_bits(_fields(fresh)[:4], _fields(first)[:4], "a fresh state")


def test_gaussian_state_raises_the_one_capability_error_on_a_family_that_is_not_gaussian():
    # Every Gaussian operation of the base class reads the state through
    # gaussian_state, so a family without one gets this error and no None.
    for family, theta in ((CategoricalSoftmax(3), (0.1, -0.2, 0.3)), (power_law_family(), (1.5,))):
        point = family.point(theta)
        for derivs in (False, True):
            with pytest.raises(CapabilityError, match=f"^{family.name} is not a Gaussian family$"):
                family.gaussian_state(point, derivs=derivs)
        with pytest.raises(CapabilityError, match=f"^{family.name} is not a Gaussian family$"):
            w2_local_hessian_gaussian(family, point)
    with pytest.raises(CapabilityError, match="^powerlaw01 is not a Gaussian family$"):
        power_law_family().sample((1.5,), seed=0, count=3)


@pytest.mark.parametrize("cov", [[[np.nan]], [[np.inf]], np.diag([np.inf, 1.0]),
                                 [[1.0, np.nan], [np.nan, 1.0]]],
                         ids=["nan", "inf", "diag(inf, 1)", "nan off-diagonal"])
def test_covariances_that_dpotrf_accepts_but_are_not_finite_raise(cov):
    # LAPACK dpotrf returns info 0 for each of these, so the finiteness check
    # in GaussianState.factor is what rejects them.
    cov = np.array(cov, dtype=float)
    mean = np.zeros(len(cov))
    with pytest.raises(NumericError):
        GaussianState.factor(mean, mean, cov)


@pytest.mark.parametrize(
    "family, theta",
    [
        (Gaussian1D(), [0.0, 1e200]),  # sigma^2 overflows
        (MultivariateNormalLogCholesky(2), [0.0, 0.0, 800.0, 0.0, 0.0]),  # exp(log L_11) overflows
        (GpPriorEq(np.linspace(-1.0, 1.0, 4)), [400.0, 0.0, 0.0]),  # amplitude overflows
        (GpPriorEq(np.linspace(-1.0, 1.0, 4)), [0.0, -400.0, 0.0]),  # length-scale underflows to 0
    ],
    ids=["gaussian1d", "mvn_lcholesky:2", "gp amplitude", "gp length-scale"],
)
def test_a_covariance_that_overflows_raises_without_a_warning(family, theta):
    # The non-finite covariance is the failure GaussianState.factor reports;
    # the floating-point warnings that made it are not reported besides.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="covariance is not finite"):
            family.gaussian_state(np.array(theta))


def test_a_categorical_point_asked_for_derivatives_returns_its_probabilities():
    # Moment derivatives belong to Gaussian states; a categorical point's
    # state is its (p, log p) whether or not they are asked for.
    logits = np.array([0.1, 0.2, 0.3])
    point = CategoricalSoftmax(3).point(logits)
    p, log_p = point.state(derivs=True)
    assert point.state() is point.state(True)
    np.testing.assert_allclose(p, np.exp(logits) / np.exp(logits).sum(), rtol=1e-15)
    np.testing.assert_allclose(log_p, np.log(p), rtol=1e-15)


def test_a_gp_kernel_that_underflows_has_a_finite_score_and_fisher_without_warnings():
    # At log length-scale -360, exp(2 log_ls) is subnormal: K is finite (its
    # off-diagonal underflows to 0) and accepted.  The length-scale
    # derivative of the kernel is 0 wherever the kernel is, not 0 * inf.
    family, theta = GpPriorEq(np.linspace(-1.0, 1.0, 4)), np.array([0.0, -360.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        score, fisher = family.score(theta, np.zeros(4)), family.fisher(theta)
        dcov = family.gaussian_state(theta, derivs=True).dcov
    assert score[1] == 0.0
    np.testing.assert_allclose(score, [-2.0, 0.0, -2.0], rtol=1e-15)
    assert np.isfinite(fisher).all()
    np.testing.assert_array_equal(dcov[1], np.zeros((4, 4)))


def test_a_run_against_a_fixed_target_factors_the_target_once(monkeypatch):
    family, kl = MultivariateNormalLogCholesky(2), get_similarity("kl")
    theta0 = np.array([1.0, -0.5, 1.2, 0.4, -0.3])
    target = np.array([0.2, 0.1, -0.3, 0.2, 0.1])
    factored = []
    real_factor = GaussianState.factor.__func__

    def factor(cls, theta, mean, cov):
        factored.append(theta.tobytes())
        return real_factor(cls, theta, mean, cov)

    monkeypatch.setattr(GaussianState, "factor", classmethod(factor))
    trace = optimize(family, kl, theta0, target, OptimizerConfig(metric="fisher"))
    assert trace.status == "converged_grad" and trace.iterations == 7
    assert factored.count(target.tobytes()) == 1
    assert len(factored) == len(set(factored))  # every point once


def test_a_chi2_run_factors_one_weighted_covariance_per_cost_evaluation(monkeypatch):
    # Each cost evaluation factors M = 2 S1 - S2 at a new point; the gradient
    # at the point the line search accepted reads the factor its value made.
    # The target's log-determinant is taken once, when its state is built.
    family, chi2 = Gaussian1D(), get_similarity("chi2")
    theta0, target = np.array([2.0, 3.0]), np.array([0.0, 1.0])
    target_chol = family.gaussian_state(target).chol.tobytes()
    factored, log_dets, evaluated = [], [], []
    real_dpotrf, real_log_det, real_evaluate = (
        natgrad.similarity.dpotrf, natgrad.families._log_det, Similarity.evaluate)

    def dpotrf(a, *args, **kwargs):
        factored.append(np.asarray(a).tobytes())
        return real_dpotrf(a, *args, **kwargs)

    def log_det(chol):
        log_dets.append(chol.tobytes())
        return real_log_det(chol)

    def evaluate(self, fam, theta, target):
        evaluated.append(np.asarray(theta, dtype=float).tobytes())
        return real_evaluate(self, fam, theta, target)

    monkeypatch.setattr(natgrad.similarity, "dpotrf", dpotrf)
    for module in (natgrad.families, natgrad.similarity):
        monkeypatch.setattr(module, "_log_det", log_det)
    monkeypatch.setattr(Similarity, "evaluate", evaluate)
    trace = optimize(family, chi2, theta0, target, OptimizerConfig(metric="fdiv:chi2"))
    assert trace.status == "converged_grad" and trace.iterations == 8
    # Nine values (the start and eight accepted trials) and nine gradients.
    assert len(evaluated) == len(set(evaluated)) == trace.iterations + 1
    assert len(factored) == len(evaluated)
    assert log_dets.count(target_chol) == 1
    # One log-determinant per state (the target and the nine points) and
    # one per weighted covariance.
    assert len(log_dets) == 1 + len(evaluated) + len(factored)


def test_gp_numeric_failure_raises_every_time_and_leaves_the_next_point_alone():
    inputs = np.linspace(-1.0, 1.0, 4)
    bad = np.array([400.0, 0.0, 0.0])  # exp overflow
    good, target = np.array([0.1, -0.2, -1.0]), np.array([0.0, 0.1, -0.8])
    ops = [
        lambda f, t: f.log_density(t, np.zeros(4)),
        lambda f, t: f.score(t, np.zeros(4)),
        lambda f, t: f.fisher(t),
        lambda f, t: _fields(f.gaussian_state(t))[:4],
        lambda f, t: _fields(f.gaussian_state(t, derivs=True)),
        lambda f, t: f.sample(t, 0, 1),
        lambda f, t: w2_local_hessian_gaussian(f, t).matrix,
    ]
    for sim_id in TWO_POINT_COSTS:
        sim = get_similarity(sim_id)
        ops += [lambda f, t, sim=sim: sim.evaluate(f, t, target),
                lambda f, t, sim=sim: sim.grad_theta(f, t, target),
                lambda f, t, sim=sim: sim.evaluate(f, target, t)]
    family = GpPriorEq(inputs)
    family.score(good, np.zeros(4))  # a valid point before the failures
    for _ in range(2):
        for op in ops:
            with pytest.raises(NumericError):
                op(family, bad)
    for op in ops:
        _assert_same_bits(op(family, good), op(GpPriorEq(inputs), good), "after the failure")


def test_gp_w2_run_builds_one_covariance_per_point_and_one_derivative_stack_per_iterate(
        monkeypatch):
    dataset = generate_data(seed=42, m=30)
    family, cost = GpPriorEq(dataset.inputs), GpNllCost()
    builds, stacks, evaluated = [], [], []
    real_build, real_derivs, real_evaluate = (
        GpPriorEq._build_state, GpPriorEq._moment_derivs, GpNllCost.evaluate)

    def build(self, theta):
        builds.append(theta.tobytes())
        return real_build(self, theta)

    def derivs(self, state):
        stacks.append(state.theta.tobytes())
        return real_derivs(self, state)

    def evaluate(self, fam, theta, target):
        evaluated.append(np.asarray(theta, dtype=float).tobytes())
        return real_evaluate(self, fam, theta, target)

    monkeypatch.setattr(GpPriorEq, "_build_state", build)
    monkeypatch.setattr(GpPriorEq, "_moment_derivs", derivs)
    monkeypatch.setattr(GpNllCost, "evaluate", evaluate)
    trace = optimize(family, cost, np.array([1.0, 1.2, 0.3]), dataset,
                     OptimizerConfig(max_iters=20, grad_tol=1e-6),
                     engine=resolve_metric_engine("w2_gaussian", family))
    assert trace.status == "max_iters" and trace.iterations == 20
    assert len(builds) == len(set(builds)) == len(set(evaluated))
    assert set(builds) == set(evaluated)
    assert len(stacks) == len(set(stacks)) == trace.iterations + 1
    assert set(stacks) <= set(builds)


def test_a_w3_run_builds_one_transport_state_per_point(monkeypatch):
    family, sim = Gaussian1D(), get_similarity("wasserstein:3")
    theta0, target = np.array([2.0, 3.0]), np.array([0.0, 1.0])
    quantiles, velocities, evaluated = [], [], []
    real_quantiles, real_velocities, real_evaluate = (
        Gaussian1D._grid_quantiles, Gaussian1D._quantile_velocities, Similarity.evaluate)

    def grid_quantiles(self, point):
        quantiles.append(point.theta.tobytes())
        return real_quantiles(self, point)

    def quantile_velocities(self, point, q):
        velocities.append(point.theta.tobytes())
        return real_velocities(self, point, q)

    def evaluate(self, fam, theta, target):
        evaluated.append(np.asarray(theta, dtype=float).tobytes())
        return real_evaluate(self, fam, theta, target)

    monkeypatch.setattr(Gaussian1D, "_grid_quantiles", grid_quantiles)
    monkeypatch.setattr(Gaussian1D, "_quantile_velocities", quantile_velocities)
    monkeypatch.setattr(Similarity, "evaluate", evaluate)
    trace = optimize(family, sim, theta0, target, OptimizerConfig(metric="wp_1d:3"))
    assert trace.status == "converged_grad" and trace.iterations == 5
    # Every point evaluated, and the target, builds its quantiles once; each
    # iterate its velocities once, for its gradient and its metric both.
    assert len(quantiles) == len(set(quantiles)) == len(set(evaluated)) + 1
    assert set(quantiles) == set(evaluated) | {target.tobytes()}
    assert len(velocities) == len(set(velocities)) == trace.iterations + 1
    assert set(velocities) <= set(evaluated)


def _mismatches_under_threads(calls, expected, steps):
    """Run ``calls[k]()`` from four threads in rotating order, with a short
    switch interval so that threads interleave inside state builds; return
    the ``k`` whose result differs from ``expected[k]`` in any bit."""
    mismatches, done = [], []

    def work(offset):
        for step in range(steps):
            k = (offset + step) % len(calls)
            got = calls[k]()
            if any(np.asarray(g).tobytes() != np.asarray(w).tobytes()
                   for g, w in zip(got, expected[k])):
                mismatches.append(k)
        done.append(offset)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert sorted(done) == [0, 1, 2, 3]
    return mismatches


def test_a_family_shared_across_threads_gives_single_thread_bits():
    # More threads than cores; a torn or crossed memo entry would hand one
    # point's state to another.
    family = GpPriorEq(np.linspace(-1.0, 1.0, 5))
    thetas = [np.array([0.1 * k, -0.2, -1.0 + 0.05 * k]) for k in range(6)]
    xs = np.linspace(-1.0, 1.0, 5)

    def results(fam, theta):
        return (fam.log_density(theta, xs), fam.score(theta, xs), fam.fisher(theta),
                w2_local_hessian_gaussian(fam, theta).matrix)

    expected = [results(GpPriorEq(family.inputs), theta) for theta in thetas]
    calls = [lambda theta=theta: results(family, theta) for theta in thetas]
    assert _mismatches_under_threads(calls, expected, steps=2000) == []


def test_a_categorical_family_shared_across_threads_gives_single_thread_bits():
    # The same for the probabilities a categorical family keeps in its memo.
    family = CategoricalSoftmax(4)
    thetas = [np.array([0.1 * k, -0.2, 0.3, -0.05 * k]) for k in range(6)]
    xs = np.arange(4)

    def results(fam, theta):
        return (fam.probabilities(theta), fam.log_density(theta, xs), fam.score(theta, xs),
                fam.fisher(theta))

    expected = [results(CategoricalSoftmax(4), theta) for theta in thetas]
    calls = [lambda theta=theta: results(family, theta) for theta in thetas]
    assert _mismatches_under_threads(calls, expected, steps=2000) == []


def test_an_fdivergence_shared_across_threads_gives_single_thread_bits():
    # The same for one f-divergence instance on a family that sums over its
    # support (Gaussians take the closed form).
    family, sim = CategoricalSoftmax(3), get_similarity("chi2")
    pairs = [(np.array([0.1 * k, -0.2, 0.3]), np.array([0.2, 0.05 * k, -0.1])) for k in range(4)]

    def results(s, fam, theta, target):
        return s.evaluate(fam, theta, target), s.grad_theta(fam, theta, target)

    expected = [results(get_similarity("chi2"), CategoricalSoftmax(3), *pair) for pair in pairs]
    calls = [lambda pair=pair: results(sim, family, *pair) for pair in pairs]
    assert _mismatches_under_threads(calls, expected, steps=600) == []


@pytest.mark.parametrize("name", ["gaussian1d", "mvn_lcholesky:2"])
def test_alpha_integrals_shared_across_threads_give_single_thread_bits(name):
    # Threads race on the integral each point's state keeps.  One call is a
    # value and a gradient of chi2 (alpha 2) or hellinger2 (alpha 1/2), one
    # shared instance each, at one point against one of two targets; threads
    # in rotating order run neighbouring calls, which share a point and differ
    # in the target or the alpha, so a gradient that reads another pair's
    # entry shows.
    family, sims = FACTORIES[name](), (get_similarity("chi2"), get_similarity("hellinger2"))
    base = _fixed_point(family)
    thetas = [base + 0.1 * k for k in range(3)]
    targets = [_near_target(base), _near_target(_near_target(base))]
    cases = [(i, sim, j) for i in range(len(thetas)) for sim in sims for j in range(len(targets))]

    def results(sim, fam, theta, target):
        return sim.evaluate(fam, theta, target), sim.grad_theta(fam, theta, target)

    fresh = FACTORIES[name]()
    expected = [results(sim, fresh, thetas[i], targets[j]) for i, sim, j in cases]
    points, held = [family.point(t) for t in thetas], [family.point(t) for t in targets]
    calls = [lambda i=i, sim=sim, j=j: results(sim, family, points[i], held[j])
             for i, sim, j in cases]
    assert _mismatches_under_threads(calls, expected, steps=1500) == []


def test_transport_states_shared_across_threads_give_single_thread_bits():
    # Four threads race on the first transport builds of shared 1-D points
    # and of the shared target; every read must see single-thread bits.
    w2, w3 = get_similarity("wasserstein:2"), get_similarity("wasserstein:3")
    u = np.array([0.6, -0.8])

    def results(fam, theta, target):
        return (w2.evaluate(fam, theta, target), w3.grad_theta(fam, theta, target),
                w2_local_hessian_1d(fam, theta).matrix,
                wp_local_hessian_1d(fam, theta, 3.0, u).matrix)

    thetas = [np.array([0.2 * k - 0.5, 0.6 + 0.3 * k]) for k in range(3)]
    target = np.array([0.1, 0.9])
    expected = [results(Gaussian1D(), theta, target) for theta in thetas]
    family = Gaussian1D()
    held = family.point(target)
    shared = [(family, family.point(theta), held) for theta in thetas]
    calls = [lambda case=case: results(*case) for case in shared]
    assert _mismatches_under_threads(calls, expected, steps=2000) == []
