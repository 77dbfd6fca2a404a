"""The Gaussian state a point keeps: one covariance build and one Cholesky
factor per point, with the same bits on a point as on a fresh array."""

import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natgrad.errors import NumericError
from natgrad.families import (
    CategoricalSoftmax,
    Gaussian1D,
    GaussianState,
    GpPriorEq,
    LinearlyReparameterized,
    MultivariateNormalLogCholesky,
    Point,
)
from natgrad.gp_bench import GpNllCost, generate_data
from natgrad.metric import resolve_metric_engine, w2_local_hessian_gaussian
from natgrad.optimizer import OptimizerConfig, optimize
from natgrad.similarity import get_similarity

from conftest import power_law_family

REPARAM_A = np.array([[1.2, 0.3], [-0.1, 0.9]])

# Factories, so each call can get a fresh instance.
FACTORIES = {
    "gaussian1d": Gaussian1D,
    "reparam(gaussian1d)": lambda: LinearlyReparameterized(Gaussian1D(), REPARAM_A),
    **{f"mvn_lcholesky:{d}": (lambda d=d: MultivariateNormalLogCholesky(d)) for d in (1, 2, 3)},
    **{f"gp_prior_eq m={m}": (lambda m=m: GpPriorEq(np.linspace(-1.0, 1.0, m)))
       for m in (1, 2, 3, 4, 5)},
}

TWO_POINT_COSTS = ("kl", "reverse_kl", "w2_gaussian")


@st.composite
def points(draw, family):
    """A valid parameter point of ``family``."""
    def uniform(lo, hi, n):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    if isinstance(family, (Gaussian1D, LinearlyReparameterized)):
        theta = np.concatenate([uniform(-2.0, 2.0, 1), uniform(0.3, 3.0, 1)])
        return np.linalg.solve(REPARAM_A, theta) if family.name.startswith("reparam") else theta
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
    if not shared.in_domain(b) or np.array_equal(a, b):
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
    if isinstance(family, (Gaussian1D, LinearlyReparameterized)):
        theta = np.array([0.4, 1.3])
        return np.linalg.solve(REPARAM_A, theta) if family.name.startswith("reparam") else theta
    return np.linspace(-0.6, 0.4, family.param_dim)


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
        (LinearlyReparameterized(Gaussian1D(), REPARAM_A), [0.0, 1e200]),
        (MultivariateNormalLogCholesky(2), [0.0, 0.0, 800.0, 0.0, 0.0]),  # exp(log L_11) overflows
        (GpPriorEq(np.linspace(-1.0, 1.0, 4)), [400.0, 0.0, 0.0]),  # amplitude overflows
        (GpPriorEq(np.linspace(-1.0, 1.0, 4)), [0.0, -400.0, 0.0]),  # length-scale underflows to 0
    ],
    ids=["gaussian1d", "reparam(gaussian1d)", "mvn_lcholesky:2", "gp amplitude", "gp length-scale"],
)
def test_a_covariance_that_overflows_raises_without_a_warning(family, theta):
    # The non-finite covariance is the failure GaussianState.factor reports;
    # the floating-point warnings that made it are not reported besides.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="covariance is not finite"):
            family.gaussian_state(np.array(theta))


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
        GpPriorEq._gaussian_state, GpPriorEq._moment_derivs, GpNllCost.evaluate)

    def build(self, theta):
        builds.append(theta.tobytes())
        return real_build(self, theta)

    def derivs(self, state):
        stacks.append(state.theta.tobytes())
        return real_derivs(self, state)

    def evaluate(self, fam, theta, target):
        evaluated.append(np.asarray(theta, dtype=float).tobytes())
        return real_evaluate(self, fam, theta, target)

    monkeypatch.setattr(GpPriorEq, "_gaussian_state", build)
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
    # The same for the quadrature window memo of one f-divergence instance,
    # on a family that integrates (Gaussians take the closed form).
    power_law = type(power_law_family())
    family, sim = power_law(), get_similarity("chi2")
    pairs = [(np.array([1.0 + 0.1 * k]), np.array([0.8 + 0.05 * k])) for k in range(4)]

    def results(s, fam, theta, target):
        return s.evaluate(fam, theta, target), s.grad_theta(fam, theta, target)

    expected = [results(get_similarity("chi2"), power_law(), *pair) for pair in pairs]
    calls = [lambda pair=pair: results(sim, family, *pair) for pair in pairs]
    assert _mismatches_under_threads(calls, expected, steps=600) == []
