"""Similarity measures between members of a parametric family.

Covers three groups:

* f-divergences (KL, reverse KL, chi-squared, squared Hellinger), in
  closed form on every Gaussian family and as exact sums over the outcomes
  of a categorical one.  Total variation is deliberately absent: its
  generator is not twice differentiable at 1, so it admits no local Hessian.
* optimal-transport distances: p-Wasserstein for one-dimensional families
  via quantile-space quadrature, and 2-Wasserstein between Gaussians in
  closed form.
* the Fisher-Rao geodesic distance between categorical distributions.

Distances are registered as their half squares ``d**2 / 2`` (a distance
itself is ``sqrt(2 * evaluate)``): a distance is not differentiable where it
vanishes, its half square is, and it is the cost the optimizer minimizes.

Every measure takes its two arguments as points of the family
(``Family.point``) or plain arrays.  ``Similarity.evaluate`` and
``Similarity.grad_theta`` validate them once, ``theta`` by ``Family.point``
and the target by ``Similarity.target``, and hand both points to
``Similarity._cost``.  A closed-form measure declares ``forms``, a table from
a point-state type (``GaussianState``, ``CategoricalState``) to a form
``(s1, s2, grad)`` of the two distributions the points keep: it returns the
value, or with ``grad`` the derivatives in the distribution of ``s1``, which
the base ``_cost`` pulls back to ``theta`` with ``s1.pull``.  A state type
without a form raises :class:`CapabilityError`, in that one place.  A
Gaussian form reads the Cholesky factors of the two states: KL, reverse KL
and ``W2^2`` as sums of non-negative terms, exact near coincidence,
chi-squared and squared Hellinger through an alpha-integral, whose value and
gradient at one point and target share one factorization (kept on the
state of ``theta``, ``GaussianState.memo``).  A categorical
form reads the probabilities and log-probabilities and forms no ratio
``q/p``.  1-D transport and the debug Euclidean cost implement ``_cost``
themselves, from the quantiles and quantile velocities each point keeps
(``Point.transport``) and from the raw parameters.

Every measure satisfies ``evaluate(family, theta, theta) == 0`` up to
roundoff and is non-negative, and determines its metric, the Hessian of
``eta -> c(eta, theta)`` at ``eta = theta`` (Eguchi 1983; Amari & Cichocki
2010): ``Similarity.local_hessian``, which a metric id names by the
similarity id (:func:`resolve_metric_engine`).  ``grad_theta`` is the
analytic gradient in the first argument.  Where a closed form diverges
(chi-squared to a target too wide for ``theta``) value and gradient raise the
same :class:`DivergenceInfiniteError`.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtri, dtrtrs

from .errors import CapabilityError, DivergenceInfiniteError, NumericError
from .families import CategoricalState, Dataset, Family, GaussianState, _log_det, resolve_id
from .metric import (LocalHessian, MetricEngine, f_div_local_hessian, fd_local_hessian,
                     pullback_fisher_categorical, w2_local_hessian_gaussian, wp_local_hessian_1d)
from .quadrature import unit_interval_grid

__all__ = [
    "FDivergenceSpec",
    "F_DIVERGENCES",
    "Similarity",
    "FDivergence",
    "WassersteinP",
    "SquaredW2Gaussian",
    "SquaredFisherRaoCategorical",
    "SquaredEuclidean",
    "get_similarity",
    "SIMILARITY_IDS",
    "METRIC_ALIASES",
    "metric_similarity",
    "own_metric_engine",
    "resolve_metric_engine",
]

@dataclass(frozen=True)
class FDivergenceSpec:
    """Generator of an f-divergence: D_f(p, q) = E_p[f(q(X)/p(X))].

    The generator ``f`` must be convex with ``f(1) = 0`` and twice
    differentiable at 1; ``f_second_at_one`` stores f''(1), which sets the
    scale of the induced local metric.  With ``g(t) = f(t) - t f'(t)`` the
    gradient of D_f in the first point is ``E_p[score(X) g(q(X)/p(X))]``.

    The fields ``f`` and ``g`` hold both in perspective form: from the
    log-probabilities ``(log p, log q)`` on the support they return
    ``p f(q/p)`` and ``p g(q/p)``, written out per divergence (``p g(q/p)``
    is the derivative of ``p f(q/p)`` in ``log p``).  They form no ratio ``q/p``,
    which can underflow or overflow where the integrand is finite.
    """

    name: str
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    f_second_at_one: float


F_DIVERGENCES = {spec.name: spec for spec in (
    FDivergenceSpec("kl", lambda lp, lq: np.exp(lp) * (lp - lq),
                    lambda lp, lq: np.exp(lp) * (1.0 + lp - lq), 1.0),
    FDivergenceSpec("reverse_kl", lambda lp, lq: np.exp(lq) * (lq - lp),
                    lambda lp, lq: -np.exp(lq), 1.0),
    FDivergenceSpec("chi2", lambda lp, lq: np.exp(lp) * np.expm1(lq - lp) ** 2,
                    lambda lp, lq: np.exp(lp) - np.exp(2.0 * lq - lp), 2.0),
    FDivergenceSpec("hellinger2", lambda lp, lq: (np.exp(0.5 * lq) - np.exp(0.5 * lp)) ** 2,
                    lambda lp, lq: np.exp(lp) - np.exp(0.5 * (lp + lq)), 0.5),
)}


class Similarity:
    """Base class: a non-negative cost ``c(theta, target)`` over one family.

    ``local_hessian`` is the similarity's own metric, the default metric of
    runs over it.  ``directional`` marks costs whose curvature depends on
    the approach direction: those not twice differentiable on the diagonal.
    A subclass declares its closed ``forms`` (see the module docstring) or
    implements ``_cost``, and implements ``target`` if its target is not a
    point, and ``local_hessian`` where it has a closed form.
    """

    name: str = ""
    directional: bool = False
    forms: dict = {}

    def local_hessian(self, family: Family, theta, u=None) -> LocalHessian:
        """The Hessian of ``eta -> c(eta, theta)`` at ``eta = theta``, along
        the direction ``u`` for a ``directional`` cost; base: by finite
        differences of ``grad_theta``, :func:`fd_local_hessian`, the route of
        ``fd:`` ids."""
        return fd_local_hessian(self, family, theta, u if self.directional else None)

    def evaluate(self, family: Family, theta, target) -> float:
        return self._cost(family, family.point(theta), self.target(family, target), False)

    def grad_theta(self, family: Family, theta, target) -> np.ndarray:
        """Gradient of ``evaluate`` in its first argument."""
        return self._cost(family, family.point(theta), self.target(family, target), True)

    def target(self, family: Family, target):
        """``target`` validated as ``_cost`` takes it: a point of ``family``;
        a :class:`Dataset` raises ``TypeError``."""
        if isinstance(target, Dataset):
            raise TypeError(
                "this similarity compares two parameter points; dataset targets are "
                "only supported by the GP benchmark cost"
            )
        return family.point(target)

    def _cost(self, family: Family, theta, target, grad: bool):
        """The cost between the point ``theta`` and a validated ``target``,
        or with ``grad`` its gradient in ``theta``: base, the form that
        ``forms`` holds for the type of the state ``theta`` keeps, its
        derivatives pulled back by that state; :class:`CapabilityError`
        where there is none."""
        s1 = theta.state(grad)
        form = self.forms.get(type(s1))
        if form is None:
            raise CapabilityError(f"{self.name} has no closed form on {family.name}")
        result = form(s1, target.state(), grad)
        return s1.pull(result) if grad else result


# -- f-divergences -------------------------------------------------------------


def _kl(s1: GaussianState, s2: GaussianState, grad: bool = False):
    """The Gaussian form (see :class:`Similarity`) of ``KL(1 || 2)``, with
    ``M = L2^-1 L1`` (lower triangular) and ``x = log diag M``::

        KL = 1/2 (sum_i (e^(2 x_i) - 1 - 2 x_i) + sum_(i>j) M_ij^2 + |L2^-1 (m1 - m2)|^2)
        dKL/dm1 = S2^-1 (m1 - m2),  dKL/dS1 = (S2^-1 - S1^-1) / 2

    Every term is non-negative; ``sum M^2 - sum diag M^2`` would cancel.
    The upper triangle of ``M`` is exact zeros (forward substitution on the
    zeros of ``L1``), so the squares of ``M`` with the diagonal set to zero
    are those of its strict lower triangle.  ``M`` and ``L2^-1 (m1 - m2)``
    come from one solve: a separate solve of the mean gap can round
    differently."""
    diff, d = s1.mean - s2.mean, len(s1.mean)
    if grad:
        l2_inv = dtrtri(s2.chol, lower=1)[0]  # chol: no zero pivot
        return l2_inv.T @ (l2_inv @ diff), 0.5 * (l2_inv.T @ l2_inv - s1.inv)
    solved, _ = dtrtrs(s2.chol, np.column_stack([s1.chol, diff]), lower=1)  # chol: no zero pivot
    m, z = solved[:, :d], solved[:, d]
    x2, off = 2.0 * np.log(m.diagonal()), np.multiply(m, m, order="C")  # C order fixes the summation order
    off.ravel()[:: d + 1] = 0.0
    return 0.5 * float((np.expm1(x2) - x2).sum() + off.sum() + z @ z)


def _reverse_kl(s1: GaussianState, s2: GaussianState, grad: bool = False):
    """The form of ``KL(2 || 1)``: with ``a = S1^-1 (m1 - m2)`` and
    ``B = S1^-1 L2``, ``d/dm1 = a`` and ``d/dS1 = (S1^-1 - B B^T - a a^T) / 2``."""
    if not grad:
        return _kl(s2, s1)
    a, b = s1.inv @ (s1.mean - s2.mean), s1.inv @ s2.chol
    return a, 0.5 * (s1.inv - b @ b.T - np.outer(a, a))


def _alpha_integral(s1: GaussianState, s2: GaussianState, alpha: float, grad: bool = False):
    """``(log I, derivs)`` of the alpha-integral ``I = integral p^(1-alpha) q^alpha``
    between the Gaussian states ``s1`` (p) and ``s2`` (q).  With ``grad``,
    ``derivs`` is the pair ``(d_mean, d_cov)`` of derivatives of ``I`` in the
    mean and covariance of ``s1`` (``s1`` needs its inverse); else None.

    With ``M = alpha S1 + (1 - alpha) S2``, ``D = m1 - m2`` and ``a = M^-1 D``
    (Nielsen & Nock 2014)::

        log I = alpha/2 log|S1| + (1-alpha)/2 log|S2| - 1/2 log|M| - alpha (1-alpha)/2 D.a
        dI/dm1 = -alpha (1-alpha) I a
        dI/dS1 = alpha/2 I (S1^-1 - M^-1 + alpha (1-alpha) a a^T)

    Raises
    ------
    DivergenceInfiniteError
        Where ``M`` is not positive definite (only for ``alpha > 1``): the
        integral diverges.
    """
    c = alpha * (1.0 - alpha)
    # (target factor, alpha, log I, L^-1, w) of the latest integral from s1,
    # M = L L^T: a gradient at an accepted line-search trial reads its value's.
    memo = s1.memo[0]
    if memo is None or memo[0] is not s2.chol or memo[1] != alpha:
        chol, info = dpotrf(alpha * s1.cov + (1.0 - alpha) * s2.cov, lower=1, clean=1)
        if info != 0:
            raise DivergenceInfiniteError(
                f"the alpha-integral at alpha={alpha:g} diverges: the weighted covariance "
                f"is not positive definite (dpotrf info {info})")
        # M^-1 = L^-T L^-1 through dtrtri, not dpotri (see GaussianState.with_derivs).
        chol_inv, _ = dtrtri(chol, lower=1)  # info flags a zero pivot; chol has none
        w = chol_inv @ (s1.mean - s2.mean)
        log_i = (alpha * s1.log_det + (1.0 - alpha) * s2.log_det
                 - _log_det(chol) - c * (w @ w)) / 2.0
        memo = s1.memo[0] = (s2.chol, alpha, log_i, chol_inv, w)
    _, _, log_i, chol_inv, w = memo
    if not grad:
        return log_i, None
    i, a = np.exp(log_i), chol_inv.T @ w
    d_cov = 0.5 * alpha * i * (s1.inv - chol_inv.T @ chol_inv + c * np.outer(a, a))
    return log_i, (-c * i * a, d_cov)


def _alpha_form(alpha: float, scale: float):
    """The form of ``D_f = scale * (I(alpha) - 1)``."""
    def form(s1: GaussianState, s2: GaussianState, grad: bool = False):
        log_i, derivs = _alpha_integral(s1, s2, alpha, grad)
        if grad:
            return scale * derivs[0], scale * derivs[1]
        return scale * float(np.expm1(log_i))  # expm1: near coincidence I - 1 would cancel
    return form


# The one Gaussian form of each registered f-divergence, for its value and its
# gradient: chi2 = I(2) - 1, hellinger2 = integral (sqrt q - sqrt p)^2 = 2 - 2 I(1/2).
_GAUSSIAN_FORMS = {"kl": _kl, "reverse_kl": _reverse_kl,
                   "chi2": _alpha_form(2.0, 1.0), "hellinger2": _alpha_form(0.5, -2.0)}


def _categorical_form(spec: FDivergenceSpec):
    """The categorical form of ``D_f``: the exact sum over the outcomes of
    ``p f(q/p)``, or with ``grad`` its derivatives ``p g(q/p)`` in ``log p``;
    raises :class:`NumericError` where a term is not finite."""
    def form(s1: CategoricalState, s2: CategoricalState, grad: bool = False):
        logp, logq = s1.logs, s2.logs
        # Overflow is expected for divergent pairs; it is detected by the
        # finiteness check below, not by warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            terms = (spec.g if grad else spec.f)(logp, logq)
        if not np.all(np.isfinite(terms)):
            bad = int(np.sum(~np.isfinite(terms)))
            log_ratio = logq - logp
            raise NumericError(
                f"{spec.name} sum produced {bad} non-finite terms over {len(terms)} outcomes",
                diagnostics={
                    "non_finite_nodes": bad,
                    "max_log_ratio": float(np.max(log_ratio)),
                    "min_log_ratio": float(np.min(log_ratio)),
                },
            )
        return terms if grad else float(terms.sum())
    return form


def _clamp_divergence(value: float, spec: FDivergenceSpec, family: Family) -> float:
    if not math.isfinite(value):
        raise DivergenceInfiniteError(f"{spec.name} on {family.name} is infinite")
    if value < -1e-10:
        raise NumericError(
            f"{spec.name} on {family.name} evaluated to {value}, below zero beyond roundoff"
        )
    return max(value, 0.0)


class FDivergence(Similarity):
    """D_f from the distribution at ``target`` to the one at ``theta``: the
    Gaussian form of the divergence in ``_GAUSSIAN_FORMS``, or the exact sum
    over the outcomes of a categorical family."""

    def __init__(self, spec: FDivergenceSpec):
        self.spec = spec
        self.name = spec.name
        self.forms = {GaussianState: _GAUSSIAN_FORMS.get(spec.name),
                      CategoricalState: _categorical_form(spec)}

    def local_hessian(self, family, theta, u=None):
        return f_div_local_hessian(self.spec, family, theta)

    def _cost(self, family, theta, target, grad):
        result = super()._cost(family, theta, target, grad)
        return result if grad else _clamp_divergence(result, self.spec, family)


# -- Wasserstein distances ------------------------------------------------------


class WassersteinP(Similarity):
    """Half the squared p-Wasserstein distance, ``W_p**2 / 2`` (1-D), for a
    finite order ``p >= 1`` (else ``ValueError``); its metric needs ``p > 1``
    (at ``p = 1`` :func:`wp_local_hessian_1d` raises :class:`CapabilityError`)."""

    def __init__(self, p: float):
        self.p = float(p)
        if not 1.0 <= self.p < math.inf:
            raise ValueError(f"order p must be finite and >= 1, got {self.p}")
        self.name = f"wasserstein:{p:g}"
        self.directional = self.p != 2.0

    def local_hessian(self, family, theta, u=None):
        return wp_local_hessian_1d(family, theta, self.p, u if self.directional else None)

    def _cost(self, family, theta, target, grad):
        """``W**2 / 2``, with ``W = (integral |dQ|**p)**(1/p)`` over the levels
        of ``unit_interval_grid()`` and ``dQ = Q1 - Q2`` the gap between the
        quantiles the two points keep there (a family without a quantile
        raises :class:`CapabilityError`); or with ``grad`` ``W^(2-p) integral
        |dQ|^(p-2) dQ dQ1/dtheta``, with the quantile velocities
        ``dQ1/dtheta`` that ``theta`` keeps, exactly zero where W vanishes."""
        p, weights = self.p, unit_interval_grid()[1]
        gap = theta.transport()[0] - target.transport()[0]
        w = float((weights @ np.abs(gap) ** p) ** (1.0 / p))
        if not grad:
            return 0.5 * w ** 2
        if w == 0.0:
            return np.zeros(family.param_dim)
        pull = weights * np.sign(gap) * np.abs(gap) ** (p - 1.0)
        return w ** (2.0 - p) * (pull @ theta.transport(True)[1])


def _half_w2(s1: GaussianState, s2: GaussianState, grad: bool = False):
    """The Gaussian form (see :class:`Similarity`) of ``W2^2 / 2``, where ``W2^2 =
    |mu1 - mu2|^2 + tr(S1 + S2 - 2 (S2^1/2 S1 S2^1/2)^1/2)``, with the SVD
    ``L1^T L2 = U diag(s) V^T``::

        W2^2 = |m1 - m2|^2 + |L1 - L2 V U^T|_F^2
        d/dm1 = m1 - m2,  d/dS1 = (I - T) / 2,  T = X X^T,  X = L1^-T U diag(s)^1/2

    ``V U^T`` is the rotation that brings ``L2`` closest to ``L1`` (orthogonal
    Procrustes; Bhatia, Jain & Lim 2019), and ``T S1 T = S2`` (Bures map)."""
    diff = s1.mean - s2.mean
    u, sv, vt = np.linalg.svd(s1.chol.T @ s2.chol)
    if grad:
        x, _ = dtrtrs(s1.chol, u * np.sqrt(sv), lower=1, trans=1)  # chol: no zero pivot
        return diff, 0.5 * (np.eye(len(diff)) - x @ x.T)
    gap = s1.chol - s2.chol @ (vt.T @ u.T)
    return 0.5 * float(diff @ diff + np.sum(gap * gap))


class SquaredW2Gaussian(Similarity):
    """Half the squared 2-Wasserstein distance between Gaussians, closed form."""

    name = "w2_gaussian"
    forms = {GaussianState: _half_w2}

    def local_hessian(self, family, theta, u=None):
        return w2_local_hessian_gaussian(family, theta)


# -- Fisher-Rao geometry on the simplex ------------------------------------------


def _fisher_rao_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Fisher-Rao geodesic distance ``2 * arccos(sum_i sqrt(p_i q_i))``
    between the probability vectors ``p`` and ``q``.

    Categorical distributions embed isometrically onto the positive orthant
    of the radius-2 sphere via ``2 * sqrt(p)``, and geodesics are great
    circles.  The distance is computed from the chord,
    ``4 * arcsin(|sqrt(p) - sqrt(q)| / 2)``, which resolves distances far
    below the ~3e-8 that the arccos of an affinity near 1 can.
    """
    chord = np.linalg.norm(np.sqrt(p) - np.sqrt(q))
    return float(4.0 * np.arcsin(min(0.5 * chord, 1.0)))


def _half_fisher_rao2(s1: CategoricalState, s2: CategoricalState, grad: bool = False):
    """The categorical form of ``d^2 / 2``, ``d`` the Fisher-Rao distance.
    With ``B = sum sqrt(p q) = cos(d/2)``, ``dd/dlog p_i = -sqrt(p_i q_i) /
    sin(d/2)``, so ``d(d^2 / 2)/dlog p_i = -d / sin(d/2) sqrt(p_i q_i)``, and
    ``d / sin(d/2) -> 2`` at 0."""
    p, q = s1.probs, s2.probs
    if not (p.all() and q.all()):  # extreme logits; a line search must be able to catch this
        raise NumericError("softmax underflowed to a zero probability",
                           {"probabilities": p, "target_probabilities": q})
    d = _fisher_rao_distance(p, q)
    if not grad:
        return 0.5 * d * d
    factor = 2.0 if d < 1e-8 else d / np.sin(0.5 * d)
    return -factor * np.sqrt(p * q)


class SquaredFisherRaoCategorical(Similarity):
    """Half the squared Fisher-Rao distance between categorical distributions."""

    name = "fisher_rao2"
    forms = {CategoricalState: _half_fisher_rao2}

    def local_hessian(self, family, theta, u=None):
        return pullback_fisher_categorical(family, theta)


# -- debug similarity -------------------------------------------------------------


class SquaredEuclidean(Similarity):
    """Half squared Euclidean distance on raw parameters (debugging aid)."""

    name = "sq_euclidean"

    def local_hessian(self, family, theta, u=None):
        return LocalHessian(np.eye(family.param_dim))

    def _cost(self, family, theta, target, grad):
        diff = theta.theta - target.theta
        return diff if grad else float(0.5 * diff @ diff)


# Similarity builders ``build([arg])``, keyed by identifier.
SIMILARITIES = {
    **{name: partial(FDivergence, spec) for name, spec in F_DIVERGENCES.items()},
    "fisher_rao2": SquaredFisherRaoCategorical,
    "wasserstein:{p}": lambda p: WassersteinP(float(p)),
    "w2_gaussian": SquaredW2Gaussian,
    "sq_euclidean": SquaredEuclidean,
}
SIMILARITY_IDS = list(SIMILARITIES)


def get_similarity(identifier: str) -> Similarity:
    """Resolve a similarity by string identifier (see ``SIMILARITY_IDS``)."""
    return resolve_id(identifier, SIMILARITIES, "similarity", "similarities")


# -- metric ids ----------------------------------------------------------------------

# The metric ids the benchmark's workloads name, each mapped to the id of the
# similarity whose own metric it is (a placeholder carries the argument over).
# Data only: an alias resolves as the similarity id it maps to.
METRIC_ALIASES = {
    "fisher": "kl",
    "fdiv:{name}": "{name}",
    "pullback": "fisher_rao2",
    "w2_1d": "wasserstein:2",
    "wp_1d:{p}": "wasserstein:{p}",
    "euclidean": "sq_euclidean",
    "w2": "w2_gaussian",
}


def _own_metric(sim_id: str, arg: str = ""):
    sim = get_similarity(sim_id.format_map(defaultdict(lambda: arg)))
    return sim, type(sim).local_hessian


def _f_div_metric(name: str):
    """The own metric of ``name``, which ``fdiv:`` takes from ``F_DIVERGENCES`` only."""
    if name not in F_DIVERGENCES:
        raise ValueError(f"{name!r} is no f-divergence; valid f-divergences: "
                         f"{', '.join(F_DIVERGENCES)}")
    return _own_metric(name)


# Builders ``build([arg])`` of ``(similarity, local_hessian)``, keyed by metric
# id; ``fdiv:{name}`` keeps its place among the aliases.
_METRIC_BUILDERS = {
    **{key: partial(_own_metric, key) for key in SIMILARITIES},
    "fd:{similarity}": lambda sim_id: (get_similarity(sim_id), Similarity.local_hessian),
    **{alias: partial(_own_metric, sim_id) for alias, sim_id in METRIC_ALIASES.items()},
    "fdiv:{name}": _f_div_metric,
}


def metric_similarity(identifier: str) -> Similarity:
    """The similarity whose metric a metric id names: a similarity id itself, ``fd:``
    and a similarity id that one, an alias the one it maps to (``METRIC_ALIASES``)."""
    return resolve_id(identifier, _METRIC_BUILDERS, "metric", "metrics")[0]


def resolve_metric_engine(identifier: str, family: Family) -> MetricEngine:
    """The engine, named ``identifier``, of a metric id on ``family``: the
    ``local_hessian`` of :func:`metric_similarity`, or for an ``fd:`` id the
    base class's finite differences of it."""
    sim, local_hessian = resolve_id(identifier, _METRIC_BUILDERS, "metric", "metrics")
    return MetricEngine(str(identifier), partial(local_hessian, sim, family))


def own_metric_engine(sim: Similarity, family: Family) -> MetricEngine:
    """The engine, named ``sim.name``, of ``sim.local_hessian`` on ``family``;
    where that is no metric, a call raises :class:`CapabilityError`."""
    return MetricEngine(sim.name, partial(sim.local_hessian, family))
