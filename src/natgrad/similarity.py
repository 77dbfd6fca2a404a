"""Similarity measures between members of a parametric family.

Covers three groups:

* f-divergences (KL, reverse KL, chi-squared, squared Hellinger), evaluated
  in closed form where one exists and by quadrature or exact summation
  otherwise.  Total variation is deliberately absent: its generator is not
  twice differentiable at 1, so it admits no local Hessian.
* optimal-transport distances: p-Wasserstein for one-dimensional families
  via quantile-space quadrature, and the squared 2-Wasserstein between
  Gaussians in closed form.
* the squared Fisher-Rao geodesic distance between categorical
  distributions.

Every measure satisfies ``evaluate(family, theta, theta) == 0`` up to
roundoff and is non-negative.  ``grad_theta`` differentiates with respect
to the first argument, analytically where noted and by central finite
differences otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    CapabilityError,
    ConfigError,
    DivergenceInfiniteError,
    NumericError,
)
from .families import CategoricalSoftmax, Dataset, Family, Gaussian1D
from .numdiff import central_gradient
from .quadrature import DEFAULT_TAIL_MASS, composite_legendre, unit_interval_grid

__all__ = [
    "FDivergenceSpec",
    "F_DIVERGENCES",
    "Similarity",
    "FDivergence",
    "WassersteinP",
    "SquaredW2Gaussian",
    "SquaredFisherRaoCategorical",
    "SquaredEuclidean",
    "HalfSquaredDistance",
    "gaussian_kl",
    "squared_w2_gaussian",
    "squared_fisher_rao_categorical",
    "wasserstein_p_1d",
    "f_divergence",
    "evaluate",
    "grad_theta",
    "get_similarity",
    "SIMILARITY_IDS",
]

# Eigenvalues of covariance matrices are floored here before square roots
# are taken, so nearly singular inputs degrade gracefully.
COV_EIGENVALUE_FLOOR = 1e-14


@dataclass(frozen=True)
class FDivergenceSpec:
    """Generator of an f-divergence: D_f(p, q) = E_p[f(q(X)/p(X))].

    ``f`` must be convex with ``f(1) = 0`` and twice differentiable at 1;
    ``f_second_at_one`` stores f''(1), which sets the scale of the induced
    local metric.
    """

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    f_second_at_one: float


F_DIVERGENCES = {
    "kl": FDivergenceSpec("kl", lambda t: -np.log(t), 1.0),
    "reverse_kl": FDivergenceSpec("reverse_kl", lambda t: t * np.log(t), 1.0),
    "chi2": FDivergenceSpec("chi2", lambda t: (t - 1.0) ** 2, 2.0),
    "hellinger2": FDivergenceSpec("hellinger2", lambda t: (np.sqrt(t) - 1.0) ** 2, 0.5),
}


def _check_point_target(family: Family, target) -> np.ndarray:
    if isinstance(target, Dataset):
        raise TypeError(
            "this similarity compares two parameter points; dataset targets are "
            "only supported by the GP benchmark cost"
        )
    return family.check_point(target)


class Similarity:
    """Base class: a non-negative cost ``c(theta, target)`` over one family."""

    name: str = ""

    def evaluate(self, family: Family, theta, target) -> float:
        raise NotImplementedError

    def grad_theta(self, family: Family, theta, target) -> np.ndarray:
        """Gradient in the first argument; default is central differences."""
        theta = family.check_point(theta)
        return central_gradient(lambda t: self.evaluate(family, t, target), theta)


# -- f-divergences -------------------------------------------------------------


def gaussian_kl(mean1, cov1, mean2, cov2) -> float:
    """KL divergence between two Gaussians, closed form."""
    mean1 = np.atleast_1d(np.asarray(mean1, dtype=float))
    mean2 = np.atleast_1d(np.asarray(mean2, dtype=float))
    cov1 = np.atleast_2d(np.asarray(cov1, dtype=float))
    cov2 = np.atleast_2d(np.asarray(cov2, dtype=float))
    d = mean1.size
    diff = mean2 - mean1
    solved = np.linalg.solve(cov2, np.column_stack([cov1, diff]))
    trace = np.trace(solved[:, :d])
    maha = diff @ solved[:, d]
    _, logdet1 = np.linalg.slogdet(cov1)
    _, logdet2 = np.linalg.slogdet(cov2)
    return float(0.5 * (trace - d + maha + logdet2 - logdet1))


def f_divergence(
    spec: FDivergenceSpec,
    family: Family,
    theta,
    target,
    strategy: str = "auto",
    n_nodes: int = 256,
) -> float:
    """D_f from the distribution at ``target`` to the one at ``theta``.

    ``strategy`` is one of ``auto`` (closed form when known, otherwise
    quadrature or exact summation), ``closed_form``, or ``quadrature``.
    """
    theta = family.check_point(theta)
    target = _check_point_target(family, target)
    if strategy not in ("auto", "closed_form", "quadrature"):
        raise ValueError(f"unknown strategy {strategy!r}")

    if strategy in ("auto", "closed_form") and spec.name in ("kl", "reverse_kl"):
        moments = family.gaussian_moments(theta)
        if moments is not None:
            m1, c1 = moments
            m2, c2 = family.gaussian_moments(target)
            if spec.name == "kl":
                return _clamp_divergence(gaussian_kl(m1, c1, m2, c2), spec, family)
            return _clamp_divergence(gaussian_kl(m2, c2, m1, c1), spec, family)
    if strategy == "closed_form":
        raise CapabilityError(f"no closed form for {spec.name} on {family.name}")

    if family.is_discrete:
        p = family.probabilities(theta)
        q = family.probabilities(target)
        # Underflowed probabilities make the ratio infinite; the resulting
        # non-finite sum is reported by the clamp, not by warnings.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            total = float(p @ spec.f(q / p))
        return _clamp_divergence(total, spec, family)
    if family.has_cdf:
        tails = [DEFAULT_TAIL_MASS, 1.0 - DEFAULT_TAIL_MASS]
        lo_p, hi_p = family.quantile(theta, tails)
        lo_q, hi_q = family.quantile(target, tails)
        nodes, weights = composite_legendre(
            min(lo_p, lo_q), max(hi_p, hi_q), n_panels=8, nodes_per_panel=max(4, n_nodes // 8)
        )
        logp = family.log_density(theta, nodes)
        logq = family.log_density(target, nodes)
        # Overflow in the ratio or in f is expected for divergent pairs;
        # it is detected by the finiteness check below, not by warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            ratio = np.exp(logq - logp)
            values = spec.f(ratio)
            integrand = np.exp(logp) * values
        if not np.all(np.isfinite(integrand)):
            bad = int(np.sum(~np.isfinite(integrand)))
            raise NumericError(
                f"{spec.name} quadrature produced {bad} non-finite integrand values on {family.name}",
                diagnostics={
                    "non_finite_nodes": bad,
                    "max_log_ratio": float(np.max(logq - logp)),
                    "min_log_ratio": float(np.min(logq - logp)),
                },
            )
        return _clamp_divergence(float(weights @ integrand), spec, family)
    raise CapabilityError(f"no integration route for {spec.name} on {family.name}")


def _clamp_divergence(value: float, spec: FDivergenceSpec, family: Family) -> float:
    if not np.isfinite(value):
        raise DivergenceInfiniteError(f"{spec.name} on {family.name} is infinite")
    if value < -1e-10:
        raise NumericError(
            f"{spec.name} on {family.name} evaluated to {value}, below zero beyond roundoff"
        )
    return max(value, 0.0)


class FDivergence(Similarity):
    def __init__(self, spec: FDivergenceSpec, strategy: str = "auto"):
        self.spec = spec
        self.strategy = strategy
        self.name = spec.name

    def evaluate(self, family, theta, target):
        return f_divergence(self.spec, family, theta, target, strategy=self.strategy)

    def grad_theta(self, family, theta, target):
        if self.spec.name == "kl" and isinstance(family, Gaussian1D) and self.strategy in ("auto", "closed_form"):
            mu1, s1 = family.check_point(theta)
            mu2, s2 = _check_point_target(family, target)
            return np.array([(mu1 - mu2) / s2**2, -1.0 / s1 + s1 / s2**2])
        return super().grad_theta(family, theta, target)


# -- Wasserstein distances ------------------------------------------------------


def wasserstein_p_1d(
    family: Family,
    theta,
    target,
    p: float,
    n_nodes: int = 512,
    delta: float = DEFAULT_TAIL_MASS,
) -> float:
    """p-Wasserstein distance between two members of a 1-D family.

    Uses the quantile-coupling representation: the p-th power of the
    distance is the integral over quantile levels of ``|Q1 - Q2|**p``,
    evaluated on a quadrature grid graded toward both endpoints.
    """
    if p < 1.0:
        raise ValueError(f"order p must be >= 1, got {p}")
    if not family.has_cdf:
        raise CapabilityError(f"{family.name}: 1-D Wasserstein needs cdf/quantile support")
    theta = family.check_point(theta)
    target = _check_point_target(family, target)
    levels, weights = unit_interval_grid(n_nodes, delta)
    gap = family.quantile(theta, levels) - family.quantile(target, levels)
    return float((weights @ np.abs(gap) ** p) ** (1.0 / p))


class WassersteinP(Similarity):
    def __init__(self, p: float):
        self.p = float(p)
        if self.p < 1.0:
            raise ValueError(f"order p must be >= 1, got {p}")
        self.name = f"wasserstein:{p:g}"

    def evaluate(self, family, theta, target):
        return wasserstein_p_1d(family, theta, target, self.p)


def squared_w2_gaussian(mean1, cov1, mean2, cov2) -> float:
    """Squared 2-Wasserstein distance between Gaussians.

    ``|mu1 - mu2|^2 + tr(S1 + S2 - 2 (S2^{1/2} S1 S2^{1/2})^{1/2})``; the
    matrix square roots go through symmetric eigendecompositions with
    eigenvalues floored at a small positive value.
    """
    mean1 = np.atleast_1d(np.asarray(mean1, dtype=float))
    mean2 = np.atleast_1d(np.asarray(mean2, dtype=float))
    cov1 = np.atleast_2d(np.asarray(cov1, dtype=float))
    cov2 = np.atleast_2d(np.asarray(cov2, dtype=float))
    w2, V2 = np.linalg.eigh(cov2)
    w2 = np.maximum(w2, COV_EIGENVALUE_FLOOR)
    root2 = (V2 * np.sqrt(w2)) @ V2.T
    inner = root2 @ cov1 @ root2
    wi = np.linalg.eigvalsh(inner)
    wi = np.maximum(wi, 0.0)
    diff = mean1 - mean2
    value = float(diff @ diff + np.trace(cov1) + np.trace(cov2) - 2.0 * np.sum(np.sqrt(wi)))
    return max(value, 0.0)


class SquaredW2Gaussian(Similarity):
    name = "w2_gaussian"

    def evaluate(self, family, theta, target):
        theta = family.check_point(theta)
        target = _check_point_target(family, target)
        moments = family.gaussian_moments(theta)
        if moments is None:
            raise CapabilityError(f"{family.name} is not Gaussian; w2_gaussian does not apply")
        m2, c2 = family.gaussian_moments(target)
        return squared_w2_gaussian(moments[0], moments[1], m2, c2)


# -- Fisher-Rao geometry on the simplex ------------------------------------------


def _check_simplex(p) -> np.ndarray:
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if np.any(p <= 0.0) or abs(p.sum() - 1.0) > 1e-8:
        raise ValueError(f"not a strictly positive probability vector: {p}")
    return p


def squared_fisher_rao_categorical(p, q) -> float:
    """Half the squared Fisher-Rao geodesic distance between categoricals.

    The distance is ``2 * arccos(sum_i sqrt(p_i q_i))``: categorical
    distributions embed isometrically onto the positive orthant of the
    radius-2 sphere via ``2 * sqrt(p)``, and geodesics are great circles.
    """
    d = fisher_rao_distance_categorical(p, q)
    return 0.5 * d * d


def fisher_rao_distance_categorical(p, q) -> float:
    p = _check_simplex(p)
    q = _check_simplex(q)
    affinity = np.clip(np.sum(np.sqrt(p * q)), -1.0, 1.0)
    return float(2.0 * np.arccos(affinity))


class SquaredFisherRaoCategorical(Similarity):
    name = "fisher_rao2"

    def _probs(self, family: Family, theta) -> np.ndarray:
        if not isinstance(family, CategoricalSoftmax):
            raise CapabilityError(
                f"fisher_rao2 is defined for categorical families, not {family.name}"
            )
        return family.probabilities(theta)

    def evaluate(self, family, theta, target):
        p = self._probs(family, theta)
        q = self._probs(family, _check_point_target(family, target))
        return squared_fisher_rao_categorical(p, q)

    def grad_theta(self, family, theta, target):
        p = self._probs(family, theta)
        q = self._probs(family, _check_point_target(family, target))
        d = fisher_rao_distance_categorical(p, q)
        # d(half d^2) = d * dd; with B = sum sqrt(pq) = cos(d/2),
        # dd/dp_i = -sqrt(q_i/p_i) / sin(d/2), and d / sin(d/2) -> 2 at 0.
        factor = 2.0 if d < 1e-8 else d / np.sin(0.5 * d)
        grad_p = -factor * np.sqrt(q / p)
        return family.softmax_jacobian(theta).T @ grad_p


# -- debug / combinator similarities ---------------------------------------------


class SquaredEuclidean(Similarity):
    """Half squared Euclidean distance on raw parameters (debugging aid)."""

    name = "sq_euclidean"

    def evaluate(self, family, theta, target):
        diff = family.check_point(theta) - _check_point_target(family, target)
        return float(0.5 * diff @ diff)

    def grad_theta(self, family, theta, target):
        return family.check_point(theta) - _check_point_target(family, target)


class HalfSquaredDistance(Similarity):
    """``base**2 / 2`` for a distance-valued base similarity.

    Distances themselves are not differentiable where they vanish; their
    half-squares are, which is what local curvature extraction needs.
    """

    def __init__(self, base: Similarity):
        self.base = base
        self.name = f"half_sq({base.name})"

    def evaluate(self, family, theta, target):
        return 0.5 * self.base.evaluate(family, theta, target) ** 2

    def grad_theta(self, family, theta, target):
        value = self.base.evaluate(family, theta, target)
        return value * self.base.grad_theta(family, theta, target)


# -- module-level dispatch --------------------------------------------------------


def evaluate(sim: Similarity, family: Family, theta, target) -> float:
    """Value of the similarity; zero iff the two points coincide."""
    return sim.evaluate(family, theta, target)


def grad_theta(sim: Similarity, family: Family, theta, target) -> np.ndarray:
    """Gradient of the similarity in its first argument."""
    return sim.grad_theta(family, theta, target)


SIMILARITY_IDS = [
    "kl",
    "reverse_kl",
    "chi2",
    "hellinger2",
    "fisher_rao2",
    "wasserstein:{p}",
    "w2_gaussian",
    "sq_euclidean",
]


def get_similarity(identifier: str) -> Similarity:
    """Resolve a similarity by string identifier (see ``SIMILARITY_IDS``)."""
    name, _, arg = str(identifier).partition(":")
    if name in F_DIVERGENCES and not arg:
        return FDivergence(F_DIVERGENCES[name])
    if name == "wasserstein" and arg:
        try:
            return WassersteinP(float(arg))
        except ValueError as exc:
            raise ConfigError(f"invalid Wasserstein order in {identifier!r}: {exc}") from exc
    if name == "fisher_rao2" and not arg:
        return SquaredFisherRaoCategorical()
    if name == "w2_gaussian" and not arg:
        return SquaredW2Gaussian()
    if name == "sq_euclidean" and not arg:
        return SquaredEuclidean()
    raise ConfigError(
        f"unknown similarity {identifier!r}; valid similarities: {', '.join(SIMILARITY_IDS)}"
    )
