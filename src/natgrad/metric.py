"""Local Hessian metrics induced by similarity measures.

The central object is the local Hessian of a similarity ``c``: the second
derivative of ``eta -> c(eta, theta)`` evaluated at ``eta = theta``.  It is
the curvature the similarity assigns to parameter space at ``theta``, and it
is what a natural-gradient step inverts.  Engines here produce it three ways:

* analytically, for f-divergences (``f''(1)`` times the Fisher information),
  for 1-D Wasserstein distances (the quantile velocities a point keeps,
  ``Point.transport``, on the cost's own grid, so at ``p = 2`` the metric is
  the Hessian of the discretized cost)
  and for Gaussian 2-Wasserstein (Bures-Wasserstein, from moment derivatives);
* by pulling a density-space Hessian back through the parameterization
  Jacobian (``J^T G J``);
* by central finite differences of the similarity itself.  Squared
  transport distances with ``p != 2`` have curvature that depends on the
  approach direction, so the FD engine evaluates at ``theta + eps * u_hat``
  for a shrinking ladder of ``eps`` and extrapolates to zero; the direction
  is taken from the gradient of the outer objective, and the ``fd`` engine
  passes it on only for similarities marked ``directional``.

All engines return a :class:`LocalHessian` whose matrix is exactly
symmetric and undamped: a pseudo-metric (such as the pullback through a
rank-deficient Jacobian) is returned as it is.  Positive definiteness is
enforced only in the optimizer's step solve, by :func:`spd_project`, which
shifts the spectrum up to a damping floor and records how much was added.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from scipy.linalg.lapack import dpotrf

from .errors import CapabilityError, NumericError
from .families import CategoricalSoftmax, Family, resolve_id
from .numdiff import HESS_REL_STEP, central_hessian
from .quadrature import unit_interval_grid
from .similarity import (
    F_DIVERGENCES,
    FDivergenceSpec,
    Similarity,
    get_similarity,
)

__all__ = [
    "LocalHessian",
    "fisher_information",
    "monte_carlo_fisher",
    "f_div_local_hessian",
    "riemannian_pullback",
    "pullback_fisher_categorical",
    "w2_local_hessian_1d",
    "wp_local_hessian_1d",
    "w2_local_hessian_gaussian",
    "fd_local_hessian",
    "spd_project",
    "MetricEngine",
    "resolve_metric_engine",
    "METRIC_IDS",
]

FD_EPS_LADDER = (1e-2, 5e-3, 2.5e-3)
FD_TOLERANCE = 1e-4  # directional extrapolants must agree to 10x this, relatively

# Inner stencil width as a fraction of the diagonal offset eps.  Must be
# small enough that the stencil stays inside the region where the cost is
# smooth (it sits eps away from the kink at eta = theta), but large enough
# that evaluation noise divided by h^2 stays below the extrapolation gate
# even for costs computed through eigendecompositions.
FD_INNER_STEP_RATIO = 0.03


@dataclass(frozen=True)
class LocalHessian:
    """A symmetric curvature matrix with provenance metadata.

    ``regularization_added`` is the diagonal shift :func:`spd_project` added;
    it is zero on every engine's output, since no engine damps.
    """

    matrix: np.ndarray
    regularization_added: float = 0.0
    provenance: str = "analytic"

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise NumericError("local Hessian contains non-finite entries")
        if self.provenance not in ("analytic", "finite_difference", "pullback"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        m = 0.5 * (m + m.T)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def fisher_information(family: Family, theta) -> LocalHessian:
    """Fisher information matrix at ``theta``, :meth:`Family.fisher` as a
    :class:`LocalHessian`: the closed form of a Gaussian or categorical
    family, or the congruent matrix ``A^T F(A xi) A`` of a linearly
    reparameterized one.  Any other family raises :class:`CapabilityError`;
    :func:`monte_carlo_fisher` estimates its matrix from samples.
    """
    return LocalHessian(family.fisher(theta), provenance="analytic")


def monte_carlo_fisher(
    family: Family, theta, seed: int, count: int = 100_000
) -> tuple[LocalHessian, np.ndarray]:
    """Monte Carlo Fisher estimate and entrywise standard errors.

    Test and validation aid; optimization paths use the closed forms of
    :meth:`Family.fisher`.
    """
    theta = family.point(theta)
    scores = family.score(theta, family.sample(theta, seed, count))
    outer = scores[:, :, None] * scores[:, None, :]
    mean = outer.mean(axis=0)
    stderr = outer.std(axis=0, ddof=1) / np.sqrt(count)
    return LocalHessian(mean, provenance="analytic"), stderr


def f_div_local_hessian(spec: FDivergenceSpec, family: Family, theta) -> LocalHessian:
    """Local Hessian of the f-divergence: ``f''(1)`` times Fisher information.

    Every twice-differentiable f-divergence induces the same metric up to
    this scalar, so the Fisher matrix is computed once and scaled, making
    ratios between divergences exact by construction.  The scaled matrix is
    symmetrized once, by its one :class:`LocalHessian`; for the registered
    divergences ``f''(1)`` is a power of two, so this is the scaled
    :func:`fisher_information` matrix bit for bit.
    """
    return LocalHessian(spec.f_second_at_one * family.fisher(theta), provenance="analytic")


def riemannian_pullback(jacobian, density_hessian) -> LocalHessian:
    """Pull a density-space curvature matrix back to parameter space.

    Computes ``J^T G J`` and symmetrizes.  If ``J`` is column-rank
    deficient the result is only a pseudo-metric; it is returned undamped,
    and the optimizer's step solve floors it like any other metric.
    """
    J = np.asarray(jacobian, dtype=float)
    G = np.asarray(density_hessian, dtype=float)
    return LocalHessian(J.T @ G @ J, provenance="pullback")


def pullback_fisher_categorical(family: CategoricalSoftmax, theta) -> LocalHessian:
    """Categorical Fisher metric obtained by pullback through softmax.

    In probability coordinates the KL local Hessian is ``diag(1/p)``
    restricted to the simplex tangent space; the softmax Jacobian maps into
    exactly that tangent space, so ``J^T diag(1/p) J`` reproduces the
    parameter-space Fisher matrix.
    """
    if not isinstance(family, CategoricalSoftmax):
        raise CapabilityError(f"pullback metric is defined for categorical families, not {family.name}")
    theta = family.point(theta)
    p = family.probabilities(theta)
    return riemannian_pullback(family.softmax_jacobian(theta), np.diag(1.0 / p))


def w2_local_hessian_1d(family: Family, theta) -> LocalHessian:
    """Local Hessian of half the squared 2-Wasserstein distance (1-D),
    :func:`wp_local_hessian_1d` at ``p = 2``: ``H_ij = integral (dQ/dtheta_i)
    (dQ/dtheta_j) du`` over the quantile levels ``u`` of the cost's own grid."""
    return wp_local_hessian_1d(family, theta, 2.0)


def _wp_order(p) -> float:
    """``p`` as a float; ``ValueError`` unless ``1 < p < inf`` (at ``p = 1``
    the metric has rank one and ``|velocity|^(p-2)`` is unbounded)."""
    p = float(p)
    if not 1.0 < p < math.inf:
        raise ValueError(f"order p must be finite and > 1, got {p}")
    return p


def _direction(family: Family, u) -> np.ndarray:
    """``u`` as a float vector; ``ValueError`` unless it has ``param_dim`` entries."""
    u = np.asarray(u, dtype=float)
    if u.shape != (family.param_dim,):
        raise ValueError(f"direction must have length {family.param_dim}, got shape {u.shape}")
    return u


def wp_local_hessian_1d(family: Family, theta, p: float, u=None) -> LocalHessian:
    """Directional local Hessian of half the squared p-Wasserstein distance.

    The squared distance behaves like the square of a direction-dependent
    norm (its curvature is positively 0-homogeneous in the approach
    velocity), so for ``p != 2`` the Hessian depends on the direction ``u``
    in parameter space.  ``u`` is normalized internally, which makes the
    scale invariance exact.  At ``p = 2`` the direction-dependent terms
    carry zero coefficients and the 2-Wasserstein form is recovered.  The
    integrals run over the quantile levels of ``unit_interval_grid``, with
    the velocities the point keeps (``Point.transport``), those of the
    cost's gradient.
    """
    theta = family.point(theta)
    p = _wp_order(p)
    if u is None:
        if p != 2.0:
            raise ValueError("wp_local_hessian_1d needs a direction u for p != 2")
        u = np.ones(family.param_dim)
    u = _direction(family, u)
    norm = np.linalg.norm(u)
    if not np.all(np.isfinite(u)) or norm == 0.0:
        raise ValueError(f"direction must be finite and nonzero, got {u}")
    u_hat = u / norm

    weights = unit_interval_grid()[1]
    g = theta.transport(True)[1]
    G = g @ u_hat  # velocity of the chosen direction at each node
    absG = np.abs(G)
    scale = float(np.max(absG))
    if scale <= 0.0:
        raise NumericError(
            "direction generates a vanishing transport velocity",
            diagnostics={"direction": u_hat.tolist()},
        )
    if p < 2.0:
        small = absG < 1e-10 * scale
        if np.any(small):
            raise NumericError(
                f"negative-power blowup: |velocity|^(p-2) with p={p} over nodes where the "
                "directional velocity vanishes",
                diagnostics={
                    "p": p,
                    "nodes_near_zero": int(np.sum(small)),
                    "min_abs_velocity": float(np.min(absG)),
                    "max_abs_velocity": scale,
                },
            )

    f_norm = float((weights @ absG**p) ** (1.0 / p))
    weight = weights * absG ** (p - 2.0)
    a = (weight * G) @ g
    second = (g * weight[:, None]).T @ g
    # In one dimension the third integral of the general form, coefficient
    # p - 2, collapses onto the second, so the two share the coefficient p - 1.
    H = (
        (2.0 - p) * f_norm ** (2.0 * (1.0 - p)) * np.outer(a, a)
        + (p - 1.0) * f_norm ** (2.0 - p) * second
    )
    return LocalHessian(H, provenance="analytic")


def w2_local_hessian_gaussian(family: Family, theta) -> LocalHessian:
    """Local Hessian of half the squared 2-Wasserstein distance (Gaussians).

    The Bures-Wasserstein metric pulled back through the moments:
    ``H_ij = dmu_i . dmu_j + 1/2 sum_ab (U^T dS_i U)_ab (U^T dS_j U)_ab / (l_a + l_b)``
    with ``S = U diag(l) U^T`` (Takatsu 2011; Malago, Montrucchio & Pistone
    2018).  Needs a Gaussian family (``gaussian_state`` not None).
    """
    state = family.gaussian_state(theta, derivs=True)
    if state is None:
        raise CapabilityError(f"{family.name}: the Gaussian W2 metric needs moment derivatives")
    lam, U = np.linalg.eigh(state.cov)
    rotated = (U.T @ state.dcov @ U) / np.sqrt(lam[:, None] + lam[None, :])
    flat = rotated.reshape(len(rotated), -1)
    return LocalHessian(state.dmu @ state.dmu.T + 0.5 * flat @ flat.T, provenance="analytic")


def fd_local_hessian(sim: Similarity, family: Family, theta, u=None) -> LocalHessian:
    """Local Hessian of a similarity by central finite differences.

    Differentiates ``eta -> sim(eta, theta)`` at ``eta = theta``.  With a
    direction ``u`` the stencil is centered at ``theta + eps * u_hat`` for the
    geometric ladder ``FD_EPS_LADDER`` (ratio 2) and extrapolated to
    ``eps = 0`` assuming a leading error linear in ``eps``; this recovers the
    directional curvature of costs that are not twice differentiable on the
    diagonal.  Without ``u`` (or with a numerically zero one) the stencil
    sits at ``theta`` itself, which is correct for smooth costs.

    Raises
    ------
    NumericError
        If successive extrapolants disagree by more than ``10 * FD_TOLERANCE``.
    """
    theta = family.point(theta)
    scale = max(1.0, float(np.max(np.abs(theta.theta))))

    def cost(eta):
        return sim.evaluate(family, eta, theta)

    if u is not None:
        u = _direction(family, u)
        if np.linalg.norm(u) < 1e-12:
            u = None
    if u is None:
        H = central_hessian(cost, theta, abs_step=HESS_REL_STEP * scale)
        return LocalHessian(H, provenance="finite_difference")

    u_hat = u / np.linalg.norm(u)
    estimates = []
    for eps_rel in FD_EPS_LADDER:
        eps = eps_rel * scale
        base = theta.theta + eps * u_hat
        estimates.append(central_hessian(cost, base, abs_step=FD_INNER_STEP_RATIO * eps))
    extrapolated = [2.0 * h2 - h1 for h1, h2 in zip(estimates[:-1], estimates[1:])]
    gap = float(np.max(np.abs(extrapolated[-1] - extrapolated[-2])))
    if gap > 10.0 * FD_TOLERANCE * max(1.0, float(np.max(np.abs(extrapolated[-1])))):
        raise NumericError(
            "directional Hessian extrapolation did not converge",
            diagnostics={
                "extrapolation_gap": gap,
                "tolerance": FD_TOLERANCE,
                "eps_ladder": [e * scale for e in FD_EPS_LADDER],
            },
        )
    return LocalHessian(extrapolated[-1], provenance="finite_difference")


def default_damping(matrix: np.ndarray) -> float:
    """Scale-aware damping floor: ``1e-10 * (1 + trace(H) / n)``."""
    n = matrix.shape[0]
    tau = 1e-10 * (1.0 + float(np.trace(matrix)) / n)
    return tau if tau > 0.0 else 1e-10


def spd_project(hessian, tau_min: Optional[float] = None) -> LocalHessian:
    """Shift the spectrum so the smallest eigenvalue is at least ``tau_min``.

    Accepts a matrix or a :class:`LocalHessian`; metadata is carried over
    and the shift is added to ``regularization_added``.  A Cholesky probe
    comes first: where ``H - tau I`` factors, the spectrum already clears
    the floor and ``H`` is returned as it is; only where it does not is the
    smallest eigenvalue computed, and the shift is ``tau - eigmin``.
    """
    if isinstance(hessian, LocalHessian):
        base = hessian
    else:
        base = LocalHessian(np.asarray(hessian, dtype=float))
    tau = default_damping(base.matrix) if tau_min is None else float(tau_min)
    if dpotrf(base.matrix - tau * np.eye(base.dim), lower=1)[1] == 0:
        return base
    eigmin = float(np.linalg.eigvalsh(base.matrix)[0])
    if eigmin >= tau:
        return base
    shift = tau - eigmin
    return replace(
        base,
        matrix=base.matrix + shift * np.eye(base.dim),
        regularization_added=base.regularization_added + shift,
    )


@dataclass(frozen=True)
class MetricEngine:
    """Named metric factory: ``engine(theta, u=None) -> LocalHessian``.

    ``u`` is a descent-direction hint used by direction-dependent engines;
    the others ignore it.
    """

    name: str
    fn: Callable[[np.ndarray, Optional[np.ndarray]], LocalHessian]

    def __call__(self, theta, u=None) -> LocalHessian:
        return self.fn(theta, u)


def _f_divergence(name: str) -> FDivergenceSpec:
    if name not in F_DIVERGENCES:
        raise ValueError(f"unknown f-divergence {name!r}; valid names: {', '.join(F_DIVERGENCES)}")
    return F_DIVERGENCES[name]


# Builders of engine functions ``fn(theta, u=None)`` from ``(family[, arg])``,
# keyed by identifier.  Each function looks up the engine it calls when it is
# called, so a wrapper set on this module later is the one that runs, and a
# default argument keeps what the identifier's argument resolved to.
METRICS = {
    "fisher": lambda family: lambda th, u=None: fisher_information(family, th),
    "fdiv:{name}": lambda family, name: (
        lambda th, u=None, spec=_f_divergence(name): f_div_local_hessian(spec, family, th)),
    "pullback": lambda family: lambda th, u=None: pullback_fisher_categorical(family, th),
    "w2_1d": lambda family: lambda th, u=None: w2_local_hessian_1d(family, th),
    "wp_1d:{p}": lambda family, p: (
        lambda th, u=None, p=_wp_order(p): wp_local_hessian_1d(family, th, p, u)),
    "w2_gaussian": lambda family: lambda th, u=None: w2_local_hessian_gaussian(family, th),
    # smooth costs take the stencil at theta, not the ladder
    "fd:{similarity}": lambda family, sim_id: (
        lambda th, u=None, sim=get_similarity(sim_id):
            fd_local_hessian(sim, family, th, u if sim.directional else None)),
    "euclidean": lambda family: lambda th, u=None: LocalHessian(np.eye(family.param_dim)),
}
METRIC_IDS = list(METRICS)


def resolve_metric_engine(identifier: str, family: Family) -> MetricEngine:
    """Resolve a metric engine by string identifier (see ``METRIC_IDS``)."""
    fn = resolve_id(identifier, METRICS, "metric", "metrics", family)
    return MetricEngine(str(identifier), fn)
