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
  is taken from the gradient of the outer objective.

A similarity's ``local_hessian`` (``natgrad.similarity``) calls its engine
here; this module does not import the similarities.

All engines return a :class:`LocalHessian` whose matrix is exactly
symmetric and undamped: a pseudo-metric (such as the pullback through a
rank-deficient Jacobian) is returned as it is.  Positive definiteness is
enforced only in the optimizer's step solve, by :func:`spd_project`, which
shifts the spectrum up to a damping floor and records how much was added.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from scipy.linalg.lapack import dpotrf

from .errors import CapabilityError, NumericError
from .families import CategoricalSoftmax, Family
from .numdiff import HESS_REL_STEP, central_hessian
from .quadrature import unit_interval_grid

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
        if not np.isfinite(m).all():
            raise NumericError("local Hessian contains non-finite entries")
        if self.provenance not in ("analytic", "finite_difference", "pullback"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        m = m + m.T
        m *= 0.5
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def fisher_information(family: Family, theta) -> LocalHessian:
    """Fisher information matrix at ``theta``, :meth:`Family.fisher` as a
    :class:`LocalHessian`: the closed form of a Gaussian or categorical
    family.  Any other family raises the :class:`CapabilityError` of
    :meth:`Family.gaussian_state`; :func:`monte_carlo_fisher` estimates its
    matrix from samples.
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


def f_div_local_hessian(spec, family: Family, theta) -> LocalHessian:
    """Local Hessian of the f-divergence of ``spec`` (a ``FDivergenceSpec``):
    ``f''(1)`` times Fisher information.

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


def _direction(family: Family, u) -> np.ndarray:
    """``u`` as a float vector; ``ValueError`` unless it has ``param_dim``
    entries, all finite."""
    u = np.asarray(u, dtype=float)
    if u.shape != (family.param_dim,):
        raise ValueError(f"direction must have length {family.param_dim}, got shape {u.shape}")
    if not np.isfinite(u).all():
        raise ValueError(f"direction must be finite, got {u}")
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
    cost's gradient.  At ``p <= 1`` there is no metric, and the call raises
    :class:`CapabilityError` before it reads ``theta``.
    """
    if p <= 1.0:
        raise CapabilityError(f"wasserstein:{p:g} has no metric: at p = 1 its local Hessian has "
                              "rank one and |velocity|^(p-2) is unbounded; name another metric")
    theta = family.point(theta)
    if u is None:
        if p != 2.0:
            raise ValueError("wp_local_hessian_1d needs a direction u for p != 2")
        u = np.ones(family.param_dim)
    u = _direction(family, u)
    norm = np.linalg.norm(u)
    if norm == 0.0:
        raise ValueError(f"direction must be nonzero, got {u}")
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
    2018).  Needs a Gaussian family (else ``gaussian_state`` raises
    :class:`CapabilityError`).
    """
    state = family.gaussian_state(theta, derivs=True)
    lam, U = np.linalg.eigh(state.cov)
    rotated = (U.T @ state.dcov @ U) / np.sqrt(lam[:, None] + lam[None, :])
    flat = rotated.reshape(len(rotated), -1)
    return LocalHessian(state.dmu @ state.dmu.T + 0.5 * flat @ flat.T, provenance="analytic")


def fd_local_hessian(sim, family: Family, theta, u=None) -> LocalHessian:
    """Local Hessian of a similarity by central finite differences.

    Differentiates ``eta -> sim.evaluate(family, eta, theta)`` at ``eta =
    theta``.  With a direction ``u`` the stencil is centered at ``theta + eps
    * u_hat`` for the geometric ladder ``FD_EPS_LADDER`` (ratio 2) and
    extrapolated to ``eps = 0`` assuming a leading error linear in ``eps``;
    this recovers the directional curvature of costs that are not twice
    differentiable on the diagonal.  Without ``u`` (or with a numerically
    zero one) the stencil sits at ``theta`` itself, correct for smooth costs.

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
    comes first, of ``H - tau I`` made on a copy of ``H`` whose diagonal is
    shifted in place: where it factors, the spectrum already clears the
    floor and ``H`` is returned as it is; only where it does not is the
    smallest eigenvalue computed, and the shift is ``tau - eigmin``, added
    to the diagonal of one more copy.
    """
    if isinstance(hessian, LocalHessian):
        base = hessian
    else:
        base = LocalHessian(np.asarray(hessian, dtype=float))
    tau = default_damping(base.matrix) if tau_min is None else float(tau_min)
    shifted = base.matrix.copy()
    shifted.ravel()[:: base.dim + 1] -= tau
    # H is symmetric: dpotrf factors the transpose, a Fortran array, in place.
    if dpotrf(shifted.T, lower=1, overwrite_a=1)[1] == 0:
        return base
    eigmin = float(np.linalg.eigvalsh(base.matrix)[0])
    if eigmin >= tau:
        return base
    shift = tau - eigmin
    shifted = base.matrix.copy()
    shifted.ravel()[:: base.dim + 1] += shift
    return replace(base, matrix=shifted, regularization_added=base.regularization_added + shift)


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
