"""Local Hessian metrics induced by similarity measures.

The central object is the local Hessian of a similarity ``c``: the second
derivative of ``eta -> c(eta, theta)`` evaluated at ``eta = theta``.  It is
the curvature the similarity assigns to parameter space at ``theta``, and it
is what a natural-gradient step inverts.  Engines here produce it four ways:

* analytically, for f-divergences (``f''(1)`` times the Fisher information),
  for 1-D Wasserstein distances (velocity-potential integrals) and for
  Gaussian 2-Wasserstein (Bures-Wasserstein, from moment derivatives);
* by pulling a density-space Hessian back through the parameterization
  Jacobian (``J^T G J``);
* by central finite differences of the similarity itself.  Squared
  transport distances with ``p != 2`` have curvature that depends on the
  approach direction, so the FD engine evaluates at ``theta + eps * u_hat``
  for a shrinking ladder of ``eps`` and extrapolates to zero; the direction
  is taken from the gradient of the outer objective.

All engines return a :class:`LocalHessian` whose matrix is exactly
symmetric.  Positive definiteness is enforced separately by
:func:`spd_project`, which shifts the spectrum up to a damping floor and
records how much was added.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import CapabilityError, ConfigError, NumericError
from .families import CategoricalSoftmax, Family
from .numdiff import HESS_REL_STEP, central_hessian
from .quadrature import DEFAULT_TAIL_MASS, composite_legendre
from .similarity import F_DIVERGENCES, FDivergenceSpec, Similarity, get_similarity

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

# Inner stencil width as a fraction of the diagonal offset eps.  Must be
# small enough that the stencil stays inside the region where the cost is
# smooth (it sits eps away from the kink at eta = theta), but large enough
# that evaluation noise divided by h^2 stays below the extrapolation gate
# even for costs computed through eigendecompositions.
FD_INNER_STEP_RATIO = 0.03


@dataclass(frozen=True)
class LocalHessian:
    """A symmetric curvature matrix with provenance metadata.

    ``regularization_added`` is the total diagonal shift applied so far
    (zero until :func:`spd_project` adds one); ``rank_deficient`` marks
    pseudo-metrics pulled back through a singular Jacobian.
    """

    matrix: np.ndarray
    regularization_added: float = 0.0
    provenance: str = "analytic"
    rank_deficient: bool = False

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


def fisher_information(family: Family, theta, n_nodes: int = 256) -> LocalHessian:
    """Fisher information matrix at ``theta``.

    Uses the family's closed form when it has one, otherwise quadrature of
    the score outer product for families that support expectations: one
    batched score call ``S`` at the nodes, then ``S^T diag(mass) S``.
    """
    theta = family.check_point(theta)
    if family.has_closed_form_fisher:
        return LocalHessian(family.fisher(theta), provenance="analytic")
    if family.has_cdf or family.is_discrete:
        def outer(xs):
            s = family.score(theta, xs)
            return s[:, :, None] * s[:, None, :]

        return LocalHessian(family.expectation(theta, outer, n_nodes), provenance="analytic")
    raise CapabilityError(
        f"{family.name}: no closed form and no quadrature route for Fisher information; "
        "use monte_carlo_fisher"
    )


def monte_carlo_fisher(
    family: Family, theta, seed: int, count: int = 100_000
) -> tuple[LocalHessian, np.ndarray]:
    """Monte Carlo Fisher estimate and entrywise standard errors.

    Test and validation aid; optimization paths use analytic or quadrature
    routes.
    """
    theta = family.check_point(theta)
    scores = family.score(theta, family.sample(theta, seed, count))
    outer = scores[:, :, None] * scores[:, None, :]
    mean = outer.mean(axis=0)
    stderr = outer.std(axis=0, ddof=1) / np.sqrt(count)
    return LocalHessian(mean, provenance="analytic"), stderr


def f_div_local_hessian(spec: FDivergenceSpec, family: Family, theta) -> LocalHessian:
    """Local Hessian of the f-divergence: ``f''(1)`` times Fisher information.

    Every twice-differentiable f-divergence induces the same metric up to
    this scalar, so the Fisher matrix is computed once and scaled, making
    ratios between divergences exact by construction.
    """
    fisher = fisher_information(family, theta)
    return LocalHessian(spec.f_second_at_one * fisher.matrix, provenance=fisher.provenance)


def riemannian_pullback(jacobian, density_hessian, rank_rtol: float = 1e-10) -> LocalHessian:
    """Pull a density-space curvature matrix back to parameter space.

    Computes ``J^T G J`` and symmetrizes.  If ``J`` is column-rank
    deficient the result is only a pseudo-metric: it is flagged and given
    a small diagonal shift so downstream factorizations succeed.
    """
    J = np.asarray(jacobian, dtype=float)
    G = np.asarray(density_hessian, dtype=float)
    H = J.T @ G @ J
    singular = np.linalg.svd(J, compute_uv=False)
    deficient = bool(singular.size == 0 or singular[-1] <= rank_rtol * max(singular[0], 1.0))
    out = LocalHessian(H, provenance="pullback", rank_deficient=deficient)
    if deficient:
        out = spd_project(out)
        out = replace(out, rank_deficient=True)
    return out


def pullback_fisher_categorical(family: CategoricalSoftmax, theta) -> LocalHessian:
    """Categorical Fisher metric obtained by pullback through softmax.

    In probability coordinates the KL local Hessian is ``diag(1/p)``
    restricted to the simplex tangent space; the softmax Jacobian maps into
    exactly that tangent space, so ``J^T diag(1/p) J`` reproduces the
    parameter-space Fisher matrix.
    """
    if not isinstance(family, CategoricalSoftmax):
        raise CapabilityError(f"pullback metric is defined for categorical families, not {family.name}")
    p = family.probabilities(theta)
    return riemannian_pullback(family.softmax_jacobian(theta), np.diag(1.0 / p))


def _velocity_basis(family: Family, theta: np.ndarray, n_nodes: int):
    """Quadrature grid plus per-parameter transport velocities.

    For a 1-D family the tangent density generated by moving parameter i
    is carried by the velocity field ``g_i(x) = -dF/dtheta_i / rho(x)``
    (the flux that the continuity equation assigns to the CDF change).
    Returns ``(weights * rho, g)`` with ``g`` of shape (n_nodes, dim).
    """
    if not family.has_cdf:
        raise CapabilityError(f"{family.name}: transport metrics need cdf/quantile support")
    lo, hi = family.quantile(theta, [DEFAULT_TAIL_MASS, 1.0 - DEFAULT_TAIL_MASS])
    nodes, weights = composite_legendre(lo, hi, n_panels=8, nodes_per_panel=max(4, n_nodes // 8))
    dens = np.exp(family.log_density(theta, nodes))
    return weights * dens, -family.dcdf_dtheta(theta, nodes) / dens[:, None]


def w2_local_hessian_1d(family: Family, theta, n_nodes: int = 512) -> LocalHessian:
    """Local Hessian of half the squared 2-Wasserstein distance (1-D).

    ``H_ij = integral (dF/dtheta_i)(dF/dtheta_j) / rho dx``: the L2 inner
    product of the per-parameter transport velocities under the density.
    """
    theta = family.check_point(theta)
    mass, g = _velocity_basis(family, theta, n_nodes)
    return LocalHessian((g * mass[:, None]).T @ g, provenance="analytic")


def wp_local_hessian_1d(family: Family, theta, p: float, u=None, n_nodes: int = 512) -> LocalHessian:
    """Directional local Hessian of half the squared p-Wasserstein distance.

    The squared distance behaves like the square of a direction-dependent
    norm (its curvature is positively 0-homogeneous in the approach
    velocity), so for ``p != 2`` the Hessian depends on the direction ``u``
    in parameter space.  ``u`` is normalized internally, which makes the
    scale invariance exact.  At ``p = 2`` the direction-dependent terms
    carry zero coefficients and the 2-Wasserstein form is recovered.
    """
    theta = family.check_point(theta)
    p = float(p)
    if p <= 1.0:
        raise ValueError(f"order p must be > 1, got {p}")
    if u is None:
        if p != 2.0:
            raise ValueError("wp_local_hessian_1d needs a direction u for p != 2")
        u = np.ones(family.param_dim)
    u = np.asarray(u, dtype=float)
    norm = np.linalg.norm(u)
    if not np.all(np.isfinite(u)) or norm == 0.0:
        raise ValueError(f"direction must be finite and nonzero, got {u}")
    u_hat = u / norm

    mass, g = _velocity_basis(family, theta, n_nodes)
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

    f_norm = float((mass @ absG**p) ** (1.0 / p))
    weight = mass * absG ** (p - 2.0)
    a = (weight * G) @ g
    second = (g * weight[:, None]).T @ g
    # In one dimension the inner products <g_i, G><g_j, G> / |G|^2 collapse,
    # so the third integral coincides with the second.
    third = second
    H = (
        (2.0 - p) * f_norm ** (2.0 * (1.0 - p)) * np.outer(a, a)
        + f_norm ** (2.0 - p) * second
        + (p - 2.0) * f_norm ** (2.0 - p) * third
    )
    return LocalHessian(H, provenance="analytic")


def w2_local_hessian_gaussian(family: Family, theta) -> LocalHessian:
    """Local Hessian of half the squared 2-Wasserstein distance (Gaussians).

    The Bures-Wasserstein metric pulled back through the moments:
    ``H_ij = dmu_i . dmu_j + 1/2 sum_ab (U^T dS_i U)_ab (U^T dS_j U)_ab / (l_a + l_b)``
    with ``S = U diag(l) U^T`` (Takatsu 2011; Malago, Montrucchio & Pistone
    2018).  Needs a family whose ``moment_derivs`` is not None.
    """
    theta = family.check_point(theta)
    moments = family.gaussian_moments(theta)
    derivs = None if moments is None else family.moment_derivs(theta)
    if derivs is None:
        raise CapabilityError(f"{family.name}: the Gaussian W2 metric needs moment derivatives")
    dmu, dcov = derivs
    lam, U = np.linalg.eigh(moments[1])
    rotated = (U.T @ dcov @ U) / np.sqrt(lam[:, None] + lam[None, :])
    flat = rotated.reshape(len(rotated), -1)
    return LocalHessian(dmu @ dmu.T + 0.5 * flat @ flat.T, provenance="analytic")


def fd_local_hessian(
    sim: Similarity,
    family: Family,
    theta,
    u=None,
    eps_ladder: tuple[float, ...] = FD_EPS_LADDER,
    tolerance: float = 1e-4,
) -> LocalHessian:
    """Local Hessian of a similarity by central finite differences.

    Differentiates ``eta -> sim(eta, theta)`` at ``eta = theta``.  With a
    direction ``u`` the stencil is centered at ``theta + eps * u_hat`` for a
    geometric ladder of ``eps`` (ratio 2) and extrapolated to ``eps = 0``
    assuming a leading error linear in ``eps``; this recovers the
    directional curvature of costs that are not twice differentiable on the
    diagonal.  Without ``u`` (or with a numerically zero one) the stencil
    sits at ``theta`` itself, which is correct for smooth costs.

    Raises
    ------
    NumericError
        If successive extrapolants disagree by more than ``10 * tolerance``.
    """
    theta = family.check_point(theta)
    scale = max(1.0, float(np.max(np.abs(theta))))

    def cost(eta):
        return sim.evaluate(family, eta, theta)

    if u is not None:
        u = np.asarray(u, dtype=float)
        if np.linalg.norm(u) < 1e-12:
            u = None
    if u is None:
        H = central_hessian(cost, theta, abs_step=HESS_REL_STEP * scale)
        return LocalHessian(H, provenance="finite_difference")

    u_hat = u / np.linalg.norm(u)
    estimates = []
    for eps_rel in eps_ladder:
        eps = eps_rel * scale
        base = theta + eps * u_hat
        estimates.append(central_hessian(cost, base, abs_step=FD_INNER_STEP_RATIO * eps))
    extrapolated = [2.0 * h2 - h1 for h1, h2 in zip(estimates[:-1], estimates[1:])]
    if len(extrapolated) >= 2:
        gap = float(np.max(np.abs(extrapolated[-1] - extrapolated[-2])))
        if gap > 10.0 * tolerance * max(1.0, float(np.max(np.abs(extrapolated[-1])))):
            raise NumericError(
                "directional Hessian extrapolation did not converge",
                diagnostics={
                    "extrapolation_gap": gap,
                    "tolerance": tolerance,
                    "eps_ladder": [e * scale for e in eps_ladder],
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
    and ``regularization_added`` accumulates the shift.
    """
    if isinstance(hessian, LocalHessian):
        base = hessian
    else:
        base = LocalHessian(np.asarray(hessian, dtype=float))
    tau = default_damping(base.matrix) if tau_min is None else float(tau_min)
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


METRIC_IDS = [
    "fisher",
    "fdiv:{name}",
    "pullback",
    "w2_1d",
    "wp_1d:{p}",
    "fd:{similarity}",
    "euclidean",
]


def resolve_metric_engine(identifier: str, family: Family) -> MetricEngine:
    """Resolve a metric engine by string identifier (see ``METRIC_IDS``)."""
    ident = str(identifier)
    name, _, arg = ident.partition(":")
    if name == "fisher" and not arg:
        return MetricEngine(ident, lambda th, u=None: fisher_information(family, th))
    if name == "fdiv":
        if arg not in F_DIVERGENCES:
            raise ConfigError(
                f"unknown f-divergence {arg!r} in metric {ident!r}; "
                f"valid names: {', '.join(sorted(F_DIVERGENCES))}"
            )
        spec = F_DIVERGENCES[arg]
        return MetricEngine(ident, lambda th, u=None: f_div_local_hessian(spec, family, th))
    if name == "pullback" and not arg:
        return MetricEngine(ident, lambda th, u=None: pullback_fisher_categorical(family, th))
    if name == "w2_1d" and not arg:
        return MetricEngine(ident, lambda th, u=None: w2_local_hessian_1d(family, th))
    if name == "wp_1d" and arg:
        try:
            p = float(arg)
        except ValueError as exc:
            raise ConfigError(f"invalid order in metric {ident!r}: {exc}") from exc
        return MetricEngine(ident, lambda th, u=None: wp_local_hessian_1d(family, th, p, u))
    if name == "fd" and arg:
        sim = get_similarity(arg)
        return MetricEngine(ident, lambda th, u=None: fd_local_hessian(sim, family, th, u))
    if name == "euclidean" and not arg:
        dim = family.param_dim
        return MetricEngine(ident, lambda th, u=None: LocalHessian(np.eye(dim)))
    raise ConfigError(
        f"unknown metric {identifier!r}; valid metrics: {', '.join(METRIC_IDS)}"
    )
