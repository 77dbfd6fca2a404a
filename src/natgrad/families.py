"""Parametric distribution families.

A family maps a parameter vector to a probability distribution and exposes
the handful of operations the rest of the package needs: log-density and its
parameter gradient (the score), CDF/quantile and the parameter gradient of
the CDF for one-dimensional families, seeded sampling, and closed-form
Fisher information where available.

All operations are pure functions of ``(theta, x)``: families hold only
immutable configuration, so instances can be shared freely across threads.

Parameter vectors are plain 1-D float arrays.  ``Family.check_point``
canonicalizes and validates them eagerly; every public operation calls it
once per call, so invalid parameters fail with
:class:`InvalidParameterError` rather than producing NaNs downstream.

Array contract: ``log_density``, ``score``, ``cdf`` and ``dcdf_dtheta`` take
one sample point or a batch of them, and ``quantile`` one level or an array
of levels.  When ``sample_dim == 1`` a sample is a scalar and a batch has
shape ``(n,)``; otherwise a sample has shape ``(sample_dim,)`` and a batch
``(n, sample_dim)``.  An ``(n, sample_dim)`` array is a batch in either case.
A batch adds a leading axis ``n`` to the result: ``(n,)`` log-densities,
``(n, param_dim)`` scores.  Any other shape raises ``ValueError``.
"""

from __future__ import annotations

from abc import ABC
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg.lapack import dtrtrs
from scipy.special import log_softmax, ndtr, ndtri, softmax

from .errors import (
    CapabilityError,
    ConfigError,
    InvalidParameterError,
    NumericError,
    UndefinedScoreError,
)
from .numdiff import central_gradient
from .quadrature import DEFAULT_TAIL_MASS, composite_legendre

__all__ = [
    "Dataset",
    "Family",
    "Gaussian1D",
    "MultivariateNormalLogCholesky",
    "CategoricalSoftmax",
    "GpPriorEq",
    "LinearlyReparameterized",
    "eq_covariance",
    "get_family",
    "FAMILY_IDS",
]

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class Dataset:
    """Observed regression data: paired inputs and targets plus the seed
    used to generate them (kept for provenance in benchmark outputs)."""

    inputs: np.ndarray
    targets: np.ndarray
    seed: int

    def __post_init__(self):
        inputs = np.atleast_1d(np.asarray(self.inputs, dtype=float))
        targets = np.atleast_1d(np.asarray(self.targets, dtype=float))
        if inputs.shape[0] != targets.shape[0]:
            raise ValueError(
                f"inputs and targets must have equal length, got {inputs.shape[0]} and {targets.shape[0]}"
            )
        inputs.setflags(write=False)
        targets.setflags(write=False)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)


class Family(ABC):
    """A smoothly parameterized family of probability distributions.

    Subclasses set the class attributes below and implement at least
    ``log_density`` and ``_in_domain``.  A Gaussian family implements
    ``gaussian_moments`` and ``moment_derivs`` instead of ``log_density``;
    from those the base class derives the log-density, the score and the
    closed-form Fisher matrix.  Otherwise the defaults fall back to central
    finite differences (score, dcdf_dtheta) or raise
    :class:`CapabilityError` (cdf, quantile, fisher) so each family only
    implements what it actually supports.

    Sample-point operations follow the module's array contract; the defaults
    and the quadrature routes pass batches to ``log_density`` and ``cdf``.

    Attributes
    ----------
    name : str
        Registry identifier.
    param_dim : int
        Length of the parameter vector.
    sample_dim : int
        Dimension of one sample (1 means scalar samples).
    has_cdf : bool
        Whether cdf/quantile/dcdf_dtheta are available (1-D families only).
    has_closed_form_fisher : bool
        Whether ``fisher`` returns an analytic matrix.
    has_sampler : bool
        Whether ``sample`` is available.
    """

    name: str = ""
    param_dim: int = 0
    sample_dim: int = 1
    has_cdf: bool = False
    has_closed_form_fisher: bool = False
    has_sampler: bool = True
    is_discrete: bool = False

    # -- parameter validation -------------------------------------------------

    def check_point(self, theta) -> np.ndarray:
        """Canonicalize ``theta`` to a float vector and validate it.

        Raises
        ------
        InvalidParameterError
            If the shape is wrong, any entry is non-finite, or the point
            lies outside the family's open domain.
        """
        arr = np.atleast_1d(np.asarray(theta, dtype=float))
        if arr.ndim != 1 or arr.size != self.param_dim:
            raise InvalidParameterError(
                f"{self.name}: expected parameter vector of length {self.param_dim}, "
                f"got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise InvalidParameterError(f"{self.name}: parameters must be finite, got {arr}")
        if not self._in_domain(arr):
            raise InvalidParameterError(f"{self.name}: parameters outside domain: {arr}")
        return arr.copy()

    def in_domain(self, theta) -> bool:
        """True if ``theta`` is a valid parameter point."""
        arr = np.atleast_1d(np.asarray(theta, dtype=float))
        if arr.ndim != 1 or arr.size != self.param_dim or not np.all(np.isfinite(arr)):
            return False
        return self._in_domain(arr)

    def _in_domain(self, theta: np.ndarray) -> bool:
        return True

    # -- core operations -------------------------------------------------------

    def log_density(self, theta, x):
        """Log-density (or log-mass) at sample point ``x``.  Gaussian
        families get it from ``gaussian_moments``; others implement it."""
        moments = self.gaussian_moments(theta)
        if moments is None:
            raise NotImplementedError(f"{self.name}: log_density is not implemented")
        mean, cov = moments
        xs, single = self._check_x(x)
        # Extreme log-parameters can make the covariance numerically indefinite.
        try:
            L = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise NumericError(
                f"covariance is not positive definite: {exc}",
                diagnostics={"theta": np.asarray(theta, dtype=float)},
            ) from exc
        w, _ = dtrtrs(L, (xs - mean).T, lower=1)  # info flags a zero pivot; L has none
        maha = np.einsum("ij,ij->j", w, w)  # squared whitened residuals, one per sample
        out = -0.5 * len(L) * LOG_2PI - np.sum(np.log(np.diag(L))) - 0.5 * maha
        return out[0] if single else out

    def score(self, theta, x) -> np.ndarray:
        """Gradient of ``log_density`` with respect to the parameters.

        Gaussian families (``moment_derivs`` not None) use the closed form
        ``dmu_i^T w - 1/2 tr(S^-1 dS_i) + 1/2 w^T dS_i w`` with
        ``w = S^-1 (x - mu)``.  Otherwise central finite differences with
        per-coordinate steps ``eps**(1/3) * max(1, |theta_i|)``.
        """
        theta = self.check_point(theta)
        moments = self.gaussian_moments(theta)
        derivs = None if moments is None else self.moment_derivs(theta)
        if derivs is not None:
            mean, cov = moments
            dmu, dcov = derivs
            xs, single = self._check_x(x)
            cov_inv = np.linalg.inv(cov)
            w = (xs - mean) @ cov_inv
            out = (
                w @ dmu.T
                - 0.5 * dcov.reshape(len(dcov), -1) @ cov_inv.ravel()
                + 0.5 * np.sum((w @ dcov) * w, axis=-1).T
            )
            return out[0] if single else out
        if not np.all(np.isfinite(self.log_density(theta, x))):
            raise UndefinedScoreError(f"{self.name}: zero density at x={x}, score undefined")
        return central_gradient(lambda t: self.log_density(t, x), theta)

    def cdf(self, theta, x):
        """Cumulative distribution function (1-D families only)."""
        raise CapabilityError(f"{self.name}: cdf is not available")

    def quantile(self, theta, q):
        """Inverse CDF at a level or an array of levels.  Default: bisection
        against ``cdf``, all levels at once.

        Raises
        ------
        ValueError
            If a level is not strictly inside (0, 1).
        """
        if not self.has_cdf:
            raise CapabilityError(f"{self.name}: quantile is not available")
        q = np.asarray(q, dtype=float)
        if np.any(~((q > 0.0) & (q < 1.0))):
            raise ValueError(f"quantile level must be in (0, 1), got {q}")
        theta = self.check_point(theta)
        lo, hi = np.full(q.shape, -1.0), np.full(q.shape, 1.0)
        while np.any(low := self.cdf(theta, lo) > q):
            lo = np.where(low, 2.0 * lo, lo)
        while np.any(high := self.cdf(theta, hi) < q):
            hi = np.where(high, 2.0 * hi, hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            below = self.cdf(theta, mid) < q
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
            if np.all(hi - lo < 1e-14 * np.maximum(1.0, np.abs(lo))):
                break
        out = 0.5 * (lo + hi)
        return float(out) if out.ndim == 0 else out

    def dcdf_dtheta(self, theta, x) -> np.ndarray:
        """Gradient of the CDF with respect to the parameters, at fixed x."""
        if not self.has_cdf:
            raise CapabilityError(f"{self.name}: dcdf_dtheta is not available")
        theta = self.check_point(theta)
        return central_gradient(lambda t: self.cdf(t, x), theta)

    def sample(self, theta, seed: int, count: int) -> np.ndarray:
        """Draw ``count`` samples; deterministic for fixed ``(theta, seed)``."""
        raise CapabilityError(f"{self.name}: no sampler available")

    def fisher(self, theta) -> np.ndarray:
        """Closed-form Fisher information matrix, if the family has one.

        For Gaussian families: ``dmu_i^T S^-1 dmu_j + 1/2 tr(S^-1 dS_i S^-1 dS_j)``.
        """
        theta = self.check_point(theta)
        moments = self.gaussian_moments(theta)
        derivs = None if moments is None else self.moment_derivs(theta)
        if derivs is None:
            raise CapabilityError(f"{self.name}: no closed-form Fisher information")
        _, cov = moments
        dmu, dcov = derivs
        cov_inv = np.linalg.inv(cov)
        sens = cov_inv @ dcov
        n = len(sens)
        trace_term = sens.reshape(n, -1) @ sens.transpose(0, 2, 1).reshape(n, -1).T
        return dmu @ cov_inv @ dmu.T + 0.5 * trace_term

    def gaussian_moments(self, theta) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """``(mean, covariance)`` if the distribution is Gaussian, else None.

        Lets similarity measures with Gaussian closed forms (KL, squared
        2-Wasserstein) recognize the family without type checks.
        """
        return None

    def moment_derivs(self, theta) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Parameter derivatives of ``gaussian_moments``, else None.

        Returns ``(dmu, dcov)`` of shapes ``(param_dim, d)`` and
        ``(param_dim, d, d)``: row ``i`` holds the derivatives of the mean
        and the covariance with respect to ``theta_i``.
        """
        return None

    def _check_x(self, x) -> tuple[np.ndarray, bool]:
        """Validate ``x``; return it as an ``(n, sample_dim)`` batch and
        whether it was a single sample."""
        x = np.asarray(x, dtype=float)
        d = self.sample_dim
        single = x.ndim == (0 if d == 1 else 1)
        batch = (x.ndim == 2 and x.shape[1] == d) or (d == 1 and x.ndim == 1)
        if not (batch or (single and x.size == d)):
            raise ValueError(f"{self.name}: sample shape {x.shape} does not fit sample_dim {d}")
        return x.reshape(-1, d), single

    def expectation(self, theta, fn: Callable[[np.ndarray], np.ndarray], n_nodes: int = 256):
        """Expectation of ``fn(X)`` under the distribution at ``theta``.

        One-dimensional continuous families integrate over the quantile
        window ``[quantile(delta), quantile(1 - delta)]`` with a composite
        Gauss-Legendre rule; discrete families sum exactly.  ``fn`` maps the
        batch of nodes to one value, or one array, per node.
        """
        theta = self.check_point(theta)
        if not self.has_cdf:
            raise CapabilityError(f"{self.name}: no quadrature route for expectations")
        lo, hi = self.quantile(theta, [DEFAULT_TAIL_MASS, 1.0 - DEFAULT_TAIL_MASS])
        nodes, weights = composite_legendre(lo, hi, n_panels=8, nodes_per_panel=max(4, n_nodes // 8))
        mass = weights * np.exp(self.log_density(theta, nodes))
        return np.einsum("n,n...->...", mass, fn(nodes))


class Gaussian1D(Family):
    """Normal distribution on the real line, parameters ``(mu, sigma)``."""

    name = "gaussian1d"
    param_dim = 2
    sample_dim = 1
    has_cdf = True
    has_closed_form_fisher = True

    def _in_domain(self, theta):
        return theta[1] > 0.0

    def _standardize(self, theta, x):
        """``(sigma, z, single)`` with ``z = (x - mu) / sigma`` of shape (n,)."""
        mu, sigma = self.check_point(theta)
        xs, single = self._check_x(x)
        return sigma, (xs[:, 0] - mu) / sigma, single

    def log_density(self, theta, x):
        sigma, z, single = self._standardize(theta, x)
        out = -0.5 * LOG_2PI - np.log(sigma) - 0.5 * z * z
        return out[0] if single else out

    def cdf(self, theta, x):
        _, z, single = self._standardize(theta, x)
        out = ndtr(z)
        return float(out[0]) if single else out

    def quantile(self, theta, q):
        mu, sigma = self.check_point(theta)
        q = np.asarray(q, dtype=float)
        if np.any(q <= 0.0) or np.any(q >= 1.0):
            raise ValueError(f"quantile level must be in (0, 1), got {q}")
        out = mu + sigma * ndtri(q)
        return float(out) if out.ndim == 0 else out

    def dcdf_dtheta(self, theta, x):
        # d/dmu Phi((x-mu)/sigma) = -pdf(x); d/dsigma = -z * pdf(x)
        sigma, z, single = self._standardize(theta, x)
        pdf = np.exp(-0.5 * z * z) / (np.sqrt(2.0 * np.pi) * sigma)
        out = np.stack([-pdf, -z * pdf], axis=-1)
        return out[0] if single else out

    def sample(self, theta, seed, count):
        mu, sigma = self.check_point(theta)
        rng = np.random.default_rng(seed)
        return mu + sigma * rng.standard_normal(int(count))

    def gaussian_moments(self, theta):
        mu, sigma = self.check_point(theta)
        return np.array([mu]), np.array([[sigma * sigma]])

    def moment_derivs(self, theta):
        _, sigma = self.check_point(theta)
        return np.array([[1.0], [0.0]]), np.array([[[0.0]], [[2.0 * sigma]]])


class MultivariateNormalLogCholesky(Family):
    """Multivariate normal parameterized by mean and a log-Cholesky factor.

    The parameter vector is ``[mean (d entries), tril entries of L]`` where
    the lower triangle is stored row by row and the diagonal entries hold
    ``log L_ii``; the covariance is ``L @ L.T``.  The log transform keeps
    the domain all of R^n, so every finite vector is a valid point.
    """

    has_closed_form_fisher = True

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = int(dim)
        self.name = f"mvn_lcholesky:{dim}"
        self.param_dim = dim + dim * (dim + 1) // 2
        self.sample_dim = dim
        self._rows, self._cols = np.tril_indices(dim)

    def split(self, theta) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(mean, L)`` with the diagonal of L exponentiated."""
        theta = self.check_point(theta)
        mean = theta[: self.dim]
        L = np.zeros((self.dim, self.dim))
        L[self._rows, self._cols] = theta[self.dim :]
        diag = np.exp(np.diag(L).copy())
        np.fill_diagonal(L, diag)
        return mean, L

    def sample(self, theta, seed, count):
        mean, L = self.split(theta)
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((int(count), self.dim))
        return mean + z @ L.T

    def gaussian_moments(self, theta):
        mean, L = self.split(theta)
        return mean, L @ L.T

    def moment_derivs(self, theta):
        _, L = self.split(theta)
        d, rows, cols = self.dim, self._rows, self._cols
        # Parameter k moves L[rows[k], cols[k]] at rate L_ii on the (log)
        # diagonal and 1 elsewhere; dSigma = dL L^T + L dL^T.
        rate = np.where(rows == cols, L[rows, rows], 1.0)
        dLLt = np.zeros((self.param_dim, d, d))
        dLLt[d + np.arange(rows.size), rows, :] = rate[:, None] * L[:, cols].T
        return np.eye(self.param_dim, d), dLLt + dLLt.transpose(0, 2, 1)


class CategoricalSoftmax(Family):
    """Categorical distribution over ``k`` outcomes with softmax logits.

    Note the parameterization is redundant (adding a constant to all logits
    leaves the distribution unchanged), so the Fisher information is
    singular along the all-ones direction.
    """

    has_closed_form_fisher = True
    is_discrete = True

    def __init__(self, k: int):
        if k < 2:
            raise ValueError(f"k must be >= 2, got {k}")
        self.k = int(k)
        self.name = f"categorical_softmax:{k}"
        self.param_dim = self.k
        self.sample_dim = 1

    def probabilities(self, theta) -> np.ndarray:
        return softmax(self.check_point(theta))

    def _outcomes(self, x) -> np.ndarray:
        """Validate one outcome or a 1-D batch; return them as integers."""
        x = np.asarray(x)
        if x.ndim > 1 or not np.all((x == np.round(x)) & (x >= 0) & (x < self.k)):
            raise ValueError(f"{self.name}: outcome must be an integer in [0, {self.k}), got {x}")
        return x.astype(int)

    def log_density(self, theta, x):
        return log_softmax(self.check_point(theta))[self._outcomes(x)]

    def score(self, theta, x):
        p = self.probabilities(theta)
        return np.eye(self.k)[self._outcomes(x)] - p

    def sample(self, theta, seed, count):
        p = self.probabilities(theta)
        rng = np.random.default_rng(seed)
        return rng.choice(self.k, size=int(count), p=p)

    def fisher(self, theta):
        # For softmax logits the Fisher matrix is the softmax Jacobian.
        return self.softmax_jacobian(theta)

    def softmax_jacobian(self, theta) -> np.ndarray:
        """d(probabilities)/d(logits): ``diag(p) - p p^T`` (rank k - 1)."""
        p = self.probabilities(theta)
        return np.diag(p) - np.outer(p, p)

    def expectation(self, theta, fn, n_nodes: int = 0):
        return np.einsum("n,n...->...", self.probabilities(theta), fn(np.arange(self.k)))


def eq_covariance(inputs: np.ndarray, log_amp: float, log_ls: float) -> np.ndarray:
    """Exponentiated-quadratic covariance ``a^2 exp(-(x - x')^2 / (2 l^2))``."""
    x = np.asarray(inputs, dtype=float).ravel()
    amp2 = np.exp(2.0 * log_amp)
    ls2 = np.exp(2.0 * log_ls)
    sq = (x[:, None] - x[None, :]) ** 2
    return amp2 * np.exp(-0.5 * sq / ls2)


class GpPriorEq(Family):
    """Centered Gaussian process prior evaluated at fixed inputs.

    Parameters are ``(log amplitude, log length-scale, log noise)``; the
    covariance over the ``m`` inputs is the exponentiated-quadratic kernel
    plus ``exp(2 * log_noise)`` on the diagonal.  Samples are draws of the
    full m-dimensional output vector.
    """

    name = "gp_prior_eq"
    param_dim = 3
    has_closed_form_fisher = True

    def __init__(self, inputs):
        inputs = np.atleast_1d(np.asarray(inputs, dtype=float)).copy()
        if inputs.ndim != 1 or inputs.size < 1:
            raise ValueError("inputs must be a non-empty 1-D array")
        inputs.setflags(write=False)
        self.inputs = inputs
        self.sample_dim = int(inputs.size)
        self._sqdist = (inputs[:, None] - inputs[None, :]) ** 2

    def covariance(self, theta) -> np.ndarray:
        """Covariance over the inputs.  Raises :class:`NumericError` where
        extreme log-parameters overflow it, so that every operation built
        on it fails alike and line searches treat the point as infinitely
        bad instead of crashing."""
        log_amp, log_ls, log_noise = self.check_point(theta)
        with np.errstate(over="ignore"):
            K = eq_covariance(self.inputs, log_amp, log_ls)
            K = K + np.exp(2.0 * log_noise) * np.eye(self.sample_dim)
        if not np.all(np.isfinite(K)):
            raise NumericError(
                "covariance is not finite", diagnostics={"theta": np.asarray(theta, dtype=float)}
            )
        return K

    def covariance_derivs(self, theta) -> np.ndarray:
        """dK/dtheta_i for the three log-parameters, stacked (3, m, m)."""
        log_amp, log_ls, log_noise = self.check_point(theta)
        K_eq = eq_covariance(self.inputs, log_amp, log_ls)
        ls2 = np.exp(2.0 * log_ls)
        return np.stack([
            2.0 * K_eq,
            K_eq * (self._sqdist / ls2),
            2.0 * np.exp(2.0 * log_noise) * np.eye(self.sample_dim),
        ])

    def sample(self, theta, seed, count):
        K = self.covariance(theta)
        L = np.linalg.cholesky(K)
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((int(count), self.sample_dim))
        return z @ L.T

    def gaussian_moments(self, theta):
        return np.zeros(self.sample_dim), self.covariance(theta)

    def moment_derivs(self, theta):
        return np.zeros((self.param_dim, self.sample_dim)), self.covariance_derivs(theta)


class LinearlyReparameterized(Family):
    """View of a base family under the substitution ``theta = A @ xi``.

    Used to check that natural-gradient steps transform contravariantly
    under invertible linear reparameterization.
    """

    def __init__(self, base: Family, A):
        A = np.asarray(A, dtype=float)
        if A.shape != (base.param_dim, base.param_dim):
            raise ValueError(f"A must be {base.param_dim}x{base.param_dim}, got {A.shape}")
        if abs(np.linalg.det(A)) < 1e-12:
            raise ValueError("A must be invertible")
        self.base = base
        self.A = A.copy()
        self.A.setflags(write=False)
        self.name = f"reparam({base.name})"
        self.param_dim = base.param_dim
        self.sample_dim = base.sample_dim
        self.has_cdf = base.has_cdf
        self.has_closed_form_fisher = base.has_closed_form_fisher
        self.has_sampler = base.has_sampler
        self.is_discrete = base.is_discrete

    def _in_domain(self, xi):
        return self.base.in_domain(self.A @ xi)

    def log_density(self, xi, x):
        return self.base.log_density(self.A @ self.check_point(xi), x)

    def score(self, xi, x):
        return self.base.score(self.A @ self.check_point(xi), x) @ self.A

    def cdf(self, xi, x):
        return self.base.cdf(self.A @ self.check_point(xi), x)

    def quantile(self, xi, q):
        return self.base.quantile(self.A @ self.check_point(xi), q)

    def dcdf_dtheta(self, xi, x):
        return self.base.dcdf_dtheta(self.A @ self.check_point(xi), x) @ self.A

    def sample(self, xi, seed, count):
        return self.base.sample(self.A @ self.check_point(xi), seed, count)

    def fisher(self, xi):
        return self.A.T @ self.base.fisher(self.A @ self.check_point(xi)) @ self.A

    def gaussian_moments(self, xi):
        return self.base.gaussian_moments(self.A @ self.check_point(xi))

    def moment_derivs(self, xi):
        derivs = self.base.moment_derivs(self.A @ self.check_point(xi))
        if derivs is None:
            return None
        dmu, dcov = derivs
        return self.A.T @ dmu, np.tensordot(self.A.T, dcov, axes=1)

    def expectation(self, xi, fn, n_nodes: int = 256):
        return self.base.expectation(self.A @ self.check_point(xi), fn, n_nodes)


FAMILY_IDS = ["gaussian1d", "mvn_lcholesky[:dim]", "categorical_softmax[:k]", "gp_prior_eq"]


def get_family(identifier: str, inputs=None) -> Family:
    """Resolve a family by string identifier.

    ``mvn_lcholesky`` and ``categorical_softmax`` accept an optional
    ``:<int>`` suffix for the dimension / outcome count (defaults 2 and 3).
    ``gp_prior_eq`` needs the evaluation inputs, supplied by the caller.
    """
    name, _, arg = str(identifier).partition(":")
    try:
        if name == "gaussian1d":
            return Gaussian1D()
        if name == "mvn_lcholesky":
            return MultivariateNormalLogCholesky(int(arg) if arg else 2)
        if name == "categorical_softmax":
            return CategoricalSoftmax(int(arg) if arg else 3)
        if name == "gp_prior_eq":
            if inputs is None:
                raise ConfigError(
                    "gp_prior_eq requires evaluation inputs; supply a dataset "
                    "(see the GP benchmark configuration)"
                )
            return GpPriorEq(inputs)
    except ValueError as exc:
        raise ConfigError(f"invalid family identifier {identifier!r}: {exc}") from exc
    raise ConfigError(
        f"unknown family {identifier!r}; valid families: {', '.join(FAMILY_IDS)}"
    )
