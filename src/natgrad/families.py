"""Parametric distribution families.

A family maps a parameter vector to a probability distribution and exposes
the handful of operations the rest of the package needs: log-density and its
parameter gradient (the score), CDF/quantile and the parameter gradient of
the CDF for one-dimensional families, seeded sampling, and the Fisher
information.

All operations are pure functions of ``(theta, x)``, so instances can be
shared freely across threads.  Besides immutable configuration a family
holds one memo: its last three validated points, each with the family's
state at that point once an operation asked for it.  A Gaussian family's
state is a :class:`GaussianState` (mean, covariance, Cholesky factor and,
once asked for, the inverse and the moment derivatives), a categorical
family's the read-only probabilities.  A natural-gradient iteration asks
for the cost, its gradient and the metric at one point against one target,
and its line search for costs at trial points against the same target; with
three entries neither the iterate nor the target is evicted by a trial, so
each point is validated and factorized once.  An entry is a pure function
of the point, keyed on the exact shape and bytes of the parameter vector,
holds only read-only arrays and is swapped in with the rest of the memo as
one immutable tuple.  A thread therefore sees an old memo or a new one,
never a half-written one, and a race costs a recomputation, not a wrong
answer.

Parameter vectors are plain 1-D float arrays.  ``Family.check_point``
canonicalizes and validates them eagerly.  Every public operation validates
its point once, through :meth:`Family.point` or :meth:`Family.gaussian_state`,
which find a point already validated in the memo and otherwise call
``check_point`` and remember the result; so invalid parameters fail with
:class:`InvalidParameterError` rather than producing NaNs downstream, and
callers that hand a point from one layer to the next validate it once.

Array contract: ``log_density``, ``score``, ``cdf`` and ``dcdf_dtheta`` take
one sample point or a batch of them, and ``quantile`` one level or an array
of levels.  When ``sample_dim == 1`` a sample is a scalar and a batch has
shape ``(n,)``; otherwise a sample has shape ``(sample_dim,)`` and a batch
``(n, sample_dim)``.  An ``(n, sample_dim)`` array is a batch in either case.
A batch adds a leading axis ``n`` to the result: ``(n,)`` log-densities,
``(n, param_dim)`` scores.  Any other shape raises ``ValueError``.
Integrals over the samples of a family (Fisher matrices without a closed
form, f-divergences) use one rule, :meth:`Family.window_rule`:
Gauss-Legendre nodes over the quantile window of a 1-D continuous family,
the support ``0..k-1`` with unit weights of a categorical one, so its sums
are exact.  1-D transport integrates over quantile levels instead, on
``quadrature.unit_interval_grid``.
"""

from __future__ import annotations

import math
from abc import ABC
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtri, dtrtrs
from scipy.special import ndtr, ndtri

from .errors import CapabilityError, ConfigError, InvalidParameterError, NumericError
from .quadrature import (
    DEFAULT_TAIL_MASS,
    _read_only,
    composite_legendre,
    unit_interval_normal_scores,
)

__all__ = [
    "Dataset",
    "Family",
    "GaussianState",
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
# Points a family remembers: a trial, the iterate and the target.
MEMO_POINTS = 3


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


class GaussianState(NamedTuple):
    """A Gaussian family member at one validated point ``theta``.

    ``mean``, ``cov`` and its lower Cholesky factor ``chol`` are always
    set.  ``inv`` (the covariance inverse, from the factor) and the moment
    derivatives ``dmu`` of shape ``(param_dim, d)`` and ``dcov`` of shape
    ``(param_dim, d, d)`` are None until a caller asks for them: line-search
    trials need only the factor.  Every array is read-only.
    """

    theta: np.ndarray
    mean: np.ndarray
    cov: np.ndarray
    chol: np.ndarray
    inv: Optional[np.ndarray] = None
    dmu: Optional[np.ndarray] = None
    dcov: Optional[np.ndarray] = None

    @classmethod
    def factor(cls, theta: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> "GaussianState":
        """Factorize ``cov`` with LAPACK ``dpotrf``.

        Raises
        ------
        NumericError
            If the covariance is not finite or not numerically positive
            definite, as extreme log-parameters can make it; line searches
            then treat the point as infinitely bad.
        """
        if not np.isfinite(cov).all():
            raise NumericError("covariance is not finite", diagnostics={"theta": theta})
        chol, info = dpotrf(cov, lower=1, clean=1)
        if info != 0:
            raise NumericError(
                f"covariance is not positive definite: dpotrf info {info}",
                diagnostics={"theta": theta},
            )
        return cls(*_read_only(theta, mean, cov, chol))

    def with_derivs(self, dmu: np.ndarray, dcov: np.ndarray) -> "GaussianState":
        """This state plus the covariance inverse and the given derivatives."""
        # S^-1 = L^-T L^-1.  Not dpotri: with a multithreaded OpenBLAS its
        # threads keep spinning after the call, and a 30x30 dpotri followed by
        # numpy's eigh took 12 ms instead of 0.13 ms on two cores.
        chol_inv, _ = dtrtri(self.chol, lower=1)  # info flags a zero pivot; chol has none
        inv, dmu, dcov = _read_only(chol_inv.T @ chol_inv, dmu, dcov)
        return self._replace(inv=inv, dmu=dmu, dcov=dcov)


class Family(ABC):
    """A smoothly parameterized family of probability distributions.

    Subclasses set the class attributes below and implement at least
    ``log_density``, ``score`` and ``_in_domain``.  A Gaussian family
    implements ``_gaussian_state`` and ``_moment_derivs`` instead of
    ``log_density`` and ``score``; from those the base class derives the
    memoized :meth:`gaussian_state`, and from that the log-density, the
    score and the closed-form Fisher matrix.  Any other family gets its
    Fisher matrix from integrals on :meth:`window_rule`.  The base class has
    no numeric fallbacks: ``cdf``, ``quantile``, ``dcdf_dtheta``, ``sample``
    and the ``window_rule`` of a family with neither a quantile nor a finite
    support raise :class:`CapabilityError`, so each family implements what
    it supports in closed form.

    The memo holds the last ``MEMO_POINTS`` validated points, each with
    the family's state there once asked for, so a line-search trial evicts
    neither the iterate nor the target of a two-point cost.  Each point is
    validated once: :meth:`point` and :meth:`gaussian_state` call
    :meth:`check_point` only for a point the memo does not hold, and hand
    back the memo's read-only copy, which callers pass on to the next layer.
    A memo hit runs no arithmetic a miss would not run, so hits and misses
    return the same bits.

    Sample-point operations follow the module's array contract; the
    quadrature routes pass batches to ``log_density``, ``score`` and ``dcdf_dtheta``.

    Attributes
    ----------
    name : str
        Registry identifier.
    param_dim : int
        Length of the parameter vector.
    sample_dim : int
        Dimension of one sample (1 means scalar samples).
    has_cdf : bool
        Whether cdf/quantile/dcdf_dtheta are available (1-D families only),
        and with them the quantile-window :meth:`window_rule`.
    """

    name: str = ""
    param_dim: int = 0
    sample_dim: int = 1
    has_cdf: bool = False
    # ((shape, bytes) of theta as given, validated read-only theta, state or
    # None), most recent first, at most MEMO_POINTS.
    _memo: tuple = ()

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
        # np.isfinite(arr).all() at a sixth of the cost on short vectors
        if not all(map(math.isfinite, arr.tolist())):
            raise InvalidParameterError(f"{self.name}: parameters must be finite, got {arr}")
        if not self._in_domain(arr):
            raise InvalidParameterError(f"{self.name}: parameters outside domain: {arr}")
        return arr.copy()

    def point(self, theta) -> np.ndarray:
        """``theta`` validated as by :meth:`check_point`, as a read-only
        array: the memo's copy when it holds the point, else validated now
        and remembered."""
        return self._remember(theta)[1]

    def forget(self) -> None:
        """Empty the memo, so the operations that follow start cold;
        ``optimize`` does so before each run."""
        self._memo = ()

    def _remember(self, theta, build=None) -> tuple:
        """The memo entry ``(key, point, state)`` of ``theta``, made the most
        recent.  A point the memo does not hold is validated and enters with
        state None; ``build(point, state)``, when given, returns the state
        to keep.  The memo's own point, handed back, is found by identity."""
        memo = self._memo
        for at, entry in enumerate(memo):
            if entry[1] is theta:
                break
        else:
            arr = np.atleast_1d(np.asarray(theta, dtype=float))
            key = (arr.shape, arr.tobytes())
            for at, entry in enumerate(memo):
                if entry[0] == key:
                    break
            else:
                point = self.check_point(arr)
                point.setflags(write=False)
                at, entry = None, (key, point, None)
        if build is not None:
            state = build(entry[1], entry[2])
            if state is not entry[2]:
                entry = (entry[0], entry[1], state)
        if at != 0 or entry is not memo[0]:
            rest = memo[:MEMO_POINTS - 1] if at is None else memo[:at] + memo[at + 1:]
            self._memo = (entry,) + rest
        return entry

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
        families get it from the Cholesky factor of :meth:`gaussian_state`;
        others implement it."""
        state = self.gaussian_state(theta)
        if state is None:
            raise NotImplementedError(f"{self.name}: log_density is not implemented")
        xs, single = self._check_x(x)
        L = state.chol
        w, _ = dtrtrs(L, (xs - state.mean).T, lower=1)  # info flags a zero pivot; L has none
        maha = np.einsum("ij,ij->j", w, w)  # squared whitened residuals, one per sample
        out = -0.5 * len(L) * LOG_2PI - np.sum(np.log(np.diag(L))) - 0.5 * maha
        return out[0] if single else out

    def score(self, theta, x) -> np.ndarray:
        """Gradient of ``log_density`` with respect to the parameters.

        Gaussian families get the closed form
        ``dmu_i^T w - 1/2 tr(S^-1 dS_i) + 1/2 w^T dS_i w`` with
        ``w = S^-1 (x - mu)`` from :meth:`gaussian_state`; others implement it.
        """
        state = self.gaussian_state(theta, derivs=True)
        if state is None:
            raise NotImplementedError(f"{self.name}: score is not implemented")
        xs, single = self._check_x(x)
        w = (xs - state.mean) @ state.inv
        dcov = state.dcov
        out = (
            w @ state.dmu.T
            - 0.5 * dcov.reshape(len(dcov), -1) @ state.inv.ravel()
            + 0.5 * np.sum((w @ dcov) * w, axis=-1).T
        )
        return out[0] if single else out

    def cdf(self, theta, x):
        """Cumulative distribution function (1-D families only)."""
        raise CapabilityError(f"{self.name}: cdf is not available")

    def quantile(self, theta, q):
        """Inverse CDF at a level or an array of levels (1-D families only);
        a level not strictly inside (0, 1) raises ``ValueError``."""
        raise CapabilityError(f"{self.name}: quantile is not available")

    def dcdf_dtheta(self, theta, x) -> np.ndarray:
        """Gradient of the CDF in the parameters at fixed x (1-D families only)."""
        raise CapabilityError(f"{self.name}: dcdf_dtheta is not available")

    def sample(self, theta, seed: int, count: int) -> np.ndarray:
        """Draw ``count`` samples; deterministic for fixed ``(theta, seed)``."""
        raise CapabilityError(f"{self.name}: no sampler available")

    def fisher(self, theta) -> np.ndarray:
        """Fisher information matrix ``E[s s^T]`` of the score ``s``.

        Gaussian families use the closed form
        ``dmu_i^T S^-1 dmu_j + 1/2 tr(S^-1 dS_i S^-1 dS_j)``; the others sum
        the score outer product against the density on :meth:`window_rule`,
        from one batched score call at its nodes.

        Raises
        ------
        CapabilityError
            If the family is not Gaussian and has no :meth:`window_rule`.
        """
        state = self.gaussian_state(theta, derivs=True)
        if state is None:
            nodes, weights = self.window_rule([theta])
            mass = weights * np.exp(self.log_density(theta, nodes))
            s = self.score(theta, nodes)
            return np.einsum("n,n...->...", mass, s[:, :, None] * s[:, None, :])
        sens = state.inv @ state.dcov
        n = len(sens)
        trace_term = sens.reshape(n, -1) @ sens.transpose(0, 2, 1).reshape(n, -1).T
        return state.dmu @ state.inv @ state.dmu.T + 0.5 * trace_term

    def gaussian_state(self, theta, derivs: bool = False) -> Optional[GaussianState]:
        """The memoized :class:`GaussianState` at ``theta``, or None when the
        family is not Gaussian.  ``derivs=True`` also fills in the covariance
        inverse and the moment derivatives.

        Lets similarity measures with Gaussian closed forms (KL, squared
        2-Wasserstein) and the Gaussian metrics recognize the family
        without type checks.

        Raises
        ------
        InvalidParameterError
            As :meth:`check_point`, for a point not in the memo.
        NumericError
            Where the covariance is not finite or not positive definite.
        """
        def build(point, state):
            if state is None:
                state = self._gaussian_state(point)
            if derivs and state is not None and state.dcov is None:
                state = state.with_derivs(*self._moment_derivs(state))
            return state

        return self._remember(theta, build)[2]

    def _gaussian_state(self, theta: np.ndarray) -> Optional[GaussianState]:
        """The state at a validated ``theta``, built without the memo; None
        for a family that is not Gaussian."""
        return None

    def _moment_derivs(self, state: GaussianState) -> tuple[np.ndarray, np.ndarray]:
        """``(dmu, dcov)`` at the point of ``state``, of a Gaussian family."""
        raise NotImplementedError

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

    def window_rule(self, thetas) -> tuple[np.ndarray, np.ndarray]:
        """``(nodes, weights)`` of the one sample-space rule of Fisher
        matrices without a closed form and f-divergences, fit to the points
        ``thetas``.

        For a 1-D continuous family: composite Gauss-Legendre, 8 equal
        panels of 32 nodes, over the union of the quantile windows
        ``[quantile(delta), quantile(1 - delta)]`` of the points,
        ``delta = DEFAULT_TAIL_MASS``.

        Raises
        ------
        CapabilityError
            If the family has neither a quantile nor an override.
        """
        if not self.has_cdf:
            raise CapabilityError(f"{self.name}: no sample-space rule for integrals")
        levels = (DEFAULT_TAIL_MASS, 1.0 - DEFAULT_TAIL_MASS)
        ends = np.array([self.quantile(theta, levels) for theta in thetas])
        return composite_legendre(ends[:, 0].min(), ends[:, 1].max())


class Gaussian1D(Family):
    """Normal distribution on the real line, parameters ``(mu, sigma)``."""

    name = "gaussian1d"
    param_dim = 2
    sample_dim = 1
    has_cdf = True

    def _in_domain(self, theta):
        return theta[1] > 0.0

    def _standardize(self, theta, x):
        """``(sigma, z, single)`` with ``z = (x - mu) / sigma`` of shape (n,)."""
        mu, sigma = self.point(theta)
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
        mu, sigma = self.point(theta)
        levels, z = unit_interval_normal_scores()
        q = np.asarray(q, dtype=float)
        if q is not levels:  # the transport grid's scores are cached
            if np.any(~((q > 0.0) & (q < 1.0))):
                raise ValueError(f"quantile level must be in (0, 1), got {q}")
            z = ndtri(q)
        out = mu + sigma * z
        return float(out) if out.ndim == 0 else out

    def dcdf_dtheta(self, theta, x):
        # d/dmu Phi((x-mu)/sigma) = -pdf(x); d/dsigma = -z * pdf(x)
        sigma, z, single = self._standardize(theta, x)
        pdf = np.exp(-0.5 * z * z) / (np.sqrt(2.0 * np.pi) * sigma)
        out = np.stack([-pdf, -z * pdf], axis=-1)
        return out[0] if single else out

    def sample(self, theta, seed, count):
        mu, sigma = self.point(theta)
        rng = np.random.default_rng(seed)
        return mu + sigma * rng.standard_normal(int(count))

    def _gaussian_state(self, theta):
        mu, sigma = theta
        return GaussianState.factor(theta, np.array([mu]), np.array([[sigma * sigma]]))

    def _moment_derivs(self, state):
        return np.array([[1.0], [0.0]]), np.array([[[0.0]], [[2.0 * state.theta[1]]]])


class MultivariateNormalLogCholesky(Family):
    """Multivariate normal parameterized by mean and a log-Cholesky factor.

    The parameter vector is ``[mean (d entries), tril entries of L]`` where
    the lower triangle is stored row by row and the diagonal entries hold
    ``log L_ii``; the covariance is ``L @ L.T``.  The log transform keeps
    the domain all of R^n, so every finite vector is a valid point.
    """

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
        return self._split(self.point(theta))

    def _split(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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

    def _gaussian_state(self, theta):
        mean, L = self._split(theta)
        return GaussianState.factor(theta, mean, L @ L.T)

    def _moment_derivs(self, state):
        _, L = self._split(state.theta)
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
    singular along the all-ones direction.  The memo's state at a point is
    its read-only probabilities.
    """

    def __init__(self, k: int):
        if k < 2:
            raise ValueError(f"k must be >= 2, got {k}")
        self.k = int(k)
        self.name = f"categorical_softmax:{k}"
        self.param_dim = self.k
        self.sample_dim = 1
        self._support = _read_only(np.arange(self.k), np.ones(self.k))

    def probabilities(self, theta) -> np.ndarray:
        """The softmax of the logits ``theta``, read-only, from the memo."""
        return self._remember(theta, _softmax_state)[2]

    def gaussian_state(self, theta, derivs=False):
        """None, after validating ``theta``: the family is not Gaussian."""
        self.point(theta)
        return None

    def _outcomes(self, x) -> np.ndarray:
        """Validate one outcome or a 1-D batch; return them as integers."""
        x = np.asarray(x)
        if x.ndim > 1 or not np.all((x == np.round(x)) & (x >= 0) & (x < self.k)):
            raise ValueError(f"{self.name}: outcome must be an integer in [0, {self.k}), got {x}")
        return x.astype(int)

    def log_density(self, theta, x):
        shifted = self.point(theta)
        shifted = shifted - shifted.max()
        return (shifted - np.log(np.exp(shifted).sum()))[self._outcomes(x)]

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

    def window_rule(self, thetas):
        """The support ``0..k-1`` with unit weights, so integrals are exact sums."""
        return self._support


def _softmax_state(logits: np.ndarray, p: Optional[np.ndarray]) -> np.ndarray:
    """The memo state of a categorical point: its read-only probabilities.
    Softmax and log-softmax (in ``log_density``) are written out as
    ``scipy.special`` computes them for finite logits, without its array-API
    dispatch, which costs more than the arithmetic on a few logits."""
    if p is not None:
        return p
    e = np.exp(logits - logits.max())
    return _read_only(e / e.sum())[0]


def eq_covariance(inputs: np.ndarray, log_amp: float, log_ls: float) -> np.ndarray:
    """Exponentiated-quadratic covariance ``a^2 exp(-(x - x')^2 / (2 l^2))``."""
    x = np.asarray(inputs, dtype=float).ravel()
    return _eq_kernel((x[:, None] - x[None, :]) ** 2, log_amp, log_ls)


def _eq_kernel(sqdist: np.ndarray, log_amp: float, log_ls: float) -> np.ndarray:
    """The exponentiated-quadratic kernel on squared input distances."""
    return np.exp(2.0 * log_amp) * np.exp(-0.5 * sqdist / np.exp(2.0 * log_ls))


class GpPriorEq(Family):
    """Centered Gaussian process prior evaluated at fixed inputs.

    Parameters are ``(log amplitude, log length-scale, log noise)``; the
    covariance over the ``m`` inputs is the exponentiated-quadratic kernel
    plus ``exp(2 * log_noise)`` on the diagonal.  Samples are draws of the
    full m-dimensional output vector.
    """

    name = "gp_prior_eq"
    param_dim = 3

    def __init__(self, inputs):
        inputs = np.atleast_1d(np.asarray(inputs, dtype=float)).copy()
        if inputs.ndim != 1 or inputs.size < 1:
            raise ValueError("inputs must be a non-empty 1-D array")
        inputs.setflags(write=False)
        self.inputs = inputs
        self.sample_dim = int(inputs.size)
        self._sqdist = (inputs[:, None] - inputs[None, :]) ** 2

    def sample(self, theta, seed, count):
        # numpy's factor, not the state's: the two LAPACK builds can round
        # differently, and seeded draws (the benchmark datasets) must not move.
        L = np.linalg.cholesky(self.gaussian_state(theta).cov)
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((int(count), self.sample_dim))
        return z @ L.T

    def _gaussian_state(self, theta):
        # Extreme log-parameters overflow K; the state then raises
        # NumericError, so every operation at the point fails alike and line
        # searches treat it as infinitely bad instead of crashing.
        log_amp, log_ls, log_noise = theta
        with np.errstate(over="ignore"):
            K = _eq_kernel(self._sqdist, log_amp, log_ls)
            K = K + np.exp(2.0 * log_noise) * np.eye(self.sample_dim)
        return GaussianState.factor(theta, np.zeros(self.sample_dim), K)

    def _moment_derivs(self, state):
        log_amp, log_ls, log_noise = state.theta
        # The kernel part of the covariance, exactly: the noise sits on the
        # diagonal only, where the kernel is exactly a^2.
        K_eq = state.cov.copy()
        np.fill_diagonal(K_eq, np.exp(2.0 * log_amp))
        return np.zeros((self.param_dim, self.sample_dim)), np.stack([
            2.0 * K_eq,
            K_eq * (self._sqdist / np.exp(2.0 * log_ls)),
            2.0 * np.exp(2.0 * log_noise) * np.eye(self.sample_dim),
        ])


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

    def _in_domain(self, xi):
        return self.base.in_domain(self.A @ xi)

    def forget(self):
        super().forget()
        self.base.forget()

    def log_density(self, xi, x):
        return self.base.log_density(self.A @ self.point(xi), x)

    def score(self, xi, x):
        return self.base.score(self.A @ self.point(xi), x) @ self.A

    def cdf(self, xi, x):
        return self.base.cdf(self.A @ self.point(xi), x)

    def quantile(self, xi, q):
        return self.base.quantile(self.A @ self.point(xi), q)

    def dcdf_dtheta(self, xi, x):
        return self.base.dcdf_dtheta(self.A @ self.point(xi), x) @ self.A

    def sample(self, xi, seed, count):
        return self.base.sample(self.A @ self.point(xi), seed, count)

    def _gaussian_state(self, xi):
        base = self.base.gaussian_state(self.A @ xi)
        if base is None:
            return None
        return GaussianState(*_read_only(xi), base.mean, base.cov, base.chol)

    def _moment_derivs(self, state):
        base = self.base.gaussian_state(self.A @ state.theta, derivs=True)
        return self.A.T @ base.dmu, np.tensordot(self.A.T, base.dcov, axes=1)

    def window_rule(self, xis):
        return self.base.window_rule([self.A @ xi for xi in xis])


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
