"""Parametric distribution families.

A family maps a parameter vector to a probability distribution and exposes
the handful of operations the rest of the package needs: log-density and its
parameter gradient (the score), CDF/quantile and the parameter gradient of
the CDF for one-dimensional families, seeded sampling, and the Fisher
information.

A family holds immutable configuration only, so instances can be shared
freely across threads.  What is computed at one parameter vector lives on a
:class:`Point`, which :meth:`Family.point` validates once and which builds
the family's state there when first asked for it: a :class:`GaussianState`
for a Gaussian family, a :class:`CategoricalState` for a categorical one;
and a 1-D point's quantiles on the transport grid and, once asked for,
their velocities (:meth:`Point.transport`).  Every operation takes a
point or a plain array; anything but a point of the same family is
validated and built fresh, so invalid parameters fail with
:class:`InvalidParameterError` rather than producing NaNs downstream, and a
caller that hands one vector to several operations wraps it once.

Array contract: ``log_density``, ``score``, ``cdf`` and ``dcdf_dtheta`` take
one sample point or a batch of them, and ``quantile`` one level or an array
of levels.  When ``sample_dim == 1`` a sample is a scalar and a batch has
shape ``(n,)``; otherwise a sample has shape ``(sample_dim,)`` and a batch
``(n, sample_dim)``.  An ``(n, sample_dim)`` array is a batch in either case.
A batch adds a leading axis ``n`` to the result: ``(n,)`` log-densities,
``(n, param_dim)`` scores.  Any other shape raises ``ValueError``.
Every Fisher matrix is a closed form.  A point state pulls derivatives in
its distribution back to ``theta`` (``GaussianState.pull``,
``CategoricalState.pull``), so the closed-form similarities read the two
distributions and leave the chain rule to the state.  1-D transport
integrates over quantile levels instead, on ``quadrature.unit_interval_grid``.
A family is one parameterization; the same family in coordinates
``theta = A xi`` is the chain rule on the objective and its metric
(``optimizer.linear_reparameterization``), not a family of its own.
"""

from __future__ import annotations

import math
import numbers
import re
from abc import ABC
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtri, dtrtrs
from scipy.special import ndtr, ndtri

from .errors import CapabilityError, ConfigError, InvalidParameterError, NumericError
from .quadrature import _read_only, unit_interval_grid, unit_interval_normal_scores

__all__ = [
    "Dataset",
    "Family",
    "GaussianState",
    "CategoricalState",
    "Point",
    "Gaussian1D",
    "MultivariateNormalLogCholesky",
    "CategoricalSoftmax",
    "GpPriorEq",
    "check_setting",
    "eq_covariance",
    "get_family",
    "resolve_id",
    "FAMILY_IDS",
]

LOG_2PI = float(np.log(2.0 * np.pi))
_UNBUILT = object()  # the state of a point that has not been asked for one


def check_setting(name: str, value, least: Optional[int] = None) -> None:
    """Refuse a numeric setting with a ``ValueError`` that names it: with
    ``least``, anything but an integer ``>= least``; without, anything but
    a finite positive real.  A bool, a string or None is never a number."""
    if least is None:
        ok, want = isinstance(value, numbers.Real) and 0.0 < value < math.inf, "finite and positive"
    else:
        ok, want = isinstance(value, numbers.Integral) and value >= least, f"an integer >= {least}"
    if isinstance(value, bool) or not ok:
        raise ValueError(f"{name} must be {want}, got {value!r}")


@dataclass(frozen=True)
class Dataset:
    """Observed regression data: paired inputs and targets plus the seed
    used to generate them (kept for provenance in benchmark outputs)."""

    inputs: np.ndarray
    targets: np.ndarray
    seed: int

    def __post_init__(self):
        # Copies, so the caller's arrays stay writeable and cannot change the
        # dataset afterwards.
        inputs = np.array(self.inputs, dtype=float, ndmin=1)
        targets = np.array(self.targets, dtype=float, ndmin=1)
        if inputs.shape[0] != targets.shape[0]:
            raise ValueError(
                f"inputs and targets must have equal length, got {inputs.shape[0]} and {targets.shape[0]}"
            )
        if not (np.isfinite(inputs).all() and np.isfinite(targets).all()):
            raise ValueError("inputs and targets must be finite")
        inputs.setflags(write=False)
        targets.setflags(write=False)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)


class GaussianState(NamedTuple):
    """A Gaussian family member at one validated point ``theta``.

    ``mean``, ``cov``, its lower Cholesky factor ``chol`` and ``log_det``,
    ``log|cov|``, are always set.  ``inv`` (the covariance inverse, from the
    factor) and the moment derivatives ``dmu`` of shape ``(param_dim, d)``
    and ``dcov`` of shape ``(param_dim, d, d)`` are None until a caller asks
    for them: line-search trials need only the factor.  Every array is
    read-only.  ``memo`` is the one slot that is written: a one-item list
    that keeps the latest alpha-integral taken from this state, with the
    factor of its weighted covariance (``similarity._alpha_integral``); the
    state ``with_derivs`` makes shares it.
    """

    theta: np.ndarray
    mean: np.ndarray
    cov: np.ndarray
    chol: np.ndarray
    log_det: float
    memo: list
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
        # dpotrf returns info 0 for [[nan]], [[inf]] and diag(inf, 1): this
        # check is what rejects such covariances.
        if not np.isfinite(cov).all():
            raise NumericError("covariance is not finite", diagnostics={"theta": theta})
        chol, info = dpotrf(cov, lower=1, clean=1)
        if info != 0:
            raise NumericError(
                f"covariance is not positive definite: dpotrf info {info}",
                diagnostics={"theta": theta},
            )
        return cls(*_read_only(theta, mean, cov, chol), _log_det(chol), [None])

    def with_derivs(self, dmu: np.ndarray, dcov: np.ndarray) -> "GaussianState":
        """This state plus the covariance inverse and the given derivatives."""
        # S^-1 = L^-T L^-1.  Not dpotri: with a multithreaded OpenBLAS its
        # threads keep spinning after the call, and a 30x30 dpotri followed by
        # numpy's eigh took 12 ms instead of 0.13 ms on two cores.
        chol_inv, _ = dtrtri(self.chol, lower=1)  # info flags a zero pivot; chol has none
        inv, dmu, dcov = _read_only(chol_inv.T @ chol_inv, dmu, dcov)
        return self._replace(inv=inv, dmu=dmu, dcov=dcov)

    def pull(self, derivs: tuple) -> np.ndarray:
        """The gradient in ``theta``, ``dmu_i . d_mean + tr(d_cov dS_i)``, of a
        function whose derivatives in the mean and covariance here are
        ``derivs = (d_mean, d_cov)``; the state needs its moment derivatives."""
        d_mean, d_cov = derivs
        return self.dmu @ d_mean + self.dcov.reshape(len(self.dcov), -1) @ d_cov.ravel()


def _log_det(chol: np.ndarray) -> float:
    """``log|S|`` from the lower Cholesky factor of ``S``."""
    return 2.0 * float(np.log(chol.diagonal()).sum())


class CategoricalState(NamedTuple):
    """A categorical family member at one validated point: its read-only
    probabilities and log-probabilities on the outcomes ``0..k-1``."""

    probs: np.ndarray
    logs: np.ndarray

    def pull(self, w: np.ndarray) -> np.ndarray:
        """The gradient in the logits of a function whose derivatives in
        ``log p`` are ``w``: ``d log p_i / d theta_j = delta_ij - p_j``."""
        return w @ (np.eye(len(self.probs)) - self.probs)


class Point:
    """A parameter vector validated by ``family`` (see :meth:`Family.point`).

    ``theta`` is the read-only array, also ``np.asarray(point)``.
    :meth:`state` and :meth:`transport` build the family's state here on
    first use and keep it; threads that race on one point may each build
    it, and all read the same bits.  A build that raises keeps nothing, so
    it raises again.
    """

    __slots__ = ("family", "theta", "_state", "_transport")

    def __init__(self, family: "Family", theta: np.ndarray):
        self.family, self.theta = family, theta
        self._state, self._transport = _UNBUILT, None

    def __array__(self, dtype=None, copy=None):
        return np.array(self.theta, dtype=dtype, copy=copy)

    def state(self, derivs: bool = False):
        """The family's state here, the distribution that closed-form
        similarities read: a :class:`GaussianState` (``derivs=True`` fills in
        its inverse and moment derivatives), a :class:`CategoricalState`, or
        None for a family with neither."""
        state = self._state
        if state is _UNBUILT:
            # An overflowing covariance is GaussianState.factor's NumericError.
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                state = self._state = self.family._build_state(self.theta)
        if derivs and isinstance(state, GaussianState) and state.dcov is None:
            state = self._state = state.with_derivs(*self.family._moment_derivs(state))
        return state

    def transport(self, velocities: bool = False) -> tuple:
        """``(Q, dQ/dtheta)``, read-only: the quantiles on the levels of
        ``unit_interval_grid()`` and, with ``velocities``, their parameter
        derivatives, one row per level (else None), of a 1-D family."""
        state = self._transport
        if state is None:
            state = self._transport = (self.family._grid_quantiles(self), None)
        if velocities and state[1] is None:
            state = self._transport = (state[0], self.family._quantile_velocities(self, state[0]))
        return state


class Family(ABC):
    """A smoothly parameterized family of probability distributions.

    Subclasses set the class attributes below and implement at least
    ``log_density``, ``score`` and ``_in_domain``.  A Gaussian family
    implements ``_build_state``, which returns its :class:`GaussianState`,
    and ``_moment_derivs`` instead of ``log_density`` and ``score``; from
    those the base class derives :meth:`gaussian_state`, the state each
    :class:`Point` builds once, and from that the log-density, the score,
    samples and the Fisher matrix.  A categorical family builds a
    :class:`CategoricalState` instead.  The base class has no numeric
    fallbacks: ``cdf``, ``quantile`` and ``dcdf_dtheta``, and on a family
    that is not Gaussian ``log_density``, ``score``, ``sample`` and
    ``fisher`` unless it implements them, raise :class:`CapabilityError`.

    An instance is never written to after ``__init__``.  Every operation
    validates its argument once, through :meth:`point`, and passes the
    :class:`Point` on to the next layer; a point's state runs the same
    arithmetic whichever operation builds it.

    Sample-point operations follow the module's array contract; the
    transport grid passes batches to ``log_density`` and ``dcdf_dtheta``.

    Attributes
    ----------
    name : str
        Registry identifier.
    param_dim : int
        Length of the parameter vector.
    sample_dim : int
        Dimension of one sample (1 means scalar samples).
    """

    name: str = ""
    param_dim: int = 0
    sample_dim: int = 1

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
            raise InvalidParameterError(f"{self.name}: parameters must be finite, got {arr.tolist()}")
        if not self._in_domain(arr):
            raise InvalidParameterError(f"{self.name}: parameters outside domain: {arr.tolist()}")
        return arr.copy()

    def point(self, theta) -> Point:
        """``theta`` as a validated read-only :class:`Point`: a point of this
        family as it is, anything else validated by :meth:`check_point`."""
        if isinstance(theta, Point) and theta.family is self:
            return theta
        arr = self.check_point(theta)
        arr.setflags(write=False)
        return Point(self, arr)

    def _in_domain(self, theta: np.ndarray) -> bool:
        return True

    # -- core operations -------------------------------------------------------

    def log_density(self, theta, x):
        """Log-density (or log-mass) at sample point ``x``.  Gaussian
        families get it from the Cholesky factor of :meth:`gaussian_state`;
        others implement it."""
        state = self.gaussian_state(theta)
        xs, single = self._check_x(x)
        L = state.chol
        w, _ = dtrtrs(L, (xs - state.mean).T, lower=1)  # info flags a zero pivot; L has none
        maha = np.einsum("ij,ij->j", w, w)  # squared whitened residuals, one per sample
        out = -0.5 * len(L) * LOG_2PI - 0.5 * state.log_det - 0.5 * maha
        return out[0] if single else out

    def score(self, theta, x) -> np.ndarray:
        """Gradient of ``log_density`` with respect to the parameters.

        Gaussian families get the closed form
        ``dmu_i^T w - 1/2 tr(S^-1 dS_i) + 1/2 w^T dS_i w`` with
        ``w = S^-1 (x - mu)`` from :meth:`gaussian_state`; others implement it.
        """
        state = self.gaussian_state(theta, derivs=True)
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
        """Draw ``count`` samples; deterministic for fixed ``(theta, seed)``.
        A Gaussian family draws ``mean + z L^T``, ``L`` numpy's factor of the
        covariance: seeded draws (the benchmark datasets) must not move."""
        state = self.gaussian_state(theta)
        z = np.random.default_rng(seed).standard_normal((int(count), self.sample_dim))
        out = state.mean + z @ np.linalg.cholesky(state.cov).T
        return out[:, 0] if self.sample_dim == 1 else out

    def fisher(self, theta) -> np.ndarray:
        """Fisher information matrix ``E[s s^T]`` of the score ``s``: the
        Gaussian closed form ``dmu_i^T S^-1 dmu_j + 1/2 tr(S^-1 dS_i S^-1 dS_j)``,
        else the family's own (the softmax Jacobian); any other family raises
        the :class:`CapabilityError` of :meth:`gaussian_state`."""
        state = self.gaussian_state(theta, derivs=True)
        sens = state.inv @ state.dcov
        n = len(sens)
        trace_term = sens.reshape(n, -1) @ sens.transpose(0, 2, 1).reshape(n, -1).T
        return state.dmu @ state.inv @ state.dmu.T + 0.5 * trace_term

    def gaussian_state(self, theta, derivs: bool = False) -> GaussianState:
        """The :class:`GaussianState` the point ``theta`` keeps, which the
        family's own operations and the Gaussian metrics read.  ``derivs=True``
        also fills in the covariance inverse and the moment derivatives.

        Raises
        ------
        CapabilityError
            If the family is not Gaussian.
        InvalidParameterError
            As :meth:`check_point`, for anything but a point of this family.
        NumericError
            Where the covariance is not finite or not positive definite.
        """
        state = self.point(theta).state(derivs)
        if not isinstance(state, GaussianState):
            raise CapabilityError(f"{self.name} is not a Gaussian family")
        return state

    def _build_state(self, theta: np.ndarray):
        """The state :meth:`Point.state` builds at ``theta``; None: it keeps none."""
        return None

    def _moment_derivs(self, state: GaussianState) -> tuple[np.ndarray, np.ndarray]:
        """``(dmu, dcov)`` at the point of ``state``, of a Gaussian family."""
        raise NotImplementedError

    def _grid_quantiles(self, point: Point) -> np.ndarray:
        """The quantiles of ``point`` on the levels of ``unit_interval_grid()``."""
        return _read_only(self.quantile(point, unit_interval_grid()[0]))[0]

    def _quantile_velocities(self, point: Point, q: np.ndarray) -> np.ndarray:
        """``dQ/dtheta = -dF/dtheta / rho`` at the quantiles ``q`` of ``point``."""
        return _read_only(-self.dcdf_dtheta(point, q) / np.exp(self.log_density(point, q))[:, None])[0]

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


class Gaussian1D(Family):
    """Normal distribution on the real line, parameters ``(mu, sigma)``."""

    name = "gaussian1d"
    param_dim = 2
    sample_dim = 1

    def _in_domain(self, theta):
        return theta[1] > 0.0

    def _standardize(self, theta, x):
        """``(z, xs, single)``: ``z = (x - mu) / sigma`` (n,), ``xs`` an (n, 1) batch."""
        mu, sigma = self.point(theta).theta
        xs, single = self._check_x(x)
        return (xs[:, 0] - mu) / sigma, xs, single

    def cdf(self, theta, x):
        z, _, single = self._standardize(theta, x)
        out = ndtr(z)
        return float(out[0]) if single else out

    def quantile(self, theta, q):
        mu, sigma = self.point(theta).theta
        q = np.asarray(q, dtype=float)
        if np.any(~((q > 0.0) & (q < 1.0))):
            raise ValueError(f"quantile level must be in (0, 1), got {q}")
        out = mu + sigma * ndtri(q)
        return float(out) if out.ndim == 0 else out

    def dcdf_dtheta(self, theta, x):
        # d/dmu Phi((x-mu)/sigma) = -pdf(x); d/dsigma = -z * pdf(x)
        point = self.point(theta)
        z, xs, single = self._standardize(point, x)
        pdf = np.exp(self.log_density(point, xs))
        out = np.stack([-pdf, -z * pdf], axis=-1)
        return out[0] if single else out

    def _build_state(self, theta):
        mu, sigma = theta
        return GaussianState.factor(theta, np.array([mu]), np.array([[sigma * sigma]]))

    def _moment_derivs(self, state):
        return np.array([[1.0], [0.0]]), np.array([[[0.0]], [[2.0 * state.theta[1]]]])

    def _grid_quantiles(self, point):
        mu, sigma = point.theta
        return _read_only(mu + sigma * unit_interval_normal_scores()[0])[0]

    def _quantile_velocities(self, point, q):
        return unit_interval_normal_scores()[1]  # Q = mu + sigma z: (1, z), shared


class MultivariateNormalLogCholesky(Family):
    """Multivariate normal parameterized by mean and a log-Cholesky factor.

    The parameter vector is ``[mean (d entries), tril entries of L]`` where
    the lower triangle is stored row by row and the diagonal entries hold
    ``log L_ii``; the covariance is ``L @ L.T``.  The log transform keeps
    the domain all of R^n, so every finite vector is a valid point.
    """

    def __init__(self, dim: int):
        check_setting("dim", dim, least=1)
        self.dim = int(dim)
        self.name = f"mvn_lcholesky:{dim}"
        self.param_dim = dim + dim * (dim + 1) // 2
        self.sample_dim = dim
        self._rows, self._cols = np.tril_indices(dim)

    def split(self, theta) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(mean, L)`` with the diagonal of L exponentiated."""
        return self._split(self.point(theta).theta)

    def _split(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mean = theta[: self.dim]
        L = np.zeros((self.dim, self.dim))
        L[self._rows, self._cols] = theta[self.dim :]
        diag = np.exp(np.diag(L).copy())
        np.fill_diagonal(L, diag)
        return mean, L

    def _build_state(self, theta):
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
    singular along the all-ones direction.  The state a point keeps is a
    :class:`CategoricalState`.
    """

    def __init__(self, k: int):
        check_setting("k", k, least=2)
        self.k = int(k)
        self.name = f"categorical_softmax:{k}"
        self.param_dim = self.k
        self.sample_dim = 1

    def probabilities(self, theta) -> np.ndarray:
        """The softmax of the logits ``theta``, read-only, kept on the point."""
        return self.point(theta).state().probs

    def _outcomes(self, x) -> np.ndarray:
        """Validate one outcome or a 1-D batch; return them as integers."""
        x = np.asarray(x)
        if x.ndim > 1 or not np.all((x == np.round(x)) & (x >= 0) & (x < self.k)):
            raise ValueError(f"{self.name}: outcome must be an integer in [0, {self.k}), got {x}")
        return x.astype(int)

    def log_density(self, theta, x):
        return self.point(theta).state().logs[self._outcomes(x)]

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

    def _build_state(self, theta):
        """The :class:`CategoricalState` of the logits, written out as
        ``scipy.special`` computes them for finite logits, without its
        array-API dispatch, which costs more than the arithmetic on a few
        logits."""
        shifted = theta - theta.max()
        e = np.exp(shifted)
        total = e.sum()
        return CategoricalState(*_read_only(e / total, shifted - np.log(total)))


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
        # A read-only array that owns its data (a Dataset's inputs) is kept
        # as given, so a cost can recognize the dataset's family by identity;
        # any other is copied, since a view changes with its base and the
        # caller cannot then change the family afterwards.
        inputs = np.atleast_1d(np.asarray(inputs, dtype=float))
        if inputs.ndim != 1 or inputs.size < 1 or not np.isfinite(inputs).all():
            raise ValueError("inputs must be a non-empty finite 1-D array")
        if inputs.base is not None or inputs.flags.writeable:
            inputs = inputs.copy()
            inputs.setflags(write=False)
        self.inputs = inputs
        self.sample_dim = int(inputs.size)
        self._sqdist = (inputs[:, None] - inputs[None, :]) ** 2

    def _build_state(self, theta):
        log_amp, log_ls, log_noise = theta
        K = _eq_kernel(self._sqdist, log_amp, log_ls)
        K.ravel()[:: self.sample_dim + 1] += np.exp(2.0 * log_noise)
        return GaussianState.factor(theta, np.zeros(self.sample_dim), K)

    def _moment_derivs(self, state):
        log_amp, log_ls, log_noise = state.theta
        # One stack (d amplitude, d length-scale, d noise).  The kernel part
        # of the covariance, exactly: the noise sits on the diagonal only,
        # where the kernel is exactly a^2.  Where the kernel underflows to 0,
        # so does its length-scale derivative (not 0 * inf).
        dcov = np.zeros((self.param_dim, self.sample_dim, self.sample_dim))
        K_eq, d_ls, d_noise = dcov
        K_eq[...] = state.cov
        np.fill_diagonal(K_eq, np.exp(2.0 * log_amp))
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(K_eq, self._sqdist / np.exp(2.0 * log_ls), out=d_ls, where=K_eq > 0.0)
        np.fill_diagonal(d_noise, 2.0 * np.exp(2.0 * log_noise))
        K_eq *= 2.0
        return np.zeros((self.param_dim, self.sample_dim)), dcov


# A registry key is ``name`` (no argument), ``name[:arg]`` (an optional one)
# or ``name:{arg}`` (a required one).
_KEY = re.compile(r"(\w+)(\[:\w+\])?(:\{\w+\})?")


def resolve_id(identifier: str, table: dict, kind: str, plural: str, *context):
    """Build what ``identifier`` names in ``table``, which maps registry keys
    to builders: ``build(*context)``, or ``build(*context, arg)`` for
    ``name:arg``.  A colon must be followed by an argument that the key
    takes; anything else raises :class:`ConfigError`, as does a builder's
    ``ValueError``."""
    name, colon, arg = str(identifier).partition(":")
    for key, build in table.items():
        if not key.startswith(name):  # skips the regex on most keys
            continue
        head, optional, required = _KEY.fullmatch(key).groups()
        if head == name and ((arg and (optional or required)) if colon else not required):
            try:
                return build(*context, arg) if colon else build(*context)
            except ConfigError:
                raise
            except ValueError as exc:
                raise ConfigError(f"invalid {kind} {identifier!r}: {exc}") from exc
    raise ConfigError(f"unknown {kind} {identifier!r}; valid {plural}: {', '.join(table)}")


def _gp_prior_eq(inputs) -> GpPriorEq:
    if inputs is None:
        raise ConfigError("gp_prior_eq requires evaluation inputs; supply a dataset "
                          "(see the GP benchmark configuration)")
    return GpPriorEq(inputs)


# Family builders ``build(inputs[, arg])``, keyed by identifier.
FAMILIES = {
    "gaussian1d": lambda inputs: Gaussian1D(),
    "mvn_lcholesky[:dim]": lambda inputs, dim=2: MultivariateNormalLogCholesky(int(dim)),
    "categorical_softmax[:k]": lambda inputs, k=3: CategoricalSoftmax(int(k)),
    "gp_prior_eq": _gp_prior_eq,
}
FAMILY_IDS = list(FAMILIES)


def get_family(identifier: str, inputs=None) -> Family:
    """Resolve a family by string identifier (see ``FAMILY_IDS``).

    ``mvn_lcholesky`` and ``categorical_softmax`` accept an optional
    ``:<int>`` suffix for the dimension / outcome count (defaults 2 and 3).
    ``gp_prior_eq`` needs the evaluation inputs, supplied by the caller.
    """
    return resolve_id(identifier, FAMILIES, "family", "families", inputs)
