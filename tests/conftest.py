"""Shared test helpers.

The finite-difference helpers here are deliberately independent of
natgrad.numdiff (simple fixed-step central differences) so that analytic
results and the package's own differentiation machinery are checked
against a second implementation, not against themselves.
"""

import numpy as np
import pytest


def fd_gradient(fn, x, h=1e-6):
    """Central-difference gradient with a fixed absolute step."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return g


def richardson_gradient(fn, x):
    """Central differences ``D`` at steps h, h/2 and h/4, with per-coordinate
    ``h = eps**(1/3) * max(1, |x_i|)``, extrapolated twice: ``R(s) = (4 D(s/2)
    - D(s)) / 3`` cancels the h^2 error term of the central difference, and
    ``(16 R(h/2) - R(h)) / 15`` the h^4 term.

    The truncation error is O(h^6): fine enough to pin analytic gradients to
    1e-8 relative where the cost is steep, as chi2 is near the boundary where
    2 S1 - S2 turns indefinite, and an O(h^4) oracle is not.
    """
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        h = np.finfo(float).eps ** (1.0 / 3.0) * max(1.0, abs(x[i]))
        diffs = []
        for step in (h, 0.5 * h, 0.25 * h):
            e = np.zeros_like(x)
            e[i] = step
            diffs.append((fn(x + e) - fn(x - e)) / (2.0 * step))
        once = [(4.0 * fine - coarse) / 3.0 for coarse, fine in zip(diffs, diffs[1:])]
        g[i] = (16.0 * once[1] - once[0]) / 15.0
    return g


def fd_hessian(fn, x, h=1e-4):
    """Central-difference Hessian with a fixed absolute step."""
    x = np.asarray(x, dtype=float)
    n = x.size
    H = np.empty((n, n))
    f0 = fn(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        H[i, i] = (fn(x + ei) - 2.0 * f0 + fn(x - ei)) / h**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            H[i, j] = H[j, i] = (
                fn(x + ei + ej) - fn(x + ei - ej) - fn(x - ei + ej) + fn(x - ei - ej)
            ) / (4.0 * h**2)
    return H


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_gaussian_thetas(rng, count, mu_range=(-2.0, 2.0), sigma_range=(0.4, 2.5)):
    """Valid gaussian1d parameter points, stacked (count, 2)."""
    mus = rng.uniform(*mu_range, size=count)
    sigmas = rng.uniform(*sigma_range, size=count)
    return np.column_stack([mus, sigmas])


def mvn_theta(mean, cov):
    """The ``mvn_lcholesky`` parameter vector of ``N(mean, cov)``: the mean,
    then the rows of the lower Cholesky factor of ``cov`` with its diagonal
    as logs."""
    L = np.linalg.cholesky(np.asarray(cov, dtype=float))
    L[np.diag_indices_from(L)] = np.log(L.diagonal())
    return np.concatenate([np.asarray(mean, dtype=float), L[np.tril_indices(len(L))]])


def accepts(family, theta) -> bool:
    """Whether ``family.check_point`` accepts ``theta``."""
    from natgrad.errors import InvalidParameterError

    try:
        family.check_point(theta)
    except InvalidParameterError:
        return False
    return True


def power_law_family():
    """Test-only family with density a * x^(a-1) on (0, 1).

    Implements log_density, score, cdf, quantile and dcdf_dtheta in closed
    form (score 1/a + log x, cdf x^a, quantile q^(1/a), dcdf/da x^a log x)
    and the domain check.  It has no Gaussian state and no finite support,
    so it has no sampler, no Fisher matrix and no f-divergence: those raise
    ``CapabilityError``.
    """
    from natgrad.families import Family

    class PowerLaw01(Family):
        name = "powerlaw01"
        param_dim = 1

        def _in_domain(self, theta):
            return theta[0] > 0.0

        def log_density(self, theta, x):
            (a,) = self.check_point(theta)
            xs, single = self._check_x(x)
            x = xs[:, 0]
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.where((0.0 < x) & (x < 1.0), np.log(a) + (a - 1.0) * np.log(x), -np.inf)
            return out[0] if single else out

        def score(self, theta, x):
            (a,) = self.check_point(theta)
            xs, single = self._check_x(x)
            out = 1.0 / a + np.log(xs)
            return out[0] if single else out

        def cdf(self, theta, x):
            (a,) = self.check_point(theta)
            xs, single = self._check_x(x)
            out = np.clip(xs[:, 0], 0.0, 1.0) ** a
            return out[0] if single else out

        def quantile(self, theta, q):
            (a,) = self.check_point(theta)
            q = np.asarray(q, dtype=float)
            if np.any(~((q > 0.0) & (q < 1.0))):
                raise ValueError(f"quantile level must be in (0, 1), got {q}")
            out = q ** (1.0 / a)
            return float(out) if out.ndim == 0 else out

        def dcdf_dtheta(self, theta, x):
            (a,) = self.check_point(theta)
            xs, single = self._check_x(x)
            x = np.clip(xs, 0.0, 1.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.where(x > 0.0, x**a * np.log(x), 0.0)
            return out[0] if single else out

    return PowerLaw01()
