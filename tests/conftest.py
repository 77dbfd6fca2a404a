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


def power_law_family():
    """Test-only family with density theta * x^(theta-1) on (0, 1).

    Implements only log_density, cdf, and the domain check, so the Family
    base-class defaults (finite-difference score, bisection quantile,
    finite-difference dcdf_dtheta, quadrature expectations) are exercised
    against the closed forms cdf = x^theta and quantile = q^(1/theta).
    """
    from natgrad.families import Family

    class PowerLaw01(Family):
        name = "powerlaw01"
        param_dim = 1
        has_cdf = True
        has_sampler = False

        def _in_domain(self, theta):
            return theta[0] > 0.0

        def log_density(self, theta, x):
            (a,) = self.check_point(theta)
            xs, single = self._check_x(x)
            x = xs[:, 0]
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.where((0.0 < x) & (x < 1.0), np.log(a) + (a - 1.0) * np.log(x), -np.inf)
            return out[0] if single else out

        def cdf(self, theta, x):
            (a,) = self.check_point(theta)
            xs, single = self._check_x(x)
            out = np.clip(xs[:, 0], 0.0, 1.0) ** a
            return out[0] if single else out

    return PowerLaw01()
