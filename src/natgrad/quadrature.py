"""Gauss-Legendre quadrature grids.

Two grid builders cover the integrals used elsewhere in the package:

* :func:`composite_legendre` -- panels of equal width on a finite interval.
  ``natgrad validate`` sums KL on it over the quantile windows of two 1-D
  Gaussians, a reference for the closed form; no library route integrates
  in sample space (every Fisher matrix and f-divergence is a closed form or
  an exact sum over a finite support).
* :func:`unit_interval_grid` -- the one fixed grid over quantile levels,
  with panels graded geometrically toward 0 and 1 where the integrand is
  steep; the 1-D transport cost, its gradient and its metric all use it.

All functions return ``(nodes, weights)`` as float arrays; integrals are
plain weighted sums so callers can reuse a grid for several integrands.
Grids are returned read-only; the Gauss-Legendre reference rules and the
unit-interval grid are cached, and so are the standard normal quantiles of
the unit-interval levels and a normal family's quantile velocities there,
:func:`unit_interval_normal_scores`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import ndtri

__all__ = [
    "gauss_legendre",
    "composite_legendre",
    "unit_interval_grid",
    "unit_interval_normal_scores",
    "DEFAULT_TAIL_MASS",
]

# Mass left out of each tail when an infinite support is windowed to a
# finite interval via quantiles.  1e-12 keeps the truncated mass (and the
# truncated part of second-moment integrands) below 1e-9, which is what the
# tightest consumers of these grids need.
DEFAULT_TAIL_MASS = 1e-12
# Gauss-Legendre nodes in each of the 26 panels of unit_interval_grid.
GRID_NODES_PER_PANEL = 18


def gauss_legendre(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule with ``n`` nodes on the interval ``[a, b]``.

    Parameters
    ----------
    a, b : float
        Interval endpoints, ``a < b``.
    n : int
        Number of nodes.

    Returns
    -------
    nodes, weights : ndarray
        Arrays of shape ``(n,)`` such that ``integral(f) ~= weights @ f(nodes)``.
    """
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ValueError(f"invalid interval [{a}, {b}]")
    return _panels(np.array([a, b], dtype=float), n)


def composite_legendre(
    a: float, b: float, n_panels: int = 8, nodes_per_panel: int = 32
) -> tuple[np.ndarray, np.ndarray]:
    """Composite rule: equal-width panels, Gauss-Legendre inside each."""
    edges = np.linspace(a, b, n_panels + 1)
    return _panels(edges, nodes_per_panel)


def unit_interval_grid() -> tuple[np.ndarray, np.ndarray]:
    """468-node quadrature grid on ``(delta, 1 - delta)``, graded toward both
    endpoints, with ``delta = DEFAULT_TAIL_MASS``; the same cached arrays on
    every call.

    Panel edges shrink geometrically (decade by decade) toward 0 and 1 so
    that integrands of the form ``g(quantile(q))``, which vary rapidly near
    the endpoints for unbounded supports, are resolved accurately.  Every
    panel has ``GRID_NODES_PER_PANEL`` nodes and a positive width, so every
    weight is positive.
    """
    return _unit_interval_grid()


@lru_cache(maxsize=1)
def unit_interval_normal_scores() -> tuple[np.ndarray, np.ndarray]:
    """``(z, [1, z])``, ``z = ndtri(levels)`` on :func:`unit_interval_grid`,
    the same read-only arrays on every call: a normal family's quantiles
    ``mu + sigma z`` there and their ``(n, 2)`` velocities ``dQ/d(mu, sigma)``."""
    # Through the private _unit_interval_grid: filling this cache then calls
    # no public function, whose call count would depend on what ran before.
    z = ndtri(_unit_interval_grid()[0])
    return _read_only(z, np.column_stack([np.ones_like(z), z]))


@lru_cache(maxsize=1)
def _unit_interval_grid() -> tuple[np.ndarray, np.ndarray]:
    # The decades DEFAULT_TAIL_MASS = 1e-12 .. 1e-1, each rounded once, by
    # dividing by exact powers of 10: repeated multiplication by 10 puts an
    # edge 2.8e-17 below 0.1 (a panel of zero weights), and numpy's
    # 10.0 ** -5 is an ulp below 1e-5.
    lower = 1.0 / 10.0 ** np.arange(12, 0, -1)
    edges = np.concatenate([lower, [0.3, 0.5, 0.7], 1.0 - lower[::-1]])
    return _panels(edges, GRID_NODES_PER_PANEL)


@lru_cache(maxsize=16)
def _reference_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on ``[-1, 1]``."""
    return _read_only(*np.polynomial.legendre.leggauss(n))


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _panels(edges: np.ndarray, nodes_per_panel: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = _reference_rule(int(nodes_per_panel))
    lo = edges[:-1, None]
    half = 0.5 * (edges[1:, None] - lo)
    return _read_only((lo + half * (x + 1.0)).ravel(), (half * w).ravel())
