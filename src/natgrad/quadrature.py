"""Gauss-Legendre quadrature grids.

Two grid builders cover the integrals used elsewhere in the package:

* :func:`composite_legendre` -- panels of equal width on a finite interval,
  used for integrals against a density in sample space.
* :func:`unit_interval_grid` -- panels graded geometrically toward 0 and 1,
  used for integrals over quantile levels where the integrand is steep near
  the endpoints.

All functions return ``(nodes, weights)`` as float arrays; integrals are
plain weighted sums so callers can reuse a grid for several integrands.
Grids are returned read-only; the Gauss-Legendre reference rules and the
unit-interval grids are cached.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "gauss_legendre",
    "composite_legendre",
    "unit_interval_grid",
    "DEFAULT_TAIL_MASS",
]

# Mass left out of each tail when an infinite support is windowed to a
# finite interval via quantiles.  1e-12 keeps the truncated mass (and the
# truncated part of second-moment integrands) below 1e-9, which is what the
# tightest consumers of these grids need.
DEFAULT_TAIL_MASS = 1e-12


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


@lru_cache(maxsize=16)
def unit_interval_grid(
    total_nodes: int = 512, delta: float = DEFAULT_TAIL_MASS
) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature grid on ``(delta, 1 - delta)`` graded toward both endpoints.

    Panel edges shrink geometrically (decade by decade) toward 0 and 1 so
    that integrands of the form ``g(quantile(q))``, which vary rapidly near
    the endpoints for unbounded supports, are resolved accurately.

    Parameters
    ----------
    total_nodes : int
        Total node budget, split evenly across panels.
    delta : float
        Tail mass excluded at each end.  Must lie in ``(0, 0.01)``.
    """
    if not 0.0 < delta < 0.01:
        raise ValueError(f"delta must be in (0, 0.01), got {delta}")
    lower = [delta]
    q = delta
    while q * 10.0 < 0.1:
        q *= 10.0
        lower.append(q)
    lower.append(0.1)
    upper = [1.0 - q for q in reversed(lower)]
    edges = np.array(lower + [0.3, 0.5, 0.7] + upper)
    nodes_per_panel = max(4, int(total_nodes) // (len(edges) - 1))
    return _panels(edges, nodes_per_panel)


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
