"""Central finite differences for functions of a vector argument."""

from __future__ import annotations

from typing import Callable

import numpy as np

EPS = float(np.finfo(float).eps)

# Standard step exponents for central differences: 1/3 for first
# derivatives, 1/4 for second derivatives.
GRAD_REL_STEP = EPS ** (1.0 / 3.0)
HESS_REL_STEP = EPS ** 0.25


def _steps(x: np.ndarray, rel_step: float | None, abs_step: float | None, default_rel: float) -> np.ndarray:
    if abs_step is not None:
        return np.full(x.shape, float(abs_step))
    rel = default_rel if rel_step is None else float(rel_step)
    h = rel * np.maximum(1.0, np.abs(x))
    # Make the perturbed points exactly representable so the difference
    # quotient divides by the step actually taken.
    return (x + h) - x


def central_gradient(
    f: Callable[[np.ndarray], float],
    x: np.ndarray,
    rel_step: float | None = None,
    abs_step: float | None = None,
) -> np.ndarray:
    """Gradient of ``f`` at ``x`` by central differences, one pair per axis;
    an ``(n,)``-valued ``f`` gives the ``(n, x.size)`` Jacobian."""
    x = np.asarray(x, dtype=float)
    h = _steps(x, rel_step, abs_step, GRAD_REL_STEP)
    cols = []
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h[i]
        cols.append((f(x + e) - f(x - e)) / (2.0 * h[i]))
    return np.array(cols).T


def central_hessian(
    f: Callable[[np.ndarray], float],
    x: np.ndarray,
    rel_step: float | None = None,
    abs_step: float | None = None,
) -> np.ndarray:
    """Hessian of ``f`` at ``x`` by central second differences.

    Diagonal entries use the three-point stencil, off-diagonal entries the
    four-point cross stencil; the result is exactly symmetric by
    construction.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    h = _steps(x, rel_step, abs_step, HESS_REL_STEP)
    hess = np.empty((n, n))
    f0 = f(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h[i]
        hess[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / (h[i] * h[i])
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h[j]
            mixed = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * h[i] * h[j])
            hess[i, j] = mixed
            hess[j, i] = mixed
    return hess
