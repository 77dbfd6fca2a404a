"""Central finite differences for functions of a vector argument."""

from __future__ import annotations

from typing import Callable

import numpy as np

EPS = float(np.finfo(float).eps)

# Standard step exponents for central differences: 1/3 for first
# derivatives, 1/4 for second derivatives.
GRAD_REL_STEP = EPS ** (1.0 / 3.0)
HESS_REL_STEP = EPS ** 0.25


def _steps(x: np.ndarray, abs_step: float | None, rel: float) -> np.ndarray:
    if abs_step is not None:
        return np.full(x.shape, float(abs_step))
    h = rel * np.maximum(1.0, np.abs(x))
    # Make the perturbed points exactly representable so the difference
    # quotient divides by the step actually taken.
    return (x + h) - x


def central_gradient(f: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    """Gradient of ``f`` at ``x`` by central differences, one pair per axis,
    with steps ``GRAD_REL_STEP * max(1, |x_i|)``; an ``(n,)``-valued ``f``
    gives the ``(n, x.size)`` Jacobian."""
    x = np.asarray(x, dtype=float)
    h = _steps(x, None, GRAD_REL_STEP)
    cols = []
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h[i]
        cols.append((f(x + e) - f(x - e)) / (2.0 * h[i]))
    return np.array(cols).T


def central_hessian(
    f: Callable[[np.ndarray], float], x: np.ndarray, abs_step: float | None = None
) -> np.ndarray:
    """Hessian of ``f`` at ``x`` by central second differences.

    Steps are ``abs_step`` on every axis, or ``HESS_REL_STEP * max(1, |x_i|)``.
    Diagonal entries use the three-point stencil, off-diagonal entries the
    four-point cross stencil; the result is exactly symmetric by
    construction.  The centre value is ``f(x)`` with ``x`` as given, so a
    validated point (``Family.point``) reaches ``f`` as one.
    """
    f0 = f(x)
    x = np.asarray(x, dtype=float)
    n = x.size
    h = _steps(x, abs_step, HESS_REL_STEP)
    # The step along each axis and the points one step either side, built once.
    steps = np.diag(h)
    plus, minus, steps, h = list(x + steps), list(x - steps), list(steps), h.tolist()
    hess = np.empty((n, n))
    for i in range(n):
        hess[i, i] = (f(plus[i]) - 2.0 * f0 + f(minus[i])) / (h[i] * h[i])
        for j in range(i + 1, n):
            ej = steps[j]
            mixed = (
                f(plus[i] + ej) - f(plus[i] - ej) - f(minus[i] + ej) + f(minus[i] - ej)
            ) / (4.0 * h[i] * h[j])
            hess[i, j] = mixed
            hess[j, i] = mixed
    return hess
