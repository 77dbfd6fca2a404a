"""Central finite differences for functions of a vector argument."""

from __future__ import annotations

from typing import Callable

import numpy as np

EPS = float(np.finfo(float).eps)

# The standard step exponent for a central first difference.
GRAD_REL_STEP = EPS ** (1.0 / 3.0)


def _steps(x: np.ndarray, abs_step: float | None) -> np.ndarray:
    if abs_step is not None:
        return np.full(x.shape, float(abs_step))
    h = GRAD_REL_STEP * np.maximum(1.0, np.abs(x))
    # Make the perturbed points exactly representable so the difference
    # quotient divides by the step actually taken.
    return (x + h) - x


def _columns(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``(f(x + h_j e_j) - f(x - h_j e_j)) / 2 h_j`` as column ``j``."""
    return np.array([(f(x + e) - f(x - e)) / (2.0 * hj) for e, hj in zip(np.diag(h), h)]).T


def central_gradient(f: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    """Gradient of ``f`` at ``x`` by central differences, one pair per axis,
    with steps ``GRAD_REL_STEP * max(1, |x_i|)``; an ``(n,)``-valued ``f``
    gives the ``(n, x.size)`` Jacobian."""
    x = np.asarray(x, dtype=float)
    return _columns(f, x, _steps(x, None))


def central_hessian(
    grad: Callable[[np.ndarray], np.ndarray], x, abs_step: float | None = None
) -> np.ndarray:
    """Hessian at ``x`` by central differences of the gradient ``grad``,
    symmetrized.

    Column ``j`` is ``(grad(x + h_j e_j) - grad(x - h_j e_j)) / 2 h_j``, with
    steps ``abs_step`` on every axis or ``GRAD_REL_STEP * max(1, |x_i|)``:
    ``2n`` gradient calls, with error ``O(h^2)`` plus gradient roundoff
    divided by ``h`` (Nocedal & Wright 2006, sec. 8.1).
    """
    x = np.asarray(x, dtype=float)
    hess = _columns(grad, x, _steps(x, abs_step))
    return 0.5 * (hess + hess.T)
