"""The numpy path-weight kernel.

Given a batch of bridge paths, it evaluates a potential along the
interpolated pin-to-pin paths and returns the exponential weights
exp(-trapezoid action), bit-deterministically.

The kernel is split so that one evaluation of a potential along the
paths serves several floors: `floored_weights` clips the same values at
each floor in turn, and the weights of every floor equal those of a
separate one-floor call bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .potentials import QuadraticForm

# Fixed: benchmark records store both, and runs whose values differ are not compared.
HAVE_COMPILED = False
DEFAULT_BACKEND = "python"

__all__ = [
    "floored_weights",
    "form_values",
    "path_positions",
    "quadratic_weights",
]


def path_positions(alpha: np.ndarray, x: np.ndarray, y: np.ndarray, t: float) -> np.ndarray:
    """Positions (1-u) x + u y + sqrt(t) alpha(u) of every path node.

    `alpha` has shape (n_paths, n_steps + 1, dim) and may be a strided
    view; so has the result, which is a new array.
    """
    n_steps = alpha.shape[1] - 1
    u = np.arange(alpha.shape[1], dtype=np.float64) / n_steps
    base = np.outer(1.0 - u, x) + np.outer(u, y)
    return base[None, :, :] + np.sqrt(t) * alpha


def form_values(pos: np.ndarray, form: QuadraticForm) -> np.ndarray:
    """Unclipped q |z|^2 + g . z + c of `form` at positions of shape (..., dim)."""
    v = form.quad * np.square(pos).sum(axis=-1)
    v += pos @ np.asarray(form.lin, dtype=np.float64)
    v += form.const
    return v


def floored_weights(v: np.ndarray, floors, t: float) -> list[np.ndarray]:
    """Weights exp(-t * trapezoid(max(v, floor))) for each floor, in order.

    `v` holds potential values of shape (n_paths, n_steps + 1).  It is
    consumed: the last floor is clipped in place.  The ends are halved
    before the sum, so every floor is summed in the same order.
    """
    n_steps = v.shape[1] - 1
    spare = np.empty_like(v) if len(floors) > 1 else None
    weights = []
    for k, floor in enumerate(floors):
        if k < len(floors) - 1:
            work = np.maximum(v, floor, out=spare)
        else:
            work = v if floor == -math.inf else np.maximum(v, floor, out=v)
        work[:, 0] *= 0.5
        work[:, -1] *= 0.5
        action = work.sum(axis=1)
        action *= -(t / n_steps)
        weights.append(np.exp(action, out=action))
    return weights


def quadratic_weights(
    alpha: np.ndarray,
    x,
    y,
    t: float,
    form: QuadraticForm,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Path weights exp(-trapezoid action) for a clipped quadratic potential.

    `alpha` has shape (n_paths, n_steps + 1, dim); `x` and `y` are the
    path endpoints, broadcast to `dim`.  The potential is
    max(q |z|^2 + g . z + c, floor) of `form`.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.ndim != 3:
        raise ValueError("alpha must have shape (n_paths, n_steps + 1, dim)")
    n_paths, n_nodes, dim = alpha.shape
    if n_nodes < 2:
        raise ValueError("paths need at least two grid nodes")
    if not 0.0 < t < math.inf:
        raise ValueError("t must be positive and finite")
    if np.shape(form.lin) != (dim,):
        raise ValueError("form.lin must match the path dimension")
    xv = np.broadcast_to(np.asarray(x, dtype=np.float64), (dim,))
    yv = np.broadcast_to(np.asarray(y, dtype=np.float64), (dim,))
    if out is None:
        out = np.empty(n_paths)
    v = form_values(path_positions(alpha, xv, yv, float(t)), form)
    out[:] = floored_weights(v, [form.floor], float(t))[0]
    return out
