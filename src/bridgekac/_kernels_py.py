"""Numpy implementation of the path-weight kernel.

Mirrors the compiled extension in `_kernels.pyx`: given a batch of
bridge paths, both evaluate the trapezoid action of a clipped quadratic
potential along the interpolated pin-to-pin path and return the
exponential weights exp(-action).  The two implementations agree to a
relative 1e-12 (summation order differs), and each is bit-deterministic
on its own.

The numpy side is split so that one evaluation of a potential along the
paths serves several floors: `floored_weights` clips the same values at
each floor in turn, and the weights of every floor equal those of a
separate one-floor call bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

BACKEND_NAME = "python"


def path_positions(alpha: np.ndarray, x: np.ndarray, y: np.ndarray, t: float) -> np.ndarray:
    """Positions (1-u) x + u y + sqrt(t) alpha(u) of every path node.

    `alpha` has shape (n_paths, n_steps + 1, dim) and may be a strided
    view; so has the result, which is a new array.
    """
    n_steps = alpha.shape[1] - 1
    u = np.arange(alpha.shape[1], dtype=np.float64) / n_steps
    base = np.outer(1.0 - u, x) + np.outer(u, y)
    return base[None, :, :] + np.sqrt(t) * alpha


def form_values(pos: np.ndarray, quad: float, lin: np.ndarray, const: float) -> np.ndarray:
    """Unclipped q |z|^2 + g . z + c at positions of shape (..., dim)."""
    v = quad * np.square(pos).sum(axis=-1)
    v += pos @ lin
    v += const
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
    x: np.ndarray,
    y: np.ndarray,
    t: float,
    quad: float,
    lin: np.ndarray,
    const: float,
    floor: float,
    out: np.ndarray,
) -> np.ndarray:
    """Weights exp(-t * trapezoid(V(path))) for V = max(q|z|^2 + g.z + c, floor).

    `alpha` has shape (n_paths, n_steps + 1, dim); the path through
    position u is (1-u) x + u y + sqrt(t) alpha(u).
    """
    v = form_values(path_positions(alpha, x, y, t), quad, lin, const)
    out[:] = floored_weights(v, [floor], t)[0]
    return out
