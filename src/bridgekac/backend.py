"""The numpy path-weight kernel.

Given bridge values at the grid nodes, it evaluates a potential along
the interpolated pin-to-pin paths and returns the exponential weights
exp(-trapezoid action), bit-deterministically.

The kernel works node-major: values of shape (n_steps + 1, rows) hold
node k of every path in row k, so each step is an operation on whole
rows.  Every operation acts element by element, and the trapezoid sum
of a path is a fixed tree of adds over its own nodes, so a path's
weight does not depend on the rows weighed beside it, nor on its place
among them.

A quadratic form q |z|^2 + g . z + c along z = l + sqrt(t) alpha, l the
straight line, is the sum of an even part
E = q |l|^2 + g . l + c + q t |alpha|^2 and an odd part
O = sqrt(t) (2 q l + g) . alpha (`form_parts`): a path's values are
E + O and its mirror's, -alpha's, are E - O, with no positions formed.

`floored_weights` clips the same values at each floor in turn, so one
evaluation of a potential along the paths serves several floors, and
the weights of every floor equal those of a separate one-floor call bit
for bit.
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
    "form_parts",
    "quadratic_weights",
]


def _line_positions(n_steps: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Straight-line positions (1-u) x + u y at the nodes u = k / n_steps,
    of shape (n_steps + 1, dim)."""
    u = np.arange(n_steps + 1, dtype=np.float64) / n_steps
    return np.outer(1.0 - u, x) + np.outer(u, y)


def form_parts(alpha: np.ndarray, spans, t: float, form: QuadraticForm, even: np.ndarray,
               odd: np.ndarray) -> None:
    """Write the even and odd parts of the unclipped `form` along bridges.

    `alpha` holds node-major bridge values of shape (n_steps + 1, rows,
    dim), nodes 0..n_steps; `even` and `odd` receive E and O (see the
    module docstring), of shape (n_steps + 1, rows).  `spans` lists
    (x, y, first, end): columns first..end - 1 are paths pinned from x
    to y.  All three arrays may be views.  The sums over coordinates
    loop over alpha's dim columns; q t |alpha|^2 is formed for the whole
    block at once, and the line's terms span by span.
    """
    n_steps = alpha.shape[0] - 1
    q = form.quad
    g = np.asarray(form.lin, dtype=np.float64)
    for d in range(alpha.shape[2]):
        if d == 0:
            np.square(alpha[:, :, 0], out=even)
        else:
            even += np.square(alpha[:, :, d])
    even *= q * t
    for x, y, first, end in spans:
        line = _line_positions(n_steps, x, y)
        slope = math.sqrt(t) * (2.0 * q * line + g)
        even[:, first:end] += (q * np.square(line).sum(axis=1) + line @ g + form.const)[:, None]
        for d in range(alpha.shape[2]):
            column = alpha[:, first:end, d]
            if d == 0:
                np.multiply(column, slope[:, :1], out=odd[:, first:end])
            else:
                odd[:, first:end] += column * slope[:, d:d + 1]


def _trapezoid_weights(work: np.ndarray, t: float) -> np.ndarray:
    """exp(-t * the trapezoid integral over u in [0, 1]) of each column of node-major
    values `work`, which are consumed.

    The ends are halved and the rows folded onto row 0 in a fixed order,
    one vector add per fold, so each column's sum is the same tree of
    its own values whatever the other columns hold."""
    n_steps = len(work) - 1
    work[0] *= 0.5
    work[-1] *= 0.5
    m = len(work)
    while m > 1:
        half = m // 2
        work[:half] += work[m - half:m]
        m -= half
    action = work[0] * -(t / n_steps)
    return np.exp(action, out=action)


def floored_weights(v: np.ndarray, floors, t: float, strides=(1,),
                    spare: np.ndarray | None = None) -> list[np.ndarray]:
    """Weights exp(-t * trapezoid(max(v, floor))) for each stride, then each floor.

    `v` holds node-major values of shape (n_steps + 1, rows) and is
    consumed.  A stride s, which must divide n_steps, restricts the paths
    to the nodes that are multiples of s: a grid of n_steps / s steps.
    A floor at or below every value of `v` clips nothing, so it shares
    the unclipped weights, which are bit for bit what clipping would
    give.  `spare`, a buffer of v's shape, is allocated if None and
    needed.
    """
    # a NaN makes every finite floor bind, so its column is clipped explicitly
    low = v.min(initial=math.inf) if any(f > -math.inf for f in floors) else -math.inf
    weights = []
    last = len(strides) - 1
    for level, s in enumerate(strides):
        view = v[::s]
        binding = [f for f in dict.fromkeys(floors) if not f <= low]
        plain = any(f <= low for f in floors)
        if spare is None and (binding or (plain and level < last)):
            spare = np.empty_like(v)
        done = {f: _trapezoid_weights(np.maximum(view, f, out=spare[:len(view)]), t)
                for f in binding}
        if plain:
            if level < last:
                view = spare[:len(view)]
                np.copyto(view, v[::s])
            done[-math.inf] = _trapezoid_weights(view, t)
        weights += [done[f] if f in binding else done[-math.inf] for f in floors]
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
    even = np.empty((n_nodes, n_paths))
    odd = np.empty_like(even)
    form_parts(alpha.transpose(1, 0, 2), [(xv, yv, 0, n_paths)], float(t), form, even, odd)
    even += odd
    out[:] = floored_weights(even, [form.floor], float(t))[0]
    return out
