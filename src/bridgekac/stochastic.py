"""Brownian bridge sampling and Gaussian moment identities.

The bridge is realized on a uniform grid over [0, 1] in one of two
ways, both carrying the exact bridge law: covariance
min(s, u) (1 - max(s, u)) per coordinate and independent coordinates,
so only time integrals along a path are subject to discretization
error, never the path law itself.

- The walk: b(k/n) is the cumulative sum of independent Gaussian
  increments of variance 1/n per coordinate, and alpha(k/n) is
  b(k/n) - (k/n) b(1).  `bridge_values` and `sample_bridge` draw it;
  so does `feynman_kac._bridge_blocks`, one row block at a time, for
  every estimator that needs node values: callable potentials and
  clipped quadratic forms.
- Sine (Karhunen-Loeve) coordinates: the interior values have precision
  K = n tridiag(-1, 2, -1), which the discrete sine basis diagonalizes,
  so alpha(k/n) = sum_j sqrt(2/n) sin(j k pi / n) xi_j / sqrt(n mu_j)
  with mu_j = 2 - 2 cos(j pi / n) and xi_1..xi_{n-1} independent
  standard normals per coordinate.  The estimators of an unclipped
  quadratic form (`estimate_Q`, both modes of `refine_steps`, the
  shared-path `matrix_element` and, through them, the bound sweep) draw
  xi, read the path's trapezoid sums straight from it, without forming
  node values, and reduce them in one function (`feynman_kac._sums_records`);
  `_sine_amplitudes` and `_sine_transform` give the basis.

Both realizations are odd in the normals they read: the negated
normals, -xi or the negated increments, give exactly the mirrored
bridge -alpha, which has the same law.  The estimators use this to
weigh every drawn path a second time as its mirror, without drawing it
(see `feynman_kac`), so they draw half as many normals as they weigh
paths.

Because the grid law is exactly Gaussian, the expected weight of an
unclipped quadratic potential on the grid is a Gaussian integral:
`gaussian_q` gives it in closed form, grid bias included, and the
estimators use it as the exact mean of a control variate.  It is read
in the sine basis of the draws, where the quadratic part of V shifts
each mode's precision n mu_j by 2 q t^2 / n.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "DIVERGENT",
    "BridgePath",
    "RngSeed",
    "bridge_values",
    "gaussian_exp_moment",
    "gaussian_q",
    "is_divergent",
    "log_gaussian_q",
    "sample_bridge",
]


class _Divergent:
    """Singleton marker for an expectation with no finite value."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "DIVERGENT"


DIVERGENT = _Divergent()


def is_divergent(value) -> bool:
    """True when `value` is the divergent marker."""
    return value is DIVERGENT


@dataclass(frozen=True)
class RngSeed:
    """Root of a reproducible family of random streams.

    Generators are derived through numpy's SeedSequence spawn keys, so
    distinct (seed, stream_id) pairs, and distinct key suffixes below
    one pair, give statistically independent streams while remaining
    bit-deterministic across runs and platforms.

    Every stream is numpy's SFC64 bit generator (Doty-Humphrey's Small
    Fast Chaotic generator, which passes PractRand) rather than the
    PCG64 of `np.random.default_rng`.  The standard normals behind the
    bridges are the main cost of nearly every estimate, and with SFC64
    each costs 13-20 % less (measured on x86-64).  `generator` is the
    only place the library builds a generator.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream_id"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer")
            if not 0 <= int(value) < 2**64:
                raise ValueError(f"{name} must fit in an unsigned 64-bit integer")

    def with_stream(self, stream_id: int) -> "RngSeed":
        return RngSeed(self.seed, stream_id)

    def sequence(self, *key: int) -> np.random.SeedSequence:
        return np.random.SeedSequence(self.seed, spawn_key=(self.stream_id, *key))

    def generator(self, *key: int) -> np.random.Generator:
        return np.random.Generator(np.random.SFC64(self.sequence(*key)))


@dataclass(frozen=True)
class BridgePath:
    """One sampled bridge on the uniform grid {k/n_steps}.

    `values` has shape (n_steps + 1, dim) and is pinned to zero exactly
    at both ends.
    """

    dim: int
    n_steps: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if self.n_steps < 1:
            raise ValueError("n_steps must be a positive integer")
        if self.values.shape != (self.n_steps + 1, self.dim):
            raise ValueError("values must have shape (n_steps + 1, dim)")
        if np.any(self.values[0] != 0.0) or np.any(self.values[-1] != 0.0):
            raise ValueError("bridge must be pinned to zero at both ends")

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1, dtype=np.float64) / self.n_steps


def bridge_values(normals: np.ndarray) -> np.ndarray:
    """Detrended cumulative sums: standard normals in, bridge positions out.

    `normals` has shape (..., n_steps, dim); the result has shape
    (..., n_steps + 1, dim) with the endpoint slots exactly zero.  The
    detrending is applied after scaling the increments to variance
    1/n_steps, so the grid values carry the exact bridge law.
    """
    if normals.ndim < 2:
        raise ValueError("normals must have shape (..., n_steps, dim)")
    n_steps = normals.shape[-2]
    if n_steps < 1:
        raise ValueError("n_steps must be a positive integer")
    out = np.zeros(normals.shape[:-2] + (n_steps + 1, normals.shape[-1]))
    b = out[..., 1:, :]
    b[...] = normals
    np.cumsum(b, axis=-2, out=b)
    b *= np.sqrt(1.0 / n_steps)
    u = np.arange(1, n_steps + 1, dtype=np.float64) / n_steps
    b -= u[:, None] * b[..., -1:, :]
    out[..., -1, :] = 0.0
    return out


def _sine_amplitudes(n_steps: int) -> np.ndarray:
    """Standard deviations 1 / sqrt(n mu_j) of the sine coordinates j = 1..n-1 of a
    bridge on n = `n_steps` steps, with mu_j = 2 - 2 cos(j pi / n) written as
    4 sin^2(j pi / (2 n)) so that the low modes do not cancel."""
    j = np.arange(1, n_steps, dtype=np.float64)
    return 0.5 / (math.sqrt(n_steps) * np.sin(j * (0.5 * math.pi / n_steps)))


def _sine_transform(e: np.ndarray) -> np.ndarray:
    """sum_k e_k sin(j k pi / n) for j = 1..n-1, of node values e_1..e_{n-1} on the
    last axis: a DST-I, by one real FFT of the odd extension (0, e, 0, -reversed e)."""
    n = e.shape[-1] + 1
    odd = np.zeros(e.shape[:-1] + (2 * n,))
    odd[..., 1:n] = e
    odd[..., n + 1:] = -e[..., ::-1]
    return -0.5 * np.fft.rfft(odd)[..., 1:n].imag


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngSeed):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError("rng must be an RngSeed or a numpy Generator")


def sample_bridge(dim: int, n_steps: int, rng) -> BridgePath:
    """Draw one bridge path on the grid {k/n_steps}."""
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    if n_steps < 1:
        raise ValueError("n_steps must be a positive integer")
    gen = _as_generator(rng)
    values = bridge_values(gen.standard_normal((n_steps, dim)))
    return BridgePath(dim=dim, n_steps=n_steps, values=values)


def gaussian_exp_moment(eps: float, variance: float):
    """E(exp(eps X^2)) for mean-zero Gaussian X with the given variance.

    Returns the closed form (1 - 2 eps variance)^(-1/2) when
    eps * variance < 1/2 and the DIVERGENT marker otherwise; the
    boundary case is divergent.  When eps or the variance is 0, eps X^2
    is 0 almost surely and the moment is 1, even if the other is
    infinite.
    """
    if math.isnan(eps):
        raise ValueError("eps must not be NaN")
    if not variance >= 0.0:  # NaN fails too
        raise ValueError("variance must be nonnegative")
    if eps == 0.0 or variance == 0.0:
        return 1.0
    if eps * variance >= 0.5:
        return DIVERGENT
    return float((1.0 - 2.0 * eps * variance) ** -0.5)


def log_gaussian_q(x, y, form, t: float, n_steps: int):
    """log Q(x, y) on the trapezoid grid of `n_steps` steps, exactly, for an unclipped form.

    For V(z) = q |z|^2 + g . z + c the trapezoid action along
    (1-u) x + u y + sqrt(t) alpha(u) is quadratic in the bridge's
    interior values, whose precision matrix is K = n tridiag(-1, 2, -1)
    (n = n_steps).  So Q is a Gaussian integral:

        Q = exp(-S_line) det(K)^{1/2} det(P)^{-1/2} exp(b^T P^{-1} b / 2)

    per coordinate, with P = K + diag(2 q t^2 / n),
    b_k = -(t^{3/2} / n) (2 q ((1-u_k) x + u_k y) + g) and S_line the
    trapezoid action of the straight line.  P is diagonal in the sine
    basis of the draws, and the coordinates share it, so one
    `_grid_precision` per (q, t, n_steps) serves every endpoint pair and
    every `dim`.  Returns DIVERGENT when P is not positive definite: the
    expectation is infinite on this grid.  The result is a logarithm, so
    nothing underflows however small Q is.  `form` needs `quad`, `lin`,
    `const` and `floor` as a `potentials.QuadraticForm` has them, and its
    floor must be -inf.
    """
    if form.floor != -math.inf:
        raise ValueError("the exact grid value needs an unclipped form (floor -inf)")
    if not 0.0 < t < math.inf:
        raise ValueError("t must be positive and finite")
    if isinstance(n_steps, bool) or not isinstance(n_steps, numbers.Integral) or n_steps < 1:
        raise ValueError("n_steps must be a positive integer")
    dim = len(form.lin)
    xv, yv = (_coordinates(p, dim) for p in (x, y))
    if not all(map(math.isfinite, xv + yv)):
        raise ValueError("endpoints must be finite")
    q = float(form.quad)
    grid = _grid_precision(q, float(t), int(n_steps))
    if grid is None:
        return DIVERGENT
    log_det_ratio, m, (w0, w1, w2) = grid
    g = [float(c) for c in form.lin]
    # plain Python on the few coordinates: numpy's per-call cost would dominate
    x2, xy, y2 = _dot(xv, xv), _dot(xv, yv), _dot(yv, yv)
    gx, gy, gg = _dot(g, xv), _dot(g, yv), _dot(g, g)
    # the trapezoid weights of 1 - u and of u both sum to 1/2
    s_line = t * (q * (w0 * x2 + 2.0 * w1 * xy + w2 * y2) + 0.5 * (gx + gy) + form.const)
    # sum over coordinates of v^T m v, v = (2 q x_i, 2 q y_i, g_i): b = -(t^1.5 / n) E v
    quad_term = (4.0 * q * q * (m[0][0] * x2 + 2.0 * m[0][1] * xy + m[1][1] * y2)
                 + 4.0 * q * (m[0][2] * gx + m[1][2] * gy) + m[2][2] * gg) * t**3 / n_steps**2
    return -s_line + 0.5 * dim * log_det_ratio + 0.5 * quad_term


def _coordinates(point, dim: int) -> list[float]:
    arr = np.asarray(point, dtype=np.float64)
    # broadcast_to costs several microseconds; skip it for a point already of shape (dim,)
    return (arr if arr.shape == (dim,) else np.broadcast_to(arr, (dim,))).tolist()


def _dot(a: list, b: list) -> float:
    return sum(map(operator.mul, a, b))


def gaussian_q(x, y, form, t: float, n_steps: int):
    """exp(`log_gaussian_q`): the exact grid Q, DIVERGENT, or inf on overflow."""
    log_q = log_gaussian_q(x, y, form, t, n_steps)
    if is_divergent(log_q):
        return log_q
    return math.inf if log_q > _LOG_MAX else math.exp(log_q)


_LOG_MAX = math.log(sys.float_info.max)


def _trapezoid_grid(n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid times u_k = k / n_steps and trapezoid weights summing to one."""
    u = np.arange(n_steps + 1, dtype=np.float64) / n_steps
    tau = np.full(n_steps + 1, 1.0 / n_steps)
    tau[[0, -1]] *= 0.5
    return u, tau


@lru_cache(maxsize=64)
def _line_weights(n_steps: int) -> tuple[float, float, float]:
    """The trapezoid sums of (1 - u)^2, u (1 - u) and u^2 over the grid of `n_steps` steps:
    the weights of |x|^2, 2 x . y and |y|^2 in the action of the line from x to y."""
    u, tau = _trapezoid_grid(n_steps)
    return float(tau @ np.square(1.0 - u)), float(tau @ (u * (1.0 - u))), float(tau @ np.square(u))


@lru_cache(maxsize=64)
def _grid_precision(q: float, t: float, n_steps: int):
    """(log det K - log det P, E^T P^{-1} E, `_line_weights`) for the bridge's interior
    nodes, or None.

    K = n tridiag(-1, 2, -1) and P = K + c I, c = 2 q t^2 / n, are of
    size n - 1, n = n_steps, and the columns of E are 1 - u_k, u_k and 1
    at the interior nodes u_k = k / n.  The sine basis of the sampler
    diagonalizes K with eigenvalues 1 / amp_j^2 (`_sine_amplitudes`), so
    P is positive definite iff every 1 + c amp_j^2 is positive (None
    otherwise), log det K - log det P = -sum_j log1p(c amp_j^2), exactly
    zero for q = 0, and E^T P^{-1} E = sum_j e_j e_j^T amp_j^2 / (1 + c amp_j^2)
    with e_j the orthonormal sine coordinates of E's rows.  A one-step
    grid has no interior nodes: both are zero.
    """
    u = _trapezoid_grid(n_steps)[0][1:-1]
    amp2 = np.square(_sine_amplitudes(n_steps))
    c_amp2 = (2.0 * q * t * t / n_steps) * amp2
    if not np.all(c_amp2 > -1.0):
        return None
    e = _sine_transform(np.array([1.0 - u, u, np.ones_like(u)])) * math.sqrt(2.0 / n_steps)
    gram = (e * (amp2 / (1.0 + c_amp2))) @ e.T
    return (-float(np.log1p(c_amp2).sum()), tuple(map(tuple, gram.tolist())),
            _line_weights(n_steps))
