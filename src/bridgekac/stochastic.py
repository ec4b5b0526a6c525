"""Brownian bridge sampling and Gaussian moment identities.

The bridge is realized on a uniform grid over [0, 1] by detrending a
random walk: b(k/n) is the cumulative sum of independent Gaussian
increments of variance 1/n per coordinate, and alpha(k/n) is
b(k/n) - (k/n) b(1).  The grid marginals then carry the exact bridge
law, with covariance min(s, u) (1 - max(s, u)) per coordinate and
independent coordinates; only time integrals along a path are subject
to discretization error, never the path law itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DIVERGENT",
    "BridgePath",
    "RngSeed",
    "bridge_covariance",
    "bridge_values",
    "gaussian_exp_moment",
    "is_divergent",
    "sample_bridge",
    "sample_bridge_batch",
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
        return np.random.default_rng(self.sequence(*key))


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
    out[..., 1:, :] = normals
    _bridge_in_place(out[..., 1:, :])
    out[..., -1, :] = 0.0
    return out


def _bridge_in_place(b: np.ndarray, work: np.ndarray | None = None) -> None:
    """Turn standard normals of shape (..., n_steps, dim) into the bridge at
    grid nodes 1..n_steps, in place; node 0 is zero and not stored.

    The detrend term u b(1) is formed in `work`, an array of b's shape
    that must not overlap it, or in a new array if `work` is None.
    """
    n_steps = b.shape[-2]
    np.cumsum(b, axis=-2, out=b)
    b *= np.sqrt(1.0 / n_steps)
    u = np.arange(1, n_steps + 1, dtype=np.float64) / n_steps
    b -= np.multiply(u[:, None], b[..., -1:, :], out=work)


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


def sample_bridge_batch(dim: int, n_steps: int, n_paths: int, rng) -> np.ndarray:
    """Draw n_paths bridges at once; returns shape (n_paths, n_steps + 1, dim)."""
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    if n_steps < 1:
        raise ValueError("n_steps must be a positive integer")
    if n_paths < 1:
        raise ValueError("n_paths must be a positive integer")
    gen = _as_generator(rng)
    return bridge_values(gen.standard_normal((n_paths, n_steps, dim)))


def bridge_covariance(s: float, u: float) -> float:
    """Covariance min(s, u) (1 - max(s, u)) of one bridge coordinate."""
    if not 0.0 <= s <= 1.0 or not 0.0 <= u <= 1.0:
        raise ValueError("times must lie in [0, 1]")
    return min(s, u) * (1.0 - max(s, u))


def gaussian_exp_moment(eps: float, variance: float):
    """E(exp(eps X^2)) for mean-zero Gaussian X with the given variance.

    Returns the closed form (1 - 2 eps variance)^(-1/2) when
    eps * variance < 1/2 and the DIVERGENT marker otherwise; the
    boundary case is divergent.
    """
    if variance < 0.0:
        raise ValueError("variance must be nonnegative")
    if eps * variance >= 0.5:
        return DIVERGENT
    return float((1.0 - 2.0 * eps * variance) ** -0.5)
