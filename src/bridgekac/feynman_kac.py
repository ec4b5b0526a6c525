"""Bridge Monte Carlo for semigroup matrix elements.

The central quantity is the pin-to-pin weight

    Q(x, y; V, t) = E(exp(-integral_0^t V((1-s/t) x + (s/t) y
                                          + sqrt(t) alpha(s/t)) ds)),

estimated by averaging exponential weights over sampled bridges, with
the time integral discretized by the trapezoid rule on the bridge grid.
Matrix elements <phi, e^{-tH} psi> then follow by tensor Gauss-Legendre
quadrature of phi(x) psi(y) K_t(x, y) Q(x, y; V, t) over the declared
supports, where K_t is the free heat kernel.

Units are hbar = m = 1 with kinetic part -(1/2) Laplacian.

Every estimator streams its paths.  A keyed chunk of paths is drawn one
row block at a time into a reused buffer of standard normals, turned
into the bridge in place and reduced to per-path numbers before the next
block is drawn, so memory does not grow with the chunk, nor with the
time grid until one path alone outgrows a block; the blocks are drawn
bit for bit as the chunk would be drawn at once.  For an unclipped
quadratic potential V(z) = q |z|^2 + g . z + c the trapezoid action of a
path is linear in three of its trapezoid sums, A = sum' alpha,
B = sum' u alpha and C = sum' |alpha|^2, plus terms that depend on x and
y alone.  Such potentials are evaluated from those sums, which lets
`matrix_element` reuse one set of paths at every quadrature node pair,
and `refine_steps` gets the sums of every grid of its schedule from the
same pass.  Other potentials are evaluated along each block of bridges.
Truncations max(V, -n) of one potential share the other way: V is
evaluated along a path once and each level clips the values, so a
truncation study draws and evaluates each path once for all levels.

Estimates carry a heavy-tail heuristic: when the top_k heaviest samples
hold more than `heavy_fraction` of the total weight, the estimate is
flagged `divergence_suspected`.  Monte Carlo cannot certify an infinite
expectation; the flag marks estimates that behave like one.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable

import numpy as np

from . import backend as _backend
from .potentials import PotentialSpec, QuadraticForm
# bridge_values is not called here: the benchmark's traced run wraps this name
from .stochastic import BridgePath, RngSeed, _bridge_in_place, bridge_values  # noqa: F401

__all__ = [
    "MatrixElementEstimate",
    "McConfig",
    "QEstimate",
    "QuadratureConfig",
    "RefinementReport",
    "Wavefunction",
    "action_integral",
    "bump",
    "estimate_Q",
    "free_kernel",
    "gaussian",
    "l2_norm",
    "matrix_element",
    "refine_steps",
]

_CHUNK = 32768
# Cap on the (node pairs x paths) weight block that a shared-path matrix
# element holds at once, and on the block of normals that `_bridge_blocks`
# draws and turns into bridges at once: 4 MB of float64 per array.
_BLOCK_ELEMENTS = 2**19


@dataclass(frozen=True)
class McConfig:
    """Sampling parameters for one Q estimate (per quadrature node)."""

    n_samples: int = 20000
    n_steps: int = 64
    top_k: int = 10
    heavy_fraction: float = 0.5

    def __post_init__(self) -> None:
        _check_sampling(self.n_samples, self.n_steps, self.top_k, self.heavy_fraction)


def _check_sampling(n_samples, n_steps, top_k, heavy_fraction, workers=1) -> None:
    """Reject sampling parameters that no estimate can run with."""
    for name, value in (("n_samples", n_samples), ("n_steps", n_steps), ("top_k", top_k),
                        ("workers", workers)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer")
    if n_samples < 1 or n_steps < 1:
        raise ValueError("n_samples and n_steps must be positive")
    if top_k < 1:
        raise ValueError("top_k must be positive")
    if not 0.0 < heavy_fraction < 1.0:
        raise ValueError("heavy_fraction must lie in (0, 1)")
    if workers < 1:
        raise ValueError("workers must be positive")


def _check_time(t) -> None:
    if not 0.0 < t < math.inf:
        raise ValueError("t must be positive and finite")


@dataclass(frozen=True)
class QuadratureConfig:
    """Tensor Gauss-Legendre resolution for spatial integrals."""

    nodes_per_axis: int = 32

    def __post_init__(self) -> None:
        if self.nodes_per_axis < 1:
            raise ValueError("nodes_per_axis must be positive")


@dataclass(frozen=True)
class QEstimate:
    """Monte Carlo estimate of Q(x, y; V, t)."""

    mean: float
    std_error: float
    n_samples: int
    n_steps: int
    divergence_suspected: bool
    heavy_mass_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.mean < 0.0:
            raise ValueError("Q is an expectation of positive weights")
        if self.std_error < 0.0:
            raise ValueError("std_error must be nonnegative")


@dataclass(frozen=True)
class Wavefunction:
    """Real test function with a declared support box.

    `evaluate` is vectorized over points of shape (..., dim).  For kind
    "compact" it vanishes outside the box; for "gaussian-weighted" the
    box is a documented truncation containing all but a declared
    fraction of the L^2 mass.
    """

    dim: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    support_box: tuple[tuple[float, ...], tuple[float, ...]]
    kind: str
    name: str = "wavefunction"

    def __post_init__(self) -> None:
        if self.kind not in ("compact", "gaussian-weighted"):
            raise ValueError("kind must be 'compact' or 'gaussian-weighted'")
        lower, upper = self.support_box
        if len(lower) != self.dim or len(upper) != self.dim:
            raise ValueError("support_box corners must have length dim")
        if any(l > u for l, u in zip(lower, upper)):
            raise ValueError("support_box lower corner must not exceed upper corner")


@dataclass(frozen=True)
class MatrixElementEstimate:
    """Quadrature-plus-Monte-Carlo estimate of <phi, e^{-tH} psi>."""

    value: float
    std_error: float
    quadrature_nodes: int
    mc_samples_per_node: int
    divergence_nodes: int = 0


@dataclass(frozen=True)
class RefinementReport:
    """Successive-difference study of the time-grid discretization bias."""

    mode: str
    schedule: tuple[int, ...]
    estimates: tuple[QEstimate, ...]
    diff_means: tuple[float, ...]
    diff_std_errors: tuple[float, ...]
    fitted_order: float | None


def _point(value, dim: int) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    out = np.ascontiguousarray(np.broadcast_to(arr, (dim,)))
    if not np.all(np.isfinite(out)):
        raise ValueError("endpoints must be finite")
    return out


def free_kernel(x, y, t: float) -> float:
    """Heat kernel (2 pi t)^(-dim/2) exp(-|x - y|^2 / (2 t))."""
    _check_time(t)
    xv = np.atleast_1d(np.asarray(x, dtype=np.float64))
    yv = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if xv.shape != yv.shape:
        raise ValueError("x and y must have the same dimension")
    d2 = float(np.square(xv - yv).sum())
    dim = xv.size
    return float((2.0 * math.pi * t) ** (-0.5 * dim) * math.exp(-d2 / (2.0 * t)))


def action_integral(path: BridgePath, V: PotentialSpec, x, y, t: float) -> float:
    """Trapezoid approximation of integral_0^t V(path position) ds.

    The path position at grid time u = k/n_steps is
    (1 - u) x + u y + sqrt(t) alpha(u); the s-integral is t times the
    u-integral.
    """
    if path.dim != V.dim:
        raise ValueError("path and potential dimensions differ")
    _check_time(t)
    xp = _point(x, V.dim)
    yp = _point(y, V.dim)
    u = path.times
    pos = np.outer(1.0 - u, xp) + np.outer(u, yp) + math.sqrt(t) * path.values
    v = np.asarray(V.evaluate(pos), dtype=np.float64)
    inner = float(v[1:-1].sum()) if path.n_steps > 1 else 0.0
    return float(t * (0.5 * v[0] + inner + 0.5 * v[-1]) / path.n_steps)


def _trapezoid_grid(n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid times u_k = k / n_steps and trapezoid weights summing to one."""
    u = np.arange(n_steps + 1, dtype=np.float64) / n_steps
    tau = np.full(n_steps + 1, 1.0 / n_steps)
    tau[[0, -1]] *= 0.5
    return u, tau


def _bridge_blocks(gen: np.random.Generator, n_paths: int, n_steps: int, dim: int,
                   mirror_paths: bool = False, ends: bool = False):
    """The bridges of a chunk of `n_paths` paths drawn from `gen`, one row block at a time.

    The chunk's standard normals are drawn block after block into one
    reused buffer of at most `_BLOCK_ELEMENTS` elements (one path, if a
    path is larger); drawn in C order they are bit for bit the one-shot
    draw `gen.standard_normal((n_paths, n_steps, dim))`.  `mirror_paths`
    negates them.  Each block is turned into the bridge in place and
    yielded: nodes 1..n_steps (node 0 is zero and not stored), or with
    `ends` nodes 0..n_steps in a second reused buffer, bit for bit the
    rows of `bridge_values` of the chunk's normals.  The next block
    overwrites it.
    """
    rows = min(n_paths, max(1, _BLOCK_ELEMENTS // (n_steps * dim)))
    normals = np.empty((rows, n_steps, dim))
    nodes = np.zeros((rows, n_steps + 1, dim)) if ends else None
    for start in range(0, n_paths, rows):
        block = normals[:min(rows, n_paths - start)]
        gen.standard_normal(out=block)
        if mirror_paths:
            np.negative(block, out=block)
        _bridge_in_place(block)
        if ends:
            bridge = nodes[:len(block)]
            bridge[:, 1:] = block
            bridge[:, -1] = 0.0
            yield bridge
        else:
            yield block


def _bridge_sums(gen: np.random.Generator, n_paths: int, n_steps: int, dim: int, strides,
                 mirror_paths: bool = False) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Trapezoid sums A = sum' alpha, B = sum' u alpha, C = sum' |alpha|^2 per stride.

    The paths are those of `_bridge_blocks(gen, n_paths, n_steps, dim,
    mirror_paths)`.  Each block of bridges gives its rows of A and B by
    one matrix product, is squared in place and gives C by another.  A
    stride s, which must divide n_steps, restricts the path to the nodes
    that are multiples of s: a grid of n_steps / s steps.  Returns
    (A, B, C) for each stride in order, with A and B of shape
    (n_paths, dim) and C of shape (n_paths,).
    """
    ab_cols = np.zeros((n_steps, len(strides), 2))
    c_cols = np.zeros((n_steps, len(strides)))
    for level, s in enumerate(strides):
        u, tau = _trapezoid_grid(n_steps // s)
        ab_cols[s - 1::s, level, 0] = tau[1:]
        ab_cols[s - 1::s, level, 1] = (tau * u)[1:]
        c_cols[s - 1::s, level] = tau[1:]
    # rows follow the flattened (node, coordinate) axis of a path
    ab_cols = np.kron(ab_cols.reshape(n_steps, -1), np.eye(dim))
    c_cols = np.repeat(c_cols, dim, axis=0)
    ab = np.empty((n_paths, len(strides), 2, dim))
    c = np.empty((n_paths, len(strides)))
    start = 0
    for block in _bridge_blocks(gen, n_paths, n_steps, dim, mirror_paths):
        stop = start + len(block)
        flat = block.reshape(len(block), -1)
        np.matmul(flat, ab_cols, out=ab[start:stop].reshape(len(block), -1))
        np.square(flat, out=flat)
        np.matmul(flat, c_cols, out=c[start:stop])
        start = stop
    return [(ab[:, level, 0], ab[:, level, 1], c[:, level]) for level in range(len(strides))]


def _sums_weights(sums, xs: np.ndarray, ys: np.ndarray, t: float,
                  form: QuadraticForm, n_steps: int) -> np.ndarray:
    """exp(-trapezoid action) of an unclipped form from per-path sums.

    `xs` and `ys` hold endpoints of shape (n_x, dim) and (n_y, dim); the
    result has shape (n_x, n_y, n_paths).  Along (1-u) x + u y +
    sqrt(t) alpha the action is t times
    D(x, y) + 2 q sqrt(t) (x . (A - B) + y . B) + q t C + sqrt(t) g . A,
    where D is the trapezoid action of the straight line.
    """
    A, B, C = sums
    q = form.quad
    g = np.asarray(form.lin, dtype=np.float64)
    s = math.sqrt(t)
    u, tau = _trapezoid_grid(n_steps)
    w0, w1, w2 = tau @ np.square(1.0 - u), tau @ (u * (1.0 - u)), tau @ np.square(u)
    line = (q * (w0 * np.square(xs).sum(axis=1)[:, None] + 2.0 * w1 * (xs @ ys.T)
                 + w2 * np.square(ys).sum(axis=1)[None, :])
            + 0.5 * (xs @ g)[:, None] + 0.5 * (ys @ g)[None, :] + form.const)
    x_terms = (2.0 * q * s) * (xs @ (A - B).T)
    # the terms of the path alone ride along with the y terms
    y_terms = (2.0 * q * s) * (ys @ B.T) + (q * t * C + s * (A @ g))
    action = line[:, :, None] + x_terms[:, None, :]
    action += y_terms[None, :, :]
    action *= -t
    return np.exp(action, out=action)


def _unclipped(V: PotentialSpec) -> bool:
    return V.form is not None and V.form.floor == -math.inf


def _weights(alpha: np.ndarray, x: np.ndarray, y: np.ndarray, t: float,
             V: PotentialSpec, floors=None) -> list[np.ndarray]:
    """Path weights of max(V, floor) for each floor, from one evaluation of V.

    `floors=None` is the one-level case of V itself.  V is evaluated
    along the paths once (a form unclipped, a callable through
    `evaluate`) and each floor clips those values, so the weights of
    every floor equal those of `truncate(V, -floor)` evaluated alone, bit
    for bit.  Unclipped forms estimated alone never come here: they go
    through `_bridge_sums`.
    """
    if floors is None:
        floors = (-math.inf,)
    pos = _backend.path_positions(alpha, x, y, t)
    form = V.form
    if form is None:
        v = np.asarray(V.evaluate(pos), dtype=np.float64)
        if not (v.flags.owndata and v.flags.writeable):
            v = v.copy()  # the clip works in place; a view may alias the caller's data
        return _backend.floored_weights(v, floors, t)
    return _backend.floored_weights(_backend.form_values(pos, form),
                                    [max(form.floor, f) for f in floors], t)


def _chunk_weights(gen: np.random.Generator, n_paths: int, n_steps: int, x: np.ndarray,
                   y: np.ndarray, t: float, V: PotentialSpec, strides=(1,), floors=None,
                   mirror_paths: bool = False) -> list[np.ndarray]:
    """Weights of a chunk of paths drawn from `gen`, per stride and then per floor.

    A stride s restricts the paths to the nodes that are multiples of s,
    a grid of n_steps / s steps.  An unclipped form estimated alone is
    weighed from the trapezoid sums of `_bridge_sums`; anything else is
    evaluated along each block of `_bridge_blocks` by `_weights`.  Either
    way the chunk is streamed block by block, and each weight vector,
    of shape (n_paths,), is bit for bit that of the whole chunk at once.
    """
    if floors is None and _unclipped(V):
        levels = _bridge_sums(gen, n_paths, n_steps, V.dim, strides, mirror_paths)
        return [_sums_weights(sums, x[None], y[None], t, V.form, n_steps // s)[0, 0]
                for sums, s in zip(levels, strides)]
    parts = [[w for s in strides for w in _weights(bridge[:, ::s], x, y, t, V, floors)]
             for bridge in _bridge_blocks(gen, n_paths, n_steps, V.dim, mirror_paths, ends=True)]
    return [ws[0] if len(ws) == 1 else np.concatenate(ws) for ws in zip(*parts)]


def _chunk_stats(w: np.ndarray, top_k: int):
    """Count, mean, centred sum of squares, sum and top-k along the last axis."""
    n = w.shape[-1]
    mean = w.mean(axis=-1)
    m2 = np.square(w - mean[..., None]).sum(axis=-1)
    k = min(top_k, n)
    top = np.partition(w, n - k, axis=-1)[..., n - k:]
    return n, mean, m2, w.sum(axis=-1), top


def _merge_moments(a, b):
    """Chan et al. pairwise merge of (count, mean, centred sum of squares)."""
    na, ma, sa = a
    nb, mb, sb = b
    n = na + nb
    delta = mb - ma
    mean = ma + delta * (nb / n)
    m2 = sa + sb + delta * delta * (na * nb / n)
    return n, mean, m2


def _merge_stats(a, b, top_k: int):
    n, mean, m2 = _merge_moments(a[:3], b[:3])
    top = np.concatenate([a[4], b[4]], axis=-1)
    if top.shape[-1] > top_k:
        top = np.partition(top, -top_k, axis=-1)[..., -top_k:]
    return n, mean, m2, a[3] + b[3], top


def _std_error(n: int, m2):
    if n > 1:
        return np.sqrt(np.maximum(m2, 0.0) / (n - 1)) / math.sqrt(n)
    return np.zeros(np.shape(m2))


def _verdict(stats, top_k: int, heavy_fraction: float):
    """Standard error, heavy-mass fraction and divergence flag, elementwise.

    A zero total means every weight underflowed: no mass at all, so no
    evidence of a heavy tail, and the fraction reads 0.
    """
    n, mean, m2, total, top = stats
    std_error = _std_error(n, m2)
    k = min(top_k, top.shape[-1])
    top_sum = np.sort(top, axis=-1)[..., top.shape[-1] - k:].sum(axis=-1)
    fraction = np.divide(top_sum, total, out=np.zeros(np.shape(total)), where=total > 0.0)
    suspected = (n > top_k) & (fraction > heavy_fraction)
    suspected |= ~np.isfinite(mean) | ~np.isfinite(std_error)
    return std_error, fraction, suspected


def _finalize(stats, top_k: int, heavy_fraction: float, n_steps: int) -> QEstimate:
    std_error, fraction, suspected = _verdict(stats, top_k, heavy_fraction)
    return QEstimate(
        mean=float(stats[1]),
        std_error=float(std_error),
        n_samples=int(stats[0]),
        n_steps=int(n_steps),
        divergence_suspected=bool(suspected),
        heavy_mass_fraction=float(fraction),
    )


def _task_sizes(n_samples: int) -> list[int]:
    sizes = [_CHUNK] * (n_samples // _CHUNK)
    if n_samples % _CHUNK:
        sizes.append(n_samples % _CHUNK)
    return sizes


def _run_ordered(jobs, workers: int):
    """Run callables and return results in submission order."""
    if workers <= 1 or len(jobs) <= 1:
        return [job() for job in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(job) for job in jobs]
        return [f.result() for f in futures]


def estimate_Q(
    x,
    y,
    V: PotentialSpec,
    t: float,
    n_samples: int,
    n_steps: int,
    rng: RngSeed,
    *,
    top_k: int = 10,
    heavy_fraction: float = 0.5,
    workers: int = 1,
    key: tuple[int, ...] = (),
    mirror_paths: bool = False,
) -> QEstimate:
    """Monte Carlo mean of exp(-action) over independent bridges.

    Sample streams are keyed by (seed, stream_id, *key, chunk index), so
    results are bit-reproducible for a fixed seed independently of the
    worker count.  `mirror_paths` negates every path; for even
    potentials this realizes the exact pathwise symmetry
    Q(x, y) = Q(-x, -y).
    """
    return _estimates(x, y, V, t, n_samples, n_steps, rng, None, top_k=top_k,
                      heavy_fraction=heavy_fraction, workers=workers, key=key,
                      mirror_paths=mirror_paths)[0]


def _estimates(x, y, V: PotentialSpec, t: float, n_samples: int, n_steps: int,
               rng: RngSeed, floors, *, top_k: int, heavy_fraction: float, workers: int,
               key: tuple[int, ...] = (), mirror_paths: bool = False) -> list[QEstimate]:
    """Q estimates of max(V, floor) for each floor, from one draw of the paths.

    The keyed chunks are those of `estimate_Q`; `floors=None` estimates
    V itself (see `_weights`).
    """
    _check_time(t)
    _check_sampling(n_samples, n_steps, top_k, heavy_fraction, workers)
    xp = _point(x, V.dim)
    yp = _point(y, V.dim)

    def make_job(idx: int, count: int):
        def job():
            weights = _chunk_weights(rng.generator(*key, idx), count, n_steps, xp, yp, t, V,
                                     floors=floors, mirror_paths=mirror_paths)
            return [_chunk_stats(w, top_k) for w in weights]
        return job

    def merge(a, b):
        return [_merge_stats(p, q, top_k) for p, q in zip(a, b)]

    jobs = [make_job(i, c) for i, c in enumerate(_task_sizes(n_samples))]
    stats = reduce(merge, _run_ordered(jobs, workers))
    return [_finalize(s, top_k, heavy_fraction, n_steps) for s in stats]


@lru_cache(maxsize=32)
def _leggauss(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


def _tensor_gauss_legendre(box, nodes_per_axis: int):
    """Gauss-Legendre product rule on a box; returns (points, weights)."""
    lower, upper = (np.asarray(c, dtype=np.float64) for c in box)
    base_x, base_w = _leggauss(nodes_per_axis)
    axes_x = []
    axes_w = []
    for lo, hi in zip(lower, upper):
        mid = 0.5 * (hi + lo)
        half = 0.5 * (hi - lo)
        axes_x.append(mid + half * base_x)
        axes_w.append(half * base_w)
    mesh = np.meshgrid(*axes_x, indexing="ij")
    points = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    weights = axes_w[0]
    for w in axes_w[1:]:
        weights = np.multiply.outer(weights, w)
    return points, np.asarray(weights).reshape(-1)


def bump(center=0.0, width: float = 1.0, dim: int = 1) -> Wavefunction:
    """Smooth radial bump supported on the closed ball |x - center| <= width."""
    if width <= 0.0:
        raise ValueError("width must be positive")
    c = np.ascontiguousarray(np.broadcast_to(np.asarray(center, dtype=np.float64), (dim,)))

    def evaluate(points):
        pts = np.asarray(points, dtype=np.float64)
        r2 = np.square((pts - c) / width).sum(axis=-1)
        inside = r2 < 1.0
        safe = np.where(inside, r2, 0.0)
        return np.where(inside, np.exp(-1.0 / (1.0 - safe)), 0.0)

    return Wavefunction(
        dim=dim,
        evaluate=evaluate,
        support_box=(tuple(c - width), tuple(c + width)),
        kind="compact",
        name=f"bump(center={center!r}, width={width:g})",
    )


def _erfc_inv(q: float) -> float:
    if not 0.0 < q < 1.0:
        raise ValueError("tail mass must lie in (0, 1)")
    lo, hi = 0.0, 40.0
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if math.erfc(mid) > q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def gaussian(center=0.0, sigma: float = 1.0, dim: int = 1,
             tail_mass: float = 1e-8) -> Wavefunction:
    """Gaussian exp(-|x - center|^2 / (2 sigma^2)) with a truncation box.

    The box extends to the radius where the per-axis L^2 mass outside it
    is below tail_mass / dim, so the total neglected mass is below
    tail_mass.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    c = np.ascontiguousarray(np.broadcast_to(np.asarray(center, dtype=np.float64), (dim,)))
    radius = sigma * _erfc_inv(tail_mass / dim)

    def evaluate(points):
        pts = np.asarray(points, dtype=np.float64)
        r2 = np.square(pts - c).sum(axis=-1)
        return np.exp(-r2 / (2.0 * sigma * sigma))

    return Wavefunction(
        dim=dim,
        evaluate=evaluate,
        support_box=(tuple(c - radius), tuple(c + radius)),
        kind="gaussian-weighted",
        name=f"gaussian(center={center!r}, sigma={sigma:g})",
    )


def l2_norm(psi: Wavefunction, nodes_per_axis: int = 64) -> float:
    """L^2 norm over the support box by Gauss-Legendre quadrature."""
    points, weights = _tensor_gauss_legendre(psi.support_box, nodes_per_axis)
    values = np.asarray(psi.evaluate(points), dtype=np.float64)
    return float(math.sqrt(float(weights @ np.square(values))))


def matrix_element(
    phi: Wavefunction,
    psi: Wavefunction,
    V: PotentialSpec,
    t: float,
    quadrature: QuadratureConfig,
    mc: McConfig,
    rng: RngSeed,
    *,
    workers: int = 1,
) -> MatrixElementEstimate:
    """<phi, e^{-tH} psi> by tensor quadrature of Q over the supports.

    For an unclipped quadratic form (`zero`, `harmonic`, `stark`,
    `inverted_quadratic`) every (x, y) node pair reuses one set of
    paths, drawn in the keyed chunks that `estimate_Q` uses with
    key=(), and each path enters only through its trapezoid sums.  The
    standard error then comes from the per-path totals
    sum_ij coef_ij w_ij(path), which carry the correlation between
    nodes that sharing creates.  A clipped form (a truncation) or a
    callable potential gives every node pair its own stream keyed by the
    index pair, so calls with truncations of one potential at a fixed
    seed compare the same paths across levels.  Either way a fixed seed
    gives bit-identical results for any worker count.
    """
    return _matrix_elements(phi, psi, V, t, quadrature, mc, rng, None, workers=workers)[0]


def _matrix_elements(phi: Wavefunction, psi: Wavefunction, V: PotentialSpec, t: float,
                     quadrature: QuadratureConfig, mc: McConfig, rng: RngSeed, floors, *,
                     workers: int) -> list[MatrixElementEstimate]:
    """Matrix elements of max(V, floor) for each floor, from one draw per node pair.

    Node pair (i, j) draws the keyed chunks (i, j, chunk) once for all
    floors, so every floor's estimate equals that of `matrix_element`
    on `truncate(V, -floor)` and the floors compare the same paths.
    `floors=None` estimates V itself, on shared paths if V is an
    unclipped form.
    """
    _check_time(t)
    if phi.dim != V.dim or psi.dim != V.dim:
        raise ValueError("wavefunction and potential dimensions differ")
    for wf in (phi, psi):
        if not all(math.isfinite(v) for corner in wf.support_box for v in corner):
            raise ValueError("support box must be finite; unbounded supports need a truncation radius")

    x_pts, x_wts = _tensor_gauss_legendre(phi.support_box, quadrature.nodes_per_axis)
    y_pts, y_wts = _tensor_gauss_legendre(psi.support_box, quadrature.nodes_per_axis)
    fx = np.asarray(phi.evaluate(x_pts), dtype=np.float64)
    fy = np.asarray(psi.evaluate(y_pts), dtype=np.float64)
    d2 = np.square(x_pts[:, None, :] - y_pts[None, :, :]).sum(axis=-1)
    kernel = (2.0 * math.pi * t) ** (-0.5 * V.dim) * np.exp(-d2 / (2.0 * t))
    coef = (x_wts * fx)[:, None] * (y_wts * fy)[None, :] * kernel

    n_x = x_pts.shape[0]
    n_y = y_pts.shape[0]

    def estimate(value, std_error, divergence_nodes):
        return MatrixElementEstimate(
            value=float(value),
            std_error=float(std_error),
            quadrature_nodes=n_x * n_y,
            mc_samples_per_node=mc.n_samples,
            divergence_nodes=divergence_nodes,
        )

    if floors is None and _unclipped(V):
        return [estimate(*_shared_path_element(x_pts, y_pts, coef.reshape(-1), V, t, mc, rng,
                                               workers))]

    def make_job(i: int, j: int):
        def job():
            return _estimates(x_pts[i], y_pts[j], V, t, mc.n_samples, mc.n_steps, rng, floors,
                              top_k=mc.top_k, heavy_fraction=mc.heavy_fraction, workers=1,
                              key=(i, j))
        return job

    jobs = [make_job(i, j) for i in range(n_x) for j in range(n_y)]
    elements = []
    for level in zip(*_run_ordered(jobs, workers)):
        value = 0.0
        variance = 0.0
        divergence_nodes = 0
        for idx, q in enumerate(level):
            c = coef[idx // n_y, idx % n_y]
            value += c * q.mean
            variance += (c * q.std_error) ** 2
            divergence_nodes += int(q.divergence_suspected)
        elements.append(estimate(value, math.sqrt(variance), divergence_nodes))
    return elements


def _shared_path_element(x_pts: np.ndarray, y_pts: np.ndarray, coef: np.ndarray,
                         V: PotentialSpec, t: float, mc: McConfig, rng: RngSeed,
                         workers: int) -> tuple[float, float, int]:
    """Value, standard error and flagged node count from one set of paths.

    `coef` holds the quadrature coefficient of each node pair, x-major.
    Weights exist only one (node pairs x paths) block at a time; each
    block yields per-node stats, for the divergence flags, and the
    moments of the per-path totals coef . w, for the value and its error.
    The totals are centred on the block's node means, so paths that all
    carry the same weights give exactly zero spread.
    """
    block = max(1, _BLOCK_ELEMENTS // coef.size)

    def block_stats(sums):
        w = _sums_weights(sums, x_pts, y_pts, t, V.form, mc.n_steps).reshape(coef.size, -1)
        nodes = _chunk_stats(w, mc.top_k)
        spread = coef @ (w - nodes[1][:, None])
        return nodes, (w.shape[1], float(coef @ nodes[1]), float(spread @ spread))

    def merge(a, b):
        return _merge_stats(a[0], b[0], mc.top_k), _merge_moments(a[1], b[1])

    def make_job(idx: int, count: int):
        def job():
            sums = _bridge_sums(rng.generator(idx), count, mc.n_steps, V.dim, (1,))[0]
            return reduce(merge, (block_stats([s[i:i + block] for s in sums])
                                  for i in range(0, count, block)))
        return job

    jobs = [make_job(i, c) for i, c in enumerate(_task_sizes(mc.n_samples))]
    nodes, (n, value, m2) = reduce(merge, _run_ordered(jobs, workers))
    _, _, suspected = _verdict(nodes, mc.top_k, mc.heavy_fraction)
    return value, float(_std_error(n, m2)), int(suspected.sum())


def _fit_order(schedule, diffs) -> float | None:
    if len(diffs) < 2:
        return None
    signs = {math.copysign(1.0, d) for d in diffs if d != 0.0}
    if len(signs) != 1 or any(d == 0.0 for d in diffs):
        return None
    log_n = np.log([float(n) for n in schedule[:-1]])
    log_d = np.log([abs(d) for d in diffs])
    slope = np.polyfit(log_n, log_d, 1)[0]
    return float(-slope)


def refine_steps(
    x,
    y,
    V: PotentialSpec,
    t: float,
    n_samples: int,
    steps_schedule,
    rng: RngSeed,
    *,
    mode: str = "restricted",
    top_k: int = 10,
    heavy_fraction: float = 0.5,
    workers: int = 1,
    key: tuple[int, ...] = (),
) -> RefinementReport:
    """Rerun the Q estimate over a schedule of grid resolutions.

    mode "restricted" draws the finest paths once and restricts them to
    the coarser grids (every entry must divide the last), so successive
    differences are coupled path by path and their standard errors come
    from the per-path differences.  For an unclipped quadratic form the
    trapezoid sums of every grid come from one pass over each chunk's
    normals (see `_bridge_sums`); other potentials are evaluated along
    the restricted views of each block of bridges.  mode
    "independent" gives each resolution a fresh stream derived from the
    same seed; differences are then compared through independent-error
    bars.  Both modes are deterministic for a fixed seed, and both take
    only positive integer step counts.
    """
    schedule = list(steps_schedule)
    if any(isinstance(n, bool) or not isinstance(n, numbers.Integral) for n in schedule):
        raise ValueError("steps_schedule entries must be integers")
    schedule = [int(n) for n in schedule]
    if any(n < 1 for n in schedule):
        raise ValueError("steps_schedule entries must be positive")
    if len(schedule) < 2:
        raise ValueError("steps_schedule needs at least two entries")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("steps_schedule must be strictly increasing")
    if mode not in ("restricted", "independent"):
        raise ValueError("mode must be 'restricted' or 'independent'")
    _check_time(t)
    _check_sampling(n_samples, schedule[-1], top_k, heavy_fraction, workers)

    if mode == "independent":
        estimates = [
            estimate_Q(
                x, y, V, t, n_samples, n, rng,
                top_k=top_k, heavy_fraction=heavy_fraction,
                workers=workers, key=(*key, idx),
            )
            for idx, n in enumerate(schedule)
        ]
        diffs = [b.mean - a.mean for a, b in zip(estimates, estimates[1:])]
        errs = [math.hypot(a.std_error, b.std_error)
                for a, b in zip(estimates, estimates[1:])]
        return RefinementReport(
            mode=mode,
            schedule=tuple(schedule),
            estimates=tuple(estimates),
            diff_means=tuple(float(d) for d in diffs),
            diff_std_errors=tuple(float(e) for e in errs),
            fitted_order=_fit_order(schedule, diffs),
        )

    n_max = schedule[-1]
    if any(n_max % n for n in schedule):
        raise ValueError("restricted mode needs every entry to divide the largest")
    xp = _point(x, V.dim)
    yp = _point(y, V.dim)
    n_levels = len(schedule)

    def make_job(idx: int, count: int):
        def job():
            weights = _chunk_weights(rng.generator(*key, idx), count, n_max, xp, yp, t, V,
                                     [n_max // n for n in schedule])
            per_level = [_chunk_stats(w, top_k) for w in weights]
            per_diff = [_chunk_stats(weights[l + 1] - weights[l], 1)
                        for l in range(n_levels - 1)]
            return per_level, per_diff
        return job

    jobs = [make_job(i, c) for i, c in enumerate(_task_sizes(n_samples))]
    results = _run_ordered(jobs, workers)
    level_stats = list(results[0][0])
    diff_stats = list(results[0][1])
    for levels_part, diffs_part in results[1:]:
        level_stats = [_merge_stats(a, b, top_k) for a, b in zip(level_stats, levels_part)]
        diff_stats = [_merge_stats(a, b, 1) for a, b in zip(diff_stats, diffs_part)]

    estimates = [_finalize(s, top_k, heavy_fraction, n)
                 for s, n in zip(level_stats, schedule)]
    diff_means = [float(s[1]) for s in diff_stats]
    diff_errs = [float(_std_error(s[0], s[2])) for s in diff_stats]
    return RefinementReport(
        mode=mode,
        schedule=tuple(schedule),
        estimates=tuple(estimates),
        diff_means=tuple(diff_means),
        diff_std_errors=tuple(diff_errs),
        fitted_order=_fit_order(schedule, diff_means),
    )
