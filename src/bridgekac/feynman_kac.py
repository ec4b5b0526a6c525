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
bit for bit as the chunk would be drawn at once.  A block holds at most
2^17 numbers (1 MB), so that it and the buffers reused beside it fit in
a core's L2 cache (2 MB per core on the host measured, where op times
were 6-7 % lower than with 4 MB blocks).  Every per-path intermediate of
an estimate, the trapezoid sums, positions and potential values, exists
for one block only, and only the chunk's weights span all its paths; a
shared-path matrix element cuts each block's sums into (node pairs x
paths) weight blocks under the same cap.  For an unclipped
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
from functools import lru_cache, partial, reduce
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
# Cap on the row block of normals that `_bridge_blocks` draws and turns
# into bridges at once: 1 MB of float64.  The block and its detrend work
# buffer (or a callable's positions buffer) then fit together in one
# core's 2 MB L2 on the 2-core x86-64 host measured, where a 4 MB block
# alone did not: q-point and refine-long ops (one BLAS thread) took
# 6-7 % less time at 2**17 than at 2**19; 2**16 was within the noise of
# 2**17 and 2**15 slower.
_BLOCK_ELEMENTS = 2**17


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
    for name, value in (("n_samples", n_samples), ("n_steps", n_steps), ("top_k", top_k)):
        _check_integer(name, value)
    if n_samples < 1 or n_steps < 1:
        raise ValueError("n_samples and n_steps must be positive")
    if top_k < 1:
        raise ValueError("top_k must be positive")
    if not 0.0 < heavy_fraction < 1.0:
        raise ValueError("heavy_fraction must lie in (0, 1)")
    _check_workers(workers)


def _check_integer(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer")


def _check_workers(workers) -> None:
    _check_integer("workers", workers)
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
        _check_integer("nodes_per_axis", self.nodes_per_axis)
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


def _block_rows(n_paths: int, n_steps: int, dim: int) -> int:
    """Paths per row block: at most `_BLOCK_ELEMENTS` normals, one path if a path is larger."""
    return min(n_paths, max(1, _BLOCK_ELEMENTS // (n_steps * dim)))


def _bridge_blocks(gen: np.random.Generator, n_paths: int, n_steps: int, dim: int,
                   work: np.ndarray | None = None):
    """The bridges of a chunk of `n_paths` paths drawn from `gen`, one row block at a time.

    The chunk's standard normals are drawn block after block into one
    reused buffer of `_block_rows` paths; drawn in C order they are bit
    for bit the one-shot draw `gen.standard_normal((n_paths, n_steps,
    dim))`.  Each block is turned into the bridge in place, its detrend
    formed in `work` (a reused buffer of the full block's shape,
    allocated here if None), and yielded: nodes 1..n_steps, bit for bit
    the rows of `bridge_values(normals)[:, 1:]` (node 0 is zero and not
    stored).  The next block overwrites it.
    """
    rows = _block_rows(n_paths, n_steps, dim)
    normals = np.empty((rows, n_steps, dim))
    if work is None:
        work = np.empty_like(normals)
    for start in range(0, n_paths, rows):
        block = normals[:min(rows, n_paths - start)]
        gen.standard_normal(out=block)
        _bridge_in_place(block, work[:len(block)])
        yield block


def _position_blocks(gen: np.random.Generator, n_paths: int, n_steps: int, x: np.ndarray,
                     y: np.ndarray, t: float):
    """Positions (1-u) x + u y + sqrt(t) alpha(u) of the bridges of `_bridge_blocks`.

    Each row block is yielded as nodes 0..n_steps of shape (rows,
    n_steps + 1, dim) in one reused buffer, which also serves as the
    detrend work buffer; the values are bit for bit those of
    `backend.path_positions` on the rows of `bridge_values`.  The next
    block overwrites it.
    """
    dim = x.size
    pos = np.empty((_block_rows(n_paths, n_steps, dim), n_steps + 1, dim))
    base = _backend._line_positions(n_steps, x, y)
    s = np.sqrt(t)
    for block in _bridge_blocks(gen, n_paths, n_steps, dim, work=pos[:, 1:]):
        p = pos[:len(block)]
        # the order of path_positions: sqrt(t) alpha first, then the line
        p[:, 0] = base[0] + s * 0.0
        np.multiply(block, s, out=p[:, 1:])
        p[:, 1:] += base[1:]
        yield p


def _bridge_sums(gen: np.random.Generator, n_paths: int, n_steps: int, dim: int, strides):
    """Trapezoid sums A = sum' alpha, B = sum' u alpha, C = sum' |alpha|^2 per stride.

    The paths are those of `_bridge_blocks(gen, n_paths, n_steps, dim)`.
    Each block of bridges gives A and B by one matrix product, is squared
    in place and gives C by another.  A stride s, which must divide
    n_steps, restricts the path to the nodes that are multiples of s: a
    grid of n_steps / s steps.  Yields, block after block, a list of
    (A, B, C) for each stride in order, with A and B of shape (rows, dim)
    and C of shape (rows,).
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
    for block in _bridge_blocks(gen, n_paths, n_steps, dim):
        flat = block.reshape(len(block), -1)
        ab = (flat @ ab_cols).reshape(len(block), len(strides), 2, dim)
        np.square(flat, out=flat)
        c = flat @ c_cols
        yield [(ab[:, level, 0], ab[:, level, 1], c[:, level]) for level in range(len(strides))]


def _line_action(xs: np.ndarray, ys: np.ndarray, form: QuadraticForm,
                 n_steps: int) -> np.ndarray:
    """Trapezoid action D(x, y), per unit time, of an unclipped form along
    the straight lines from `xs` (n_x, dim) to `ys` (n_y, dim); shape (n_x, n_y)."""
    q = form.quad
    g = np.asarray(form.lin, dtype=np.float64)
    u, tau = _trapezoid_grid(n_steps)
    w0, w1, w2 = tau @ np.square(1.0 - u), tau @ (u * (1.0 - u)), tau @ np.square(u)
    return (q * (w0 * np.square(xs).sum(axis=1)[:, None] + 2.0 * w1 * (xs @ ys.T)
                 + w2 * np.square(ys).sum(axis=1)[None, :])
            + 0.5 * (xs @ g)[:, None] + 0.5 * (ys @ g)[None, :] + form.const)


def _sums_weights(sums, xs: np.ndarray, ys: np.ndarray, t: float,
                  form: QuadraticForm, line: np.ndarray) -> np.ndarray:
    """exp(-trapezoid action) of an unclipped form from per-path sums.

    `xs` and `ys` hold endpoints of shape (n_x, dim) and (n_y, dim) and
    `line` their `_line_action` on the paths' grid; the result has shape
    (n_x, n_y, n_paths).  Along (1-u) x + u y + sqrt(t) alpha the action
    is t times D(x, y) + 2 q sqrt(t) (x . (A - B) + y . B) + q t C +
    sqrt(t) g . A.
    """
    A, B, C = sums
    q = form.quad
    g = np.asarray(form.lin, dtype=np.float64)
    s = math.sqrt(t)
    x_terms = (2.0 * q * s) * (xs @ (A - B).T)
    # the terms of the path alone ride along with the y terms
    y_terms = (2.0 * q * s) * (ys @ B.T) + (q * t * C + s * (A @ g))
    action = line[:, :, None] + x_terms[:, None, :]
    action += y_terms[None, :, :]
    action *= -t
    return np.exp(action, out=action)


def _unclipped(V: PotentialSpec) -> bool:
    return V.form is not None and V.form.floor == -math.inf


def _weights(pos: np.ndarray, t: float, V: PotentialSpec, floors=None) -> list[np.ndarray]:
    """Path weights of max(V, floor) for each floor, from one evaluation of V.

    `pos` holds path positions of shape (n_paths, n_steps + 1, dim), as
    from `backend.path_positions`.  `floors=None` is the one-level case
    of V itself.  V is evaluated along the paths once (a form unclipped,
    a callable through `evaluate`) and each floor clips those values, so
    the weights of every floor equal those of `truncate(V, -floor)`
    evaluated alone, bit for bit.  Unclipped forms estimated alone never
    come here: they go through `_bridge_sums`.
    """
    if floors is None:
        floors = (-math.inf,)
    form = V.form
    if form is None:
        v = np.asarray(V.evaluate(pos), dtype=np.float64)
        if not (v.flags.owndata and v.flags.writeable):
            v = v.copy()  # the clip works in place; a view may alias the caller's data
        return _backend.floored_weights(v, floors, t)
    return _backend.floored_weights(_backend.form_values(pos, form),
                                    [max(form.floor, f) for f in floors], t)


def _chunk_weights(gen: np.random.Generator, n_paths: int, n_steps: int, x: np.ndarray,
                   y: np.ndarray, t: float, V: PotentialSpec, strides=(1,),
                   floors=None) -> np.ndarray:
    """Weights of a chunk of paths drawn from `gen`, one row per stride and then per floor.

    A stride s restricts the paths to the nodes that are multiples of s,
    a grid of n_steps / s steps.  An unclipped form estimated alone is
    weighed from the trapezoid sums of `_bridge_sums`; anything else is
    evaluated along each block of `_position_blocks` by `_weights`.
    Either way the chunk is streamed block by block and each block's
    weights are written into the result, of shape (rows, n_paths).  For
    a callable or a clipped form it is bit for bit the weights of the
    whole chunk at once.

    A callable may write to the positions it is given.  The last stride
    is evaluated on the positions buffer itself, which the next block
    rewrites; every earlier stride gets a copy of its view, so no stride
    sees what a callable left in another's positions.
    """
    n_floors = 1 if floors is None else len(floors)
    weights = np.empty((len(strides) * n_floors, n_paths))
    start = 0
    if floors is None and _unclipped(V):
        xs, ys = x[None], y[None]
        lines = [_line_action(xs, ys, V.form, n_steps // s) for s in strides]
        for levels in _bridge_sums(gen, n_paths, n_steps, V.dim, strides):
            stop = start + len(levels[0][2])
            for row, (sums, line) in enumerate(zip(levels, lines)):
                weights[row, start:stop] = _sums_weights(sums, xs, ys, t, V.form, line)[0, 0]
            start = stop
        return weights
    last = len(strides) - 1
    for pos in _position_blocks(gen, n_paths, n_steps, x, y, t):
        stop = start + len(pos)
        views = (pos[:, ::s].copy() if V.form is None and level < last else pos[:, ::s]
                 for level, s in enumerate(strides))
        weights[:, start:stop] = [w for view in views for w in _weights(view, t, V, floors)]
        start = stop
    return weights


def _chunk_stats(w: np.ndarray, top_k: int):
    """Count, mean, centred sum of squares, sum and top-k along the last axis.

    One scratch array of w's shape holds the centred squares and then the
    partitioned copy of w.
    """
    n = w.shape[-1]
    mean = w.mean(axis=-1)
    work = w - mean[..., None]
    m2 = np.square(work, out=work).sum(axis=-1)
    k = min(top_k, n)
    np.copyto(work, w)
    work.partition(n - k, axis=-1)
    return n, mean, m2, w.sum(axis=-1), work[..., n - k:].copy()


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


def _finalize(stats, top_k: int, heavy_fraction: float, steps) -> list[QEstimate]:
    """One estimate per row of stats merged over (rows, paths) weights;
    `steps` gives each row's step count."""
    std_error, fraction, suspected = _verdict(stats, top_k, heavy_fraction)
    return [
        QEstimate(
            mean=float(mean),
            std_error=float(err),
            n_samples=int(stats[0]),
            n_steps=int(n),
            divergence_suspected=bool(flag),
            heavy_mass_fraction=float(frac),
        )
        for mean, err, flag, frac, n in zip(stats[1], std_error, suspected, fraction, steps)
    ]


def _run_ordered(jobs, workers: int):
    """Run callables and return results in submission order."""
    if workers <= 1 or len(jobs) <= 1:
        return [job() for job in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(job) for job in jobs]
        return [f.result() for f in futures]


def _over_chunks(rng: RngSeed, key: tuple[int, ...], n_samples: int, workers: int,
                 chunk, merge):
    """Reduce `n_samples` paths in keyed chunks and merge the results in chunk order.

    Chunk i holds `_CHUNK` paths (the last one the rest) drawn from stream
    (*key, i), and `chunk(gen, count)` reduces it.  The chunks run on
    `workers` threads but merge in a fixed order, so a fixed seed gives
    bit-identical results for any worker count.
    """
    def job(i: int):
        return chunk(rng.generator(*key, i), min(_CHUNK, n_samples - i * _CHUNK))

    jobs = [partial(job, i) for i in range(-(-n_samples // _CHUNK))]
    return reduce(merge, _run_ordered(jobs, workers))


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
) -> QEstimate:
    """Monte Carlo mean of exp(-action) over independent bridges.

    Sample streams are keyed by (seed, stream_id, *key, chunk index), so
    results are bit-reproducible for a fixed seed independently of the
    worker count.
    """
    return _estimates(x, y, V, t, n_samples, n_steps, rng, None, top_k=top_k,
                      heavy_fraction=heavy_fraction, workers=workers, key=key)[0]


def _estimates(x, y, V: PotentialSpec, t: float, n_samples: int, n_steps: int,
               rng: RngSeed, floors, *, top_k: int, heavy_fraction: float, workers: int,
               key: tuple[int, ...] = ()) -> list[QEstimate]:
    """Q estimates of max(V, floor) for each floor, from one draw of the paths.

    The keyed chunks are those of `estimate_Q`; `floors=None` estimates
    V itself (see `_weights`).
    """
    _check_time(t)
    _check_sampling(n_samples, n_steps, top_k, heavy_fraction, workers)
    xp = _point(x, V.dim)
    yp = _point(y, V.dim)

    def chunk(gen: np.random.Generator, count: int):
        return _chunk_stats(_chunk_weights(gen, count, n_steps, xp, yp, t, V, floors=floors),
                            top_k)

    stats = _over_chunks(rng, key, n_samples, workers, chunk,
                         lambda a, b: _merge_stats(a, b, top_k))
    return _finalize(stats, top_k, heavy_fraction, [n_steps] * len(stats[1]))


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
    seed compare the same paths across levels.  They do not share paths
    because it does not pay: such a potential is evaluated along each
    path at every node pair anyway, and the correlated error bar of
    shared paths is several times the per-node one (about 5x for the
    harmonic form at 6 x 6 nodes, about 3x for a truncated inverted
    quadratic at 8 x 8), so the cost of a given error would grow.
    Either way a fixed seed gives bit-identical results for any worker
    count.
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
    _check_workers(workers)
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
    Weights exist only one (node pairs x paths) block of at most
    `_BLOCK_ELEMENTS` numbers at a time, cut from a block of bridge sums;
    each yields per-node stats, for the divergence flags, and the
    moments of the per-path totals coef . w, for the value and its error.
    The totals are centred on the block's node means, so paths that all
    carry the same weights give exactly zero spread.
    """
    rows = max(1, _BLOCK_ELEMENTS // coef.size)
    line = _line_action(x_pts, y_pts, V.form, mc.n_steps)

    def block_stats(sums):
        w = _sums_weights(sums, x_pts, y_pts, t, V.form, line).reshape(coef.size, -1)
        nodes = _chunk_stats(w, mc.top_k)
        spread = coef @ (w - nodes[1][:, None])
        return nodes, (w.shape[1], float(coef @ nodes[1]), float(spread @ spread))

    def merge(a, b):
        return _merge_stats(a[0], b[0], mc.top_k), _merge_moments(a[1], b[1])

    def chunk(gen: np.random.Generator, count: int):
        return reduce(merge, (block_stats([s[i:i + rows] for s in sums])
                              for (sums,) in _bridge_sums(gen, count, mc.n_steps, V.dim, (1,))
                              for i in range(0, len(sums[2]), rows)))

    nodes, (n, value, m2) = _over_chunks(rng, (), mc.n_samples, workers, chunk, merge)
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
                workers=workers, key=(idx,),
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

    def chunk(gen: np.random.Generator, count: int):
        weights = _chunk_weights(gen, count, n_max, xp, yp, t, V, [n_max // n for n in schedule])
        level_stats = _chunk_stats(weights, top_k)
        # successive differences in place, from the finest level down
        for level in range(len(schedule) - 1, 0, -1):
            weights[level] -= weights[level - 1]
        return level_stats, _chunk_stats(weights[1:], 1)

    def merge(a, b):
        return _merge_stats(a[0], b[0], top_k), _merge_stats(a[1], b[1], 1)

    level_stats, diff_stats = _over_chunks(rng, (), n_samples, workers, chunk, merge)
    estimates = _finalize(level_stats, top_k, heavy_fraction, schedule)
    diff_means = [float(m) for m in diff_stats[1]]
    diff_errs = [float(e) for e in _std_error(diff_stats[0], diff_stats[2])]
    return RefinementReport(
        mode=mode,
        schedule=tuple(schedule),
        estimates=tuple(estimates),
        diff_means=tuple(diff_means),
        diff_std_errors=tuple(diff_errs),
        fitted_order=_fit_order(schedule, diff_means),
    )
