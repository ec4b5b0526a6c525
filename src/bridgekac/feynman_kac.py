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
row block at a time into a reused buffer of standard normals and
reduced to per-path numbers before the next block is drawn, so memory
does not grow with the chunk, nor with the time grid until one path
alone outgrows a block; the blocks are drawn bit for bit as the chunk
would be drawn at once.  A block holds at most 2^17 numbers (1 MB), so
that it and the buffers reused beside it fit in a core's L2 cache (2 MB
per core on the host measured, where op times were 6-7 % lower than
with 4 MB blocks); the walk below keeps six buffers per block, so its
blocks are a sixth of that.  Every per-path intermediate of an
estimate, the trapezoid sums, bridge values, positions and potential
values, exists for one block only; the pair units of the walk span a
chunk, and those of an unclipped form fill one reused buffer under the
same cap, reduced each time it fills.

The bridge law is centred, so a path alpha and its mirror -alpha are
equally likely.  Every estimator draws ceil(count / 2) of a chunk's
count paths and weighs each drawn path a second time as its mirror,
which costs no draws (antithetic variates; Hammersley & Morton 1956).
The two weights reduce at once to one pair unit
(w(alpha) + w(-alpha)) / 2; when the count is odd, the chunk's last
drawn path has no mirror and is a unit of its own.  Every later
reduction is linear: the records below, the control differences
w - w_ref, the successive differences of `refine_steps` and the
shared-path totals.  Taken over units, they give error bars that
account for the pairing, while `n_samples` still counts paths.  Terms
odd in alpha, such as those of a linear potential, cancel within a
pair: for `stark` the two weights of a pair correlate at about -0.92.

The two kinds of potential read the normals as two realizations of the
bridge law (see `stochastic`).  For an unclipped quadratic potential
V(z) = q |z|^2 + g . z + c the trapezoid action of a path is linear in
three of its trapezoid sums, A = sum' alpha, B = sum' u alpha and
C = sum' |alpha|^2, plus terms that depend on x and y alone.  Such
potentials draw each path as its n_steps - 1 sine coordinates per
coordinate axis and take the sums from them by matrix products, without
ever forming node values (`_bridge_sums`); this lets `matrix_element`
reuse one set of paths at every quadrature node pair, and `refine_steps`
gets the sums of every grid of its schedule from the same pass.
A mirror's sums are -A, -B and C, so it needs no further products.
One function reduces every estimate of such a form (`_sums_records`),
at one node pair or all quadrature nodes, on one grid or several.
Callables and clipped forms need the values at the nodes: they draw
n_steps increments per path and coordinate and turn each block into the
bridge node-major, node k of every path in row k, by the walk, whose
steps then act on whole rows (`_bridge_blocks`).  A clipped form is
weighed from the bridge values alone, with no positions: along
(1-u) x + u y + sqrt(t) alpha its value is E + O, E even and O odd in
alpha (`backend.form_parts`), so the mirror's values are E - O.  A
callable is evaluated at the positions of the block's paths and then at
those of their mirrors, rewritten from the same block.  Each floor's
trapezoid action is taken from the values directly, and a path's
weight is bit for bit the same whatever other paths share its block.
Truncations max(V, -n) of one potential share the other way: V is
evaluated along a path once and each level clips the values, so a
truncation study draws and evaluates each path once for all levels.
Along the walk the node pairs of a matrix element draw their own
streams, but consecutive pairs of one chunk of paths each share row
blocks, and their records come from one reduction (`_pair_estimates`).
A clipped form also carries its own control variate: the unclipped
form's weight w_ref of the same path, whose mean on the time grid,
`stochastic.gaussian_q`, is a Gaussian integral known exactly.  Each
level then averages w - w_ref, which is zero on every pair whose path
and mirror its floor does not touch, provided w_ref has finite variance
(see `_pair_estimates`).

Each chunk reduces each row of pair units to one record, `_Stats`:
count, mean, centred sum of squares, total and the 10 heaviest units,
merged pairwise in chunk order (Chan, Golub & LeVeque 1979).  A row
whose largest |w| lies below 1e-100 holds its squares in units of that
|w|, so the error bar of weights near 1e-185 does not underflow to 0;
other rows sum as plain floats.  When the 10 heaviest units hold more
than half of the total weight, the estimate is flagged
`divergence_suspected` if it has more than 10 / 0.5 = 20 units (the
10 of fewer hold that much of any sample).  Monte Carlo cannot certify
an infinite expectation; the flag marks estimates that behave like one.
"""

from __future__ import annotations

import math
import numbers
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from typing import Callable

import numpy as np

from . import backend as _backend
from .potentials import PotentialSpec, QuadraticForm, _check_dim
# bridge_values is not called here: the benchmark's traced run wraps this name
from .stochastic import (RngSeed, _line_weights, _sine_amplitudes, _sine_transform,
                         _trapezoid_grid, bridge_values, gaussian_q, is_divergent)  # noqa: F401

__all__ = [
    "MatrixElementEstimate",
    "McConfig",
    "QEstimate",
    "QuadratureConfig",
    "RefinementReport",
    "Wavefunction",
    "bump",
    "estimate_Q",
    "free_kernel",
    "gaussian",
    "matrix_element",
    "refine_steps",
]

_CHUNK = 32768
# Cap on the row block of sine coordinates that `_bridge_sums` draws at
# once, on the unit buffer of `_sums_units` and on the walk's buffers
# together: 1 MB of float64.  The block and the buffers reused beside it
# then fit in one core's 2 MB L2 on the 2-core x86-64 host measured, where
# a 4 MB block alone did not: q-point and refine-long ops (one BLAS
# thread) took 6-7 % less time at 2**17 than at 2**19; 2**16 was within
# the noise of 2**17 and 2**15 slower.
_BLOCK_ELEMENTS = 2**17
# The walk (`_bridge_blocks`) keeps six block buffers at once: the normals
# and the bridge values, then a clipped form's even and odd parts, values
# and spare rows (a callable: positions, its values and spare rows).  Its
# row blocks are sized so that all six hold `_BLOCK_ELEMENTS` together:
# at the truncation-cli config the Monte Carlo of a study then peaks at
# 2.4 MB of traced memory instead of 8.6 MB with six full blocks, and
# neither its time nor that of a callable q-point op (65 536 paths x 128
# steps) rose.
_WALK_BUFFERS = 6
# The heavy-tail rule (see the module docstring): the `_TOP_K` heaviest units
# of a record holding more than `_HEAVY_FRACTION` of its total flag it.
_TOP_K = 10
_HEAVY_FRACTION = 0.5


@dataclass(frozen=True)
class McConfig:
    """Sampling parameters for one Q estimate (per quadrature node)."""

    n_samples: int = 20000
    n_steps: int = 64

    def __post_init__(self) -> None:
        _check_sampling(self.n_samples, self.n_steps)


def _check_sampling(n_samples, n_steps, workers=1) -> None:
    """Reject sampling parameters that no estimate can run with."""
    for name, value in (("n_samples", n_samples), ("n_steps", n_steps)):
        _check_integer(name, value)
    if n_samples < 1 or n_steps < 1:
        raise ValueError("n_samples and n_steps must be positive")
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
        _check_dim(self.dim)
        if self.kind not in ("compact", "gaussian-weighted"):
            raise ValueError("kind must be 'compact' or 'gaussian-weighted'")
        lower, upper = self.support_box
        if len(lower) != self.dim or len(upper) != self.dim:
            raise ValueError("support_box corners must have length dim")
        if not all(l <= u for l, u in zip(lower, upper)):  # a NaN corner fails too
            raise ValueError("support_box corners must not be NaN, nor lower exceed upper")


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


def _point(value, dim: int, name: str = "endpoints") -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    out = np.ascontiguousarray(np.broadcast_to(arr, (dim,)))
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} must be finite")
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


def _block_rows(n_paths: int, n_steps: int, dim: int) -> int:
    """Paths per row block of `n_steps` x `dim` normals each: at most `_BLOCK_ELEMENTS`
    normals, one path if a path is larger, the whole chunk if a path draws none."""
    return min(n_paths, max(1, _BLOCK_ELEMENTS // max(1, n_steps * dim)))


def _walk_rows(n_paths: int, n_steps: int, dim: int) -> int:
    """Paths per row block of the walk: its `_WALK_BUFFERS` block buffers of
    n_steps + 1 nodes x dim per path hold `_BLOCK_ELEMENTS` numbers together,
    one path if a path is larger."""
    return min(n_paths, max(1, _BLOCK_ELEMENTS // (_WALK_BUFFERS * (n_steps + 1) * dim)))


def _bridge_blocks(draws, n_steps: int, dim: int):
    """The bridges of several draws of paths, node-major, one row block at a time.

    `draws` is a list of (gen, n_paths): n_paths paths drawn from gen,
    one draw after the other.  Their standard normals are drawn into one
    reused buffer of `_walk_rows` paths, a draw's rows continuing in the
    next block where one fills up; drawn in C order, a draw's rows are
    bit for bit its one-shot draw `gen.standard_normal((n_paths,
    n_steps, dim))`.  Each block is yielded as (alpha, spans): alpha, of
    shape (n_steps + 1, rows, dim), holds node k of every path in row k,
    bit for bit `bridge_values` of the normals with the first two axes
    swapped (nodes 0 and n_steps are zero); spans lists (draw index,
    first column, end column) of the draws in the block.  The next block
    overwrites alpha.
    """
    rows = _walk_rows(sum(n for _, n in draws), n_steps, dim)
    normals = np.empty((rows, n_steps, dim))
    alpha = np.zeros((n_steps + 1, rows, dim))
    # once a block is summed into alpha, its normals buffer holds the detrend term
    work = normals.reshape(n_steps, rows, dim)
    u = np.arange(1, n_steps + 1, dtype=np.float64) / n_steps

    def walk(filled: int) -> np.ndarray:
        b = np.cumsum(normals[:filled].transpose(1, 0, 2), axis=0, out=alpha[1:, :filled])
        b *= np.sqrt(1.0 / n_steps)
        b -= np.multiply(u[:, None, None], b[-1], out=work[:, :filled])
        return alpha[:, :filled]

    spans, filled = [], 0
    for index, (gen, n_paths) in enumerate(draws):
        done = 0
        while done < n_paths:
            take = min(rows - filled, n_paths - done)
            gen.standard_normal(out=normals[filled:filled + take])
            spans.append((index, filled, filled + take))
            filled += take
            done += take
            if filled == rows:
                yield walk(filled), spans
                spans, filled = [], 0
    if filled:
        yield walk(filled), spans


def _position_blocks(draws, n_steps: int, t: float):
    """Positions (1-u) x + u y + sqrt(t) alpha(u) of the bridges of `_bridge_blocks`,
    node-major, and of their mirrors -alpha.

    `draws` is a list of (gen, n_paths, x, y): n_paths paths drawn from
    gen, pinned from x to y.  Each row block is yielded as (positions,
    reflect): the positions of nodes 0..n_steps, of shape (n_steps + 1,
    rows, dim), in one reused buffer; and a function that rewrites the
    buffer as the positions (1-u) x + u y - sqrt(t) alpha(u) of the
    block's mirrors and returns it.  Both are bit for bit
    sqrt(t) `bridge_values` of the normals, and of the negated normals,
    plus the line, with the first two axes swapped; the mirrors
    are written from the bridge block, which the caller never sees, so
    what the caller wrote into the positions does not reach them.  The
    next block overwrites the buffer.
    """
    dim = draws[0][2].size
    lines = [_backend._line_positions(n_steps, x, y)[:, None, :] for _, _, x, y in draws]
    pos = np.empty((n_steps + 1, _walk_rows(sum(n for _, n, _, _ in draws), n_steps, dim), dim))

    def fill(alpha: np.ndarray, spans, scale: float) -> np.ndarray:
        p = pos[:, :alpha.shape[1]]
        # sqrt(t) alpha first, then the line
        np.multiply(alpha, scale, out=p)
        for i, a, b in spans:
            p[:, a:b] += lines[i]
        return p

    s = math.sqrt(t)
    for alpha, spans in _bridge_blocks([(gen, n) for gen, n, _, _ in draws], n_steps, dim):
        yield fill(alpha, spans, s), partial(fill, alpha, spans, -s)


def _walk_units(draws, n_steps: int, t: float, V: PotentialSpec, strides=(1,),
                floors=None) -> np.ndarray:
    """Pair units of several draws of paths along the walk, one row per stride and
    then per floor, one column per unit, the draws' units one after the other.

    `draws` is a list of (gen, count, x, y): `count` paths pinned from x
    to y, of which ceil(count / 2) are drawn from gen and weighed with
    their mirrors (`_pairs`).  Each row block is weighed in
    one pass for all the draws in it.  A quadratic form (clipped at
    `floors`, or at its own floor for None) takes its even and odd parts
    from each draw's bridge values (`backend.form_parts`), and a path
    and its mirror read E + O and E - O.  A callable is evaluated once at
    all the nodes of `_position_blocks` and then once at those of the
    mirrors.  Every stride reads strided rows of the same values
    (`backend.floored_weights`), whose nodes include the coarser grids'.
    Each unit depends on its own path alone, bit for bit, whatever block
    it sits in.  (Unclipped forms weighed alone use `_sums_units`.)
    """
    form = V.form
    if floors is None:
        floors = (-math.inf if form is None else form.floor,)
    sizes = [_pairs(count) for _, count, _, _ in draws]
    paths = [(gen, drawn, x, y) for (gen, _, x, y), (drawn, _) in zip(draws, sizes)]
    ends = np.cumsum([drawn for drawn, _ in sizes])
    lone = ends[[drawn > paired for drawn, paired in sizes]] - 1
    units = np.empty((len(strides) * len(floors), ends[-1]))
    rows = _walk_rows(int(ends[-1]), n_steps, V.dim)
    spare = np.empty((n_steps + 1, rows))

    def weigh(v: np.ndarray) -> np.ndarray:
        return np.array(_backend.floored_weights(v, floors, t, strides, spare[:, :v.shape[1]]))

    if form is None:
        weighed = ((weigh(_values(V, pos)), weigh(_values(V, reflect())))
                   for pos, reflect in _position_blocks(paths, n_steps, t))
    else:
        even, odd, values = np.empty((3, n_steps + 1, rows))

        def parts(alpha: np.ndarray, spans):
            r = alpha.shape[1]
            e, o = even[:, :r], odd[:, :r]
            _backend.form_parts(alpha, [(*draws[i][2:], a, b) for i, a, b in spans], t, form,
                                e, o)
            return [weigh(combine(e, o, out=values[:, :r])) for combine in (np.add, np.subtract)]

        weighed = (parts(alpha, spans) for alpha, spans
                   in _bridge_blocks([(gen, n) for gen, n, _, _ in paths], n_steps, V.dim))
    start = 0
    for plus, minus in weighed:
        stop = start + plus.shape[1]
        block = units[:, start:stop]
        np.add(plus, minus, out=block)
        block *= 0.5
        alone = lone[(lone >= start) & (lone < stop)] - start
        block[:, alone] = plus[:, alone]
        start = stop
    return units


def _values(V: PotentialSpec, points: np.ndarray) -> np.ndarray:
    """A callable's values at `points`, in an array of its own that may be overwritten."""
    v = np.asarray(V.evaluate(points), dtype=np.float64)
    if not (v.flags.owndata and v.flags.writeable):
        v = v.copy()  # the clip works in place; a view may alias the caller's data
    return v


@lru_cache(maxsize=32)
def _sine_sums(n_steps: int, strides: tuple[int, ...], dim: int):
    """The coefficients that read a path's trapezoid sums from its sine coordinates.

    Returns (ab_cols, c_col, amp).  Rows follow a path's flattened (mode,
    coordinate) axis of xi.  Column (level, {A, B}, coordinate) of
    `ab_cols` gives A = sum' alpha and B = sum' u alpha on the grid of
    stride strides[level]: the sine transform of those trapezoid weights
    at the grid's interior nodes, times sqrt(2/n) and the mode's
    amplitude.  `c_col` gives C = sum' |alpha|^2 on the full grid from
    xi^2, sum_j xi_j^2 / (n^2 mu_j), and `amp` the amplitudes
    1 / sqrt(n mu_j) that make eta = amp xi, from whose folds `_fold` the
    coarser grids take their C.  O(n log n) work and O(n L dim^2) memory:
    no n x n basis is ever formed.
    """
    amp = _sine_amplitudes(n_steps)
    weights = np.zeros((len(strides), 2, n_steps - 1))
    for level, s in enumerate(strides):
        u, tau = _trapezoid_grid(n_steps // s)
        # interior node k (1..n_steps - 1) sits at index k - 1
        weights[level, 0, s - 1::s] = tau[1:-1]
        weights[level, 1, s - 1::s] = (tau * u)[1:-1]
    coef = _sine_transform(weights) * (math.sqrt(2.0 / n_steps) * amp)
    cached = (np.kron(coef.reshape(2 * len(strides), n_steps - 1).T, np.eye(dim)),
              np.repeat(np.square(amp) / n_steps, dim), np.repeat(amp, dim))
    for a in cached:
        a.flags.writeable = False  # every caller shares them
    return cached


def _fold(v: np.ndarray, m: int, out: np.ndarray) -> None:
    """Write into `out` the coordinates eta' of a grid of m steps, from those of a
    grid of M steps in `v` (rows, M - 1, dim), m a divisor of M below it.

    On the nodes of the coarse grid sin(j k pi / M) is periodic in j with
    period 2m and odd about 0 and m, so mode j acts there as mode
    r = j mod 2m for 0 < r < m and as minus mode 2m - r for m < r < 2m
    (modes with r = 0 or m vanish).  The folded coordinates then carry
    the coarse nodes' values with the fine grid's normalization, so every
    grid of the path reads C = sum |eta'|^2 / n_steps.
    """
    M = v.shape[1] + 1
    np.subtract(v[:, :m - 1], v[:, 2 * m - 2:m - 1:-1], out=out)
    for base in range(2 * m, M - 1, 2 * m):
        out += v[:, base:base + m - 1]
        if base + 2 * m <= M:
            out -= v[:, base + 2 * m - 2:base + m - 1:-1]


def _bridge_sums(gen: np.random.Generator, n_paths: int, n_steps: int, dim: int, strides):
    """Trapezoid sums A = sum' alpha, B = sum' u alpha, C = sum' |alpha|^2 per stride.

    The paths are drawn in sine coordinates (see `stochastic`): each row
    block of `_block_rows` paths is (rows, n_steps - 1, dim) standard
    normals xi, drawn in C order into one reused buffer, so the blocks
    are bit for bit the one-shot draw `gen.standard_normal((n_paths,
    n_steps - 1, dim))`; a one-step grid draws nothing.  A and B of every
    grid come from one matrix product on xi.  If no coarser grid has
    interior nodes, C takes the squares of xi and one matrix-vector
    product.  Otherwise xi is overwritten by eta = amp xi, each coarser
    grid folds its coordinates (`_fold`) from the coarsest grid already
    folded that it divides, or from eta, into a buffer of its own, and
    every grid's C is its sum of squares / n_steps.  A stride s, which
    must divide n_steps, restricts the path to the nodes that are
    multiples of s: a grid of n_steps / s steps.  Yields, block after
    block, a list of (A, B, C) for each stride in order, with A and B of
    shape (rows, dim) and C of shape (rows,).
    """
    strides = tuple(strides)
    ab_cols, c_col, amp = _sine_sums(n_steps, strides, dim)
    rows = _block_rows(n_paths, n_steps - 1, dim)
    xi = np.empty((rows, n_steps - 1, dim))
    coarse = sorted({n_steps // s for s in strides} - {1, n_steps}, reverse=True)
    folds = {m: np.empty((rows, m - 1, dim)) for m in coarse}
    for start in range(0, n_paths, rows):
        block = xi[:min(rows, n_paths - start)]
        r = len(block)
        gen.standard_normal(out=block)
        flat = block.reshape(r, -1)
        ab = (flat @ ab_cols).reshape(r, len(strides), 2, dim)
        c = {1: np.zeros(r)}
        if coarse:
            flat *= amp
            done = {n_steps: block}
            for m in coarse:
                source = done[min(M for M in done if M % m == 0)]
                _fold(source, m, folds[m][:r])
                done[m] = folds[m][:r]
            for m, eta in done.items():
                c[m] = np.square(eta, out=eta).reshape(r, -1).sum(axis=1) / n_steps
        else:
            c[n_steps] = np.square(flat, out=flat) @ c_col
        yield [(ab[:, level, 0], ab[:, level, 1], c[n_steps // s])
               for level, s in enumerate(strides)]


def _line_action(xs: np.ndarray, ys: np.ndarray, form: QuadraticForm,
                 n_steps: int) -> np.ndarray:
    """Trapezoid action D(x, y), per unit time, of an unclipped form along
    the straight lines from `xs` (n_x, dim) to `ys` (n_y, dim); shape (n_x, n_y)."""
    q = form.quad
    g = np.asarray(form.lin, dtype=np.float64)
    w0, w1, w2 = _line_weights(n_steps)
    return (q * (w0 * np.square(xs).sum(axis=1)[:, None] + 2.0 * w1 * (xs @ ys.T)
                 + w2 * np.square(ys).sum(axis=1)[None, :])
            + 0.5 * (xs @ g)[:, None] + 0.5 * (ys @ g)[None, :] + form.const)


def _sums_weights(sums, xs: np.ndarray, ys: np.ndarray, t: float,
                  form: QuadraticForm, line: np.ndarray, paired: int = 0,
                  out=None) -> np.ndarray:
    """exp(-trapezoid action) of an unclipped form from per-path sums, the first
    `paired` paths weighed together with their mirrors.

    `xs` and `ys` hold endpoints of shape (n_x, dim) and (n_y, dim) and
    `line` their `_line_action` on the paths' grid; the result has shape
    (n_x, n_y, n_paths).  Along (1-u) x + u y + sqrt(t) alpha the action
    is t times D(x, y) + q t C, even in alpha, plus
    2 q sqrt(t) (x . (A - B) + y . B) + sqrt(t) g . A, odd in alpha.  The
    mirror -alpha has the sums -A, -B and C, so it flips the sign of the
    odd terms alone, exactly: its weight is bit for bit the one its own
    sums would give.  Each of the first `paired` paths reads the unit
    (w(alpha) + w(-alpha)) / 2; the others read w(alpha).  `out`, if
    given, is a pair of arrays of the result's shape: the result is
    written into the first, and the second is scratch.
    """
    A, B, C = sums
    q = form.quad
    g = np.asarray(form.lin, dtype=np.float64)
    s = math.sqrt(t)
    # minus t times each term, grouped as (line + x terms) + (path terms + y terms)
    x_odd = (-2.0 * q * s * t) * (xs @ (A - B).T)
    y_odd = (-2.0 * q * s * t) * (ys @ B.T) + (-s * t) * (A @ g)
    path_even = (-q * t * t) * C
    line = -t * line
    w, part = np.empty((2, len(xs), len(ys), len(C))) if out is None else out
    np.add(line[:, :, None], x_odd[:, None, :], out=part)
    np.add(part, (path_even + y_odd)[None, :, :], out=w)
    np.exp(w, out=w)
    if paired:
        mirror = np.subtract(line[:, :, None], x_odd[:, None, :paired], out=part[..., :paired])
        mirror += (path_even[:paired] - y_odd[:, :paired])[None, :, :]
        np.exp(mirror, out=mirror)
        w[..., :paired] += mirror
        w[..., :paired] *= 0.5
    return w


def _unclipped(V: PotentialSpec) -> bool:
    return V.form is not None and V.form.floor == -math.inf


def _pairs(count: int) -> tuple[int, int]:
    """The paths drawn for a chunk of `count` paths, ceil(count / 2), and how many of
    them are weighed with their mirrors, count // 2 (see the module docstring): the
    pair units of `_sums_units` and `_walk_units` alike, in draw order."""
    return -(-count // 2), count // 2


def _sums_units(gen: np.random.Generator, count: int, xs: np.ndarray, ys: np.ndarray,
                t: float, form: QuadraticForm, n_steps: int, strides=(1,)):
    """Pair units of an unclipped form at the node pairs (xs[i], ys[j]), x-major, on
    the grid of each stride, from the sums (`_bridge_sums`) of a chunk of `count`
    paths drawn from `gen`.

    The units fill, in draw order, one reused buffer of shape (strides,
    node pairs, units) and at most `_BLOCK_ELEMENTS` numbers (one unit
    per row if there are more rows).  A full buffer is yielded when more units
    arrive and the last one after the chunk's last sums, so that reducing
    it keeps no buffer of `_bridge_sums` alive for nothing; the next
    buffer overwrites it.
    """
    drawn, paired = _pairs(count)
    n_x, n_y, dim = len(xs), len(ys), xs.shape[1]
    size = min(drawn, max(1, _BLOCK_ELEMENTS // (len(strides) * n_x * n_y)))
    rows = min(size, _block_rows(drawn, n_steps - 1, dim))
    # the units and the scratch of `_sums_weights` share one allocation.  As
    # two, glibc gave the heap they leave back to the system after each matrix
    # element of 256 node pairs x 500 paths and faulted it in again on the
    # next: 470 page faults, 2.4 -> 3.4 ms per call (2-core x86-64 host)
    units, scratch = np.split(np.empty((len(strides) * size + rows) * n_x * n_y),
                              [len(strides) * n_x * n_y * size])
    units = units.reshape(len(strides), n_x, n_y, size)
    scratch = scratch.reshape(n_x, n_y, rows)
    lines = [_line_action(xs, ys, form, n_steps // s) for s in strides]
    filled = start = 0  # units in the buffer, and weighed in the chunk
    for levels in _bridge_sums(gen, drawn, n_steps, dim, strides):
        done = 0
        while done < len(levels[0][2]):
            if filled == size:
                yield units.reshape(len(strides), n_x * n_y, size)
                filled = 0
            k = min(len(levels[0][2]) - done, size - filled)
            for level, (sums, line) in enumerate(zip(levels, lines)):
                _sums_weights([a[done:done + k] for a in sums], xs, ys, t, form, line,
                              max(0, paired - start), (units[level, ..., filled:filled + k],
                                                       scratch[..., :k]))
            filled += k
            done += k
            start += k
    yield units.reshape(len(strides), n_x * n_y, size)[..., :filled]


def _unit_records(w: np.ndarray, coef=None) -> tuple[_Stats, ...]:
    """The records of pair units w (strides, node pairs, units): the `_Stats` of each
    row with its `_TOP_K` heaviest units, those of the successive differences
    w[s] - w[s - 1] if there are several strides, and those of the totals coef . w
    of each stride if `coef` is given.

    The totals are centred on the rows' means, in place, so units that
    all carry the same weights give exactly zero spread, and their
    squares are summed in the unit `_Stats.of` gives a row of weights, so
    that totals near 1e-185 keep a nonzero error bar.
    """
    rows = _Stats.of(w, _TOP_K)
    records = [rows]
    if len(w) > 1:
        records.append(_Stats.of(np.subtract(w[1:], w[:-1])))
    if coef is not None:
        w -= rows.mean[..., None]
        spread = coef @ w
        scale = _tiny_scale(np.abs(spread).max(axis=-1))
        spread /= scale[:, None]
        records.append(_Stats(w.shape[-1], rows.mean @ coef, np.vecdot(spread, spread),
                              rows.total @ coef, np.empty((len(w), 0)), scale=scale))
    return tuple(records)


def _sums_records(xs: np.ndarray, ys: np.ndarray, t: float, form: QuadraticForm,
                  n_steps: int, strides, coef, gens, count: int) -> tuple[_Stats, ...]:
    """The `_unit_records` of each buffer of `_sums_units`, merged: the chunk job, for
    `_over_chunks`, of every estimate of an unclipped form."""
    (gen,) = gens
    return _merged(_unit_records(units, coef)
                   for units in _sums_units(gen, count, xs, ys, t, form, n_steps, strides))


# rows of weights whose largest |w| lies below this are scaled by it (see `_Stats`)
_TINY = 1e-100
_NORMAL = np.finfo(np.float64).tiny  # the least scale: dividing by a subnormal is slow


def _tiny_scale(peak):
    """The unit of squares of numbers whose largest |value| is `peak`: `peak` below
    `_TINY` (but at least `_NORMAL`), else 1."""
    return np.where(peak < _TINY, np.maximum(peak, _NORMAL), 1.0)


@dataclass(frozen=True, eq=False)
class _Stats:
    """Count, mean, centred sum of squares m2, total and top_k largest
    weights (top_k 0 or `_TOP_K`) of each row of weights (pair units, in
    an estimator), m2 in units of `scale` squared; `a + b` merges the
    records of two sets of samples (see the module docstring)."""

    n: int
    mean: np.ndarray
    m2: np.ndarray
    total: np.ndarray
    top: np.ndarray
    top_k: int = 0
    scale: np.ndarray | float = 1.0

    @classmethod
    def of(cls, w: np.ndarray, top_k: int = 0) -> _Stats:
        """The record of the rows of `w` (rows, paths), with one scratch array
        of w's shape.  |mean| >= `_TINY` implies max |w| >= `_TINY`, so only
        a row of smaller mean makes the record pay passes for max |w|."""
        n = w.shape[-1]
        total = w.sum(axis=-1)
        mean = total / n
        work = w - mean[..., None]
        scale = np.ones_like(mean)
        small = ~(np.abs(mean) >= _TINY)
        if small.any():
            scale = np.where(small, _tiny_scale(np.abs(w, out=work).max(axis=-1)), 1.0)
            np.subtract(w, mean[..., None], out=work)
            work /= scale[..., None]
        m2 = np.square(work, out=work).sum(axis=-1)
        k = min(top_k, n)
        if k:
            np.copyto(work, w)
            work.partition(n - k, axis=-1)
        return cls(n, mean, m2, total, work[..., n - k:].copy(), top_k, scale)

    def __add__(self, other: _Stats) -> _Stats:
        n = self.n + other.n
        delta = other.mean - self.mean
        scale = np.maximum(self.scale, other.scale)
        m2 = (self.m2 * np.square(self.scale / scale) + other.m2 * np.square(other.scale / scale)
              + np.square(delta / scale) * (self.n * other.n / n))
        top = np.concatenate([self.top, other.top], axis=-1)
        if top.shape[-1] > self.top_k:
            top = np.partition(top, -self.top_k, axis=-1)[..., -self.top_k:]
        return _Stats(n, self.mean + delta * (other.n / n), m2, self.total + other.total, top,
                      self.top_k, scale)

    @property
    def std_error(self):
        if self.n > 1:
            return np.sqrt(np.maximum(self.m2, 0.0) / (self.n - 1)) / math.sqrt(self.n) * self.scale
        return np.zeros(np.shape(self.m2))

    def heavy(self):
        """Heavy-mass fraction, at most 1 though the top is summed in another order
        than the total, and divergence flag of each row.  A zero total
        (every weight underflowed) is no evidence of a heavy tail: 0."""
        top_sum = np.sort(self.top, axis=-1).sum(axis=-1)
        fraction = np.divide(top_sum, self.total, out=np.zeros(np.shape(self.total)),
                             where=self.total > 0.0)
        np.minimum(fraction, 1.0, out=fraction)
        suspected = (self.n * _HEAVY_FRACTION > self.top_k) & (fraction > _HEAVY_FRACTION)
        suspected |= ~np.isfinite(self.mean) | ~np.isfinite(self.std_error)
        return fraction, suspected


def _merged(records):
    """The element-wise merge, in order, of tuples of `_Stats`."""
    return reduce(lambda a, b: tuple(map(operator.add, a, b)), records)


def _finalize(stats: _Stats, steps, n_samples: int, q_ref=None,
              diffs: _Stats | None = None) -> np.ndarray:
    """An object array of estimates, one per entry of `stats.mean`, of `steps`
    steps (broadcast against it) and `n_samples` paths each (`stats` counts pair
    units, about half as many).  With a control, `q_ref` (NaN where a column has
    none, broadcast against the last axis) and the record of the differences
    w - w_ref, an entry reads max(Q_ref + mean difference, 0) with the
    differences' standard error; the flag and heavy-mass fraction stay the
    weights', but an entry whose differences are all zero is the exact grid
    value (no floor touched a path): unflagged."""
    fraction, suspected = stats.heavy()
    means, std_error = stats.mean, stats.std_error
    if diffs is not None:
        controlled = ~np.isnan(q_ref)
        means = np.where(controlled, np.maximum(q_ref + diffs.mean, 0.0), means)
        std_error = np.where(controlled, diffs.std_error, std_error)
        suspected &= ~controlled | (diffs.mean != 0.0) | (diffs.m2 != 0.0)
    estimate = np.frompyfunc(lambda mean, err, flag, frac, n: QEstimate(
        mean=mean, std_error=err, n_samples=n_samples, n_steps=n, divergence_suspected=flag,
        heavy_mass_fraction=frac), 5, 1)
    return estimate(means, std_error, suspected, fraction, steps)


def _run_ordered(jobs, workers: int):
    """Run callables and return results in submission order."""
    if workers <= 1 or len(jobs) <= 1:
        return [job() for job in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(job) for job in jobs]
        return [f.result() for f in futures]


def _over_chunks(rng: RngSeed, keys, n_samples: int, workers: int, chunk):
    """Reduce `n_samples` paths at each of `keys` in keyed chunks and merge their records
    in chunk order.

    Chunk i holds `_CHUNK` paths (the last one the rest), drawn for each
    key from stream (*key, i).  The job of chunk i opens its streams key
    by key and `chunk(gens, count)` reduces the chunk, given its
    generators in key order, to a tuple of `_Stats`.  The chunks run on
    `workers` threads but merge element by element in chunk order, so a
    fixed seed gives bit-identical results for any workers.
    """
    def job(i: int):
        count = min(_CHUNK, n_samples - i * _CHUNK)
        return chunk([rng.generator(*key, i) for key in keys], count)

    jobs = [partial(job, i) for i in range(-(-n_samples // _CHUNK))]
    return _merged(_run_ordered(jobs, workers))


def estimate_Q(
    x,
    y,
    V: PotentialSpec,
    t: float,
    n_samples: int,
    n_steps: int,
    rng: RngSeed,
    *,
    workers: int = 1,
    key: tuple[int, ...] = (),
) -> QEstimate:
    """Monte Carlo mean of exp(-action) over independent bridges.

    Sample streams are keyed by (seed, stream_id, *key, chunk index), so
    results are bit-reproducible for a fixed seed independently of the
    worker count.  A clipped quadratic form (a truncation of `zero`,
    `harmonic`, `stark` or `inverted_quadratic`) is estimated as
    max(Q_ref + mean(w - w_ref), 0), with w_ref the unclipped form's
    weight and Q_ref its exact grid value, whenever w_ref has finite
    variance; see `_pair_estimates`.
    """
    return _estimates(x, y, V, t, n_samples, n_steps, rng, None, workers=workers, key=key)[0]


def _estimates(x, y, V: PotentialSpec, t: float, n_samples: int, n_steps: int,
               rng: RngSeed, floors, *, workers: int,
               key: tuple[int, ...] = ()) -> list[QEstimate]:
    """Q estimates of max(V, floor) for each floor, from one draw of the paths: the
    one-pair case of `_pair_estimates`, with the keyed chunks of `estimate_Q`.
    `floors=None` on an unclipped form estimates it from its sums (`_sums_records`)."""
    xp = _point(x, V.dim)
    yp = _point(y, V.dim)
    if floors is None and _unclipped(V):
        _check_time(t)
        _check_sampling(n_samples, n_steps, workers)
        (nodes,) = _over_chunks(rng, [tuple(key)], n_samples, workers,
                                partial(_sums_records, xp[None], yp[None], t, V.form, n_steps,
                                        (1,), None))
        return _finalize(nodes, n_steps, n_samples)[0].tolist()
    return _pair_estimates(xp[None], yp[None], [tuple(key)], V, t, n_samples, n_steps, rng,
                           floors, workers=workers)[0]


def _pair_estimates(xs: np.ndarray, ys: np.ndarray, keys, V: PotentialSpec, t: float,
                    n_samples: int, n_steps: int, rng: RngSeed, floors, *,
                    workers: int) -> list[list[QEstimate]]:
    """Q estimates of max(V, floor) for each floor at each node pair (xs[p], ys[p]).

    Pair p draws its paths from the keyed chunks (*keys[p], chunk) once
    for all floors along the walk (`_walk_units`); `floors=None`
    estimates V itself.
    When `n_samples` fits in one chunk, consecutive pairs whose units fit
    in `_BLOCK_ELEMENTS` together form a group: they share the row blocks
    of `_walk_units` and one `_Stats.of` over (floors x pairs) rows.  A
    pair of more paths, whose chunks fill many blocks on their own, is a
    group alone.  `workers` threads split the groups, or the chunks of
    the only group.  With one worker, streams open pair by pair, in
    chunk order, each when its chunk is drawn.  Each record row depends
    on its own pair's paths alone, so every pair's estimates equal its
    own one-pair call bit for bit, for any workers.

    A clipped quadratic form is estimated with the unclipped form as
    control variate wherever that form's weights have finite variance
    (see `_form_floors`): one more floor, -inf, gives each path its
    reference weight w_ref, whose mean Q_ref on the grid is known
    exactly, and each level reports max(Q_ref + mean(w - w_ref), 0) with
    the standard error of the differences; a group none of whose pairs
    has a Q_ref weighs no control row.  The coefficient is fixed at 1,
    so each level depends on its own floor alone and stays
    non-decreasing path by path; a path that no floor touches adds
    exactly zero.  The divergence flag and the heavy-mass fraction come
    from the plain weights.
    """
    _check_time(t)
    _check_sampling(n_samples, n_steps, workers)
    floors, control = _form_floors(V, floors)
    q_refs = np.array([_control_mean(x, y, V.form, t, n_steps) if control else math.nan
                       for x, y in zip(xs, ys)])
    n_rows = 1 if floors is None else len(floors)
    drawn = _pairs(n_samples)[0]
    size = 1 if n_samples > _CHUNK else max(1, _BLOCK_ELEMENTS // (n_rows * drawn))
    groups = [range(a, min(a + size, len(keys))) for a in range(0, len(keys), size)]

    def chunk(pairs: range, levels, controlled: bool, gens, count: int):
        w = _walk_units([(gen, count, xs[p], ys[p]) for gen, p in zip(gens, pairs)],
                        n_steps, t, V, floors=levels)
        w = w.reshape(len(w), len(pairs), -1)
        if not controlled:
            return (_Stats.of(w, _TOP_K),)
        plain = _Stats.of(w[:-1], _TOP_K)
        w[:-1] -= w[-1]
        return plain, _Stats.of(w[:-1])

    def group(pairs: range):
        controlled = not np.isnan(q_refs[pairs]).all()
        # the control's floor, the last, is weighed only where a pair reads it
        levels = floors[:-1] if control and not controlled else floors
        return _over_chunks(rng, [keys[p] for p in pairs], n_samples,
                            workers if len(groups) == 1 else 1,
                            partial(chunk, pairs, levels, controlled))

    estimates = []
    for pairs, (plain, *diffs) in zip(groups, _run_ordered([partial(group, g) for g in groups],
                                                          workers)):
        estimates += _finalize(plain, n_steps, n_samples, q_refs[pairs], *diffs).T.tolist()
    return estimates


def _form_floors(V: PotentialSpec, floors):
    """The floors `_walk_units` clips V at, and whether the last of them is the control's.

    For anything but a quadratic form clipped at some floor, `floors`
    come back unchanged, with False.  A clipped form's floors become
    max(form.floor, floor) for each floor (the form's own floor alone for
    None), and -inf is appended, with True: it gives each path the
    unclipped form's weight w_ref, the control of `_pair_estimates`.
    """
    form = V.form
    if form is None or (floors is None and form.floor == -math.inf):
        return floors, False
    floors = [max(form.floor, f) for f in ((-math.inf,) if floors is None else floors)]
    return floors + [-math.inf], True


def _control_mean(x: np.ndarray, y: np.ndarray, form: QuadraticForm, t: float, n_steps: int):
    """Q_ref, the exact grid value of the unclipped `form` from x to y, or NaN if w_ref
    has infinite variance: if the doubled form (2q, 2g, 2c), whose grid Q is
    E(w_ref^2), has no finite exact value, no control is used."""
    doubled = QuadraticForm(2.0 * form.quad, tuple(2.0 * g for g in form.lin), 2.0 * form.const)
    second = gaussian_q(x, y, doubled, t, n_steps)
    if is_divergent(second) or not math.isfinite(second):
        return math.nan
    return gaussian_q(x, y, QuadraticForm(form.quad, form.lin, form.const), t, n_steps)


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
    if not 0.0 < width < math.inf:
        raise ValueError("width must be positive and finite")
    _check_dim(dim)
    c = _point(center, dim, "center")

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
    if not 0.0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    _check_dim(dim)
    c = _point(center, dim, "center")
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
    key=(), and each path enters only through its trapezoid sums, reduced
    as in `estimate_Q` (`_sums_records`).  The standard error then comes
    from the per-path totals sum_ij coef_ij w_ij(path), which carry the
    correlation between nodes that sharing creates.  A clipped form (a
    truncation) or a callable potential gives every node pair its own
    stream keyed by the index pair, so calls with truncations of one
    potential at a fixed seed compare the same paths across levels; a
    clipped form's Q at each node pair is read against the unclipped
    form's exact grid value, as in `estimate_Q`.  They do not share paths
    because it does not pay: such a potential is evaluated along each
    path at every node pair anyway, and the correlated error bar of
    shared paths is several times the per-node one, so the cost of a
    given error would grow.  Measured on pair units over three seeds of
    4000 paths x 32 steps between bump(width=1) and bump(0.5, 1), the
    ratio is about 2.9 for the harmonic form at 6 x 6 nodes and t = 0.5,
    and about 3.6 for truncate(inverted_quadratic(0.5), 1.0) at 8 x 8
    nodes and t = 1.  What the node pairs share is their row blocks:
    when `mc.n_samples` fits in one chunk, consecutive pairs draw their
    own paths into the same blocks of the walk, which are weighed in one
    pass, and their records come from one reduction (`_pair_estimates`),
    while each pair's estimate stays bit for bit that of `estimate_Q` at
    the pair with key=(i, j).
    `mc_samples_per_node` counts paths, each weighed with its mirror (see
    `_pairs`).  Either way a fixed seed gives bit-identical
    results for any worker count.
    """
    return _matrix_elements(phi, psi, V, t, quadrature, mc, rng, None, workers=workers)[0]


def _matrix_elements(phi: Wavefunction, psi: Wavefunction, V: PotentialSpec, t: float,
                     quadrature: QuadratureConfig, mc: McConfig, rng: RngSeed, floors, *,
                     workers: int) -> list[MatrixElementEstimate]:
    """Matrix elements of max(V, floor) for each floor, from one draw per node pair.

    Node pair (i, j) draws the keyed chunks (i, j, chunk) once for all
    floors, so every floor's estimate equals that of `matrix_element`
    on `truncate(V, -floor)` and the floors compare the same paths; the
    pairs are estimated together, x-major, by `_pair_estimates`.
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
        nodes, totals = _over_chunks(rng, [()], mc.n_samples, workers,
                                     partial(_sums_records, x_pts, y_pts, t, V.form, mc.n_steps,
                                             (1,), coef.reshape(-1)))
        return [estimate(totals.mean[0], totals.std_error[0], int(nodes.heavy()[1].sum()))]

    keys = [(i, j) for i in range(n_x) for j in range(n_y)]
    pairs = _pair_estimates(x_pts.repeat(n_y, axis=0), np.tile(y_pts, (n_x, 1)), keys, V, t,
                            mc.n_samples, mc.n_steps, rng, floors, workers=workers)
    elements = []
    for level in zip(*pairs):
        value = 0.0
        variance = 0.0
        divergence_nodes = 0
        for c, q in zip(coef.reshape(-1), level):
            value += c * q.mean
            variance += (c * q.std_error) ** 2
            divergence_nodes += int(q.divergence_suspected)
        elements.append(estimate(value, math.sqrt(variance), divergence_nodes))
    return elements


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
    _check_sampling(n_samples, schedule[-1], workers)

    if mode == "independent":
        estimates = [
            estimate_Q(x, y, V, t, n_samples, n, rng, workers=workers, key=(idx,))
            for idx, n in enumerate(schedule)
        ]
        diff_means = [b.mean - a.mean for a, b in zip(estimates, estimates[1:])]
        diff_errs = [math.hypot(a.std_error, b.std_error)
                     for a, b in zip(estimates, estimates[1:])]
    else:
        n_max = schedule[-1]
        if any(n_max % n for n in schedule):
            raise ValueError("restricted mode needs every entry to divide the largest")
        xp = _point(x, V.dim)
        yp = _point(y, V.dim)
        strides = [n_max // n for n in schedule]
        if _unclipped(V):
            chunk = partial(_sums_records, xp[None], yp[None], t, V.form, n_max, strides, None)
        else:
            def chunk(gens, count: int):
                return _unit_records(_walk_units([(gens[0], count, xp, yp)], n_max, t, V,
                                                 strides)[:, None])

        levels, diffs = _over_chunks(rng, [()], n_samples, workers, chunk)
        estimates = _finalize(levels, np.reshape(schedule, (-1, 1)), n_samples)[:, 0].tolist()
        diff_means, diff_errs = diffs.mean[:, 0], diffs.std_error[:, 0]
    return RefinementReport(
        mode=mode,
        schedule=tuple(schedule),
        estimates=tuple(estimates),
        diff_means=tuple(float(d) for d in diff_means),
        diff_std_errors=tuple(float(e) for e in diff_errs),
        fitted_order=_fit_order(schedule, diff_means),
    )
