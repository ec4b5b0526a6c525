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
would be drawn at once.  A block holds at most 2^17 numbers (1 MB, see
`_BLOCK_ELEMENTS`), six buffers of node values together for callables
and clipped forms.  Every per-path intermediate of an estimate, the
trapezoid sums, bridge values, positions and potential values, exists
for one block only; the group units of a callable or clipped form span
a chunk, and those of an unclipped form fill one reused buffer under
the same cap, reduced each time it fills.

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
account for the pairing (and for the groups below), while `n_samples`
still counts paths.  Terms odd in alpha, such as those of a linear
potential, cancel within a pair: for `stark` the two weights of a pair
correlate at about -0.92.

Every estimator draws the same realization of the bridge law: sine
coordinates in groups of `_GROUP` = 8 paths that share their modes
above `_OWN_MODES` = 16 (see `stochastic` and `_group_rows`).  A weight
depends almost only on a path's first modes (the low effective
dimension of Caflisch, Morokoff & Owen 1997), and at 128 steps a path
then costs about 30 normals instead of 127.  The pair units of a
group's paths average into one group unit, which the records below
count, so every estimate stays unbiased and its error bar honest; a
chunk's last group may hold fewer paths.  A chunk whose paths have no
mode above 16 (n_steps <= 17), or whose groups would number no more
than the 20 units the heavy-tail rule needs, draws every path alone, as
a group of one (`_sums_layout`).

For an unclipped quadratic potential V(z) = q |z|^2 + g . z + c the
trapezoid action of a path is linear in three of its trapezoid sums,
A = sum' alpha, B = sum' u alpha and C = sum' |alpha|^2, plus terms
that depend on x and y alone.  Such potentials take the sums from the
coordinates by matrix products, without ever forming node values
(`_bridge_sums`); this lets `matrix_element` reuse one set of paths at
every quadrature node pair, and `refine_steps` gets the sums of every
grid of its schedule from the same pass.  A mirror's sums are -A, -B
and C.  One function reduces every estimate of such a form
(`_sums_records`), at one node pair or all quadrature nodes, on one
grid or several.
Callables and clipped forms need the values at the nodes, synthesized
node-major for each block, node k of every path in row k
(`_node_blocks`).  A clipped form is weighed from the bridge values
alone: along (1-u) x + u y + sqrt(t) alpha its value is E + O, E even
and O odd in alpha (`backend.form_parts`), so the mirror's values are
E - O; a callable is evaluated at the positions of the block's paths
and of their mirrors.  Each floor's trapezoid action is taken from the
values directly.  Truncations max(V, -n) of one potential share the
other way: V is evaluated along a path once and each level clips the
values.  The node pairs of a matrix element draw their own streams, but
consecutive pairs share row blocks and one reduction
(`_pair_estimates`).  A clipped form also carries its own control
variate: the unclipped form's weight w_ref of the same path, whose mean
on the time grid, `stochastic.gaussian_q`, is a Gaussian integral known
exactly.  Each level then averages w - w_ref, which is zero on every
pair whose path and mirror its floor does not touch, provided w_ref has
finite variance (see `_pair_estimates`).

Each chunk reduces each row of group units to one record, `_Stats`:
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
# once, on the unit buffer of `_sums_units` and on the node buffers of
# `_node_blocks` together: 1 MB of float64.  The block and the buffers reused
# beside it then fit in one core's 2 MB L2 on the 2-core x86-64 host measured,
# where a 4 MB block alone did not: q-point and refine-long ops (one BLAS
# thread) took 6-7 % less time at 2**17 than at 2**19; 2**16 was within
# the noise of 2**17 and 2**15 slower.
_BLOCK_ELEMENTS = 2**17
# Blocks of node values hold `_BLOCK_ELEMENTS` in six buffers (`_node_blocks`):
# with 3 or 4, a callable's temporaries faulted 10-18k pages per q-point op
# (65 536 x 128) in one process, 82-85 instead of 57-59 ms.  Column tiles
# (`_tiled_product`) hold 64 paths' own modes and 16 groups' shared modes (64:
# 65 instead of 60 ms; 16 own: 4 ms more).  Up to `_DENSE_STEPS` steps the
# shared modes take a dense product, above a DST-I.
_NODE_BUFFERS, _OWN_TILE, _SHARED_TILE, _DENSE_STEPS = 6, 64, 16, 128
# The heavy-tail rule (see the module docstring): the `_TOP_K` heaviest units
# of a record holding more than `_HEAVY_FRACTION` of its total flag it.
_TOP_K = 10
_HEAVY_FRACTION = 0.5
# The sums path draws the sine modes j <= `_OWN_MODES` of each path alone and
# those above once per group of `_GROUP` paths (`_sums_layout`).  The pair (J, K)
# was chosen by time x se^2 against drawing every mode per path, on the 2-core
# x86-64 host with one BLAS thread: the se from restricted `refine_steps` of
# harmonic at (0.3, -0.2), t = 1, schedule 16-256, 40 seeds x 4096 paths (mean
# reported se); the op times from harmonic and stark `estimate_Q` at 65 536 paths
# x 128 steps, and from that refinement at 32 768 paths.
#
#     J, K     estimate  refine  level se  finest diff se  time x se^2: level, diff
#     all, 1   71 ms     110 ms  1         1               1, 1
#     16, 8    16 ms     23 ms   1.02      1.15            0.22, 0.27
#     16, 4    29 ms     40 ms   1.00      1.06            0.37, 0.41
#     16, 16   13 ms     17 ms   1.02      1.26            0.16, 0.24
#     8, 8     15 ms     23 ms   1.00      1.26            0.21, 0.33
#     8, 16    9 ms      14 ms   1.02      1.49            0.14, 0.29
#     32, 8    23 ms     29 ms   0.99      1.08            0.25, 0.30
#
# The level se moves within the noise of its mean (about 1 %).  (16, 8) cuts
# both costs about fourfold; the pairs that cut them further, (16, 16) and
# (8, 16), widen the difference's error bars by 26-49 % instead of 15 % and
# need chunks of twice as many paths before they share.
_OWN_MODES = 16
_GROUP = 8


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


def _group_rows(draws, n_steps: int, dim: int, group: int, own: int, rows: int):
    """The standard normals of several draws of paths in sine coordinates, one row per
    group, in row blocks of at most `rows` groups.

    `draws` lists (gen, n_paths), drawn one after the other.  A group's
    row holds the `own` modes of its paths, path by path, then the modes
    they share, each times dim coordinates; a draw's last group may hold
    fewer paths, its empty slots zero.  Drawn in C order, a draw's rows
    are bit for bit one draw of them all, a group of one path in the
    order of `gen.standard_normal((n_paths, n_steps - 1, dim))`.  Yields
    (xi, spans) per block: its rows, and (draw index, first row, first
    path in the block, first path in the draw, paths) per draw in it.
    """
    split = own * dim  # the numbers of one path's own modes
    head = group * split
    xi = np.empty((rows, head + (n_steps - 1) * dim - split))
    spans, filled, col = [], 0, 0
    for index, (gen, n_paths) in enumerate(draws):
        done = 0
        while done < n_paths:
            size = min((rows - filled) * group, n_paths - done)
            g = -(-size // group)
            short = size - (g - 1) * group  # paths of the last group
            block = xi[filled:filled + g]
            gen.standard_normal(out=block.reshape(-1)[:block.size - (group - short) * split])
            if short < group:  # move the short group's shared modes to their place
                last = block[-1]
                last[head:] = last[short * split:short * split + last.size - head].copy()
                last[short * split:head] = 0.0
            spans.append((index, filled, col, done, size))
            filled, col, done = filled + g, col + size, done + size
            if filled == rows:
                yield xi, spans
                spans, filled, col = [], 0, 0
    if filled:
        yield xi[:filled], spans


@lru_cache(maxsize=32)
def _synthesis(n_steps: int):
    """(own, shared): the maps from a path's sine coordinates to its node values
    alpha(k / n), k = 1..n - 1, n = `n_steps` (see `stochastic`).

    Column j - 1 of `own` is sqrt(2/n) amp_j sin(j k pi / n) over k, for
    j <= `_OWN_MODES`.  `shared` is the same basis of the modes above up
    to `_DENSE_STEPS` steps, above it the scales sqrt(2/n) amp_j (zero up
    to `_OWN_MODES`) of a DST-I (`_sine_transform`), None with no modes.
    """
    own, modes = min(_OWN_MODES, n_steps - 1), n_steps - 1
    scale = _sine_amplitudes(n_steps) * math.sqrt(2.0 / n_steps)

    def basis(first: int, end: int) -> np.ndarray:  # rows first..end - 1 of the identity
        return np.ascontiguousarray(
            (_sine_transform(np.eye(end - first, modes, first)) * scale[first:end, None]).T)

    shared = (None if own == modes else basis(own, modes) if n_steps <= _DENSE_STEPS
              else np.where(np.arange(modes) < own, 0.0, scale))
    cached = (basis(0, own), shared)
    for a in cached[:1 + (shared is not None)]:
        a.flags.writeable = False  # every caller shares them
    return cached


def _tiled_product(basis: np.ndarray, coords: np.ndarray, out: np.ndarray,
                   scratch: np.ndarray) -> None:
    """out = basis @ coords[:, :out.shape[1]], in column tiles as wide as `scratch`,
    which receives a ragged last tile; `coords` holds whole tiles, zero past it.

    OpenBLAS rounds a column of a product according to the product's
    width, but within tiles of one width not according to its place, so
    a column of `out` is bit for bit the same whatever out's width."""
    width, tile = out.shape[1], scratch.shape[1]
    for c in range(0, width, tile):
        ragged = c + tile > width
        np.matmul(basis, coords[:, c:c + tile], out=scratch if ragged else out[:, c:c + tile])
        if ragged:
            out[:, c:] = scratch[:, :width - c]


def _node_blocks(draws, n_paths: int, n_steps: int, dim: int, buffers=()):
    """The node values of the bridges of several draws of `n_paths` paths each, one row
    block at a time, from the group rows of `_sums_layout` that each generator of
    `draws` draws as `_bridge_sums` does (`_group_rows`).

    A path's values are its own modes' basis product plus its group's
    shared modes' dense product or DST-I (`_synthesis`); a group of one
    path splits its modes the same way.  Fixed column tiles
    (`_tiled_product`) keep them bit for bit the same in any block.  A
    block holds whole groups, whose `_NODE_BUFFERS` buffers of node values
    hold at most `_BLOCK_ELEMENTS` numbers (one group if larger).  Yields
    (alpha, spans, views) per block: alpha (n_steps + 1, paths, dim) holds
    node k of every path in row k, nodes 0 and n_steps zero; spans are
    `_group_rows`'; views are buffers (n_steps + 1, paths, *shape) for
    the shapes of `buffers`.  All are contiguous, overwritten next block.
    """
    group, layout_own, _ = _sums_layout(n_paths, n_steps, dim)
    own_basis, shared = _synthesis(n_steps)
    modes, own = own_basis.shape  # a group of one reads its first modes as its own
    head = group * own * dim
    rows = min(len(draws) * -(-n_paths // group),
               max(1, _BLOCK_ELEMENTS // (_NODE_BUFFERS * (n_steps + 1) * dim * group)))
    scratch = np.empty((modes, _OWN_TILE))
    shapes = ((dim,), *buffers)
    flats = [np.empty((n_steps + 1) * rows * group * math.prod(shape)) for shape in shapes]
    for xi, spans in _group_rows([(gen, n_paths) for gen in draws], n_steps, dim, group,
                                 layout_own, rows):
        g, width = len(xi), sum(span[-1] for span in spans)
        alpha, *views = (f[:(n_steps + 1) * width * math.prod(shape)]
                         .reshape(n_steps + 1, width, *shape) for f, shape in zip(flats, shapes))
        alpha[[0, -1]] = 0.0
        inner = alpha[1:-1]
        coords = np.zeros((own, -(-width * dim // _OWN_TILE) * _OWN_TILE))
        for _, row, col, _, size in spans:
            k = -(-size // group)
            np.copyto(coords[:, col * dim:(col + size) * dim].reshape(own, size, dim),
                      xi[row:row + k, :head].reshape(k * group, own, dim)[:size]
                      .transpose(1, 0, 2))
        _tiled_product(own_basis, coords, inner.reshape(modes, width * dim), scratch)
        if shared is not None:
            upper = xi[:, head:].reshape(g, modes - own, dim)
            if shared.ndim == 2:
                coords = np.zeros((modes - own, -(-g * dim // _SHARED_TILE) * _SHARED_TILE))
                np.copyto(coords[:, :g * dim].reshape(modes - own, g, dim),
                          upper.transpose(1, 0, 2))
                nodes = np.empty((modes, g * dim))
                _tiled_product(shared, coords, nodes, np.empty((modes, _SHARED_TILE)))
                nodes = nodes.reshape(modes, g, dim)
            else:
                scaled = np.zeros((g, dim, modes))
                np.multiply(upper.transpose(0, 2, 1), shared[own:], out=scaled[..., own:])
                nodes = _sine_transform(scaled).transpose(2, 0, 1)
            for _, row, col, _, size in spans:
                full = size // group
                part = inner[:, col:col + full * group].reshape(modes, full, group, dim)
                np.add(part, nodes[:, row:row + full, None], out=part)
                inner[:, col + full * group:col + size] += nodes[:, row + full:row + full + 1]
        yield alpha, spans, views


def _walk_units(draws, count: int, n_steps: int, t: float, V: PotentialSpec, strides=(1,),
                floors=None) -> np.ndarray:
    """Group units of several draws of paths, one row per stride and then per floor, one
    column per unit, the draws' units one after the other.

    `draws` lists (gen, x, y): `count` paths pinned from x to y, of which
    ceil(count / 2) are drawn from gen as node values (`_node_blocks`)
    and weighed with their mirrors (`_pairs`).  A quadratic form (clipped
    at `floors`, or at its own floor for None) reads a path and its
    mirror as E + O and E - O (`backend.form_parts`); a callable is
    evaluated at the positions of both, each rewritten from alpha.  Every
    stride reads strided rows of the same values
    (`backend.floored_weights`).  A group's pair units average into its
    unit as in `_sums_units`, bit for bit the same in any block.
    """
    form = V.form
    floors = (-math.inf if form is None else form.floor,) if floors is None else floors
    drawn, paired = _pairs(count)
    group = _sums_layout(drawn, n_steps, V.dim)[0]
    per_draw = -(-drawn // group)
    units = np.empty((len(strides) * len(floors), len(draws) * per_draw))
    lines = [_backend._line_positions(n_steps, x, y)[:, None, :]
             for _, x, y in (draws if form is None else ())]
    # a callable's positions and spare rows, or a form's even, odd, values and spare rows
    shapes = ((V.dim,), ()) if form is None else ((),) * 4

    def evaluated(alpha, spans, pos, scale: float) -> np.ndarray:
        np.multiply(alpha, scale, out=pos)  # scale alpha first, then add the line
        for index, _, col, _, n in spans:
            pos[:, col:col + n] += lines[index]
        v = np.asarray(V.evaluate(pos), dtype=np.float64)  # clipped in place below,
        return v if v.flags.owndata and v.flags.writeable else v.copy()  # never a caller's view

    for alpha, spans, views in _node_blocks([gen for gen, _, _ in draws], drawn, n_steps,
                                            V.dim, shapes):
        if form is None:
            pos, spare = views
            values = (evaluated(alpha, spans, pos, s) for s in (math.sqrt(t), -math.sqrt(t)))
        else:
            even, odd, buffer, spare = views
            _backend.form_parts(alpha, [(*draws[index][1:], col, col + n)
                                        for index, _, col, _, n in spans], t, form, even, odd)
            values = (combine(even, odd, out=buffer) for combine in (np.add, np.subtract))
        # the path's values, then its mirror's, each weighed before the next is formed
        plus, pair = (np.array(_backend.floored_weights(v, floors, t, strides, spare))
                      for v in values)
        pair += plus
        pair *= 0.5
        for index, _, col, first, n in spans:
            if drawn > paired and first + n == drawn:  # the draw's last path has no mirror
                pair[:, col + n - 1] = plus[:, col + n - 1]
            unit = index * per_draw + first // group
            _group_means(pair[:, col:col + n], group, units[:, unit:unit + -(-n // group)])
    return units


def _group_means(w: np.ndarray, group: int, out: np.ndarray) -> None:
    """Write into `out` the means of consecutive groups of `group` units of w (..., k),
    each summed in order; the last group may hold fewer."""
    k = w.shape[-1]
    np.copyto(out, w[..., ::group])
    for j in range(1, group):
        later = w[..., j::group]
        out[..., :later.shape[-1]] += later
    out /= np.minimum(k - np.arange(0, k, group), group) if k % group else group


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


def _fold(v: np.ndarray, m: int, out: np.ndarray, first: int = 1) -> None:
    """Write into `out` the coordinates eta' of a grid of m steps, from coordinates
    `v` (rows, L, dim) of modes first..first + L - 1 of a grid whose step count is a
    multiple of m, all its other modes zero.

    On the nodes of the coarse grid sin(j k pi / M) is periodic in j with
    period 2m and odd about 0 and m, so mode j acts there as mode
    r = j mod 2m for 0 < r < m and as minus mode 2m - r for m < r < 2m
    (modes with r = 0 or m vanish).  The folded coordinates then carry
    the coarse nodes' values with the fine grid's normalization, so every
    grid of the path reads C = sum |eta'|^2 / n_steps.  `out` holds the
    first out.shape[1] coarse modes, which must include every mode the
    folds reach: the first L of them for first = 1 and L < m.
    """
    out[...] = 0.0
    end = first + v.shape[1]
    for base in range(first - first % (2 * m), end, 2 * m):
        lo, hi = max(base + 1, first), min(base + m, end)
        if lo < hi:
            out[:, lo - base - 1:hi - base - 1] += v[:, lo - first:hi - first]
        lo, hi = max(base + m + 1, first), min(base + 2 * m, end)
        if lo < hi:
            out[:, base + 2 * m - hi:base + 2 * m - lo] -= v[:, lo - first:hi - first][:, ::-1]


def _sums_layout(n_paths: int, n_steps: int, dim: int) -> tuple[int, int, int]:
    """(group, own, rows) of a chunk that draws `n_paths` paths in sine coordinates:
    paths per group, modes each path draws alone, and groups per row block of
    `_bridge_sums` (`_node_blocks` sizes its own).

    Groups of `_GROUP` paths each draw their modes above `_OWN_MODES` once
    (see `_bridge_sums`), unless no mode lies above it or the chunk would
    then hold no more than `_TOP_K / _HEAVY_FRACTION` groups, too few for
    the heavy-tail rule: then every path is a group of one and draws all
    its n_steps - 1 modes alone.  A row block holds whole groups, at most
    `_BLOCK_ELEMENTS` numbers with the copy of their own modes (one group
    if a group is larger, the whole chunk if a path draws nothing).
    """
    modes = n_steps - 1
    group, own = _GROUP, _OWN_MODES
    if modes <= own or -(-n_paths // group) * _HEAVY_FRACTION <= _TOP_K:
        group, own = 1, modes
    # a group's row, and the copy of its own modes that its paths read as rows of their own
    numbers = (group * own + modes - own + (group > 1) * group * own) * dim
    return group, own, min(-(-n_paths // group), max(1, _BLOCK_ELEMENTS // max(1, numbers)))


def _bridge_sums(gen: np.random.Generator, n_paths: int, n_steps: int, dim: int, strides):
    """Trapezoid sums A = sum' alpha, B = sum' u alpha, C = sum' |alpha|^2 per stride.

    The paths are drawn in sine coordinates xi (see `stochastic`), in the
    groups of `_sums_layout`, one row of normals per group (`_group_rows`),
    row block by row block of whole groups; a one-step grid draws nothing.

    A and B are linear in xi: every path reads its own modes through one
    matrix product, and each group adds the product of its shared modes
    once.  If no coarser grid has interior nodes, C is likewise a sum of
    squares of the own modes and one of the shared modes.  Otherwise xi
    becomes eta = amp xi, and each coarser grid folds (`_fold`) the own
    and the shared coordinates apart, each from the coarsest grid
    already folded that it divides; a path's C on a grid is then
    (|o|^2 + 2 o . s + |s|^2) / n_steps, with o its folded own and s its
    group's folded shared coordinates.  The own modes j <= own fold onto
    themselves on every grid of more than own steps, so a path's work on
    each grid is O(own), not O(n_steps).  A stride s, which must divide
    n_steps, restricts the path to the nodes that are multiples of s: a
    grid of n_steps / s steps.  Yields, block after block, a list of
    (A, B, C) for each stride in order, with A and B of shape (paths, dim)
    and C of shape (paths,), the paths of whole groups in draw order.
    """
    strides = tuple(strides)
    ab_cols, c_col, amp = _sine_sums(n_steps, strides, dim)
    group, own, rows = _sums_layout(n_paths, n_steps, dim)
    split = own * dim  # the coefficients' rows that a path reads from its own modes
    head = group * split  # a group row's own modes, path by path
    xo = np.empty((rows * group if group > 1 else 0, split))
    coarse = sorted({n_steps // s for s in strides} - {1, n_steps}, reverse=True)
    own_folds = {m: np.empty((rows * group, m - 1, dim)) for m in coarse if m <= own}
    shared_folds = {m: np.empty((rows, m - 1, dim)) for m in coarse}
    for block, ((*_, size),) in _group_rows([(gen, n_paths)], n_steps, dim, group, own, rows):
        g = len(block)
        if group == 1:
            own_xi = block
        else:
            own_xi = xo[:g * group]
            np.copyto(own_xi.reshape(g, head), block[:, :head])
        shared = block[:, head:]
        ab = (own_xi @ ab_cols[:split]).reshape(g, group, -1)
        ab += (shared @ ab_cols[split:])[:, None]
        ab = ab.reshape(g * group, len(strides), 2, dim)
        c = {1: np.zeros(g * group)}
        if coarse:
            own_xi *= amp[:split]
            shared *= amp[split:]
            own_at = {n_steps: own_xi.reshape(g * group, own, dim)}
            shared_at = {n_steps: shared.reshape(g, n_steps - 1 - own, dim)}
            for m in coarse:
                source = min(M for M in shared_at if M % m == 0)
                _fold(shared_at[source], m, shared_folds[m][:g],
                      own + 1 if source == n_steps else 1)
                shared_at[m] = shared_folds[m][:g]
                if m <= own:
                    _fold(own_at.get(source, own_at[n_steps]), m, own_folds[m][:g * group])
                    own_at[m] = own_folds[m][:g * group]
            # grid m reads the own coordinates folded onto it, or the unfolded ones
            reads = {m: m if m in own_at else n_steps for m in shared_at}
            # the full grid's own and shared modes are disjoint: o . s = 0 there
            cross = {m: 2.0 * np.vecdot(own_at[reads[m]].reshape(g, group, -1),
                                        shared_at[m][:, :own_at[reads[m]].shape[1]]
                                        .reshape(g, 1, -1))
                     for m in coarse}
            cross[n_steps] = 0.0
            own_sq = {m: np.square(v, out=v).reshape(g, group, -1).sum(axis=2)
                      for m, v in own_at.items()}
            for m, v in shared_at.items():
                shared_sq = np.square(v, out=v).reshape(g, -1).sum(axis=1)
                c[m] = ((own_sq[reads[m]] + cross[m] + shared_sq[:, None]).reshape(-1)
                        / n_steps)
        else:
            c[n_steps] = np.square(own_xi, out=own_xi) @ c_col[:split]
            c[n_steps].reshape(g, group)[:] += (np.square(shared, out=shared)
                                                @ c_col[split:])[:, None]
        yield [(ab[:size, level, 0], ab[:size, level, 1], c[n_steps // s][:size])
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
    pair units of `_sums_units` and `_walk_units` alike, in draw order, which both
    then average by groups."""
    return -(-count // 2), count // 2


def _sums_units(gen: np.random.Generator, count: int, xs: np.ndarray, ys: np.ndarray,
                t: float, form: QuadraticForm, n_steps: int, strides=(1,)):
    """Group units of an unclipped form at the node pairs (xs[i], ys[j]), x-major, on
    the grid of each stride, from the sums (`_bridge_sums`) of a chunk of `count`
    paths drawn from `gen`.

    Each drawn path is weighed with its mirror into a pair unit
    (`_sums_weights`), and the pair units of a group of `_sums_layout`
    average into one group unit (`_group_means`).  The units fill, in
    draw order, one reused buffer of shape (strides, node pairs, units)
    and at most `_BLOCK_ELEMENTS` numbers (one unit per row if there are
    more rows).  A full buffer is yielded when more units arrive and the
    last one after the chunk's last sums, so that reducing it keeps no
    buffer of `_bridge_sums` alive for nothing; the next overwrites it.
    """
    drawn, paired = _pairs(count)
    n_x, n_y, dim = len(xs), len(ys), xs.shape[1]
    group, _, block_groups = _sums_layout(drawn, n_steps, dim)
    size = min(-(-drawn // group), max(1, _BLOCK_ELEMENTS // (len(strides) * n_x * n_y)))
    # groups weighed at once: the weights of their paths and the scratch of
    # `_sums_weights` hold at most `_BLOCK_ELEMENTS` numbers each
    rows = group * min(size, block_groups, max(1, _BLOCK_ELEMENTS // (n_x * n_y * group)))
    # the units and the weights share one allocation.  As two, glibc gave the
    # heap they leave back to the system after each matrix element of 256 node
    # pairs x 500 paths and faulted it in again on the next: 470 page faults,
    # 2.4 -> 3.4 ms per call (2-core x86-64 host)
    units, weights = np.split(np.empty((len(strides) * size + 2 * rows) * n_x * n_y),
                              [len(strides) * n_x * n_y * size])
    units = units.reshape(len(strides), n_x, n_y, size)
    lines = [_line_action(xs, ys, form, n_steps // s) for s in strides]
    filled = start = 0  # group units in the buffer, and paths weighed in the chunk
    for levels in _bridge_sums(gen, drawn, n_steps, dim, strides):
        done = 0
        while done < len(levels[0][2]):
            if filled == size:
                yield units.reshape(len(strides), n_x * n_y, size)
                filled = 0
            k = min(len(levels[0][2]) - done, (size - filled) * group, rows)
            # contiguous: numpy is about 1.6x slower on the ragged columns of a wider buffer
            out = weights[:2 * n_x * n_y * k].reshape(2, n_x, n_y, k)
            for level, (sums, line) in enumerate(zip(levels, lines)):
                w = _sums_weights([a[done:done + k] for a in sums], xs, ys, t, form, line,
                                  max(0, paired - start), out)
                _group_means(w, group, units[level, ..., filled:filled + -(-k // group)])
            filled += -(-k // group)
            done += k
            start += k
    yield units.reshape(len(strides), n_x * n_y, size)[..., :filled]


def _unit_records(w: np.ndarray, coef=None) -> tuple[_Stats, ...]:
    """The records of units w (strides, node pairs, units): the `_Stats` of each
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
    weights (top_k 0 or `_TOP_K`) of each row of weights (pair or group
    units, in an estimator), m2 in units of `scale` squared; `a + b` merges the
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
    steps (broadcast against it) and `n_samples` paths each (`stats` counts
    units: pair units, about half as many, or group units of 8 pairs).  With a control, `q_ref` (NaN where a column has
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
    """Monte Carlo mean of exp(-action) over bridges.

    The bridges are drawn in groups that share their high sine modes, and
    the standard error counts group units (see the module docstring).
    Sample streams are keyed by (seed, stream_id, *key, chunk index), so
    results are bit-reproducible for a fixed seed independently of the
    worker count and of the row blocks.  A clipped quadratic form (a truncation of `zero`,
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
    for all floors (`_walk_units`); `floors=None` estimates V itself.
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
        w = _walk_units([(gen, xs[p], ys[p]) for gen, p in zip(gens, pairs)], count, n_steps,
                        t, V, floors=levels)
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
    from the totals sum_ij coef_ij w_ij(unit) of its group units, which
    carry the correlation between nodes that sharing creates.  A clipped
    form (a truncation) or a callable potential gives every node pair its own
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
    own paths into the same blocks of node values, weighed in one pass,
    and their records come from one reduction (`_pair_estimates`), while
    each pair's estimate stays bit for bit that of `estimate_Q` at the
    pair with key=(i, j).  `mc_samples_per_node` counts paths, each
    weighed with its mirror (see `_pairs`).  Either way a fixed seed
    gives bit-identical results for any worker count.
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
                return _unit_records(_walk_units([(gens[0], xp, yp)], count, n_max, t, V,
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
