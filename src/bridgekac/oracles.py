"""Independent ground truth for the Monte Carlo estimates.

Three kinds of oracle live here.  Closed-form kernels: the
linear-potential semigroup kernel (`stark_kernel`, with its pin-to-pin
factor `stark_q`), the harmonic-oscillator kernel (`mehler_kernel`) and
its continuation to the inverted oscillator (`inverted_mehler_kernel`).
The exact value of Q on the estimators' own time grid for an unclipped
quadratic form (`gaussian_q`, `log_gaussian_q`, from `stochastic`), which
separates grid bias from Monte Carlo error.  And a finite-difference
grid oracle: the Dirichlet Hamiltonian H of a truncated interval, whose
semigroup e^{-tH} is applied to the test vectors.

The closed forms are not taken on faith.  The linear-potential exponent
coefficients follow from Gaussian integration of the bridge action (the
time integral of a linear function of a Gaussian path is Gaussian, with
variance fixed by the bridge covariance: Var(integral_0^1 alpha) =
1/12), and the tests cross-validate both kernels against the grid
solver before they are used as ground truth anywhere else.

The grid oracle is one-dimensional and its Hamiltonian tridiagonal.
`semigroup_matrix_element` and `semigroup_kernel` evaluate f^T e^{-tH} g
by uniformization (`_uniformized`): a Poisson-weighted series of
matrix-vector products with a nonnegative matrix, which adds only
nonnegative terms.  Its relative error therefore does not grow with
||e^{-tH}||, which is the regime the paper is about: a deep well makes
||e^{-tH}|| huge while <phi, e^{-tH} psi> stays moderate, and an
eigendecomposition would multiply its eigenvector rounding by that
norm.  The truncation study's level Hamiltonians, which share one grid,
run as one batch at one uniformization rate: the state holds a column
for each of them, node-major, so a step is a few operations on
contiguous memory, and a block of consecutive steps is summed at once.
Each block rescales the state by powers of two and keeps the partial
sums as logarithms, so the value stays finite and accurate at any
depth of the well, where the series' prefactor e^{-t min V} alone
leaves the doubles past t |min V| = 709.  Its cost grows linearly in
t.  `decompose` gives the dense eigendecomposition, which the tests take
as their reference and the CLI reads the ground energy from.

Domain truncation to [-L, L] is valid when the kernel mass outside the
box is negligible at the given t; for potentials unbounded below, use
bounded-below truncations or small t so the box spectrum stays honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .feynman_kac import Wavefunction, _check_integer, free_kernel
from .potentials import PotentialSpec
# the exact grid value lives beside the bridge law, where the estimators can import it
from .stochastic import DIVERGENT, gaussian_q, log_gaussian_q

__all__ = [
    "GridOperator",
    "OracleConfig",
    "SpectralDecomposition",
    "build_grid_operator",
    "decompose",
    "gaussian_q",
    "inverted_mehler_kernel",
    "log_gaussian_q",
    "mehler_kernel",
    "semigroup_kernel",
    "semigroup_matrix_element",
    "stark_kernel",
    "stark_q",
]


def _check_positive(name: str, value) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive")


def _check_n_points(n_points) -> None:
    _check_integer("n_points", n_points)
    if n_points < 3:
        raise ValueError("n_points must be at least 3")


@dataclass(frozen=True)
class OracleConfig:
    """Grid-oracle parameters: box half-width and interior points."""

    domain_half_width: float = 8.0
    n_points: int = 1200

    def __post_init__(self) -> None:
        _check_positive("domain_half_width", self.domain_half_width)
        _check_n_points(self.n_points)


@dataclass(frozen=True)
class GridOperator:
    """Dirichlet discretization of -(1/2) d^2/dx^2 + V on [-L, L].

    Interior grid x_i = -L + h (i + 1), i = 0..n_points-1, with spacing
    h = 2L / (n_points + 1); the standard 3-point stencil puts
    `diagonal` = 1/h^2 + V(x_i) on the diagonal and `off_diagonal` =
    -1/(2 h^2) beside it.  Only the tridiagonal is stored; `hamiltonian`
    assembles the dense matrix.
    """

    domain_half_width: float
    n_points: int
    h: float
    diagonal: np.ndarray

    @property
    def grid(self) -> np.ndarray:
        L = self.domain_half_width
        return -L + self.h * np.arange(1, self.n_points + 1)

    @property
    def off_diagonal(self) -> float:
        return -0.5 / (self.h * self.h)

    @property
    def hamiltonian(self) -> np.ndarray:
        H = np.diag(self.diagonal)
        idx = np.arange(self.n_points - 1)
        H[idx, idx + 1] = self.off_diagonal
        H[idx + 1, idx] = self.off_diagonal
        return H


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def build_grid_operator(V: PotentialSpec, L: float, n_points: int) -> GridOperator:
    """Assemble the stencil with V sampled at the grid nodes.

    A value of V that is not finite would make every semigroup value NaN,
    so the first grid point where V is NaN or infinite raises.
    """
    if V.dim != 1:
        raise ValueError("the grid oracle supports dim=1 only")
    _check_positive("L", L)
    _check_n_points(n_points)
    h = 2.0 * L / (n_points + 1)
    x = -L + h * np.arange(1, n_points + 1)
    v = np.asarray(V.evaluate(x[:, None]), dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"potential is not finite on the grid: V({float(x[i])!r}) = "
                         f"{float(v[i])!r} at grid point {i}")
    return GridOperator(domain_half_width=float(L), n_points=int(n_points), h=float(h),
                        diagonal=1.0 / (h * h) + v)


def decompose(op: GridOperator) -> SpectralDecomposition:
    """Dense symmetric eigendecomposition (`eigh`) of the grid Hamiltonian.

    The semigroup oracles do not use it.  e^{-tH} formed from it carries
    its eigenvector rounding times e^{-t lambda_0}, so it is exact only
    while that factor is moderate.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(op.hamiltonian)
    return SpectralDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


# the uniformized series stops once its remaining terms are at most this share of the value
_SERIES_REL = 1e-16


def _poisson(mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Poisson probabilities of k = 0..K at mean `mu`, and the probability of exceeding each k.

    K lies 40 standard deviations (plus 40) above the mean, where the
    mass left is far below the smallest double.  The probabilities are
    built outwards from the mode by running products of their ratios
    k / mu, and normalized by their sum, so neither e^{-mu} nor k! is
    formed: both over- or underflow for the means of a fine grid.
    """
    K = int(mu + 40.0 * math.sqrt(mu)) + 40
    k = np.arange(1, K + 1)
    mode = math.floor(mu)
    # p_k / p_mode: the product of j / mu over k < j <= mode, or of mu / j over mode < j <= k
    below = np.cumprod(np.where(k <= mode, k / mu, 1.0)[::-1])[::-1]
    above = np.cumprod(np.where(k > mode, mu / k, 1.0))
    weights = np.append(below, 1.0) * np.insert(above, 0, 1.0)
    weights /= weights.sum()
    tail = np.append(np.cumsum(weights[:0:-1])[::-1], 0.0)
    return weights, tail


def _parts(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The signs (+1, -1) whose part max(sign * v, 0) is not zero, and those parts as rows."""
    signs = [s for s in (1.0, -1.0) if np.any(s * v > 0.0)]
    return np.array(signs), np.array([np.maximum(s * v, 0.0) for s in signs]).reshape(-1, v.size)


# the ring of consecutive series states holds at most this many numbers
_RING_NUMBERS = 1 << 16
# within a block the states are kept unscaled by b^j, and a block spans at most this many
# e-folds of b, so neither they nor b^j leave the range of a double
_BLOCK_E_FOLDS = 600.0


def _uniformized(ops: Sequence[GridOperator], t: float, f: np.ndarray,
                 g: np.ndarray) -> np.ndarray:
    """f^T e^{-tH} g for the Hamiltonian H of each of `ops`, which share one grid.

    Uniformization (Xue & Ye, Numer. Math. 2008): with d the diagonals
    of the Hamiltonians and e their off-diagonal, s = max d over every
    operator, Lambda = s - min d + 2|e| and B = (sI - H) / Lambda, whose
    entries are nonnegative and whose row sums are at most 1,

        f^T e^{-tH} g = e^{t (Lambda - s)} sum_k Pois(k; t Lambda) f^T B^k g.

    One rate serves the whole batch, so b = |e| / Lambda, the Poisson
    weights and the prefactor are shared.  f and g are split into their
    positive and negative parts, so each of the (up to four) series adds
    nonnegative terms only and keeps a small relative error however large
    ||e^{-tH}|| is.  The state B^k g is node-major, (nodes + 2, rows)
    with zero end rows, one row for each part of g under each operator,
    so a step adds two contiguous blocks and a scaled third.  A ring of
    consecutive states (at most `_RING_NUMBERS` numbers) forms a block:
    one matrix product gives f^T B^k g for all of it, and cumulative sums
    the partial sums.  At each block's start every row is scaled by the
    power of two that brings its maximum into [1/2, 1), which is exact,
    and its exponent is kept; the partial sums are kept as logarithms.
    So no term underflows however deep the well, although
    e^{t (Lambda - s)} = e^{-t min V} alone leaves the doubles past
    t |min V| = 709.  For nonnegative g, B^j g <= max B^k g for j >= k,
    so the terms past k add at most (the Poisson mass past k) * ||f||_1
    * max B^k g; the maximum at the block's start bounds it within the
    block.  Past the mode the series stops at the first k where that is
    at most 1e-16 of every partial sum.  At t = 0 the value is f^T g, and
    it is 0 if f or g is zero at every node.
    """
    if t == 0.0:
        return np.full(len(ops), float(f @ g))
    f_signs, F = _parts(f)
    g_signs, G = _parts(g)
    if not (len(F) and len(G)):
        return np.zeros(len(ops))
    e = abs(ops[0].off_diagonal)
    s = max(float(op.diagonal.max()) for op in ops)
    lam = s - min(float(op.diagonal.min()) for op in ops) + 2.0 * e
    b = e / lam
    weights, tail = _poisson(t * lam)
    n, rows = ops[0].n_points, len(ops) * len(G)
    # a block keeps U^j x = B^j x / b^j: (s - d) / e on the diagonal and ones beside it
    diagonal = np.repeat(np.stack([(s - op.diagonal) / e for op in ops], axis=1), len(G), axis=1)
    block = max(1, min(_RING_NUMBERS // ((n + 2) * rows) - 1,
                       int(_BLOCK_E_FOLDS / -math.log(b))))
    # slot m holds the state after a block of m, the next block's start
    ring = np.zeros((block + 1, n + 2, rows))
    ring[-1, 1:-1] = np.tile(G.T, len(ops))
    steps = [(ring[j, :-2], ring[j, 2:], ring[j, 1:-1], ring[j + 1, 1:-1]) for j in range(block)]
    product = np.empty((n, rows))
    F_padded = np.zeros((len(F), n + 2))
    F_padded[:, 1:-1] = F
    b_powers = b ** np.arange(block + 1)
    log_rel = math.log(_SERIES_REL)
    past_mode = int(t * lam)
    m, scale, exponent = block, 1.0, np.zeros(rows)
    log_sums = np.full((len(F), rows), -np.inf)
    with np.errstate(divide="ignore"):
        log_tail = np.log(tail, out=tail)
        log_mass = np.log(F.sum(axis=1))[:, None]
        for k in range(0, len(weights), block):
            # rescale by 2^-shift, and by b^m after a block; peak: the row maxima after it
            # (a transposed copy makes the reduction contiguous, several times faster)
            peak, shift = np.frexp(ring[m].T.copy().max(axis=1) * scale)
            np.multiply(ring[m], np.ldexp(scale, -shift), out=ring[0])
            exponent += shift
            m = min(block, len(weights) - k)
            for below, above, middle, out in steps[:m]:
                np.add(below, above, out=out)
                out += np.multiply(diagonal, middle, out=product)
            # the log of the prefactor times each row's scale
            offset = t * (lam - s) + math.log(2.0) * exponent
            terms = (weights[k:k + m] * b_powers[:m])[:, None, None] * (F_padded @ ring[:m])
            partial = np.logaddexp(log_sums, np.log(np.cumsum(terms, axis=0)) + offset)
            log_sums = partial[-1]
            if k + m > past_mode:
                bound = log_tail[k:k + m, None, None] + log_mass + np.log(peak) + offset
                done = np.all(bound <= log_rel + partial, axis=(1, 2))
                done[:max(0, past_mode - k)] = False
                if done.any():
                    log_sums = partial[np.argmax(done)]
                    break
            scale = b_powers[m]
    values = np.exp(log_sums).reshape(len(F), len(ops), len(G)).transpose(1, 2, 0)
    return values @ f_signs @ g_signs


def _check_t(t: float) -> None:
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError("t must be finite and nonnegative")


def _on_grid(op: GridOperator, wf: Wavefunction) -> np.ndarray:
    """wf at the grid nodes, once its support is checked to lie in the box."""
    if wf.dim != 1:
        raise ValueError("the grid oracle supports dim=1 only")
    (lower,), (upper,) = wf.support_box
    if lower < -op.domain_half_width or upper > op.domain_half_width:
        raise ValueError("wavefunction support exceeds the oracle domain")
    v = np.asarray(wf.evaluate(op.grid[:, None]), dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise ValueError("wavefunction is not finite on the grid")
    return v


def semigroup_matrix_element(op: GridOperator, phi: Wavefunction, psi: Wavefunction,
                             t: float) -> float:
    """<phi, e^{-tH} psi> on the grid, inner products as grid sums with weight h.

    The value comes from uniformization (`_uniformized`), whose relative
    error does not grow with ||e^{-tH}||; its cost grows linearly in t.
    """
    return float(_semigroup_matrix_elements([op], phi, psi, t)[0])


def _semigroup_matrix_elements(ops: Sequence[GridOperator], phi: Wavefunction,
                               psi: Wavefunction, t: float) -> np.ndarray:
    """`semigroup_matrix_element` at each of `ops`, built on one grid (the same
    L and n_points), from one batched uniformization."""
    _check_t(t)
    f, g = _on_grid(ops[0], phi), _on_grid(ops[0], psi)
    return ops[0].h * _uniformized(ops, t, f, g)


def semigroup_kernel(op: GridOperator, x: float, y: float, t: float) -> float:
    """Kernel value e^{-tH}(x, y) at the grid nodes nearest x and y.

    The matrix element between grid delta functions carries a 1/h
    normalization; x and y are snapped to the nearest nodes (at most h/2
    away), so compare against smooth references only.  It is evaluated
    by uniformization, as `semigroup_matrix_element` is.
    """
    _check_t(t)
    grid = op.grid
    if not (grid[0] <= x <= grid[-1]) or not (grid[0] <= y <= grid[-1]):
        raise ValueError("kernel points must lie inside the oracle domain")
    f = np.zeros(op.n_points)
    g = np.zeros(op.n_points)
    f[int(np.argmin(np.abs(grid - x)))] = 1.0
    g[int(np.argmin(np.abs(grid - y)))] = 1.0
    return float(_uniformized([op], t, f, g)[0] * (1.0 / op.h))


def stark_q(x: float, y: float, F: float, t: float) -> float:
    """Exact pin-to-pin weight for the linear potential F z.

    The action integral_0^t F z(s) ds along the pinned path is Gaussian
    with mean t F (x + y) / 2 (the straight-line term) and variance
    F^2 t^3 Var(integral_0^1 alpha) = F^2 t^3 / 12, obtained by
    double-integrating the bridge covariance min(s, u)(1 - max(s, u)).
    Hence E exp(-action) = exp(-t F (x + y) / 2 + F^2 t^3 / 24).
    """
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError("t must be positive and finite")
    if not math.isfinite(F):
        raise ValueError("F must be finite")
    return float(math.exp(-t * F * (x + y) / 2.0 + F * F * t ** 3 / 24.0))


def stark_kernel(x: float, y: float, F: float, t: float) -> float:
    """Semigroup kernel for -(1/2) d^2/dx^2 + F x: free kernel times stark_q."""
    return free_kernel(x, y, t) * stark_q(x, y, F, t)


def mehler_kernel(x: float, y: float, omega: float, t: float) -> float:
    """Semigroup kernel for -(1/2) d^2/dx^2 + (omega^2/2) x^2.

    (omega / (2 pi sinh(omega t)))^{1/2}
      * exp(-omega [(x^2 + y^2) cosh(omega t) - 2 x y] / (2 sinh(omega t))).
    Reduces to the free kernel as omega -> 0.  sinh and cosh are written
    as e^{omega t} times (1 -+ e^{-2 omega t}) / 2 and e^{omega t} is taken
    into the exponent, so a stiff oscillator (omega t past 710, where
    sinh overflows) still gives its small but representable value.
    """
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError("t must be positive and finite")
    _check_positive("omega", omega)
    q = math.exp(-omega * t)
    s = -0.5 * math.expm1(-2.0 * omega * t)  # sinh(omega t) e^{-omega t}
    c = 0.5 * (1.0 + q * q)                  # cosh(omega t) e^{-omega t}
    pref = math.sqrt(omega / (2.0 * math.pi * s))
    return float(pref * math.exp(-0.5 * omega * t
                                 - omega * ((x * x + y * y) * c - 2.0 * x * y * q) / (2.0 * s)))


def inverted_mehler_kernel(x: float, y: float, c: float, t: float):
    """Semigroup kernel for -(1/2) d^2/dx^2 - c x^2, or DIVERGENT.

    Mehler's kernel at omega = i kappa, kappa = sqrt(2 c):
    (kappa / (2 pi sin(kappa t)))^{1/2}
      * exp(-kappa [(x^2 + y^2) cos(kappa t) - 2 x y] / (2 sin(kappa t))).
    It is finite only for kappa t < pi; at and beyond that time the
    expectation is infinite and the result is DIVERGENT.  This is where
    -c x^2, which meets V >= -eps x^2 - C_eps only for eps >= c, stops
    generating a semigroup value.
    """
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError("t must be positive and finite")
    if not (math.isfinite(c) and c > 0.0):
        raise ValueError("c must be positive and finite")
    kappa = math.sqrt(2.0 * c)
    if kappa * t >= math.pi:
        return DIVERGENT
    s = math.sin(kappa * t)
    co = math.cos(kappa * t)
    pref = math.sqrt(kappa / (2.0 * math.pi * s))
    return float(pref * math.exp(-kappa * ((x * x + y * y) * co - 2.0 * x * y) / (2.0 * s)))
