"""Independent ground truth for the Monte Carlo estimates.

Three kinds of oracle live here.  Closed-form kernels: the
linear-potential semigroup kernel (`stark_kernel`, with its pin-to-pin
factor `stark_q`), the harmonic-oscillator kernel (`mehler_kernel`) and
its continuation to the inverted oscillator (`inverted_mehler_kernel`).
The exact value of Q on the estimators' own time grid for an unclipped
quadratic form (`gaussian_q`, `log_gaussian_q`, from `stochastic`), which
separates grid bias from Monte Carlo error.  And a finite-difference
spectral solver: a dense Dirichlet Hamiltonian on a truncated interval
whose eigendecomposition realizes e^{-tH} through the functional
calculus.

The closed forms are not taken on faith.  The linear-potential exponent
coefficients follow from Gaussian integration of the bridge action (the
time integral of a linear function of a Gaussian path is Gaussian, with
variance fixed by the bridge covariance: Var(integral_0^1 alpha) =
1/12), and the tests cross-validate both kernels against the grid
solver before they are used as ground truth anywhere else.

The grid oracle is one-dimensional.  Its Hamiltonian is tridiagonal,
and e^{-tH} needs only the eigenpairs below a cut a few multiples of 1/t
above the test vectors' energy, since the rest carry weight below 1e-16
of the value.  `decompose(op, upper)` computes just those, from dense
solves on blocks of about 150 rows plus one Rayleigh-Ritz step, and
certifies them: a Sturm count must find no eigenvalue below the cut that
the Ritz values miss, and every residual must sit at rounding level.
`semigroup_matrix_element` and `semigroup_kernel` pick the cut, check
the spectral tail above it against the value, and guard against deep
wells, where a tiny Ritz-vector error is amplified by e^{-t lambda}.
Whenever a check fails they use the dense `eigh` of the whole spectrum,
so no value is less exact than the dense oracle's.

Domain truncation to [-L, L] is valid when the kernel mass outside the
box is negligible at the given t; for potentials unbounded below, use
bounded-below truncations or small t so the box spectrum stays honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class OracleConfig:
    """Grid-oracle parameters: box half-width, interior points, tolerance."""

    domain_half_width: float = 8.0
    n_points: int = 1200
    tolerance: float = 1e-3

    def __post_init__(self) -> None:
        if self.domain_half_width <= 0.0:
            raise ValueError("domain_half_width must be positive")
        _check_integer("n_points", self.n_points)
        if self.n_points < 3:
            raise ValueError("n_points must be at least 3")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class GridOperator:
    """Dense Dirichlet discretization of -(1/2) d^2/dx^2 + V on [-L, L].

    Interior grid x_i = -L + h (i + 1), i = 0..n_points-1, with spacing
    h = 2L / (n_points + 1); the standard 3-point stencil puts
    1/h^2 + V(x_i) on the diagonal and -1/(2 h^2) beside it.
    """

    domain_half_width: float
    n_points: int
    h: float
    hamiltonian: np.ndarray
    dim: int = 1
    boundary: str = "dirichlet"

    @property
    def grid(self) -> np.ndarray:
        L = self.domain_half_width
        return -L + self.h * np.arange(1, self.n_points + 1)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and orthonormal eigenvector columns.

    Every eigenpair with eigenvalue <= `upper` is present; `upper = inf`
    marks the whole spectrum.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    upper: float = math.inf


# Partial spectra (`decompose` with a finite `upper`): rows per block,
# Chebyshev shifts for the coupling correction, the residual certificate
# in units of eps * ||H||, and the largest share of the spectrum solved
# for in part; beyond it the projected problem nears the dense one in
# size (harmonic at t = 0.05 needs 213 of 600 modes).
_BLOCK_ROWS = 150
_SHIFTS = 12
_RESIDUAL_ULPS = 64.0
_MAX_KEPT_SHARE = 1.0 / 3.0

# Semigroup values from a partial spectrum: the first cut lies this many
# units of 1/t above the test vectors' energy (e^{-40} = 4e-18); the
# spectral tail above the cut and the amplified Ritz-vector error must
# stay below these shares of the value.
_CUT_MARGIN = 40.0
_TAIL_REL = 1e-16
_RITZ_REL = 1e-11


def build_grid_operator(V: PotentialSpec, L: float, n_points: int) -> GridOperator:
    """Assemble the stencil matrix with V sampled at the grid nodes.

    A value of V that is not finite would turn the whole spectrum into
    NaN, so the first grid point where V is NaN or infinite raises.
    """
    if V.dim != 1:
        raise ValueError("the grid oracle supports dim=1 only")
    if L <= 0.0:
        raise ValueError("L must be positive")
    if n_points < 3:
        raise ValueError("n_points must be at least 3")
    h = 2.0 * L / (n_points + 1)
    x = -L + h * np.arange(1, n_points + 1)
    v = np.asarray(V.evaluate(x[:, None]), dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"potential is not finite on the grid: V({float(x[i])!r}) = "
                         f"{float(v[i])!r} at grid point {i}")
    H = np.zeros((n_points, n_points))
    idx = np.arange(n_points)
    H[idx, idx] = 1.0 / (h * h) + v
    off = -0.5 / (h * h)
    H[idx[:-1], idx[:-1] + 1] = off
    H[idx[:-1] + 1, idx[:-1]] = off
    return GridOperator(domain_half_width=float(L), n_points=int(n_points),
                        h=float(h), hamiltonian=H)


def decompose(op: GridOperator, upper: float | None = None) -> SpectralDecomposition:
    """Symmetric eigendecomposition of the grid Hamiltonian.

    `upper=None` gives the dense `eigh` of the whole spectrum.  A finite
    `upper` asks for the ascending eigenpairs with eigenvalue <= upper
    only.  They come from dense solves on blocks of about 150 rows and a
    Rayleigh-Ritz step (`_block_ritz`), and are returned only when
    certified: the Sturm count of eigenvalues <= upper equals the number
    of Ritz values kept, and every residual |H u - theta u| is at most
    64 eps ||H||.  With fewer than two blocks, no eigenvalue or more than
    a third of the spectrum below `upper`, or a failed certificate, the
    result is the dense decomposition of the whole spectrum
    (`upper = inf`).
    """
    if upper is not None:
        upper = float(upper)
        if math.isnan(upper):
            raise ValueError("upper must not be NaN")
        if upper < math.inf:
            partial = _block_ritz(op, upper)
            if partial is not None:
                return partial
    eigenvalues, eigenvectors = np.linalg.eigh(op.hamiltonian)
    return SpectralDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def _tridiagonal(op: GridOperator) -> tuple[np.ndarray, np.ndarray]:
    H = op.hamiltonian
    return np.diagonal(H), np.diagonal(H, 1)


def _count_at_most(d: np.ndarray, e: np.ndarray, sigma: float) -> int:
    """Number of eigenvalues <= sigma: the negative pivots of LDL^T of H - sigma."""
    e2 = (e * e).tolist()
    pivmin = np.finfo(np.float64).tiny * max(1.0, max(e2, default=0.0))
    count = 0
    coupling = 0.0
    for i, di in enumerate(d.tolist()):
        q = di - sigma - coupling
        if abs(q) < pivmin:
            q = -pivmin
        if q < 0.0:
            count += 1
        if i < len(e2):
            coupling = e2[i] / q
    return count


def _residual_norms(d: np.ndarray, e: np.ndarray, eigenvalues: np.ndarray,
                    eigenvectors: np.ndarray) -> np.ndarray:
    """Column norms of H U - U diag(eigenvalues) for tridiagonal H."""
    U = eigenvectors
    R = (d[:, None] - eigenvalues) * U
    R[:-1] += e[:, None] * U[1:]
    R[1:] += e[:, None] * U[:-1]
    return np.linalg.norm(R, axis=0)


def _block_ritz(op: GridOperator, upper: float) -> SpectralDecomposition | None:
    """Certified eigenpairs with eigenvalue <= upper, or None.

    The rows are cut into blocks, each coupled to the next by one
    off-diagonal entry.  An exact eigenvector u with eigenvalue lambda
    solves (B - lambda) u = -C u, with B the block diagonal and C the
    couplings, so per block it lies in the span of the block's modes kept
    below the cut plus Q_R (D_R - lambda)^{-1} Q_R^T e_c, where R are the
    modes left out and e_c the block's coupled rows.  That function of
    lambda is smooth on [Gershgorin lower bound, upper], because D_R lies
    a margin above the cut, so its values at Chebyshev shifts span it.
    Rayleigh-Ritz on the union of these bases then gives the pairs, and
    the Sturm count and the residuals certify them.
    """
    n = op.n_points
    n_blocks = n // _BLOCK_ROWS
    if n_blocks < 2:
        return None
    d, e = _tridiagonal(op)
    count = _count_at_most(d, e, upper)
    if not 0 < count <= _MAX_KEPT_SHARE * n:
        return None
    radius = np.zeros(n)
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    lower = float(np.min(d - radius))
    norm = max(abs(lower), abs(float(np.max(d + radius))))
    width = upper - lower
    k = np.arange(_SHIFTS)
    shifts = lower + 0.5 * width * (1.0 - np.cos((k + 0.5) * math.pi / _SHIFTS))

    cuts = np.arange(n_blocks + 1) * n // n_blocks
    bases, diagonals = [], []
    for b in range(n_blocks):
        first, stop = cuts[b], cuts[b + 1]
        D, Q = np.linalg.eigh(op.hamiltonian[first:stop, first:stop])
        kept = D <= upper + 0.5 * width
        rest, D_rest = Q[:, ~kept], D[~kept]
        coupled = [r for r, linked in ((0, b > 0), (stop - first - 1, b < n_blocks - 1)) if linked]
        W = np.concatenate([rest[r][:, None] / (D_rest[:, None] - shifts) for r in coupled],
                           axis=1)
        C = np.linalg.qr(W)[0]
        n_kept = int(np.count_nonzero(kept))
        block = np.diag(np.concatenate([D[kept], np.zeros(C.shape[1])]))
        block[n_kept:, n_kept:] = (C.T * D_rest) @ C
        bases.append(np.concatenate([Q[:, kept], rest @ C], axis=1))
        diagonals.append(block)

    offsets = np.concatenate(([0], np.cumsum([z.shape[1] for z in bases])))
    projected = np.zeros((offsets[-1], offsets[-1]))
    for b in range(n_blocks):
        this = slice(offsets[b], offsets[b + 1])
        projected[this, this] = diagonals[b]
        if b + 1 < n_blocks:
            after = slice(offsets[b + 1], offsets[b + 2])
            coupling = e[cuts[b + 1] - 1] * np.outer(bases[b][-1], bases[b + 1][0])
            projected[this, after] = coupling
            projected[after, this] = coupling.T
    theta, Y = np.linalg.eigh(projected)
    if int(np.searchsorted(theta, upper, side="right")) != count:
        return None
    theta = theta[:count]
    U = np.empty((n, count))
    for b in range(n_blocks):
        U[cuts[b]:cuts[b + 1]] = bases[b] @ Y[offsets[b]:offsets[b + 1], :count]
    residuals = _residual_norms(d, e, theta, U)
    if not np.max(residuals) <= _RESIDUAL_ULPS * np.finfo(np.float64).eps * norm:
        return None
    return SpectralDecomposition(eigenvalues=theta, eigenvectors=U, upper=upper)


def _check_support(op: GridOperator, wf: Wavefunction) -> None:
    L = op.domain_half_width
    (lower,), (upper,) = wf.support_box[0], wf.support_box[1]
    if lower < -L or upper > L:
        raise ValueError("wavefunction support exceeds the oracle domain")


def _check_t(t: float) -> None:
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError("t must be finite and nonnegative")


def _semigroup_value(op: GridOperator, t: float, f: np.ndarray, g: np.ndarray, scale: float,
                     upper: float, decomp: SpectralDecomposition | None) -> float:
    """scale * f^T e^{-tH} g for grid vectors f and g.

    With no `decomp`, the eigenpairs up to `upper` are tried first.  The
    spectrum above the cut adds at most e^{-t upper} scale |f| |g|; when
    that exceeds 1e-16 of the value the cut is raised once, to where it
    would not.  A deep well makes e^{-t theta} huge, and Ritz vectors are
    accurate only to residual / gap, gap >= upper - theta.  So the
    first- and second-order error that causes,
    sum_i e^{-t theta_i} s_i (|f||b_i| + |a_i||g| + s_i |f||g|) with
    s_i = residual_i / gap_i and a, b the overlaps, must stay below
    1e-11 of the value.  A value that is zero or not finite, a failed
    check, t = 0 or `upper = inf` takes the dense decomposition instead.
    A partial `decomp` passed in must meet the tail bound.
    """
    f_norm = float(np.linalg.norm(f))
    g_norm = float(np.linalg.norm(g))
    bound = abs(scale) * f_norm * g_norm

    def value_of(dec: SpectralDecomposition):
        weights = np.exp(-t * dec.eigenvalues)
        a = dec.eigenvectors.T @ f
        b = dec.eigenvectors.T @ g
        return float(scale * (a * weights) @ b), a, b, weights

    def tail_ok(dec: SpectralDecomposition, value: float) -> bool:
        # e^{-t upper} bound <= 1e-16 |value|, in logarithms so that nothing overflows
        if bound == 0.0:
            return True
        return value != 0.0 and math.log(bound) - t * dec.upper <= math.log(_TAIL_REL * abs(value))

    if decomp is not None:
        value = value_of(decomp)[0]
        if decomp.upper < math.inf and not tail_ok(decomp, value):
            raise ValueError(f"decomp holds the spectrum only up to {decomp.upper!r}; "
                             f"the tail above it is not negligible at t={t!r}")
        return value
    if upper < math.inf:
        for _ in range(2):
            decomp = decompose(op, upper)
            value, a, b, weights = value_of(decomp)
            if decomp.upper == math.inf:
                return value
            if not (math.isfinite(value) and value != 0.0):
                break
            d, e = _tridiagonal(op)
            s = (_residual_norms(d, e, decomp.eigenvalues, decomp.eigenvectors)
                 / (decomp.upper - decomp.eigenvalues))
            error = abs(scale) * float(np.sum(
                weights * s * (f_norm * np.abs(b) + np.abs(a) * g_norm + s * f_norm * g_norm)))
            if not error <= _RITZ_REL * abs(value):
                break
            if tail_ok(decomp, value):
                return value
            # e^{-5}: room for the value to move as more modes join
            upper = (math.log(bound) - math.log(_TAIL_REL * abs(value)) + 5.0) / t
    return value_of(decompose(op))[0]


def semigroup_matrix_element(
    op: GridOperator,
    phi: Wavefunction,
    psi: Wavefunction,
    t: float,
    decomp: SpectralDecomposition | None = None,
) -> float:
    """<phi, e^{-tH} psi> through the grid spectral decomposition.

    Inner products are grid sums with weight h.  Without a `decomp`, the
    eigenpairs up to the larger Rayleigh quotient of phi and psi plus
    40/t are computed, checked and, where needed, widened or replaced by
    the dense spectrum (see `_semigroup_value`).  Pass a precomputed
    `decomp` to reuse one eigendecomposition across many t; a partial one
    whose `upper` leaves a tail above 1e-16 of the value raises
    ValueError.
    """
    _check_t(t)
    if phi.dim != 1 or psi.dim != 1:
        raise ValueError("the grid oracle supports dim=1 only")
    _check_support(op, phi)
    _check_support(op, psi)
    x = op.grid[:, None]
    f = np.asarray(phi.evaluate(x), dtype=np.float64)
    g = np.asarray(psi.evaluate(x), dtype=np.float64)
    upper = math.inf
    if decomp is None and t > 0.0 and f.any() and g.any():
        H = op.hamiltonian
        upper = max(float(v @ (H @ v) / (v @ v)) for v in (f, g)) + _CUT_MARGIN / t
    return _semigroup_value(op, t, f, g, op.h, upper, decomp)


def semigroup_kernel(
    op: GridOperator,
    x: float,
    y: float,
    t: float,
    decomp: SpectralDecomposition | None = None,
) -> float:
    """Kernel value e^{-tH}(x, y) at the grid nodes nearest x and y.

    The matrix element between grid delta functions carries a 1/h
    normalization; x and y are snapped to the nearest nodes (at most h/2
    away), so compare against smooth references only.  Without a
    `decomp`, the first cut is max V at the two nodes plus (40 + ln(1/h))/t:
    the kernel there is about p_t(x, y) e^{-t V}, and the tail bound
    carries the delta functions' norm 1/h.  (Their Rayleigh quotient,
    1/h^2 + V, would keep half the spectrum.)  The cut is then checked as
    in `semigroup_matrix_element`.
    """
    _check_t(t)
    grid = op.grid
    if not (grid[0] <= x <= grid[-1]) or not (grid[0] <= y <= grid[-1]):
        raise ValueError("kernel points must lie inside the oracle domain")
    i = int(np.argmin(np.abs(grid - x)))
    j = int(np.argmin(np.abs(grid - y)))
    f = np.zeros(op.n_points)
    g = np.zeros(op.n_points)
    f[i] = 1.0
    g[j] = 1.0
    upper = math.inf
    if decomp is None and t > 0.0:
        H = op.hamiltonian
        potential = max(H[i, i], H[j, j]) - 1.0 / (op.h * op.h)
        upper = float(potential) + (_CUT_MARGIN + math.log(1.0 / op.h)) / t
    return _semigroup_value(op, t, f, g, 1.0 / op.h, upper, decomp)


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
    return float(math.exp(-t * F * (x + y) / 2.0 + F * F * t ** 3 / 24.0))


def stark_kernel(x: float, y: float, F: float, t: float) -> float:
    """Semigroup kernel for -(1/2) d^2/dx^2 + F x: free kernel times stark_q."""
    return free_kernel(x, y, t) * stark_q(x, y, F, t)


def mehler_kernel(x: float, y: float, omega: float, t: float) -> float:
    """Semigroup kernel for -(1/2) d^2/dx^2 + (omega^2/2) x^2.

    (omega / (2 pi sinh(omega t)))^{1/2}
      * exp(-omega [(x^2 + y^2) cosh(omega t) - 2 x y] / (2 sinh(omega t))).
    Reduces to the free kernel as omega -> 0.
    """
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError("t must be positive and finite")
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    s = math.sinh(omega * t)
    c = math.cosh(omega * t)
    pref = math.sqrt(omega / (2.0 * math.pi * s))
    return float(pref * math.exp(-omega * ((x * x + y * y) * c - 2.0 * x * y) / (2.0 * s)))


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
