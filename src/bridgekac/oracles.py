"""Independent ground truth for the Monte Carlo estimates.

Two kinds of oracle live here.  Closed-form kernels: the linear-potential
semigroup kernel (`stark_kernel`, with its pin-to-pin factor `stark_q`)
and the harmonic-oscillator kernel (`mehler_kernel`).  And a
finite-difference spectral solver: a dense Dirichlet Hamiltonian on a
truncated interval whose eigendecomposition realizes e^{-tH} through the
functional calculus.

The closed forms are not taken on faith.  The linear-potential exponent
coefficients follow from Gaussian integration of the bridge action (the
time integral of a linear function of a Gaussian path is Gaussian, with
variance fixed by the bridge covariance: Var(integral_0^1 alpha) =
1/12), and the tests cross-validate both kernels against the grid
solver before they are used as ground truth anywhere else.

The grid oracle is one-dimensional and dense by design; that is cheap
(n_points <= 2000) and enough to validate every claim at desk scale.
Domain truncation to [-L, L] is valid when the kernel mass outside the
box is negligible at the given t; for potentials unbounded below, use
bounded-below truncations or small t so the box spectrum stays honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .feynman_kac import Wavefunction, free_kernel
from .potentials import PotentialSpec

__all__ = [
    "GridOperator",
    "OracleConfig",
    "SpectralDecomposition",
    "build_grid_operator",
    "decompose",
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
    """Ascending eigenvalues and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


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


def decompose(op: GridOperator) -> SpectralDecomposition:
    """Dense symmetric eigendecomposition of the grid Hamiltonian."""
    eigenvalues, eigenvectors = np.linalg.eigh(op.hamiltonian)
    return SpectralDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def _check_support(op: GridOperator, wf: Wavefunction) -> None:
    L = op.domain_half_width
    (lower,), (upper,) = wf.support_box[0], wf.support_box[1]
    if lower < -L or upper > L:
        raise ValueError("wavefunction support exceeds the oracle domain")


def semigroup_matrix_element(
    op: GridOperator,
    phi: Wavefunction,
    psi: Wavefunction,
    t: float,
    decomp: SpectralDecomposition | None = None,
) -> float:
    """<phi, e^{-tH} psi> through the grid spectral decomposition.

    Inner products are grid sums with weight h.  Pass a precomputed
    `decomp` to reuse one eigendecomposition across many t.
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    if phi.dim != 1 or psi.dim != 1:
        raise ValueError("the grid oracle supports dim=1 only")
    _check_support(op, phi)
    _check_support(op, psi)
    if decomp is None:
        decomp = decompose(op)
    x = op.grid[:, None]
    a = decomp.eigenvectors.T @ np.asarray(phi.evaluate(x), dtype=np.float64)
    b = decomp.eigenvectors.T @ np.asarray(psi.evaluate(x), dtype=np.float64)
    return float(op.h * (a * np.exp(-t * decomp.eigenvalues)) @ b)


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
    away), so compare against smooth references only.
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    grid = op.grid
    if not (grid[0] <= x <= grid[-1]) or not (grid[0] <= y <= grid[-1]):
        raise ValueError("kernel points must lie inside the oracle domain")
    if decomp is None:
        decomp = decompose(op)
    i = int(np.argmin(np.abs(grid - x)))
    j = int(np.argmin(np.abs(grid - y)))
    row = (decomp.eigenvectors[i] * np.exp(-t * decomp.eigenvalues)) @ decomp.eigenvectors[j]
    return float(row / op.h)


def stark_q(x: float, y: float, F: float, t: float) -> float:
    """Exact pin-to-pin weight for the linear potential F z.

    The action integral_0^t F z(s) ds along the pinned path is Gaussian
    with mean t F (x + y) / 2 (the straight-line term) and variance
    F^2 t^3 Var(integral_0^1 alpha) = F^2 t^3 / 12, obtained by
    double-integrating the bridge covariance min(s, u)(1 - max(s, u)).
    Hence E exp(-action) = exp(-t F (x + y) / 2 + F^2 t^3 / 24).
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
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
    if t <= 0.0:
        raise ValueError("t must be positive")
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    s = math.sinh(omega * t)
    c = math.cosh(omega * t)
    pref = math.sqrt(omega / (2.0 * math.pi * s))
    return float(pref * math.exp(-omega * ((x * x + y * y) * c - 2.0 * x * y) / (2.0 * s)))
