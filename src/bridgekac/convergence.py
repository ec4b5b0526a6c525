"""Resolvent convergence, cutoff functional calculus, and truncation studies.

Two threads meet here.  On matrices: strong resolvent convergence is
checked through the action of (A + i)^{-1} on probe vectors, and the
functional calculus f(A) is realized by dense eigendecomposition, which
makes the cutoff contraction

    ||f_m(A) psi - f(A) psi|| <= (1/m) ||f(A)^2 psi||

assertable exactly (the clamp f_m differs from f only where |f| > m,
and there |f - f_m| <= f^2 / m pointwise).  The hypothesis that makes
functional-calculus limits commute with strong resolvent limits is the
uniform bound on ||f(A_n)^2 psi||; `spike_multiplication_sequence`
provides the classical failure case where that bound is the only thing
missing.

On potentials: `truncation_study` runs both sides of the semigroup
matrix element over the bounded-below truncations max(V, -n) with
common random numbers, so the two trajectories can be compared level by
level, and `q_truncation_study` does the same for the pin-to-pin weight
at a single (x, y).  Both draw their paths once and evaluate V along
them once; each level is a clip of those values.  For a quadratic form
each level is also read against the unclipped form, whose grid value is
exact (see `feynman_kac._pair_estimates`), so the error bar of a level
counts only the paths its floor touches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .feynman_kac import (
    McConfig,
    QEstimate,
    QuadratureConfig,
    Wavefunction,
    _check_workers,
    _estimates,
    _matrix_elements,
    matrix_element,  # unused here; perfbench's traced run wraps this module attribute
)
# semigroup_matrix_element is not called here: the benchmark's traced run wraps this name
from .oracles import (OracleConfig, _semigroup_matrix_elements, build_grid_operator,
                      semigroup_matrix_element)  # noqa: F401
from .potentials import PotentialSpec, truncate
from .stochastic import RngSeed

__all__ = [
    "OperatorSequence",
    "QTruncationReport",
    "Theorem31Report",
    "TruncationReport",
    "check_theorem31",
    "cutoff_contraction_check",
    "q_truncation_study",
    "resolvent_distance",
    "spike_multiplication_sequence",
    "stabilization_level",
    "truncation_study",
]

_STABLE_REL_TOL = 1e-3
_STABLE_RUN_LENGTH = 3
_AGREE_REL_TOL = 0.01


@dataclass(frozen=True)
class OperatorSequence:
    """Symmetric matrices A_n with their intended limit A."""

    members: tuple[np.ndarray, ...]
    limit: np.ndarray
    label: str = "sequence"


def _check_symmetric_pair(A: np.ndarray, B: np.ndarray) -> None:
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrices must be square")
    if A.shape != B.shape:
        raise ValueError("matrices must share their size")


def resolvent_distance(A, B, probe) -> float:
    """||(A + i)^{-1} probe - (B + i)^{-1} probe|| with the fixed shift i."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    _check_symmetric_pair(A, B)
    p = np.asarray(probe, dtype=np.complex128)
    if p.shape != (A.shape[0],):
        raise ValueError("probe must be a vector matching the matrix size")
    if not np.any(p):
        raise ValueError("probe must be nonzero")
    shift = 1j * np.eye(A.shape[0])
    try:
        u = np.linalg.solve(A + shift, p)
        v = np.linalg.solve(B + shift, p)
    except np.linalg.LinAlgError as exc:  # symmetric + i is invertible; flag anyway
        raise ArithmeticError("resolvent solve failed") from exc
    return float(np.linalg.norm(u - v))


def cutoff_contraction_check(A, psi, f: Callable, m: float) -> tuple[float, float]:
    """Return (||f_m(A) psi - f(A) psi||, (1/m) ||f(A)^2 psi||).

    Both sides are evaluated in one eigenbasis, so the inequality
    lhs <= rhs holds up to floating-point rounding only.
    """
    if not m > 0.0:  # NaN fails too
        raise ValueError("cutoff level must be positive")
    w, U = np.linalg.eigh(np.asarray(A, dtype=np.float64))
    c = U.T @ np.asarray(psi, dtype=np.float64)
    fw = np.asarray(f(w), dtype=np.float64)
    fm = np.clip(fw, -m, m)
    lhs = float(np.linalg.norm((fm - fw) * c))
    rhs = float(np.linalg.norm(fw * fw * c) / m)
    return lhs, rhs


def spike_multiplication_sequence(k: int, levels: Sequence[int]) -> tuple[OperatorSequence, np.ndarray]:
    """Multiplication by sqrt(n) on [0, 1/n), discretized on a k-point grid.

    The unit interval embeds isometrically by scaling grid values with
    sqrt(h), h = 1/k, so Euclidean norms below equal function-space
    norms.  For n dividing k the constant function psi satisfies
    ||psi|| = 1, ||A_n psi|| = 1 and ||A_n^2 psi|| = sqrt(n) exactly,
    while (A_n + i)^{-1} psi -> (0 + i)^{-1} psi: the sequence converges
    in the resolvent sense yet its action on psi does not converge, and
    the square-norm bound is exactly what fails.
    """
    if k < 1:
        raise ValueError("k must be positive")
    members = []
    for n in levels:
        if n < 1 or n > k or k % n:
            raise ValueError("each level must divide k")
        diag = np.where(np.arange(k) < k // n, math.sqrt(float(n)), 0.0)
        members.append(np.diag(diag))
    psi = np.full(k, math.sqrt(1.0 / k))
    return (
        OperatorSequence(members=tuple(members), limit=np.zeros((k, k)),
                         label=f"spike(k={k})"),
        psi,
    )


@dataclass(frozen=True)
class Theorem31Report:
    """Trajectories of f(A_n) psi against the resolvent limit.

    `consistent` means the observations do not contradict the
    convergence statement: either the squared-function norms stay
    bounded and the distances vanish, or the square-norm hypothesis
    visibly fails (in which case nothing is claimed).  Both verdicts use
    declared finite-sequence heuristics; the raw trajectories are the
    data.
    """

    label: str
    resolvent_sup: tuple[float, ...]
    resolvent_probe: tuple[float, ...]
    f_norms: tuple[float, ...]
    f2_norms: tuple[float, ...]
    f_distances: tuple[float, ...]
    f2_bounded: bool
    distances_vanish: bool
    consistent: bool


def check_theorem31(seq: OperatorSequence, f: Callable, psi) -> Theorem31Report:
    """Compute f(A_n) psi trajectories after verifying resolvent convergence.

    The resolvent check acts on the full standard basis (a spanning
    probe set; adequate in finite dimensions) and on psi itself.
    """
    psi = np.asarray(psi, dtype=np.float64)
    size = seq.limit.shape[0]
    eye = np.eye(size)
    shift = 1j * eye
    limit_inv = np.linalg.solve(seq.limit + shift, eye.astype(np.complex128))

    resolvent_sup = []
    resolvent_probe = []
    f_norms = []
    f2_norms = []
    f_distances = []

    w_lim, U_lim = np.linalg.eigh(seq.limit)
    f_lim = (U_lim * np.asarray(f(w_lim), dtype=np.float64)) @ (U_lim.T @ psi)

    for A in seq.members:
        inv = np.linalg.solve(A + shift, eye.astype(np.complex128))
        diff = inv - limit_inv
        resolvent_sup.append(float(np.linalg.norm(diff, axis=0).max()))
        resolvent_probe.append(float(np.linalg.norm(diff @ psi)))
        w, U = np.linalg.eigh(A)
        c = U.T @ psi
        fw = np.asarray(f(w), dtype=np.float64)
        f_norms.append(float(np.linalg.norm(fw * c)))
        f2_norms.append(float(np.linalg.norm(fw * fw * c)))
        f_distances.append(float(np.linalg.norm(U @ (fw * c) - f_lim)))

    f2_bounded = f2_norms[-1] <= 1.5 * f2_norms[0] + 1e-9
    ref = f_distances[0]
    distances_vanish = f_distances[-1] <= max(0.1 * ref, 1e-10)
    consistent = distances_vanish or not f2_bounded
    return Theorem31Report(
        label=seq.label,
        resolvent_sup=tuple(resolvent_sup),
        resolvent_probe=tuple(resolvent_probe),
        f_norms=tuple(f_norms),
        f2_norms=tuple(f2_norms),
        f_distances=tuple(f_distances),
        f2_bounded=bool(f2_bounded),
        distances_vanish=bool(distances_vanish),
        consistent=bool(consistent),
    )


def stabilization_level(
    levels: Sequence,
    values: Sequence[float],
    std_errors: Sequence[float] | None = None,
    trusted: Sequence[bool] | None = None,
):
    """First level after 3 successive small increments, or None.

    An increment is small when it is below max(3 combined standard
    errors, 1e-3 relative); increments touching untrusted values
    (e.g. divergence-flagged estimates) never count.
    """
    if std_errors is None:
        std_errors = [0.0] * len(values)
    if trusted is None:
        trusted = [True] * len(values)
    run = 0
    for i in range(1, len(values)):
        threshold = max(
            3.0 * math.hypot(std_errors[i], std_errors[i - 1]),
            _STABLE_REL_TOL * abs(values[i]),
        )
        small = abs(values[i] - values[i - 1]) <= threshold
        if small and trusted[i] and trusted[i - 1]:
            run += 1
            if run >= _STABLE_RUN_LENGTH:
                return levels[i]
        else:
            run = 0
    return None


def _monotone(values: Sequence[float], slack: float = 0.0) -> bool:
    return all(b >= a - slack * max(1.0, abs(b)) for a, b in zip(values, values[1:]))


def _checked_levels(levels: Sequence[float]) -> list[float]:
    levels = [float(n) for n in levels]
    if not levels:
        raise ValueError("levels must be nonempty")
    if any(math.isnan(n) for n in levels):
        raise ValueError("truncation levels must not be NaN")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")
    if levels[0] < 0.0:
        raise ValueError("truncation levels must be nonnegative")
    return levels


@dataclass(frozen=True)
class TruncationReport:
    """Both sides of the matrix element over truncation levels."""

    potential: str
    t: float
    levels: tuple[float, ...]
    left_values: tuple[float, ...]
    right_values: tuple[float, ...]
    right_std_errors: tuple[float, ...]
    right_divergence_nodes: tuple[int, ...]
    left_monotone: bool
    right_monotone: bool
    left_stabilized_at: float | None
    right_stabilized_at: float | None
    agreements: tuple[bool, ...]
    all_agree: bool


def truncation_study(
    V: PotentialSpec,
    phi: Wavefunction,
    psi: Wavefunction,
    t: float,
    levels: Sequence[float],
    mc: McConfig,
    rng: RngSeed,
    *,
    quadrature: QuadratureConfig | None = None,
    oracle: OracleConfig | None = None,
    workers: int = 1,
) -> TruncationReport:
    """Compare grid-oracle and Monte Carlo matrix elements over max(V, -n).

    The Monte Carlo side draws each quadrature node pair's paths once and
    clips one evaluation of V along them at every level (common random
    numbers), so its trajectory is non-decreasing path by path, and each
    level equals a separate `matrix_element` call on `truncate(V, n)`
    for finite n; an infinite level keeps the same paths.  For a
    quadratic form whose unclipped weights have finite variance, each
    node's level is max(Q_ref + mean(w_n - w_ref), 0), Q_ref the exact
    grid value of the unclipped form: a level whose floor touches no
    path reads the exact grid value with a zero error bar, an infinite
    level included.  The grid side is non-decreasing because lower
    truncation levels only raise the potential.  Its distinct level
    Hamiltonians are evaluated in one batched call of the grid oracle,
    and a level whose Hamiltonian equals the previous one reuses its
    value.  Agreement at each level uses max(3 standard errors, 1 %
    relative).
    """
    levels = _checked_levels(levels)
    _check_workers(workers)
    quadrature = quadrature or QuadratureConfig()
    oracle = oracle or OracleConfig()

    # once -n lies below min V on the grid, max(V, -n) gives the same operator
    distinct, index = [], []
    for n in levels:
        op = build_grid_operator(truncate(V, n), oracle.domain_half_width, oracle.n_points)
        if not (distinct and np.array_equal(op.diagonal, distinct[-1].diagonal)):
            distinct.append(op)
        index.append(len(distinct) - 1)
    left_values = _semigroup_matrix_elements(distinct, phi, psi, t)[index].tolist()
    elements = _matrix_elements(phi, psi, V, t, quadrature, mc, rng, [-n for n in levels],
                                workers=workers)
    right_values = [me.value for me in elements]
    right_errs = [me.std_error for me in elements]
    right_div = [me.divergence_nodes for me in elements]

    agreements = []
    for lv, rv, se in zip(left_values, right_values, right_errs):
        tol = max(3.0 * se, _AGREE_REL_TOL * max(abs(lv), abs(rv)))
        agreements.append(bool(abs(lv - rv) <= tol))
    trusted = [d == 0 for d in right_div]
    return TruncationReport(
        potential=V.name,
        t=float(t),
        levels=tuple(levels),
        left_values=tuple(left_values),
        right_values=tuple(right_values),
        right_std_errors=tuple(right_errs),
        right_divergence_nodes=tuple(right_div),
        left_monotone=_monotone(left_values, slack=1e-12),
        right_monotone=_monotone(right_values),
        left_stabilized_at=stabilization_level(levels, left_values),
        right_stabilized_at=stabilization_level(levels, right_values, right_errs, trusted),
        agreements=tuple(agreements),
        all_agree=all(agreements),
    )


@dataclass(frozen=True)
class QTruncationReport:
    """Pin-to-pin weight over truncation levels at one (x, y)."""

    potential: str
    t: float
    levels: tuple[float, ...]
    estimates: tuple[QEstimate, ...]
    monotone: bool
    stabilized_at: float | None
    divergence_onset: float | None


def q_truncation_study(
    x,
    y,
    V: PotentialSpec,
    t: float,
    levels: Sequence[float],
    mc: McConfig,
    rng: RngSeed,
    *,
    workers: int = 1,
) -> QTruncationReport:
    """estimate_Q over max(V, -n) with common random numbers across levels.

    The paths are drawn once, in the keyed chunks of `estimate_Q`, and V
    is evaluated along them once (so their node values are synthesized
    even for an unclipped form, whose `estimate_Q` reads the same draws
    through its trapezoid sums); each level clips those values, so it
    equals `estimate_Q` on `truncate(V, n)` for finite n and the
    trajectory is non-decreasing path by path.  A quadratic form whose
    unclipped weights have finite variance is read against them, as in
    `truncation_study`: an infinite level then gives the exact grid
    value `gaussian_q` with a zero error bar.  Stabilization is judged
    only between estimates whose heavy-tail flag is clear; a trajectory
    whose tail mass concentrates never stabilizes, it gets a divergence
    onset level instead.
    """
    levels = _checked_levels(levels)
    estimates = _estimates(x, y, V, t, mc.n_samples, mc.n_steps, rng, [-n for n in levels],
                           workers=workers)
    values = [e.mean for e in estimates]
    errs = [e.std_error for e in estimates]
    trusted = [not e.divergence_suspected for e in estimates]
    onset = next((lv for lv, e in zip(levels, estimates) if e.divergence_suspected), None)
    return QTruncationReport(
        potential=V.name,
        t=float(t),
        levels=tuple(levels),
        estimates=tuple(estimates),
        monotone=_monotone(values),
        stabilized_at=stabilization_level(levels, values, errs, trusted),
        divergence_onset=onset,
    )
