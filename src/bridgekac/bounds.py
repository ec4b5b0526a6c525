"""A priori Gaussian-envelope bounds on the pin-to-pin weight.

For potentials with growth certificate V(x) >= -eps |x|^2 - C_eps the
weight Q(x, y; V, t) admits an explicit envelope.  Two forms are
implemented.  `jensen_chain_bound` is the intermediate estimate

    exp(C_eps t + 2 eps t (|x|^2 + |y|^2)) * E exp(2 eps t^2 alpha(1/2)^2),

where averaging the quadratic action over time (Jensen) and bounding the
bridge variance by its midpoint maximum reduce the path expectation to a
single Gaussian moment, finite exactly when eps t^2 < 1.  Choosing
eps = delta0 / t^2 with delta0 < 1 gives the final closed constant of
`theorem21_bound`,

    sqrt(2) (1 - delta0)^{-1/2} exp(C_eps t + 2 delta0 (|x|^2 + |y|^2) / t),

which is sqrt(2) times the chain bound at the same parameters; the
factor 2 under the square root comes from the same midpoint moment.
`verify_bound_sweep` checks Monte Carlo estimates against both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .feynman_kac import McConfig, estimate_Q
from .potentials import PotentialSpec
from .stochastic import DIVERGENT, RngSeed, gaussian_exp_moment, is_divergent

__all__ = [
    "BoundParameters",
    "SweepPoint",
    "SweepReport",
    "jensen_chain_bound",
    "theorem21_bound",
    "verify_bound_sweep",
]


@dataclass(frozen=True)
class BoundParameters:
    """Envelope parameters: time, Gaussian weight delta0 < 1, certificate C_eps.

    The certificate must be evaluated at eps = delta0 / t^2; that tie is
    what keeps the envelope finite.
    """

    t: float
    delta0: float
    c_eps: float

    def __post_init__(self) -> None:
        if not 0.0 < self.t < math.inf:
            raise ValueError("t must be positive and finite")
        if not 0.0 < self.delta0 < 1.0:
            raise ValueError("delta0 must lie in (0, 1)")
        if not self.c_eps >= 0.0:  # NaN fails too; inf is allowed: no finite certificate
            raise ValueError("c_eps must be nonnegative")

    @property
    def eps(self) -> float:
        return self.delta0 / (self.t * self.t)

    @classmethod
    def for_potential(cls, V: PotentialSpec, t: float, delta0: float) -> "BoundParameters":
        if not 0.0 < t < math.inf:
            raise ValueError("t must be positive and finite")
        if not 0.0 < delta0 < 1.0:
            raise ValueError("delta0 must lie in (0, 1)")
        eps = delta0 / (t * t)
        return cls(t=float(t), delta0=float(delta0), c_eps=float(V.growth_certificate(eps)))


def _sq(point) -> float:
    arr = np.atleast_1d(np.asarray(point, dtype=np.float64))
    return float(arr @ arr)


def theorem21_bound(x, y, params: BoundParameters) -> float:
    """Closed-form envelope sqrt(2) (1-d0)^{-1/2} exp(C t + 2 d0 (|x|^2+|y|^2)/t)."""
    d0 = params.delta0
    expo = params.c_eps * params.t + 2.0 * d0 * (_sq(x) + _sq(y)) / params.t
    if not math.isfinite(expo) or expo > 700.0:
        return math.inf
    return float(math.sqrt(2.0) / math.sqrt(1.0 - d0) * math.exp(expo))


def jensen_chain_bound(x, y, V: PotentialSpec, t: float, eps: float):
    """Intermediate envelope; DIVERGENT exactly when eps t^2 >= 1.

    exp(C_eps t + 2 eps t (|x|^2 + |y|^2)) times the closed-form moment
    E exp(2 eps t^2 alpha(1/2)^2) with alpha(1/2) of variance 1/4.
    """
    if not 0.0 < t < math.inf:
        raise ValueError("t must be positive and finite")
    if not eps > 0.0:  # NaN fails too
        raise ValueError("eps must be positive")
    moment = gaussian_exp_moment(2.0 * eps * (t * t), 0.25)
    if is_divergent(moment):
        return DIVERGENT
    c_eps = float(V.growth_certificate(eps))
    expo = c_eps * t + 2.0 * eps * t * (_sq(x) + _sq(y))
    if not math.isfinite(expo) or expo > 700.0:
        return math.inf
    return float(math.exp(expo) * moment)


@dataclass(frozen=True)
class SweepPoint:
    x: float
    y: float
    q_mean: float
    q_std_error: float
    jensen_bound: float
    bound: float
    passed: bool
    rechecked: bool = False


@dataclass(frozen=True)
class SweepReport:
    potential: str
    t: float
    delta0: float
    eps: float
    c_eps: float
    points: tuple[SweepPoint, ...]
    n_passed: int
    all_passed: bool


def verify_bound_sweep(
    V: PotentialSpec,
    t: float,
    delta: float,
    grid,
    mc: McConfig,
    rng: RngSeed,
    *,
    workers: int = 1,
) -> SweepReport:
    """Check mean - 3 std_error <= envelope over a grid of (x, y) points.

    `delta` is the Gaussian weight of the target envelope exp(delta x^2 +
    delta y^2); it fixes delta0 = delta t / 2.  A point that fails is
    rechecked once with doubled samples on a fresh stream before being
    flagged, so isolated Monte Carlo noise does not produce violations.
    The chain ordering (estimate <= jensen <= closed form) is part of
    the pass criterion at every point.
    """
    delta0 = delta * t / 2.0
    params = BoundParameters.for_potential(V, t, delta0)
    eps = params.eps
    pts = [(float(p[0]), float(p[1])) for p in grid]
    if not pts:
        raise ValueError("grid must hold at least one point")

    points = []
    n_passed = 0
    for idx, (px, py) in enumerate(pts):
        q = estimate_Q(px, py, V, t, mc.n_samples, mc.n_steps, rng, workers=workers, key=(idx,))
        bound = theorem21_bound(px, py, params)
        jensen = jensen_chain_bound(px, py, V, t, eps)
        jensen_value = math.inf if is_divergent(jensen) else jensen
        rechecked = False

        def verdict(est):
            stat = est.mean - 3.0 * est.std_error
            return stat <= jensen_value and stat <= bound and jensen_value <= bound * (1.0 + 1e-12)

        passed = verdict(q)
        if not passed:
            # a true violation is systematic; doubled samples keep it
            q = estimate_Q(px, py, V, t, 2 * mc.n_samples, mc.n_steps, rng,
                           workers=workers, key=(idx, 1))
            passed = verdict(q)
            rechecked = True
        n_passed += int(passed)
        points.append(SweepPoint(
            x=px, y=py, q_mean=q.mean, q_std_error=q.std_error,
            jensen_bound=jensen_value, bound=bound, passed=passed,
            rechecked=rechecked,
        ))
    return SweepReport(
        potential=V.name,
        t=float(t),
        delta0=float(delta0),
        eps=float(eps),
        c_eps=params.c_eps,
        points=tuple(points),
        n_passed=n_passed,
        all_passed=n_passed == len(points),
    )
