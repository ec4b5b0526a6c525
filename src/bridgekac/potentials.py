"""Potential catalog with quadratic-lower-bound growth certificates.

Every potential carries a certificate eps -> C_eps declaring
V(x) >= -eps |x|^2 - C_eps.  Certificates are supplied analytically per
catalog entry and spot-checked numerically by `certify`; an infinite
C_eps states honestly that no finite constant exists at that eps.

Catalog entries also carry an exact clipped-quadratic description
(`QuadraticForm`) that the weight kernel uses as a fast path; custom
potentials omit it and are evaluated through their vectorized callable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "CertificateReport",
    "PotentialSpec",
    "QuadraticForm",
    "TruncatedPotential",
    "certify",
    "custom",
    "harmonic",
    "inverted_quadratic",
    "stark",
    "truncate",
    "zero",
]


@dataclass(frozen=True)
class QuadraticForm:
    """Exact description V(z) = max(quad |z|^2 + lin . z + const, floor)."""

    quad: float
    lin: tuple[float, ...]
    const: float
    floor: float = -math.inf


@dataclass(frozen=True)
class PotentialSpec:
    """A real potential on R^dim plus its growth certificate.

    `evaluate` is vectorized: it accepts points of shape (..., dim) and
    returns values of shape (...).  It must be pure and finite on finite
    inputs; it may be called concurrently from worker threads.
    """

    dim: int
    name: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    growth_certificate: Callable[[float], float]
    form: QuadraticForm | None = None


@dataclass(frozen=True)
class TruncatedPotential(PotentialSpec):
    """max(V, -level); a valid PotentialSpec with certificate C_eps = level."""

    base: PotentialSpec | None = None
    level: float = 0.0


def _sqnorm(points: np.ndarray) -> np.ndarray:
    return np.square(points).sum(axis=-1)


def _lin_coeffs(coeff, dim: int) -> tuple[float, ...]:
    arr = np.broadcast_to(np.asarray(coeff, dtype=np.float64), (dim,))
    return tuple(float(c) for c in arr)


def zero(dim: int = 1) -> PotentialSpec:
    """V = 0."""
    _check_dim(dim)

    def evaluate(points):
        return np.zeros(np.shape(points)[:-1])

    return PotentialSpec(
        dim=dim,
        name="zero",
        evaluate=evaluate,
        growth_certificate=lambda eps: 0.0,
        form=QuadraticForm(0.0, (0.0,) * dim, 0.0),
    )


def harmonic(omega: float = 1.0, dim: int = 1) -> PotentialSpec:
    """V(x) = (omega^2 / 2) |x|^2."""
    _check_dim(dim)
    if not 0.0 < omega < math.inf:
        raise ValueError("omega must be positive and finite")
    half_om2 = 0.5 * omega * omega

    def evaluate(points):
        return half_om2 * _sqnorm(np.asarray(points, dtype=np.float64))

    return PotentialSpec(
        dim=dim,
        name=f"harmonic(omega={omega:g})",
        evaluate=evaluate,
        growth_certificate=lambda eps: 0.0,
        form=QuadraticForm(half_om2, (0.0,) * dim, 0.0),
    )


def stark(field, dim: int = 1) -> PotentialSpec:
    """V(x) = F . x for a constant field F.

    Unbounded below, but V(x) >= -eps |x|^2 - |F|^2 / (4 eps) for every
    eps > 0 (minimize the quadratic in |x| along -F), so the growth
    certificate is C_eps = |F|^2 / (4 eps).
    """
    _check_dim(dim)
    lin = _lin_coeffs(field, dim)
    f = np.asarray(lin)
    if not np.isfinite(f).all():
        raise ValueError("field must be finite")
    fnorm2 = float(f @ f)
    if fnorm2 == 0.0:
        raise ValueError("field must be nonzero; use zero() instead")

    def evaluate(points):
        return np.asarray(points, dtype=np.float64) @ f

    return PotentialSpec(
        dim=dim,
        name=f"stark(F={field!r})" if dim > 1 else f"stark(F={lin[0]:g})",
        evaluate=evaluate,
        growth_certificate=lambda eps: fnorm2 / (4.0 * eps),
        form=QuadraticForm(0.0, lin, 0.0),
    )


def inverted_quadratic(c: float, dim: int = 1) -> PotentialSpec:
    """V(x) = -c |x|^2 with c > 0.

    The quadratic decay rate is fixed, so a finite C_eps exists only for
    eps >= c (then C_eps = 0); below c the certificate returns inf.
    """
    _check_dim(dim)
    if not 0.0 < c < math.inf:
        raise ValueError("c must be positive and finite")

    def evaluate(points):
        return -c * _sqnorm(np.asarray(points, dtype=np.float64))

    def growth_certificate(eps):
        return 0.0 if eps >= c else math.inf

    return PotentialSpec(
        dim=dim,
        name=f"inverted-quadratic(c={c:g})",
        evaluate=evaluate,
        growth_certificate=growth_certificate,
        form=QuadraticForm(-c, (0.0,) * dim, 0.0),
    )


def custom(
    evaluate: Callable[[np.ndarray], np.ndarray],
    growth_certificate: Callable[[float], float],
    dim: int = 1,
    name: str = "custom",
) -> PotentialSpec:
    """Wrap a user potential; `evaluate` must be vectorized over (..., dim)."""
    _check_dim(dim)
    return PotentialSpec(
        dim=dim,
        name=name,
        evaluate=evaluate,
        growth_certificate=growth_certificate,
    )


def truncate(V: PotentialSpec, n: float) -> TruncatedPotential:
    """Pointwise max(V, -n): the bounded-below approximant at level n."""
    if not n >= 0.0:
        raise ValueError("truncation level must be nonnegative, not NaN")
    level = float(n)
    base_eval = V.evaluate

    def evaluate(points):
        return np.maximum(base_eval(points), -level)

    form = None
    if V.form is not None:
        form = QuadraticForm(
            V.form.quad, V.form.lin, V.form.const, floor=max(V.form.floor, -level)
        )
    return TruncatedPotential(
        dim=V.dim,
        name=f"{V.name}|floor{level:g}",
        evaluate=evaluate,
        growth_certificate=lambda eps: level,
        form=form,
        base=V,
        level=level,
    )


@dataclass(frozen=True)
class CertificateReport:
    """Spot-check of V(x) + eps |x|^2 + C_eps >= 0 on sample points."""

    name: str
    eps: float
    c_eps: float
    worst_margin: float
    worst_point: tuple[float, ...]
    passed: bool


def certify(V: PotentialSpec, eps: float, sample_points, c_eps=None) -> CertificateReport:
    """Check the growth certificate at the given points.

    `c_eps` overrides the potential's own certificate, which lets a
    deliberately wrong constant be exhibited as failing.
    """
    if not eps > 0.0:  # NaN fails too
        raise ValueError("eps must be positive")
    pts = np.asarray(sample_points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.size == 0:
        raise ValueError("sample_points must be nonempty")
    if pts.shape[-1] != V.dim:
        raise ValueError(f"sample points must have trailing dimension {V.dim}")
    if c_eps is None:
        c_eps = float(V.growth_certificate(eps))
    margins = np.asarray(V.evaluate(pts)) + eps * _sqnorm(pts) + c_eps
    worst = int(np.argmin(margins))
    worst_margin = float(margins[worst])
    return CertificateReport(
        name=V.name,
        eps=float(eps),
        c_eps=float(c_eps),
        worst_margin=worst_margin,
        worst_point=tuple(float(v) for v in pts[worst]),
        passed=bool(worst_margin >= 0.0),
    )


def _check_dim(dim: int) -> None:
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 1:
        raise ValueError("dim must be a positive integer")
