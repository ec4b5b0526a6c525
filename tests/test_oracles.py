import math

import numpy as np
import pytest

from bridgekac import oracles
from bridgekac.feynman_kac import bump, free_kernel, _tensor_gauss_legendre
from bridgekac.oracles import (
    OracleConfig,
    build_grid_operator,
    decompose,
    mehler_kernel,
    semigroup_kernel,
    semigroup_matrix_element,
    stark_kernel,
    stark_q,
)
from bridgekac.potentials import custom, harmonic, inverted_quadratic, stark, truncate, zero


@pytest.fixture(scope="module")
def harmonic_grid():
    op = build_grid_operator(harmonic(), 8.0, 900)
    return op, decompose(op)


def test_grid_operator_structure():
    op = build_grid_operator(zero(), 2.0, 3)
    h = 4.0 / 4.0
    assert op.h == pytest.approx(h)
    np.testing.assert_allclose(op.grid, [-1.0, 0.0, 1.0])
    H = op.hamiltonian
    np.testing.assert_allclose(np.diag(H), 1.0 / h**2)
    np.testing.assert_allclose(np.diag(H, 1), -0.5 / h**2)
    assert H[0, 2] == 0.0


def test_free_stencil_eigenvalues_are_exact():
    # the 3-point Dirichlet stencil diagonalizes in closed form
    n, L = 40, 3.0
    op = build_grid_operator(zero(), L, n)
    dec = decompose(op)
    h = op.h
    k = np.arange(1, n + 1)
    expected = (1.0 - np.cos(k * math.pi / (n + 1))) / h**2
    np.testing.assert_allclose(np.sort(dec.eigenvalues), expected, rtol=1e-10)


def test_harmonic_spectrum_on_grid(harmonic_grid):
    op, dec = harmonic_grid
    # omega (k + 1/2) ladder, distorted only by O(h^2)
    np.testing.assert_allclose(dec.eigenvalues[:4], [0.5, 1.5, 2.5, 3.5], rtol=1e-3)


def test_semigroup_matrix_element_at_t_zero_is_inner_product(harmonic_grid):
    op, dec = harmonic_grid
    phi = bump(center=-0.2, width=1.0)
    psi = bump(center=0.3, width=1.0)
    got = semigroup_matrix_element(op, phi, psi, 0.0, dec)
    xp, xw = _tensor_gauss_legendre(((-1.5,), (1.5,)), 64)
    want = float(xw @ (phi.evaluate(xp) * psi.evaluate(xp)))
    assert got == pytest.approx(want, rel=1e-4)


def test_grid_kernel_matches_mehler(harmonic_grid):
    op, dec = harmonic_grid
    for x, y, t in [(0.0, 0.0, 0.5), (0.7, -0.4, 1.0), (1.5, 1.5, 0.25)]:
        xg = float(op.grid[np.abs(op.grid - x).argmin()])
        yg = float(op.grid[np.abs(op.grid - y).argmin()])
        a = semigroup_kernel(op, xg, yg, t, dec)
        b = mehler_kernel(xg, yg, 1.0, t)
        assert abs(a - b) / abs(b) < 1e-3


def test_grid_kernel_free_case():
    op = build_grid_operator(zero(), 8.0, 900)
    dec = decompose(op)
    xg = float(op.grid[np.abs(op.grid - 0.4).argmin()])
    yg = float(op.grid[np.abs(op.grid + 0.3).argmin()])
    a = semigroup_kernel(op, xg, yg, 0.7, dec)
    b = free_kernel(xg, yg, 0.7)
    assert abs(a - b) / b < 1e-3


def test_mehler_kernel_closed_form_values():
    omega, t = 1.0, 0.5
    s, c = math.sinh(omega * t), math.cosh(omega * t)
    want = math.sqrt(omega / (2.0 * math.pi * s))
    assert mehler_kernel(0.0, 0.0, omega, t) == pytest.approx(want, rel=1e-15)
    x, y = 0.8, -0.3
    want = math.sqrt(omega / (2.0 * math.pi * s)) * math.exp(
        -omega * ((x * x + y * y) * c - 2.0 * x * y) / (2.0 * s)
    )
    assert mehler_kernel(x, y, omega, t) == pytest.approx(want, rel=1e-15)
    assert mehler_kernel(x, y, omega, t) == mehler_kernel(y, x, omega, t)


def test_mehler_approaches_free_kernel_for_small_t():
    x, y, t = 0.3, -0.2, 1e-4
    assert mehler_kernel(x, y, 1.0, t) == pytest.approx(free_kernel(x, y, t), rel=1e-4)


def test_stark_q_gaussian_action_identity():
    # deterministic part: the straight line averages to (x + y)/2;
    # fluctuation: Var(integral of the bridge) = 1/12
    x, y, F, t = 0.7, -1.1, 0.9, 1.3
    want = math.exp(-t * F * (x + y) / 2.0 + F * F * t**3 * (1.0 / 12.0) / 2.0)
    assert stark_q(x, y, F, t) == pytest.approx(want, rel=1e-15)
    assert stark_kernel(x, y, F, t) == pytest.approx(
        free_kernel(x, y, t) * want, rel=1e-15
    )
    assert stark_kernel(x, y, F, t) == stark_kernel(y, x, F, t)


def test_grid_kernel_matches_stark():
    op = build_grid_operator(stark(1.0), 8.0, 900)
    dec = decompose(op)
    xg = float(op.grid[np.abs(op.grid - 0.2).argmin()])
    yg = float(op.grid[np.abs(op.grid + 0.1).argmin()])
    for t in (0.25, 0.5, 1.0):
        a = semigroup_kernel(op, xg, yg, t, dec)
        b = stark_kernel(xg, yg, 1.0, t)
        assert abs(a - b) / abs(b) < 1e-3


def test_matrix_element_requires_support_inside_box():
    op = build_grid_operator(zero(), 2.0, 50)
    wide = bump(center=0.0, width=3.0)
    with pytest.raises(ValueError):
        semigroup_matrix_element(op, wide, bump(), 1.0)


def test_oracle_config_validation():
    OracleConfig()
    with pytest.raises(ValueError):
        OracleConfig(domain_half_width=0.0)
    with pytest.raises(ValueError):
        OracleConfig(n_points=2)
    # a fractional or boolean count must not reach numpy
    for n_points in (600.5, 8.0, True):
        with pytest.raises(ValueError, match="n_points"):
            OracleConfig(8.0, n_points)
    with pytest.raises(ValueError):
        OracleConfig(tolerance=0.0)


def test_build_grid_operator_validation():
    with pytest.raises(ValueError):
        build_grid_operator(zero(), -1.0, 100)
    with pytest.raises(ValueError):
        build_grid_operator(zero(), 1.0, 2)
    with pytest.raises(ValueError):
        build_grid_operator(zero(dim=2), 1.0, 100)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_grid_operator_rejects_a_potential_not_finite_on_the_grid(bad):
    # one NaN or infinite node value would make every eigenvalue, and so every
    # matrix element, NaN
    V = custom(lambda p: np.where(abs(p[..., 0]) < 0.3, bad, 0.0), lambda eps: 0.0)
    with pytest.raises(ValueError, match="not finite"):
        build_grid_operator(V, 2.0, 50)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_oracles_reject_a_time_that_is_not_finite(t):
    op = build_grid_operator(zero(), 2.0, 50)
    phi = bump()
    with pytest.raises(ValueError):
        semigroup_matrix_element(op, phi, phi, t)
    with pytest.raises(ValueError):
        semigroup_kernel(op, 0.0, 0.0, t)
    with pytest.raises(ValueError):
        mehler_kernel(0.0, 0.0, 1.0, t)
    with pytest.raises(ValueError):
        stark_q(0.0, 0.0, 1.0, t)
    with pytest.raises(ValueError):
        stark_kernel(0.0, 0.0, 1.0, t)


@pytest.fixture
def decompositions(monkeypatch):
    """Every decomposition the oracle functions compute, in call order."""
    made = []
    real = oracles.decompose

    def recording(op, upper=None):
        made.append(real(op, upper))
        return made[-1]

    monkeypatch.setattr(oracles, "decompose", recording)
    return made


_TRUNCATION_LEVELS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
_PARTIAL_CASES = [
    *[pytest.param(truncate(inverted_quadratic(0.5), n), 600, 1.0, 0.0, id=f"truncated-{n:g}")
      for n in _TRUNCATION_LEVELS],
    pytest.param(harmonic(), 1200, 0.5, 0.5, id="harmonic-1200"),
    pytest.param(stark(1.0), 900, 1.0, 0.0, id="stark-900"),
    pytest.param(zero(), 900, 0.7, 0.0, id="zero-900"),
    pytest.param(custom(lambda p: 3.0 * np.sin(7.0 * p[..., 0]) - 0.2 * p[..., 0] ** 2,
                        lambda eps: 0.0), 600, 1.0, 0.0, id="rough-custom"),
]


@pytest.mark.parametrize("V, n_points, t, psi_center", _PARTIAL_CASES)
def test_partial_spectrum_agrees_with_the_dense_one(decompositions, V, n_points, t, psi_center):
    op = build_grid_operator(V, 8.0, n_points)
    dense = np.linalg.eigh(op.hamiltonian)
    phi, psi = bump(0.0, 1.0), bump(psi_center, 1.0)
    value = semigroup_matrix_element(op, phi, psi, t)
    # one certified partial solve, not the dense fallback
    (partial,) = decompositions
    assert partial.upper < math.inf
    reference = semigroup_matrix_element(op, phi, psi, t, decompose(op))
    assert value == pytest.approx(reference, rel=1e-11, abs=0.0)

    count = int(np.sum(dense[0] <= partial.upper))
    assert partial.eigenvalues.shape == (count,)
    assert partial.eigenvectors.shape == (n_points, count)
    norm = float(np.max(np.abs(dense[0])))
    np.testing.assert_allclose(partial.eigenvalues, dense[0][:count], rtol=0.0, atol=1e-12 * norm)
    U = partial.eigenvectors
    np.testing.assert_allclose(U.T @ U, np.eye(count), rtol=0.0, atol=1e-12)

    for x, y in [(0.0, 0.0), (0.3, -0.2)]:
        decompositions.clear()
        kernel = semigroup_kernel(op, x, y, t)
        assert all(d.upper < math.inf for d in decompositions)
        assert kernel == pytest.approx(semigroup_kernel(op, x, y, t, decompose(op)),
                                       rel=1e-11, abs=0.0)


def test_partial_truncation_ladder_stays_monotone():
    # lower truncation levels only raise the potential, so <phi, e^{-tH} phi>
    # cannot fall as the level grows; the truncation study allows 1e-12 slack
    phi = bump(0.0, 1.0)
    values = [semigroup_matrix_element(
        build_grid_operator(truncate(inverted_quadratic(0.5), n), 8.0, 600), phi, phi, 1.0)
        for n in _TRUNCATION_LEVELS]
    assert all(b >= a - 1e-12 * max(1.0, abs(b)) for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("V, n_points, t", [
    pytest.param(harmonic(), 300, 0.0, id="t-zero"),
    pytest.param(harmonic(), 600, 0.05, id="too-many-modes"),
    pytest.param(harmonic(), 40, 1.0, id="one-block"),
    pytest.param(inverted_quadratic(1.0), 600, 2.0, id="deep-well"),
])
def test_every_fallback_returns_the_dense_value(decompositions, V, n_points, t):
    op = build_grid_operator(V, 8.0, n_points)
    dense = decompose(op)
    phi, psi = bump(0.0, 1.0), bump(0.3, 1.0)
    assert semigroup_matrix_element(op, phi, psi, t) == semigroup_matrix_element(
        op, phi, psi, t, dense)
    assert decompositions[-1].upper == math.inf
    decompositions.clear()
    assert semigroup_kernel(op, 0.0, 0.3, t) == semigroup_kernel(op, 0.0, 0.3, t, dense)
    assert decompositions[-1].upper == math.inf


def test_deep_well_guard_rejects_a_partial_spectrum_it_would_trust_wrongly(decompositions):
    # inverted_quadratic(1.0) at t = 2: the wall modes near -52 get weight
    # e^{104}, and their Ritz vectors miss the dense value by a factor 5e12
    op = build_grid_operator(inverted_quadratic(1.0), 8.0, 600)
    phi = bump(0.0, 1.0)
    semigroup_matrix_element(op, phi, phi, 2.0)
    first, last = decompositions
    assert first.upper < math.inf and last.upper == math.inf
    partial = first.eigenvectors.T @ phi.evaluate(op.grid[:, None])
    naive = op.h * float((partial * np.exp(-2.0 * first.eigenvalues)) @ partial)
    exact = semigroup_matrix_element(op, phi, phi, 2.0, last)
    assert abs(naive - exact) > 1e-6 * abs(exact)


def test_decompose_upper_contract():
    op = build_grid_operator(harmonic(), 8.0, 600)
    whole = decompose(op)
    assert whole.upper == math.inf and whole.eigenvalues.shape == (600,)
    assert decompose(op, math.inf).upper == math.inf
    part = decompose(op, 10.0)
    assert part.upper == 10.0
    assert part.eigenvalues.shape == (int(np.sum(whole.eigenvalues <= 10.0)),)
    with pytest.raises(ValueError):
        decompose(op, math.nan)


def test_a_partial_decomposition_must_cover_the_tail():
    op = build_grid_operator(harmonic(), 8.0, 600)
    phi = bump(0.0, 1.0)
    short = decompose(op, 5.0)
    assert short.upper == 5.0
    with pytest.raises(ValueError, match="tail"):
        semigroup_matrix_element(op, phi, phi, 1.0, short)
    with pytest.raises(ValueError, match="tail"):
        semigroup_kernel(op, 0.0, 0.0, 1.0, short)
    enough = decompose(op, 60.0)
    assert enough.upper == 60.0
    assert semigroup_matrix_element(op, phi, phi, 1.0, enough) == pytest.approx(
        semigroup_matrix_element(op, phi, phi, 1.0, decompose(op)), rel=1e-11)
    # at t = 0 no finite cut bounds the tail
    with pytest.raises(ValueError, match="tail"):
        semigroup_matrix_element(op, phi, phi, 0.0, enough)
