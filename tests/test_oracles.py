import math

import numpy as np
import pytest

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
from bridgekac.potentials import custom, harmonic, stark, zero


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
