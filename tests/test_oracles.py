import math
import tracemalloc

import numpy as np
import pytest

from bridgekac import oracles
from bridgekac.feynman_kac import (
    Wavefunction, bump, estimate_Q, free_kernel, _tensor_gauss_legendre,
)
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
from bridgekac.potentials import (
    QuadraticForm, custom, harmonic, inverted_quadratic, stark, truncate, zero,
)
from bridgekac.stochastic import RngSeed, _grid_precision


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
    op, _ = harmonic_grid
    phi = bump(center=-0.2, width=1.0)
    psi = bump(center=0.3, width=1.0)
    got = semigroup_matrix_element(op, phi, psi, 0.0)
    xp, xw = _tensor_gauss_legendre(((-1.5,), (1.5,)), 64)
    want = float(xw @ (phi.evaluate(xp) * psi.evaluate(xp)))
    assert got == pytest.approx(want, rel=1e-4)


def test_grid_kernel_matches_mehler(harmonic_grid):
    op, _ = harmonic_grid
    for x, y, t in [(0.0, 0.0, 0.5), (0.7, -0.4, 1.0), (1.5, 1.5, 0.25)]:
        xg = float(op.grid[np.abs(op.grid - x).argmin()])
        yg = float(op.grid[np.abs(op.grid - y).argmin()])
        a = semigroup_kernel(op, xg, yg, t)
        b = mehler_kernel(xg, yg, 1.0, t)
        assert abs(a - b) / abs(b) < 1e-3


def test_grid_kernel_free_case():
    op = build_grid_operator(zero(), 8.0, 900)
    xg = float(op.grid[np.abs(op.grid - 0.4).argmin()])
    yg = float(op.grid[np.abs(op.grid + 0.3).argmin()])
    a = semigroup_kernel(op, xg, yg, 0.7)
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


def test_mehler_kernel_stays_finite_for_a_stiff_oscillator():
    # at omega t = 800 sinh and cosh overflow, but the kernel, about 3e-173, is a double;
    # the reference is the closed form taken in logarithms
    omega, t = 800.0, 1.0
    q = math.exp(-2.0 * omega * t)
    log_sinh = omega * t - math.log(2.0) + math.log1p(-q)
    coth, csch = (1.0 + q) / (1.0 - q), 2.0 * math.exp(-omega * t) / (1.0 - q)
    for x, y in [(0.0, 0.0), (0.05, -0.03)]:
        log_want = (0.5 * (math.log(omega / (2.0 * math.pi)) - log_sinh)
                    - 0.5 * omega * ((x * x + y * y) * coth - 2.0 * x * y * csch))
        assert mehler_kernel(x, y, omega, t) == pytest.approx(math.exp(log_want), rel=1e-12)
    assert mehler_kernel(0.0, 0.0, omega, t) == pytest.approx(3.06e-173, rel=1e-3)


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
    xg = float(op.grid[np.abs(op.grid - 0.2).argmin()])
    yg = float(op.grid[np.abs(op.grid + 0.1).argmin()])
    for t in (0.25, 0.5, 1.0):
        a = semigroup_kernel(op, xg, yg, t)
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


# only the low part of the spectrum carries these values, so the dense eigenvectors are
# accurate enough to serve as the reference
_TRUNCATION_LEVELS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
_UNIFORMIZATION_CASES = [
    *[pytest.param(truncate(inverted_quadratic(0.5), n), 600, 1.0, 0.0, id=f"truncated-{n:g}")
      for n in _TRUNCATION_LEVELS],
    pytest.param(harmonic(), 1200, 0.5, 0.5, id="harmonic-1200"),
    pytest.param(stark(1.0), 900, 1.0, 0.0, id="stark-900"),
    pytest.param(zero(), 900, 0.7, 0.0, id="zero-900"),
    pytest.param(custom(lambda p: 3.0 * np.sin(7.0 * p[..., 0]) - 0.2 * p[..., 0] ** 2,
                        lambda eps: 0.0), 600, 1.0, 0.0, id="rough-custom"),
]


def _spectral(dense, t, f, g):
    """f^T e^{-tH} g through the eigendecomposition `dense` of H."""
    return float((dense.eigenvectors.T @ f * np.exp(-t * dense.eigenvalues))
                 @ (dense.eigenvectors.T @ g))


def _spectral_element(op, dense, phi, psi, t):
    """`semigroup_matrix_element` through the eigendecomposition `dense` of op."""
    f, g = (wf.evaluate(op.grid[:, None]) for wf in (phi, psi))
    return op.h * _spectral(dense, t, f, g)


def _spectral_kernel(op, dense, x, y, t):
    """`semigroup_kernel` through the eigendecomposition `dense` of op."""
    f, g = (np.eye(1, op.n_points, int(np.abs(op.grid - p).argmin()))[0] for p in (x, y))
    return _spectral(dense, t, f, g) / op.h


def _assert_agrees_with_the_dense_spectrum(op, phi, psi, t, kernel_abs=0.0):
    dense = decompose(op)
    value = semigroup_matrix_element(op, phi, psi, t)
    assert value == pytest.approx(_spectral_element(op, dense, phi, psi, t), rel=1e-11, abs=0.0)
    for x, y in [(0.0, 0.0), (0.3, -0.2)]:
        assert semigroup_kernel(op, x, y, t) == pytest.approx(
            _spectral_kernel(op, dense, x, y, t), rel=1e-11, abs=kernel_abs)


@pytest.mark.parametrize("V, n_points, t, psi_center", _UNIFORMIZATION_CASES)
def test_uniformization_agrees_with_the_dense_eigh_on_the_catalog(V, n_points, t, psi_center):
    op = build_grid_operator(V, 8.0, n_points)
    _assert_agrees_with_the_dense_spectrum(op, bump(0.0, 1.0), bump(psi_center, 1.0), t)


@pytest.mark.parametrize("V, n_points, t", [
    pytest.param(harmonic(), 300, 0.0, id="t-zero"),
    pytest.param(harmonic(), 600, 0.05, id="t-0.05"),
    pytest.param(harmonic(), 40, 1.0, id="40-points"),
])
def test_uniformization_agrees_with_the_dense_eigh_where_many_modes_count(V, n_points, t):
    # uniformization against the dense eigh where many modes count: t = 0 weighs every
    # mode alike, t = 0.05 a third of them, and 40 points are few.  At t = 0 the
    # kernel between distinct nodes is 0, and the dense one its rounding
    op = build_grid_operator(V, 8.0, n_points)
    _assert_agrees_with_the_dense_spectrum(op, bump(0.0, 1.0), bump(0.3, 1.0), t, 1e-12)


# changes sign: its positive and negative parts run as separate series
_ODD = Wavefunction(dim=1, evaluate=lambda p: (bump(-0.5, 1.0).evaluate(p)
                                                - bump(0.5, 1.0).evaluate(p)),
                    support_box=((-1.5,), (1.5,)), kind="compact")


def test_uniformization_of_signed_wavefunctions_agrees_with_the_dense_spectrum():
    odd = _ODD
    op = build_grid_operator(harmonic(), 8.0, 600)
    dense = decompose(op)
    for psi in (odd, bump(0.3, 1.0)):
        value = semigroup_matrix_element(op, odd, psi, 1.0)
        assert value == pytest.approx(_spectral_element(op, dense, odd, psi, 1.0),
                                      rel=1e-11, abs=0.0)
    assert semigroup_matrix_element(op, odd, odd, 1.0) > 0.0


def test_uniformization_at_t_zero_is_the_grid_inner_product():
    op = build_grid_operator(inverted_quadratic(1.0), 8.0, 600)
    phi, psi = bump(-0.2, 1.0), bump(0.3, 1.0)
    f, g = (wf.evaluate(op.grid[:, None]) for wf in (phi, psi))
    assert semigroup_matrix_element(op, phi, psi, 0.0) == op.h * float(f @ g)
    assert semigroup_kernel(op, 0.0, 0.0, 0.0) == 1.0 / op.h
    assert semigroup_kernel(op, 0.0, 0.5, 0.0) == 0.0


def test_uniformization_is_zero_when_a_side_vanishes_at_every_node():
    # a bump narrower than h, centred between two nodes, is zero on the whole grid
    op = build_grid_operator(harmonic(), 8.0, 600)
    between = bump(op.grid[300] + op.h / 2, op.h / 4)
    assert not np.any(between.evaluate(op.grid[:, None]))
    phi = bump(0.0, 1.0)
    assert semigroup_matrix_element(op, phi, between, 1.0) == 0.0
    assert semigroup_matrix_element(op, between, phi, 1.0) == 0.0
    ops = [op, build_grid_operator(zero(), 8.0, 600)]
    for pair in ((phi, between), (between, phi)):
        assert oracles._semigroup_matrix_elements(ops, *pair, 1.0).tolist() == [0.0, 0.0]


def test_uniformization_truncation_ladder_stays_monotone():
    # lower truncation levels only raise the potential, so <phi, e^{-tH} phi>
    # cannot fall as the level grows; the truncation study allows 1e-12 slack
    phi = bump(0.0, 1.0)
    values = [semigroup_matrix_element(
        build_grid_operator(truncate(inverted_quadratic(0.5), n), 8.0, 600), phi, phi, 1.0)
        for n in _TRUNCATION_LEVELS]
    assert all(b >= a - 1e-12 * max(1.0, abs(b)) for a, b in zip(values, values[1:]))


def test_batched_uniformization_matches_single_calls_and_the_dense_eigh():
    # the truncation-cli ladder in one batch, which runs at the rate of its deepest level
    ops = [build_grid_operator(truncate(inverted_quadratic(0.5), n), 8.0, 600)
           for n in _TRUNCATION_LEVELS]
    phi = bump(0.0, 1.0)
    for value, op in zip(oracles._semigroup_matrix_elements(ops, phi, phi, 1.0), ops):
        assert value == pytest.approx(semigroup_matrix_element(op, phi, phi, 1.0),
                                      rel=1e-12, abs=0.0)
        assert value == pytest.approx(_spectral_element(op, decompose(op), phi, phi, 1.0),
                                      rel=1e-11, abs=0.0)
    # a signed phi: up to four series for each of two levels
    ops = ops[::5]
    for psi in (_ODD, bump(0.3, 1.0)):
        for value, op in zip(oracles._semigroup_matrix_elements(ops, _ODD, psi, 1.0), ops):
            assert value == pytest.approx(semigroup_matrix_element(op, _ODD, psi, 1.0),
                                          rel=1e-12, abs=0.0)
            assert value == pytest.approx(
                _spectral_element(op, decompose(op), _ODD, psi, 1.0), rel=1e-11, abs=0.0)


def test_batched_uniformization_memory_stays_bounded():
    # at the truncation-cli size the ring of states is about 0.52 MB of the peak
    ops = [build_grid_operator(truncate(inverted_quadratic(0.5), n), 8.0, 600)
           for n in _TRUNCATION_LEVELS]
    phi = bump(0.0, 1.0)
    oracles._semigroup_matrix_elements(ops, phi, phi, 1.0)
    tracing = tracemalloc.is_tracing()
    if tracing:
        tracemalloc.reset_peak()
    else:
        tracemalloc.start()
    try:
        oracles._semigroup_matrix_elements(ops, phi, phi, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 0.8e6


def test_deep_well_value_stays_finite_and_rises_with_the_box():
    # spacing 0.05 on every box, so the grids nest and Dirichlet domain monotonicity makes
    # the value nondecreasing in L.  The series' prefactor e^{-t min V} passes e^{709} from
    # L = 19 on; unscaled, its sums lie below the value by as much: subnormal, or 0 from L = 20
    phi = bump(0.0, 1.0)
    values = [semigroup_matrix_element(
        build_grid_operator(inverted_quadratic(1.0), float(L), 40 * L - 1), phi, phi, 2.0)
        for L in (18, 19, 20, 21)]
    assert all(math.isfinite(v) and v > 0.0 for v in values)
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values == pytest.approx([0.7870473, 0.7870640, 0.7871122, 0.7873769], abs=1e-7)


def test_batched_deep_well_ladder_matches_single_calls():
    # the batch runs at the rate of level 400: the sums of its level-1 row lie about e^{796}
    # below the value
    phi = bump(0.0, 1.0)
    ops = [build_grid_operator(truncate(inverted_quadratic(1.0), n), 20.0, 799)
           for n in (1.0, 4.0, 16.0, 64.0, 400.0)]
    batched = oracles._semigroup_matrix_elements(ops, phi, phi, 2.0)
    singles = [semigroup_matrix_element(op, phi, phi, 2.0) for op in ops]
    assert batched == pytest.approx(singles, rel=1e-12, abs=0.0)
    assert all(b >= a for a, b in zip(batched, batched[1:]))


def _squaring_reference(op, t, f, g):
    """h f^T e^{-tH} g from e^{t(sI - H)}, s = max diag H: a nonnegative matrix, so
    its Taylor series and repeated squaring add no signed terms.  Each square is
    scaled by its largest entry, and the scales are kept in logarithms."""
    s = float(np.max(op.diagonal))
    M = t * (s * np.eye(op.n_points) - op.hamiltonian)
    squarings = max(0, math.ceil(math.log2(np.abs(M).sum(axis=0).max())) + 1)
    A = M / 2.0 ** squarings
    E, term = np.eye(op.n_points), np.eye(op.n_points)
    for i in range(1, 30):
        term = term @ A / i
        E += term
    log_scale = 0.0
    for _ in range(squarings):
        E = E @ E
        peak = E.max()
        E /= peak
        log_scale = 2.0 * log_scale + math.log(peak)
    return op.h * math.exp(log_scale - t * s) * float(f @ E @ g)


def test_deep_well_matches_a_nonnegative_squaring_reference():
    # inverted_quadratic(1.0) at t = 2: the wall modes near -52 carry weight
    # e^{104}, which an eigendecomposition multiplies into its rounding
    op = build_grid_operator(inverted_quadratic(1.0), 8.0, 600)
    phi, psi = bump(0.0, 1.0), bump(0.3, 1.0)
    f, g = (wf.evaluate(op.grid[:, None]) for wf in (phi, psi))
    reference = _squaring_reference(op, 2.0, f, g)
    assert semigroup_matrix_element(op, phi, psi, 2.0) == pytest.approx(reference, rel=1e-10)
    i, j = (int(np.argmin(np.abs(op.grid - x))) for x in (0.0, 0.3))
    delta = np.eye(op.n_points)
    assert semigroup_kernel(op, 0.0, 0.3, 2.0) == pytest.approx(
        _squaring_reference(op, 2.0, delta[i], delta[j]) / op.h ** 2, rel=1e-10)


def test_far_kernel_matches_a_nonnegative_squaring_reference():
    # at (-3, 3) the kernel (1.3e-8) is a sum over modes with heavy cancellation:
    # the dense spectrum misses it by 2.6e-8 relative
    op = build_grid_operator(truncate(inverted_quadratic(0.5), 1.0), 8.0, 600)
    i, j = (int(np.argmin(np.abs(op.grid - x))) for x in (-3.0, 3.0))
    delta = np.eye(op.n_points)
    reference = _squaring_reference(op, 1.0, delta[i], delta[j]) / op.h ** 2
    assert semigroup_kernel(op, -3.0, 3.0, 1.0) == pytest.approx(reference, rel=1e-11)


@pytest.mark.parametrize("L, n_points, expected", [
    pytest.param(8.0, 1201, 0.69667, id="L8"),
    pytest.param(10.0, 1501, 0.70324, id="L10"),
    pytest.param(12.0, 1801, 0.70338, id="L12"),
])
def test_deep_well_value_settles_below_the_whole_line_bound(L, n_points, expected):
    # the box value lies below the whole-line value 0.698565 at t = 2, up to the
    # grid's spatial bias of about 0.7 %; an eigendecomposition gives 1.76e8 at
    # L = 10 and 1.21e22 at L = 12, while ||e^{-tH}|| grows like e^{2 L^2}
    op = build_grid_operator(inverted_quadratic(1.0), L, n_points)
    phi = bump(0.0, 1.0)
    value = semigroup_matrix_element(op, phi, phi, 2.0)
    assert value == pytest.approx(expected, abs=1e-5)
    assert value <= 0.7035


@pytest.mark.parametrize("make", [
    pytest.param(lambda: OracleConfig(domain_half_width=math.nan), id="config-L-nan"),
    pytest.param(lambda: OracleConfig(domain_half_width=math.inf), id="config-L-inf"),
    pytest.param(lambda: build_grid_operator(zero(), math.nan, 50), id="build-L-nan"),
    pytest.param(lambda: build_grid_operator(zero(), math.inf, 50), id="build-L-inf"),
    pytest.param(lambda: build_grid_operator(zero(), 2.0, 50.0), id="build-n-points-float"),
    pytest.param(lambda: semigroup_matrix_element(
        build_grid_operator(zero(), 2.0, 50), bump(),
        Wavefunction(dim=1, evaluate=lambda p: np.full(p.shape[:-1], np.nan),
                     support_box=((-1.0,), (1.0,)), kind="compact"), 1.0), id="psi-nan"),
])
def test_grid_oracle_rejects_inputs_that_are_not_finite_or_not_integers(make):
    # a NaN or infinite box used to reach the potential as V(nan)
    with pytest.raises(ValueError, match="must be finite and positive|must be an integer|"
                                         "wavefunction is not finite"):
        make()


@pytest.mark.parametrize("form, x, y, t, n_steps, expected, rel", [
    (harmonic().form, 5.0, 5.0, 1.0, 8, 8.733126e-6, 1e-6),
    (harmonic().form, 5.0, 5.0, 1.0, 1024, mehler_kernel(5.0, 5.0, 1.0, 1.0)
     / free_kernel(5.0, 5.0, 1.0), 1e-6),
    (stark(1.0).form, 3.0, -1.0, 1.0, 256, stark_q(3.0, -1.0, 1.0, 1.0), 1e-6),
    (inverted_quadratic(1.0).form, 0.0, 0.0, 2.0, 128, 3.030204, 1e-6),
], ids=["harmonic-8", "harmonic-mehler", "stark", "inverted"])
def test_gaussian_q_matches_closed_forms(form, x, y, t, n_steps, expected, rel):
    assert oracles.gaussian_q(x, y, form, t, n_steps) == pytest.approx(expected, rel=rel)


def test_log_gaussian_q_does_not_underflow():
    # Q = 2.1655e-181 itself is representable, but plain weights of this
    # size square to below the smallest double; the logarithm carries it
    log_q = oracles.log_gaussian_q(30.0, 30.0, harmonic().form, 1.0, 64)
    assert log_q == pytest.approx(-415.995, abs=5e-4)
    assert oracles.log_gaussian_q(300.0, 300.0, harmonic().form, 1.0, 64) < -40000.0
    assert oracles.gaussian_q(300.0, 300.0, harmonic().form, 1.0, 64) == 0.0


def test_gaussian_q_is_a_product_over_coordinates():
    form = QuadraticForm(0.4, (0.3, -0.7), 0.1)
    x, y, t, n_steps = (0.5, -0.2), (-0.1, 0.9), 0.9, 8
    value = oracles.gaussian_q(x, y, form, t, n_steps)
    factors = [oracles.gaussian_q(a, b, QuadraticForm(0.4, (g,), 0.0), t, n_steps)
               for a, b, g in zip(x, y, form.lin)]
    assert value == pytest.approx(math.exp(-t * form.const) * factors[0] * factors[1], rel=1e-12)
    # swapping the coordinates' linear terms changes the value
    swapped = QuadraticForm(0.4, (-0.7, 0.3), 0.1)
    assert abs(oracles.gaussian_q(x, y, swapped, t, n_steps) - value) > 0.01 * value
    # the Monte Carlo mean on the same grid is unbiased for it
    V = custom(lambda p: 0.4 * np.square(p).sum(axis=-1) + p @ np.array([0.3, -0.7]) + 0.1,
               lambda eps: math.inf, dim=2)
    est = estimate_Q(x, y, V, t, 40000, n_steps, RngSeed(5))
    assert abs(est.mean - value) <= 5.0 * est.std_error


def test_gaussian_q_one_step_is_the_line_action():
    form = harmonic().form
    assert oracles.gaussian_q(0.3, 0.2, form, 1.0, 1) == pytest.approx(
        math.exp(-0.5 * (0.5 * 0.09 + 0.5 * 0.04)), rel=1e-15)
    assert oracles.gaussian_q(0.3, 0.2, zero().form, 1.0, 7) == 1.0


def test_gaussian_q_validation():
    with pytest.raises(ValueError, match="unclipped"):
        oracles.gaussian_q(0.0, 0.0, truncate(harmonic(), 1.0).form, 1.0, 8)
    for t in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            oracles.gaussian_q(0.0, 0.0, harmonic().form, t, 8)
    for n_steps in (0, 2.0, True):
        with pytest.raises(ValueError):
            oracles.gaussian_q(0.0, 0.0, harmonic().form, 1.0, n_steps)
    with pytest.raises(ValueError):
        oracles.gaussian_q(math.nan, 0.0, harmonic().form, 1.0, 8)


@pytest.mark.parametrize("n_steps, threshold", [(16, 2.21787), (128, 2.22139)])
def test_gaussian_q_diverges_at_the_grid_threshold(n_steps, threshold):
    # P is positive definite iff t < sqrt(2) n sin(pi / (2 n)) / sqrt(c)
    form = inverted_quadratic(1.0).form
    exact = math.sqrt(2.0) * n_steps * math.sin(math.pi / (2 * n_steps))
    assert exact == pytest.approx(threshold, abs=5e-6)
    assert math.isfinite(oracles.gaussian_q(0.0, 0.0, form, exact - 1e-6, n_steps))
    assert oracles.gaussian_q(0.0, 0.0, form, exact + 1e-6, n_steps) is oracles.DIVERGENT
    assert oracles.log_gaussian_q(0.0, 0.0, form, exact + 1e-6, n_steps) is oracles.DIVERGENT


@pytest.mark.parametrize("omega, t", [(0.2, 0.3), (1.0, 1.0)])
def test_log_gaussian_q_matches_the_tridiagonal_determinant(omega, t):
    # at x = y = 0 only det(K)^(1/2) / det(P)^(1/2) is left, and P / n is
    # tridiag(-1, 2 cosh theta, -1), of determinant sinh(n theta) / sinh(theta)
    n_steps, q = 4096, 0.5 * omega * omega
    theta = 2.0 * math.asinh(t * math.sqrt(q / 2.0) / n_steps)
    exact = 0.5 * math.log(n_steps * math.sinh(theta) / math.sinh(n_steps * theta))
    log_q = oracles.log_gaussian_q(0.0, 0.0, harmonic(omega).form, t, n_steps)
    assert log_q == pytest.approx(exact, rel=1e-11)


@pytest.mark.parametrize("n_steps", [16, 128, 4096])
def test_log_gaussian_q_matches_the_determinant_below_the_grid_threshold(n_steps):
    # for q < 0, P / n is tridiag(-1, 2 cos phi, -1), of determinant sin(n phi) / sin(phi);
    # t = 2.2 lies below the threshold of every grid (2.21787 at 16 steps, see above)
    q, t = -1.0, 2.2
    phi = 2.0 * math.asin(t * math.sqrt(-q / 2.0) / n_steps)
    exact = 0.5 * math.log(n_steps * math.sin(phi) / math.sin(n_steps * phi))
    log_q = oracles.log_gaussian_q(0.0, 0.0, inverted_quadratic(-q).form, t, n_steps)
    assert log_q == pytest.approx(exact, rel=1e-11)


@pytest.mark.parametrize("n_steps", [1, 2, 7, 64, 256])
@pytest.mark.parametrize("q, t", [(0.0, 1.0), (0.5, 1.3), (-1.0, 1.5)])
def test_grid_precision_matches_a_dense_solve(q, t, n_steps):
    n = n_steps
    K = n * (2.0 * np.eye(n - 1) - np.eye(n - 1, k=1) - np.eye(n - 1, k=-1))
    P = K + (2.0 * q * t * t / n) * np.eye(n - 1)
    u = np.arange(1, n) / n
    E = np.column_stack([1.0 - u, u, np.ones_like(u)])
    log_det_ratio, gram, _ = _grid_precision(q, t, n)
    # a one-step grid has no interior nodes: empty matrices, both terms zero
    want = np.linalg.slogdet(K)[1] - np.linalg.slogdet(P)[1]
    assert log_det_ratio == pytest.approx(want, rel=1e-10)
    if q == 0.0:
        assert log_det_ratio == 0.0
    np.testing.assert_allclose(gram, E.T @ np.linalg.solve(P, E), rtol=1e-10)


@pytest.mark.parametrize("c, t, x, y", [(1.0, 2.0, 0.0, 0.0), (0.5, 1.0, 0.7, -0.7),
                                        (1.0, 1.0, 1.0, 1.0)])
def test_gaussian_q_approaches_the_inverted_mehler_kernel(c, t, x, y):
    exact = oracles.inverted_mehler_kernel(x, y, c, t) / free_kernel(x, y, t)
    form = inverted_quadratic(c).form
    coarse = abs(oracles.gaussian_q(x, y, form, t, 1024) - exact)
    fine = abs(oracles.gaussian_q(x, y, form, t, 4096) - exact)
    assert coarse <= 1e-5 * exact
    assert fine <= coarse / 8.0  # second order in the step


def test_inverted_mehler_kernel_diverges_at_kappa_t_pi():
    threshold = math.pi / math.sqrt(2.0)  # c = 1: kappa = sqrt(2)
    assert math.isfinite(oracles.inverted_mehler_kernel(0.0, 0.0, 1.0, threshold - 1e-9))
    assert oracles.inverted_mehler_kernel(0.0, 0.0, 1.0, threshold) is oracles.DIVERGENT
    assert oracles.inverted_mehler_kernel(0.3, 0.1, 1.0, 10.0) is oracles.DIVERGENT
    # small c approaches the free kernel
    assert oracles.inverted_mehler_kernel(0.3, 0.1, 1e-10, 1.0) == pytest.approx(
        free_kernel(0.3, 0.1, 1.0), rel=1e-8)
    for c, t in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, math.inf)):
        with pytest.raises(ValueError):
            oracles.inverted_mehler_kernel(0.0, 0.0, c, t)
