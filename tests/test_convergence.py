import math
import tracemalloc

import numpy as np
import pytest

from bridgekac.convergence import (
    OperatorSequence,
    check_theorem31,
    cutoff_contraction_check,
    q_truncation_study,
    resolvent_distance,
    spike_multiplication_sequence,
    stabilization_level,
    truncation_study,
)
from bridgekac import convergence, feynman_kac, oracles
from bridgekac.feynman_kac import McConfig, QuadratureConfig, bump, estimate_Q, matrix_element
from bridgekac.oracles import OracleConfig, build_grid_operator
from bridgekac.potentials import custom, harmonic, inverted_quadratic, truncate, zero
from bridgekac.stochastic import RngSeed


def test_resolvent_distance_closed_form():
    # diag(1/n, 0) against 0 probed with (1, 1): distance 1 / sqrt(n^2 + 1)
    for n in (1, 4, 10):
        A = np.diag([1.0 / n, 0.0])
        B = np.zeros((2, 2))
        got = resolvent_distance(A, B, np.array([1.0, 1.0]))
        assert got == pytest.approx(1.0 / math.sqrt(n * n + 1.0), rel=1e-12)


def test_resolvent_distance_validation():
    A = np.zeros((2, 2))
    with pytest.raises(ValueError):
        resolvent_distance(A, np.zeros((3, 3)), np.ones(2))
    with pytest.raises(ValueError):
        resolvent_distance(A, A, np.ones(3))
    with pytest.raises(ValueError):
        resolvent_distance(A, A, np.zeros(2))


def test_cutoff_contraction_holds_exactly():
    gen = np.random.default_rng(12)
    for _ in range(5):
        M = gen.standard_normal((20, 20))
        A = 0.5 * (M + M.T)
        v = gen.standard_normal(20)
        v /= np.linalg.norm(v)
        for m in (0.5, 2.0, 10.0):
            lhs, rhs = cutoff_contraction_check(A, v, lambda lam: np.exp(-lam), m)
            assert lhs <= rhs * (1.0 + 1e-12)


def test_spike_sequence_exact_norms_and_distances():
    levels = [4, 16, 64]
    seq, psi = spike_multiplication_sequence(256, levels)
    assert np.linalg.norm(psi) == pytest.approx(1.0, rel=1e-14)
    for n, A in zip(levels, seq.members):
        image = A @ psi
        assert np.linalg.norm(image) == pytest.approx(1.0, rel=1e-14)
        assert np.linalg.norm(A @ image) == pytest.approx(math.sqrt(n), rel=1e-14)
        d = resolvent_distance(A, seq.limit, psi)
        assert d == pytest.approx(1.0 / math.sqrt(n + 1.0), rel=1e-12)


def test_spike_sequence_validation():
    with pytest.raises(ValueError):
        spike_multiplication_sequence(256, [3])
    with pytest.raises(ValueError):
        spike_multiplication_sequence(256, [512])


def test_check_theorem31_flags_spike_square_blowup():
    seq, psi = spike_multiplication_sequence(256, [4, 16, 64])
    rep = check_theorem31(seq, lambda lam: lam, psi)
    np.testing.assert_allclose(rep.f_norms, [1.0, 1.0, 1.0], rtol=1e-12)
    np.testing.assert_allclose(rep.f2_norms, [2.0, 4.0, 8.0], rtol=1e-12)
    np.testing.assert_allclose(rep.f_distances, [1.0, 1.0, 1.0], rtol=1e-12)
    assert not rep.f2_bounded
    assert not rep.distances_vanish
    assert rep.consistent  # hypothesis failed, so no claim is contradicted


def test_check_theorem31_bounded_calculus_converges():
    gen = np.random.default_rng(4)
    M = gen.standard_normal((12, 12))
    A = 0.5 * (M + M.T)
    P = gen.standard_normal((12, 12))
    B = 0.5 * (P + P.T)
    members = tuple(A + B / n for n in (1, 10, 100, 1000))
    psi = gen.standard_normal(12)
    rep = check_theorem31(OperatorSequence(members, A, "perturbed"), np.exp, psi)
    assert rep.f2_bounded
    assert rep.distances_vanish
    assert rep.consistent
    assert rep.resolvent_sup[-1] < rep.resolvent_sup[0] * 0.01


def test_check_theorem31_grid_semigroup_realization():
    # truncations of an inverted quadratic: once the clip leaves the box the
    # grid Hamiltonian equals the limit and the calculus distances hit zero
    V = inverted_quadratic(0.05)
    L, n_pts, t = 6.0, 200, 1.0
    members = tuple(
        build_grid_operator(truncate(V, n), L, n_pts).hamiltonian for n in (1.0, 2.0, 4.0)
    )
    limit = build_grid_operator(V, L, n_pts).hamiltonian
    op = build_grid_operator(V, L, n_pts)
    h = op.h
    psi = bump(width=1.0).evaluate(op.grid[:, None]) * math.sqrt(h)
    rep = check_theorem31(
        OperatorSequence(members, limit, "grid-semigroup"),
        lambda lam: np.exp(-t * lam), psi,
    )
    assert rep.f2_bounded
    assert rep.f_distances[-1] < 1e-12
    assert rep.distances_vanish
    assert rep.consistent


def test_fractional_power_hypothesis_is_weaker_than_square():
    # multiplication by n^{1/3} on [0, 1/n): the image converges, the squared
    # norms diverge like n^{1/3}, yet |x|^{3/2} norms stay exactly 1
    k = 512
    levels = [8, 64, 512]
    psi = np.full(k, math.sqrt(1.0 / k))
    sq_norms = []
    frac_norms = []
    image_norms = []
    for n in levels:
        a = round(n ** (1.0 / 3.0))
        assert a**3 == n
        d = np.where(np.arange(k) < k // n, float(a), 0.0)
        image_norms.append(np.linalg.norm(d * psi))
        sq_norms.append(np.linalg.norm(d * d * psi))
        frac_norms.append(np.linalg.norm(np.abs(d) ** 1.5 * psi))
    np.testing.assert_allclose(image_norms, [n ** (-1 / 6) for n in levels], rtol=1e-10)
    np.testing.assert_allclose(sq_norms, [n ** (1 / 6) for n in levels], rtol=1e-10)
    np.testing.assert_allclose(frac_norms, [1.0, 1.0, 1.0], rtol=1e-10)


def test_stabilization_level_basic():
    levels = [1, 2, 4, 8, 16]
    flat = [1.0, 1.0, 1.0, 1.0, 1.0]
    assert stabilization_level(levels, flat) == 8
    growing = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert stabilization_level(levels, growing) is None
    late = [1.0, 2.0, 2.0, 2.0, 2.0]
    assert stabilization_level(levels, late) == 16


def test_stabilization_level_respects_flags_and_errors():
    levels = [1, 2, 4, 8, 16]
    flat = [1.0, 1.0, 1.0, 1.0, 1.0]
    # untrusted values never contribute to a stabilization run
    trusted = [True, True, True, False, False]
    assert stabilization_level(levels, flat, trusted=trusted) is None
    # three-sigma window lets noisy increments count
    noisy = [1.0, 1.01, 0.99, 1.01, 1.0]
    errs = [0.02] * 5
    assert stabilization_level(levels, noisy, std_errors=errs) == 8
    assert stabilization_level(levels, noisy) is None


def test_truncation_study_bounded_potential_is_flat(monkeypatch):
    # levels beyond the range of V leave every truncation inactive
    V = inverted_quadratic(0.05)
    phi = bump(width=1.0)
    batches = []
    real = convergence._semigroup_matrix_elements
    monkeypatch.setattr(convergence, "_semigroup_matrix_elements",
                        lambda ops, *args: batches.append(len(ops)) or real(ops, *args))
    report = truncation_study(
        V, phi, phi, 1.0, [8.0, 16.0, 32.0, 64.0, 128.0],
        McConfig(n_samples=400, n_steps=16),
        RngSeed(2), quadrature=QuadratureConfig(8),
        oracle=OracleConfig(domain_half_width=8.0, n_points=400),
    )
    assert report.left_values[0] == report.left_values[-1]
    assert report.right_values[0] == report.right_values[-1]
    assert report.left_monotone and report.right_monotone
    assert report.all_agree
    assert report.right_stabilized_at == 64.0
    # the five grid Hamiltonians are identical, so the oracle evaluates one
    assert batches == [1]


def test_truncation_study_validation():
    V = zero()
    phi = bump()
    with pytest.raises(ValueError):
        truncation_study(V, phi, phi, 1.0, [4.0, 2.0],
                         McConfig(n_samples=10, n_steps=2), RngSeed(0))
    with pytest.raises(ValueError):
        truncation_study(V, phi, phi, 1.0, [],
                         McConfig(n_samples=10, n_steps=2), RngSeed(0))


@pytest.mark.parametrize("workers", [0, -3, 2.5, True])
def test_truncation_study_rejects_bad_workers_before_any_draw(counting_seed, workers):
    phi = bump()
    rng = counting_seed(1)
    with pytest.raises(ValueError, match="workers"):
        truncation_study(inverted_quadratic(0.5), phi, phi, 1.0, [1.0, 2.0],
                         McConfig(n_samples=10, n_steps=4), rng,
                         quadrature=QuadratureConfig(2), workers=workers)
    assert rng.opened == []


def test_q_truncation_study_monotone_under_common_random_numbers():
    report = q_truncation_study(
        0.5, 0.5, inverted_quadratic(1.0), 0.5, [0.5, 1.0, 2.0, 4.0, 8.0],
        McConfig(n_samples=3000, n_steps=32), RngSeed(7),
    )
    values = [e.mean for e in report.estimates]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[1] > values[0]  # low clips genuinely bind at this t
    assert report.monotone
    assert report.divergence_onset is None


def test_q_truncation_study_flags_divergent_regime():
    report = q_truncation_study(
        0.0, 0.0, inverted_quadratic(1.0), 3.0, [1.0, 4.0, 16.0, 64.0],
        McConfig(n_samples=5000, n_steps=64), RngSeed(11),
    )
    assert report.divergence_onset is not None
    assert report.stabilized_at is None
    values = [e.mean for e in report.estimates]
    assert values[-1] > values[0]


def test_q_truncation_study_validation():
    mc = McConfig(n_samples=10, n_steps=2)
    for levels in ([], [4.0, 2.0], [-1.0, 2.0]):
        with pytest.raises(ValueError):
            q_truncation_study(0.0, 0.0, inverted_quadratic(1.0), 1.0, levels, mc, RngSeed(0))


def test_truncation_study_infinite_level_keeps_common_paths():
    # truncate(V, inf) is unclipped; it must still see the paths of the finite levels
    report = truncation_study(
        inverted_quadratic(0.05), bump(0, 1), bump(0, 1), 1.0, [1.0, 2.0, math.inf],
        McConfig(100, 8), RngSeed(1), quadrature=QuadratureConfig(4),
    )
    assert report.right_monotone
    assert report.right_values[2] >= report.right_values[1]


_INVERTED_CALLABLE = custom(lambda p: -0.5 * np.square(p).sum(axis=-1), lambda eps: math.inf,
                            name="inverted-quadratic-callable")


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("V", [inverted_quadratic(0.5), _INVERTED_CALLABLE])
def test_truncation_studies_equal_per_level_calls(V, workers):
    levels = [0.25, 0.5, 1.0, 4.0]
    phi = bump(width=1.0)
    psi = bump(center=0.5, width=1.0)
    quadrature = QuadratureConfig(3)
    mc = McConfig(n_samples=200, n_steps=8)
    report = truncation_study(V, phi, psi, 1.0, levels, mc, RngSeed(4), quadrature=quadrature,
                              oracle=OracleConfig(n_points=100), workers=workers)
    # two keyed chunks, so the workers split the pointwise draw
    q_mc = McConfig(n_samples=feynman_kac._CHUNK + 50, n_steps=4)
    q_report = q_truncation_study(0.3, -0.2, V, 1.0, levels, q_mc, RngSeed(4), workers=workers)
    assert report.right_values[0] < report.right_values[-1]  # the floors bind
    for k, n in enumerate(levels):
        me = matrix_element(phi, psi, truncate(V, n), 1.0, quadrature, mc, RngSeed(4))
        assert report.right_values[k] == me.value
        assert report.right_std_errors[k] == me.std_error
        assert report.right_divergence_nodes[k] == me.divergence_nodes
        q = estimate_Q(0.3, -0.2, truncate(V, n), 1.0, q_mc.n_samples, q_mc.n_steps, RngSeed(4))
        assert q_report.estimates[k] == q


def test_truncation_studies_draw_each_stream_once(counting_seed):
    levels = [1.0, 2.0, 4.0]
    mc = McConfig(n_samples=feynman_kac._CHUNK + 1, n_steps=2)
    rng = counting_seed(3)
    truncation_study(inverted_quadratic(0.5), bump(), bump(), 1.0, levels, mc, rng,
                     quadrature=QuadratureConfig(2), oracle=OracleConfig(n_points=50))
    assert rng.opened == [(i, j, c) for i in range(2) for j in range(2) for c in range(2)]
    pointwise = counting_seed(3)
    q_truncation_study(0.0, 0.0, inverted_quadratic(0.5), 1.0, levels, mc, pointwise)
    assert pointwise.opened == [(0,), (1,)]


@pytest.mark.parametrize("seed", range(1, 7))
def test_truncation_study_right_values_monotone_at_the_benchmark_config(seed):
    # the truncation-cli benchmark's study; it checks monotone right values with no slack
    report = truncation_study(
        inverted_quadratic(0.5), bump(), bump(), 1.0, [1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
        McConfig(n_samples=1000, n_steps=32), RngSeed(seed), quadrature=QuadratureConfig(8),
        oracle=OracleConfig(n_points=600),
    )
    assert report.right_monotone
    assert report.all_agree
    # no path reaches -c x^2 = -8 from the bumps' supports: the control is exact there
    assert report.right_std_errors[3:] == (0.0, 0.0, 0.0)
    assert 0.0 < report.right_std_errors[0] < 3e-5


def test_truncation_study_memory_stays_within_a_few_blocks():
    # the truncation-cli benchmark's study: the grid oracle keeps only the six levels'
    # diagonals; the Monte Carlo weighs 64 node pairs in batches that share row blocks of
    # whole path groups, whose buffers hold about one block of 1 MB together, besides the
    # group units of each batch: about 1.5 MB traced, the whole study 3.1 MB on a first call
    tracemalloc.start()
    try:
        report = truncation_study(
            inverted_quadratic(0.5), bump(), bump(), 1.0, [1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
            McConfig(n_samples=1000, n_steps=32), RngSeed(3), quadrature=QuadratureConfig(8),
            oracle=OracleConfig(n_points=600),
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_agree
    assert peak < 8e6


def test_truncation_study_does_not_count_exact_levels_as_divergent():
    # around x = 7 the harmonic weights are heavy-tailed, but no floor binds: every
    # node's level is its exact grid value, which is no sign of divergence
    phi = bump(7.0, 1.0)
    mc, quadrature = McConfig(200, 16), QuadratureConfig(3)
    report = truncation_study(harmonic(), phi, phi, 1.0, [1.0, 2.0], mc, RngSeed(1),
                              quadrature=quadrature,
                              oracle=OracleConfig(domain_half_width=12.0, n_points=300))
    assert report.right_std_errors == (0.0, 0.0)
    assert report.right_divergence_nodes == (0, 0)
    # the same paths' plain weights are flagged
    callable_harmonic = custom(lambda p: 0.5 * np.square(p).sum(axis=-1), lambda eps: 0.0)
    plain = matrix_element(phi, phi, truncate(callable_harmonic, 1.0), 1.0, quadrature, mc,
                           RngSeed(1))
    assert plain.divergence_nodes > 0


def test_q_truncation_study_infinite_level_reads_the_exact_grid_value():
    V = inverted_quadratic(0.5)
    report = q_truncation_study(0.3, -0.2, V, 1.0, [1.0, math.inf], McConfig(500, 16),
                                RngSeed(3))
    last = report.estimates[-1]
    assert last.mean == oracles.gaussian_q(0.3, -0.2, V.form, 1.0, 16)
    assert last.std_error == 0.0
    assert report.estimates[0].mean <= last.mean


def test_q_truncation_study_clamps_controlled_estimates_at_zero():
    # ten paths, where w_ref's tail draws the mean of w - w_ref below -Q_ref: a rare event,
    # so the seed is the first one >= 0 at which both levels clamp
    report = q_truncation_study(0.0, 0.0, inverted_quadratic(1.0), 1.55, [0.0, 0.5],
                                McConfig(10, 32), RngSeed(44))
    assert [e.mean for e in report.estimates] == [0.0, 0.0]
    assert all(e.std_error > 0.0 for e in report.estimates)
    assert report.monotone


@pytest.mark.parametrize("levels", [[1.0, math.nan], [math.nan], [math.nan, 1.0]])
def test_truncation_studies_reject_nan_levels(levels):
    phi = bump()
    mc = McConfig(n_samples=10, n_steps=2)
    with pytest.raises(ValueError, match="NaN"):
        q_truncation_study(0.0, 0.0, inverted_quadratic(1.0), 1.0, levels, mc, RngSeed(0))
    with pytest.raises(ValueError, match="NaN"):
        truncation_study(inverted_quadratic(1.0), phi, phi, 1.0, levels, mc, RngSeed(0),
                         quadrature=QuadratureConfig(2))
