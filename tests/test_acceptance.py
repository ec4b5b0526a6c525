"""Acceptance suite: one test per advertised guarantee of the package.

Each test is self-contained, uses a frozen seed, and prints a one-line
digest so `pytest -v -s` reads as a checklist.  Tolerances follow the
estimator errors: Monte Carlo checks use 4 standard errors (3 where the
guarantee says so), oracle crosschecks carry an explicit relative floor,
and algebraic identities are checked to near machine precision.
"""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from bridgekac.bounds import (
    BoundParameters,
    jensen_chain_bound,
    theorem21_bound,
    verify_bound_sweep,
)
from bridgekac.cli import main
from bridgekac.convergence import (
    cutoff_contraction_check,
    q_truncation_study,
    resolvent_distance,
    spike_multiplication_sequence,
    truncation_study,
)
from bridgekac.feynman_kac import (
    McConfig,
    QuadratureConfig,
    bump,
    estimate_Q,
    matrix_element,
    refine_steps,
)
from bridgekac.oracles import (
    OracleConfig,
    build_grid_operator,
    mehler_kernel,
    semigroup_matrix_element,
    stark_kernel,
    stark_q,
)
from bridgekac.potentials import harmonic, inverted_quadratic, stark, zero
from bridgekac.stochastic import gaussian_exp_moment, is_divergent


def _report(num: int, text: str) -> None:
    print(f"criterion {num:02d}: {text}")


def _kernel_matrix_element(phi, psi, kernel, n_nodes: int = 64) -> float:
    """Two-axis Gauss-Legendre integral of phi(x) K(x, y) psi(y)."""
    nodes, weights = leggauss(n_nodes)

    def axis(wf):
        lo, hi = float(wf.support_box[0][0]), float(wf.support_box[1][0])
        half = 0.5 * (hi - lo)
        xs = 0.5 * (hi + lo) + half * nodes
        return xs, half * weights

    xs, wx = axis(phi)
    ys, wy = axis(psi)
    fx = np.asarray(phi.evaluate(xs[:, None]), dtype=np.float64)
    fy = np.asarray(psi.evaluate(ys[:, None]), dtype=np.float64)
    K = np.array([[kernel(x, y) for y in ys] for x in xs])
    return float((wx * fx) @ K @ (wy * fy))


def test_criterion_01_free_case_is_exact():
    cases = [
        (0.0, 0.0, 1.0, 1),
        (1.5, -2.0, 0.35, 7),
        (-0.7, 0.1, 4.0, 64),
        (3.0, 3.0, 0.01, 128),
    ]
    from bridgekac.stochastic import RngSeed
    for x, y, t, n_steps in cases:
        est = estimate_Q(x, y, zero(), t, 200, n_steps, RngSeed(1001))
        assert est.mean == 1.0
        assert est.std_error == 0.0
        assert not est.divergence_suspected
    _report(1, f"V=0 gives mean 1.0, stderr 0.0 exactly on {len(cases)} "
               "endpoint/step combinations")


def test_criterion_02_bridge_law_second_moments(bridge_batch):
    from bridgekac.stochastic import RngSeed
    n_samples, n_steps = 100000, 128
    paths = bridge_batch(RngSeed(1002).generator(0), n_steps, n_samples)
    mid = paths[:, n_steps // 2]
    a = paths[:, n_steps // 4]
    b = paths[:, 3 * n_steps // 4]

    var = float(np.var(mid))
    se_var = float(np.std((mid - mid.mean()) ** 2)) / math.sqrt(n_samples)
    z_var = abs(var - 0.25) / se_var
    assert z_var <= 4.0

    prod = (a - a.mean()) * (b - b.mean())
    cov = float(prod.mean())
    se_cov = float(np.std(prod)) / math.sqrt(n_samples)
    z_cov = abs(cov - 1.0 / 16.0) / se_cov
    assert z_cov <= 4.0
    _report(2, f"Var(mid)={var:.5f} (z={z_var:.2f}), "
               f"Cov(quarter points)={cov:.5f} (z={z_cov:.2f}) at 4se")


def test_criterion_03_midpoint_exponential_moment(bridge_batch):
    from bridgekac.stochastic import RngSeed
    n_samples = 100000
    # with two steps the sampled grid contains s=1/2 itself, so the draw
    # follows the exact N(0, 1/4) midpoint law
    mid = bridge_batch(RngSeed(1003).generator(0), 2, n_samples)[:, 1]
    zs = []
    for eps in (0.4, 0.8, 1.2, 1.6):
        w = np.exp(eps * mid**2)
        mean = float(w.mean())
        se = float(w.std()) / math.sqrt(n_samples)
        closed = 1.0 / math.sqrt(1.0 - eps / 2.0)
        assert gaussian_exp_moment(eps, 0.25) == pytest.approx(closed, rel=1e-14)
        z = abs(mean - closed) / se
        zs.append(z)
        assert z <= 4.0
    assert is_divergent(gaussian_exp_moment(2.0, 0.25))
    assert is_divergent(gaussian_exp_moment(2.4, 0.25))
    assert not is_divergent(gaussian_exp_moment(math.nextafter(2.0, 0.0), 0.25))
    _report(3, "E exp(eps mid^2) matches (1-eps/2)^{-1/2} at 4se, max z="
               f"{max(zs):.2f}; moment divergent exactly from eps=2")


def test_criterion_04_stark_pointwise_and_matrix_element():
    from bridgekac.stochastic import RngSeed
    V = stark(1.0)
    axis = np.linspace(-2.0, 2.0, 5)
    worst = 0.0
    for k, t in enumerate((0.25, 0.5, 1.0)):
        for i, x in enumerate(axis):
            for j, y in enumerate(axis):
                est = estimate_Q(float(x), float(y), V, t, 20000, 64,
                                 RngSeed(1004), key=(k, i, j))
                z = abs(est.mean - stark_q(float(x), float(y), 1.0, t)) / est.std_error
                worst = max(worst, z)
                assert z <= 4.0

    phi = bump(center=0.0, width=1.0)
    psi = bump(center=0.5, width=1.0)
    t = 0.5
    me = matrix_element(phi, psi, V, t, QuadratureConfig(24),
                        McConfig(n_samples=3000, n_steps=32), RngSeed(10041))
    oracle = _kernel_matrix_element(phi, psi, lambda a, b: stark_kernel(a, b, 1.0, t))
    gap = abs(me.value - oracle)
    tol = max(3.0 * me.std_error, 0.01 * abs(oracle))
    assert gap <= tol
    _report(4, f"75-point stark sweep max z={worst:.2f} (4se); matrix element "
               f"off by {gap:.2e} vs tolerance {tol:.2e}")


def test_criterion_05_harmonic_two_oracle_crosscheck():
    from bridgekac.stochastic import RngSeed
    V = harmonic(omega=1.0)
    phi = bump(center=0.0, width=1.0)
    psi = bump(center=0.0, width=1.0)
    op = build_grid_operator(V, 8.0, 1400)
    digests = []
    for t in (0.25, 0.5, 1.0):
        grid_me = semigroup_matrix_element(op, phi, psi, t)
        mehler_me = _kernel_matrix_element(
            phi, psi, lambda a, b: mehler_kernel(a, b, 1.0, t))
        rel = abs(grid_me - mehler_me) / max(abs(grid_me), abs(mehler_me))
        assert rel <= 1e-3  # oracles must agree before Monte Carlo enters

        me = matrix_element(phi, psi, V, t, QuadratureConfig(24),
                            McConfig(n_samples=3000, n_steps=32), RngSeed(1005))
        for oracle in (grid_me, mehler_me):
            gap = abs(me.value - oracle)
            assert gap <= max(3.0 * me.std_error, 0.01 * abs(oracle))
        digests.append(f"t={t:g}: oracle rel gap {rel:.1e}")
    _report(5, "; ".join(digests) + "; Monte Carlo inside max(3se, 1%) of both")


@pytest.fixture(scope="module")
def bound_sweep_reports():
    from bridgekac.stochastic import RngSeed
    axis = np.linspace(-3.0, 3.0, 7)
    grid = [(float(a), float(b)) for a in axis for b in axis]
    mc = McConfig(n_samples=20000, n_steps=64)
    reports = {}
    for V in (zero(), stark(1.0), inverted_quadratic(0.05)):
        reports[V.name] = verify_bound_sweep(V, 1.0, 1.0, grid, mc, RngSeed(1006))
    return reports


def test_criterion_06_envelope_holds_on_sweep(bound_sweep_reports):
    total = passed = 0
    for report in bound_sweep_reports.values():
        assert report.delta0 == 0.5
        for pt in report.points:
            total += 1
            passed += int(pt.q_mean - 3.0 * pt.q_std_error <= pt.bound)
        assert report.all_passed
    assert total == 147 and passed == 147
    _report(6, f"{passed}/{total} sweep points below the closed-form envelope")


def test_criterion_07_jensen_chain_and_divergence_flip(bound_sweep_reports):
    for report in bound_sweep_reports.values():
        for pt in report.points:
            assert pt.q_mean - 3.0 * pt.q_std_error <= pt.jensen_bound
            assert pt.jensen_bound <= pt.bound * (1.0 + 1e-12)

    V = zero()
    assert is_divergent(jensen_chain_bound(0.0, 0.0, V, 2.0, 0.25))
    assert is_divergent(jensen_chain_bound(0.0, 0.0, V, 1.0, 1.0))
    assert not is_divergent(jensen_chain_bound(0.0, 0.0, V, 2.0, 0.25 - 1e-12))
    assert not is_divergent(jensen_chain_bound(0.0, 0.0, V, 1.0, 1.0 - 1e-12))
    _report(7, "mean - 3se <= jensen <= envelope at all 147 points; "
               "jensen flips divergent exactly at eps t^2 = 1")


def test_criterion_08_truncation_study_converges_both_sides():
    from bridgekac.stochastic import RngSeed
    V = inverted_quadratic(0.05)
    phi = bump(center=0.0, width=1.0)
    report = truncation_study(
        V, phi, phi, 1.0, [1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
        McConfig(n_samples=2000, n_steps=32), RngSeed(1008),
        quadrature=QuadratureConfig(24),
        oracle=OracleConfig(8.0, 1000),
    )
    assert report.right_monotone  # common random numbers make this pathwise
    assert report.left_monotone
    assert report.left_stabilized_at is not None
    assert report.right_stabilized_at is not None
    assert report.all_agree
    _report(8, f"left stabilized at {report.left_stabilized_at:g}, right at "
               f"{report.right_stabilized_at:g}, "
               f"{sum(report.agreements)}/{len(report.agreements)} levels agree")


def test_criterion_09_truncation_dichotomy_in_t():
    from bridgekac.stochastic import RngSeed
    V = inverted_quadratic(1.0)
    levels = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    mc = McConfig(n_samples=100000, n_steps=128)

    small_t = q_truncation_study(0.0, 0.0, V, 0.2, levels, mc, RngSeed(1009))
    assert small_t.stabilized_at is not None
    assert small_t.divergence_onset is None

    large_t = q_truncation_study(0.0, 0.0, V, 3.0, levels, mc, RngSeed(10091))
    values = [e.mean for e in large_t.estimates]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert all(b > a for a, b in zip(values[:4], values[1:5]))
    assert large_t.stabilized_at is None
    assert large_t.divergence_onset is not None
    assert large_t.divergence_onset <= 64.0
    _report(9, f"t=0.2 stabilizes at level {small_t.stabilized_at:g}; t=3.0 grows "
               f"{values[0]:.3g} -> {values[-1]:.3g} with divergence flagged from "
               f"level {large_t.divergence_onset:g}")


def test_criterion_10_cutoff_contraction_and_counterexample():
    gen = np.random.default_rng(1010)
    for _ in range(50):
        M = gen.standard_normal((20, 20))
        A = 0.5 * (M + M.T)
        v = gen.standard_normal(20)
        v /= np.linalg.norm(v)
        for m in (0.5, 2.0, 8.0):
            lhs, rhs = cutoff_contraction_check(A, v, lambda lam: np.exp(-lam), m)
            assert lhs <= rhs * (1.0 + 1e-12)

    seq, psi = spike_multiplication_sequence(256, [4, 16, 64])
    distances = []
    for n, A in zip((4, 16, 64), seq.members):
        image = A @ psi
        assert np.linalg.norm(image) == pytest.approx(1.0, rel=1e-14)
        assert np.linalg.norm(image - seq.limit @ psi) == pytest.approx(1.0, rel=1e-14)
        assert np.linalg.norm(A @ image) == pytest.approx(math.sqrt(n), rel=1e-14)
        d = resolvent_distance(A, seq.limit, psi)
        assert d == pytest.approx(1.0 / math.sqrt(n + 1.0), rel=1e-12)
        distances.append(d)
    assert distances[0] > distances[1] > distances[2]
    _report(10, "contraction bound held on 50 matrices x 3 cutoffs; spike images "
                f"stay at norm 1 while resolvent distance falls to {distances[-1]:.4f}"
                " and squared norms grow as sqrt(n)")


def test_criterion_11_step_refinement_orders():
    from bridgekac.stochastic import RngSeed
    rep = refine_steps(0.3, -0.2, harmonic(omega=1.0), 1.0, 200000,
                       [8, 16, 32, 64], RngSeed(1011), mode="restricted")
    assert rep.fitted_order is not None
    assert rep.fitted_order >= 1.8

    stark_rep = refine_steps(0.5, -1.0, stark(1.0), 1.0, 100000,
                             [16, 32, 64, 128], RngSeed(10111), mode="independent")
    zs = [abs(d) / e for d, e in zip(stark_rep.diff_means, stark_rep.diff_std_errors)]
    assert all(z <= 3.0 for z in zs)
    _report(11, f"harmonic restricted-path order {rep.fitted_order:.2f} >= 1.8; "
                f"stark refinement diffs all within noise (max z={max(zs):.2f})")


Q_CFG = """
potential = harmonic
potential.omega = 1.0
t = 0.5
point.x = 0.4
point.y = -0.3
mc.n_samples = 4000
mc.n_steps = 16
"""

ME_CFG = """
potential = stark
potential.F = 1.0
t = 0.5
quadrature.nodes_per_axis = 8
mc.n_samples = 500
mc.n_steps = 8
"""


def test_criterion_12_csv_reproducibility(tmp_path):
    for name, cfg_text, command in (
        ("q", Q_CFG, "q-estimate"),
        ("me", ME_CFG, "matrix-element"),
    ):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(cfg_text, encoding="utf-8")
        out_a = tmp_path / f"{name}_a.csv"
        out_b = tmp_path / f"{name}_b.csv"
        assert main([command, "--config", str(cfg), "--output", str(out_a)]) == 0
        assert main([command, "--config", str(cfg), "--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    cfg = tmp_path / "q.cfg"
    out_a = tmp_path / "q_a.csv"
    out_s = tmp_path / "q_seeded.csv"
    assert main(["q-estimate", "--config", str(cfg), "--output", str(out_s),
                 "--seed", "7"]) == 0
    row_a = out_a.read_text().splitlines()[1].split(",")
    row_s = out_s.read_text().splitlines()[1].split(",")
    mean_a, se_a = float(row_a[5]), float(row_a[6])
    mean_s, se_s = float(row_s[5]), float(row_s[6])
    combined = math.hypot(se_a, se_s)
    z = abs(mean_a - mean_s) / combined
    assert z <= 4.0
    _report(12, "byte-identical reruns for q-estimate and matrix-element; "
                f"independent seeds agree at z={z:.2f} (4 combined se)")
