import math

import numpy as np
import pytest

from bridgekac.bounds import (
    BoundParameters,
    jensen_chain_bound,
    theorem21_bound,
    verify_bound_sweep,
)
from bridgekac.convergence import cutoff_contraction_check
from bridgekac.feynman_kac import McConfig
from bridgekac.potentials import certify, harmonic, inverted_quadratic, stark, zero
from bridgekac.stochastic import RngSeed, gaussian_exp_moment, is_divergent


def test_bound_parameters_validation():
    p = BoundParameters(t=2.0, delta0=0.5, c_eps=1.0)
    assert p.eps == pytest.approx(0.125)
    with pytest.raises(ValueError):
        BoundParameters(t=0.0, delta0=0.5, c_eps=0.0)
    with pytest.raises(ValueError):
        BoundParameters(t=1.0, delta0=0.0, c_eps=0.0)
    with pytest.raises(ValueError):
        BoundParameters(t=1.0, delta0=1.0, c_eps=0.0)
    with pytest.raises(ValueError):
        BoundParameters(t=1.0, delta0=0.5, c_eps=-1.0)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_bounds_reject_a_time_that_is_not_finite(t):
    with pytest.raises(ValueError):
        BoundParameters(t=t, delta0=0.5, c_eps=0.0)
    with pytest.raises(ValueError):
        BoundParameters.for_potential(harmonic(), t, 0.5)
    with pytest.raises(ValueError):
        jensen_chain_bound(0.0, 0.0, harmonic(), t, 0.1)


@pytest.mark.parametrize("make", [
    lambda: gaussian_exp_moment(math.nan, 0.25),
    lambda: gaussian_exp_moment(0.25, math.nan),
    lambda: jensen_chain_bound(0.0, 0.0, harmonic(), 1.0, math.nan),
    lambda: certify(harmonic(), math.nan, [0.0, 1.0]),
    lambda: BoundParameters(1.0, 0.5, c_eps=math.nan),
    lambda: cutoff_contraction_check(np.eye(2), np.ones(2), np.exp, math.nan),
], ids=["moment-eps", "moment-variance", "jensen-eps", "certify-eps", "c-eps",
        "cutoff-level"])
def test_bound_layer_rejects_nan(make):
    # each check was written as x <= 0 or x < 0, which NaN passes: the moment and the
    # contraction read NaN, the jensen envelope inf, and theorem21_bound inf
    with pytest.raises(ValueError):
        make()


def test_for_potential_reads_certificate_at_matched_eps():
    p = BoundParameters.for_potential(stark(1.0), t=2.0, delta0=0.5)
    # eps = delta0 / t^2 = 1/8, C_eps = F^2 / (4 eps) = 2
    assert p.eps == pytest.approx(0.125)
    assert p.c_eps == pytest.approx(2.0)


def test_theorem21_bound_closed_form_value():
    params = BoundParameters(t=1.0, delta0=0.5, c_eps=0.0)
    # sqrt(2) (1 - 1/2)^{-1/2} exp(2 * 0.5 * (1 + 1) / 1) = 2 e^2
    assert theorem21_bound(1.0, 1.0, params) == pytest.approx(
        14.7781121978613, rel=1e-12
    )
    assert theorem21_bound(0.0, 0.0, params) == pytest.approx(2.0, rel=1e-12)


def test_theorem21_is_sqrt2_times_jensen():
    V = stark(1.0)
    for t, delta0 in [(0.5, 0.3), (1.0, 0.5), (2.0, 0.8)]:
        params = BoundParameters.for_potential(V, t, delta0)
        for x, y in [(0.0, 0.0), (1.2, -0.4), (3.0, 3.0)]:
            chain = jensen_chain_bound(x, y, V, t, params.eps)
            assert theorem21_bound(x, y, params) == pytest.approx(
                math.sqrt(2.0) * chain, rel=1e-12
            )


def test_jensen_chain_divergence_flips_exactly_at_eps_t_squared_one():
    V = zero()
    # 0.25 * 2^2 == 1 exactly in floating point
    assert is_divergent(jensen_chain_bound(0.0, 0.0, V, 2.0, 0.25))
    assert not is_divergent(jensen_chain_bound(0.0, 0.0, V, 2.0, 0.2499999999))
    assert is_divergent(jensen_chain_bound(0.0, 0.0, V, 1.0, 1.0))
    assert not is_divergent(jensen_chain_bound(0.0, 0.0, V, 1.0, 1.0 - 1e-12))


def test_infinite_certificate_gives_infinite_bound():
    V = inverted_quadratic(c=0.5)
    # eps = delta0 / t^2 = 0.1 < c, so no finite constant exists
    params = BoundParameters.for_potential(V, t=1.0, delta0=0.1)
    assert params.c_eps == math.inf
    assert theorem21_bound(0.0, 0.0, params) == math.inf
    assert jensen_chain_bound(0.0, 0.0, V, 1.0, params.eps) == math.inf


def test_large_exponent_saturates_to_inf():
    params = BoundParameters(t=1e-3, delta0=0.99, c_eps=0.0)
    assert theorem21_bound(100.0, 100.0, params) == math.inf


def test_verify_bound_sweep_zero_potential():
    axis = np.linspace(-1.0, 1.0, 3)
    grid = [(a, b) for a in axis for b in axis]
    report = verify_bound_sweep(
        zero(), 1.0, 1.0, grid, McConfig(n_samples=500, n_steps=8), RngSeed(0)
    )
    assert report.delta0 == pytest.approx(0.5)
    assert report.eps == pytest.approx(0.5)
    assert report.all_passed
    assert report.n_passed == 9
    for pt in report.points:
        assert pt.q_mean == 1.0
        assert pt.jensen_bound <= pt.bound * (1.0 + 1e-12)
        assert not pt.rechecked


def test_verify_bound_sweep_rejects_an_empty_grid(counting_seed):
    # zero points would otherwise report all_passed over nothing
    rng = counting_seed(0)
    for grid in ([], iter(())):
        with pytest.raises(ValueError, match="grid"):
            verify_bound_sweep(harmonic(), 1.0, 1.0, grid, McConfig(n_samples=100, n_steps=4), rng)
    assert rng.opened == []


def test_verify_bound_sweep_stark_chain_ordering():
    grid = [(-2.0, 0.0), (0.0, 0.0), (1.0, 2.0)]
    report = verify_bound_sweep(
        stark(1.0), 1.0, 1.0, grid, McConfig(n_samples=4000, n_steps=16), RngSeed(3),
        workers=2,
    )
    assert report.all_passed
    # C_eps = F^2 / (4 eps) with eps = 0.5
    assert report.c_eps == pytest.approx(0.5)
    for pt in report.points:
        assert pt.q_mean - 3.0 * pt.q_std_error <= pt.jensen_bound
        assert pt.jensen_bound <= pt.bound


def test_verify_bound_sweep_is_reproducible():
    grid = [(0.0, 0.0), (1.0, -1.0)]
    a = verify_bound_sweep(harmonic(), 1.0, 1.0, grid,
                           McConfig(n_samples=1000, n_steps=8), RngSeed(5))
    b = verify_bound_sweep(harmonic(), 1.0, 1.0, grid,
                           McConfig(n_samples=1000, n_steps=8), RngSeed(5), workers=4)
    assert [p.q_mean for p in a.points] == [p.q_mean for p in b.points]
