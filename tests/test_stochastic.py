import math
import pathlib

import numpy as np
import pytest

import bridgekac
from bridgekac.stochastic import (
    DIVERGENT,
    BridgePath,
    RngSeed,
    bridge_values,
    gaussian_exp_moment,
    is_divergent,
    sample_bridge,
)


def test_rng_seed_validation():
    RngSeed(0)
    RngSeed(2**64 - 1, stream_id=3)
    with pytest.raises(ValueError):
        RngSeed(-1)
    with pytest.raises(ValueError):
        RngSeed(2**64)
    with pytest.raises(ValueError):
        RngSeed(True)
    with pytest.raises(ValueError):
        RngSeed(1.5)


def test_rng_seed_streams_are_reproducible_and_distinct():
    a = RngSeed(42).generator(1, 2).standard_normal(8)
    b = RngSeed(42).generator(1, 2).standard_normal(8)
    c = RngSeed(42).generator(1, 3).standard_normal(8)
    d = RngSeed(42, stream_id=1).generator(1, 2).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert RngSeed(7).with_stream(5) == RngSeed(7, stream_id=5)


def test_rng_seed_streams_are_sfc64_with_recorded_normals():
    # every fixed-seed number rests on these bits: a silent change of generator fails here
    gen = RngSeed(42, stream_id=3).generator(7, 1)
    assert type(gen.bit_generator) is np.random.SFC64
    assert gen.standard_normal(4).tolist() == [
        0.9806031315147484, 1.241131133890685, -1.9539206913256282, 1.1867423884376032]


def test_only_rng_seed_builds_generators():
    # RngSeed.generator holds the library's one generator construction
    hits = [(path.name, line.strip())
            for path in sorted(pathlib.Path(bridgekac.__file__).parent.rglob("*.py"))
            for line in path.read_text(encoding="utf-8").splitlines()
            if "default_rng(" in line or "Generator(" in line]
    assert hits == [("stochastic.py",
                     "return np.random.Generator(np.random.SFC64(self.sequence(*key)))")]


def test_bridge_endpoints_are_exact_zeros():
    path = sample_bridge(2, 16, RngSeed(0))
    assert isinstance(path, BridgePath)
    assert path.values.shape == (17, 2)
    assert np.all(path.values[0] == 0.0)
    assert np.all(path.values[-1] == 0.0)
    np.testing.assert_allclose(path.times, np.arange(17) / 16.0)


def test_bridge_values_matches_direct_construction():
    gen = np.random.default_rng(3)
    xi = gen.standard_normal((5, 8, 1))
    alpha = bridge_values(xi)
    b = np.cumsum(xi * math.sqrt(1.0 / 8.0), axis=-2)
    b = np.concatenate([np.zeros((5, 1, 1)), b], axis=-2)
    u = (np.arange(9) / 8.0)[:, None]
    expected = b - u * b[:, -1:, :]
    np.testing.assert_allclose(alpha, expected, rtol=0, atol=1e-15)
    assert np.all(alpha[:, 0] == 0.0)
    assert np.all(alpha[:, -1] == 0.0)


def test_bridge_grid_law_second_moments(bridge_batch):
    # grid values carry the exact bridge covariance at every resolution
    n = 16
    batch = bridge_batch(RngSeed(11).generator(), n, 200_000)
    mid = batch[:, n // 2]
    quarter = batch[:, n // 4]
    threequarter = batch[:, 3 * n // 4]
    var = mid.var()
    var_se = np.square(mid).std() / math.sqrt(mid.size)
    assert abs(var - 0.25) < 4.0 * var_se
    prod = quarter * threequarter
    cov_se = prod.std() / math.sqrt(prod.size)
    assert abs(prod.mean() - 1.0 / 16.0) < 4.0 * cov_se


def test_bridge_path_validation():
    with pytest.raises(ValueError):
        BridgePath(dim=1, n_steps=4, values=np.zeros((4, 1)))
    bad = np.zeros((5, 1))
    bad[0, 0] = 1e-9
    with pytest.raises(ValueError):
        BridgePath(dim=1, n_steps=4, values=bad)


def test_gaussian_exp_moment_closed_form_and_divergence():
    assert gaussian_exp_moment(0.25, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert gaussian_exp_moment(1.0, 0.25) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert gaussian_exp_moment(0.0, 5.0) == 1.0
    # boundary eps * var = 1/2 diverges exactly
    assert is_divergent(gaussian_exp_moment(2.0, 0.25))
    assert is_divergent(gaussian_exp_moment(0.5, 1.0))
    assert not is_divergent(gaussian_exp_moment(0.5 - 1e-12, 1.0))
    assert gaussian_exp_moment(-1.0, 1.0) == pytest.approx((3.0) ** -0.5)
    with pytest.raises(ValueError):
        gaussian_exp_moment(0.1, -1.0)


@pytest.mark.parametrize("eps, variance", [(math.inf, 0.0), (0.0, math.inf), (-math.inf, 0.0)])
def test_gaussian_exp_moment_is_one_when_eps_or_variance_is_zero(eps, variance):
    # eps X^2 is 0 almost surely, though eps * variance is NaN
    assert gaussian_exp_moment(eps, variance) == 1.0


def test_divergent_marker_semantics():
    assert is_divergent(DIVERGENT)
    assert not is_divergent(math.inf)
    assert not is_divergent(1.0)
    assert repr(DIVERGENT) == "DIVERGENT"


def test_time_average_variance_deficit(bridge_batch):
    # trapezoid average of grid values has variance (1 - 1/n^2) / 12
    n = 8
    batch = bridge_batch(RngSeed(23).generator(), n, 400_000)
    w = np.full(n + 1, 1.0 / n)
    w[0] *= 0.5
    w[-1] *= 0.5
    avg = (batch * w).sum(axis=1)
    target = (1.0 - 1.0 / n**2) / 12.0
    se = np.square(avg).std() / math.sqrt(avg.size)
    assert abs(avg.var() - target) < 4.0 * se
