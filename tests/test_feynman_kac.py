import dataclasses
import itertools
import math
import operator
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from bridgekac import backend, feynman_kac
from bridgekac.backend import _line_positions, quadratic_weights
from bridgekac.feynman_kac import (
    McConfig,
    QuadratureConfig,
    Wavefunction,
    bump,
    estimate_Q,
    free_kernel,
    gaussian,
    matrix_element,
    refine_steps,
    _bridge_sums,
    _estimates,
    _line_action,
    _matrix_elements,
    _node_blocks,
    _Stats,
    _sums_records,
    _sums_units,
    _sums_weights,
    _tensor_gauss_legendre,
    _unit_records,
    _walk_units,
)
from bridgekac.oracles import mehler_kernel, stark_q
from bridgekac.potentials import (
    QuadraticForm, custom, harmonic, inverted_quadratic, stark, truncate, zero,
)
from bridgekac.stochastic import (
    DIVERGENT, RngSeed, _sine_amplitudes, _sine_transform, gaussian_q,
)


def test_free_case_is_exact():
    # V = 0 weights are exactly 1, so mean is 1.0 and spread is zero
    for x, y, t, n in [(0.0, 0.0, 1.0, 4), (1.5, -2.0, 0.3, 17), (3.0, 3.0, 5.0, 64)]:
        est = estimate_Q(x, y, zero(), t, 500, n, RngSeed(1))
        assert est.mean == 1.0
        assert est.std_error == 0.0
        assert not est.divergence_suspected


def test_estimate_matches_harmonic_ratio():
    target = 0.9224522362915717  # sqrt(t / sinh t) at t = 1
    est = estimate_Q(0.0, 0.0, harmonic(), 1.0, 60_000, 64, RngSeed(17), workers=2)
    assert abs(est.mean - target) < 4.0 * est.std_error
    assert est.std_error < 1e-3


def test_estimate_matches_stark_closed_form():
    x, y, t, F = 1.0, -0.5, 0.8, 1.3
    target = 0.7993577656466888  # exp(-tF(x+y)/2 + F^2 t^3 / 24)
    assert stark_q(x, y, F, t) == pytest.approx(target, rel=1e-15)
    est = estimate_Q(x, y, stark(F), t, 60_000, 64, RngSeed(29), workers=2)
    assert abs(est.mean - target) < 4.0 * est.std_error


def test_estimate_is_reproducible_and_worker_invariant():
    V = harmonic()
    base = estimate_Q(0.2, -0.3, V, 0.7, 70_000, 8, RngSeed(3))
    again = estimate_Q(0.2, -0.3, V, 0.7, 70_000, 8, RngSeed(3))
    threaded = estimate_Q(0.2, -0.3, V, 0.7, 70_000, 8, RngSeed(3), workers=4)
    assert base.mean == again.mean
    assert base.std_error == again.std_error
    assert base.mean == threaded.mean
    assert base.std_error == threaded.std_error


def test_estimate_key_separates_streams():
    V = harmonic()
    a = estimate_Q(0.0, 0.0, V, 1.0, 2000, 8, RngSeed(3), key=(0,))
    b = estimate_Q(0.0, 0.0, V, 1.0, 2000, 8, RngSeed(3), key=(1,))
    assert a.mean != b.mean


def test_estimate_validation():
    with pytest.raises(ValueError):
        estimate_Q(0.0, 0.0, zero(), 0.0, 100, 8, RngSeed(0))
    with pytest.raises(ValueError):
        estimate_Q(0.0, 0.0, zero(), 1.0, 0, 8, RngSeed(0))
    with pytest.raises(ValueError):
        estimate_Q(math.inf, 0.0, zero(), 1.0, 100, 8, RngSeed(0))


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_time_must_be_positive_and_finite(counting_seed, t):
    with pytest.raises(ValueError):
        free_kernel(0.0, 0.0, t)
    phi = bump()
    rng = counting_seed(1)
    calls = [
        lambda: estimate_Q(0.0, 0.0, harmonic(), t, 100, 8, rng),
        lambda: _estimates(0.0, 0.0, harmonic(), t, 100, 8, rng, [-1.0], workers=1),
        lambda: matrix_element(phi, phi, harmonic(), t, QuadratureConfig(2), McConfig(10, 4), rng),
        lambda: refine_steps(0.0, 0.0, harmonic(), t, 100, [4, 8], rng),
        lambda: refine_steps(0.0, 0.0, truncate(harmonic(), 1.0), t, 100, [4, 8], rng),
        lambda: refine_steps(0.0, 0.0, harmonic(), t, 100, [4, 8], rng, mode="independent"),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()
    assert rng.opened == []


@pytest.mark.parametrize("bad", [
    {"n_samples": 0}, {"n_samples": -5}, {"n_steps": 0}, {"workers": 2.5},
    {"workers": 0}, {"workers": -3}, {"workers": True},
    {"n_samples": 2.5}, {"n_samples": True}, {"n_steps": 100.7}, {"n_steps": True},
])
def test_sampling_arguments_are_rejected_before_any_draw(counting_seed, bad):
    args = {"n_samples": 200, "n_steps": 8, **bad}
    n_samples, n_steps = args.pop("n_samples"), args.pop("n_steps")
    rng = counting_seed(1)
    with pytest.raises(ValueError):
        estimate_Q(0.0, 0.0, harmonic(), 1.0, n_samples, n_steps, rng, **args)
    if "n_steps" not in bad:  # refine_steps takes a schedule instead
        for mode in ("restricted", "independent"):
            with pytest.raises(ValueError):
                refine_steps(0.0, 0.0, harmonic(), 1.0, n_samples, [4, 8], rng, mode=mode, **args)
    assert rng.opened == []


@pytest.mark.parametrize("workers", [0, -3, 2.5, True])
def test_matrix_element_rejects_bad_workers_before_any_draw(counting_seed, workers):
    phi = bump()
    quadrature, mc = QuadratureConfig(2), McConfig(10, 4)
    rng = counting_seed(1)
    # shared paths, one stream per node pair, and several floors at once
    for V, floors in ((harmonic(), None), (truncate(harmonic(), 1.0), None),
                      (harmonic(), [-1.0, -2.0])):
        with pytest.raises(ValueError, match="workers"):
            _matrix_elements(phi, phi, V, 1.0, quadrature, mc, rng, floors, workers=workers)
    with pytest.raises(ValueError, match="workers"):
        matrix_element(phi, phi, harmonic(), 1.0, quadrature, mc, rng, workers=workers)
    assert rng.opened == []


def test_divergence_flag_for_strongly_inverted_potential():
    est = estimate_Q(0.0, 0.0, inverted_quadratic(1.0), 3.0, 20_000, 64, RngSeed(5))
    assert est.divergence_suspected
    assert est.heavy_mass_fraction > 0.5


def test_total_underflow_is_not_flagged_as_divergence():
    # every weight underflows to 0 (Q is about 7e-322): no mass is no heavy tail
    est = estimate_Q(40, 40, harmonic(), 1.0, 2000, 64, RngSeed(1))
    assert est.mean == 0.0
    assert not est.divergence_suspected
    assert est.heavy_mass_fraction == 0.0


def test_tiny_weights_keep_a_nonzero_error_bar():
    # weights near 1e-185 have squares below the smallest float: the record scales them first
    est = estimate_Q(30, 30, harmonic(), 1.0, 2000, 64, RngSeed(1))
    assert est.mean == pytest.approx(3.225e-182, rel=1e-3, abs=0.0)
    assert 0.5 * est.mean < est.std_error < math.inf
    assert est.divergence_suspected
    # three chunks merge rows of different scales, in the same order for any workers
    serial = estimate_Q(30, 30, harmonic(), 1.0, 70_000, 64, RngSeed(1))
    assert serial.std_error > 0.0
    assert serial == estimate_Q(30, 30, harmonic(), 1.0, 70_000, 64, RngSeed(1), workers=2)


def test_stats_of_all_columns_equals_the_merge_of_column_slices():
    rng = np.random.default_rng(0)
    levels = np.array([1.0, 1e-130, 1e-180, 0.0])[:, None]
    w = levels * np.exp(rng.standard_normal((4, 1000)) * [[0.5], [1.0], [3.0], [1.0]])
    whole = _Stats.of(w, 5)
    merged = reduce(operator.add, (_Stats.of(w[:, i:i + 300], 5) for i in range(0, 1000, 300)))
    assert merged.n == whole.n == 1000
    for field in ("mean", "total", "std_error"):
        np.testing.assert_allclose(getattr(merged, field), getattr(whole, field), rtol=1e-12)
    np.testing.assert_array_equal(np.sort(merged.top), np.sort(whole.top))
    np.testing.assert_array_equal(np.sort(whole.top), np.sort(w)[:, -5:])
    # the error bar is that of the rescaled rows; the row near 1 sums as plain floats
    unit = np.where(levels > 0.0, levels, 1.0)
    want = unit[:, 0] * (w / unit).std(axis=1, ddof=1) / math.sqrt(1000)
    np.testing.assert_allclose(whole.std_error, want, rtol=1e-12)
    assert np.all(whole.std_error[:3] > 0.0) and whole.std_error[3] == 0.0
    assert whole.m2[0] == np.square(w[0] - w[0].mean()).sum() and whole.scale[0] == 1.0


@pytest.mark.parametrize("form, dim", [
    (zero().form, 1),
    (harmonic(omega=1.3).form, 1),
    (stark(-0.8).form, 1),
    (inverted_quadratic(0.3).form, 1),
    (QuadraticForm(0.4, (0.7,), -0.3), 1),
    (harmonic(dim=2).form, 2),
    (stark((0.5, -1.1), dim=2).form, 2),
    (QuadraticForm(-0.2, (0.3, -0.6), 0.45), 2),
])
def test_sums_weights_match_kernel(form, dim):
    n_steps, t = 24, 0.9
    xi = RngSeed(31).generator().standard_normal((128, n_steps - 1, dim))
    alpha = _sine_bridge(xi)
    gen = np.random.default_rng(3)
    xs = gen.uniform(-2.0, 2.0, (3, dim))
    ys = gen.uniform(-2.0, 2.0, (4, dim))
    line = _line_action(xs, ys, form, n_steps)
    start = 0
    for (sums,) in _bridge_sums(RngSeed(31).generator(), 128, n_steps, dim, (1,)):
        got = _sums_weights(sums, xs, ys, t, form, line)
        stop = start + got.shape[2]
        assert got.shape == (3, 4, stop - start)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                want = quadratic_weights(alpha[start:stop], x, y, t, form)
                np.testing.assert_allclose(got[i, j], want, rtol=1e-13, atol=0.0)
        start = stop
    assert start == 128


def _sine_bridge(xi):
    """Node values 0..n of the bridges whose sine coordinates are `xi` (n_paths, n - 1, dim),
    synthesized term by term: alpha_k = sum_j sqrt(2/n) sin(j k pi / n) xi_j / sqrt(n mu_j)."""
    n_paths, modes, dim = xi.shape
    n = modes + 1
    j = np.arange(1, n)
    # mu_j = 2 - 2 cos(j pi / n) = 4 sin^2(j pi / (2 n)), without the cancellation at low j
    eta = xi / (2.0 * np.sqrt(n) * np.sin(j * np.pi / (2 * n)))[:, None]
    alpha = np.zeros((n_paths, n + 1, dim))
    for first in range(1, n, 256):
        k = np.arange(first, min(first + 256, n))
        # reduce the phase mod 2 n: a large argument would round the sine
        basis = math.sqrt(2.0 / n) * np.sin(np.outer(k, j) % (2 * n) * (np.pi / n))
        alpha[:, k] = basis @ eta
    return alpha


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_sine_coordinates_carry_the_bridge_covariance(n):
    # row j: the interior values of the bridge whose only sine coordinate is xi_j = 1
    synth = math.sqrt(2.0 / n) * _sine_transform(np.diag(_sine_amplitudes(n)))
    assert synth.shape == (n - 1, n - 1)
    np.testing.assert_allclose(synth, _sine_bridge(np.eye(n - 1)[:, :, None])[:, 1:-1, 0],
                               rtol=0.0, atol=1e-15)
    u = np.arange(1, n) / n
    want = np.minimum.outer(u, u) * (1.0 - np.maximum.outer(u, u))
    np.testing.assert_allclose(synth.T @ synth, want, rtol=0.0, atol=1e-15)


class _CountingGenerator:
    """Generator proxy that logs the number of normals of every draw."""

    def __init__(self, gen):
        self.gen = gen
        self.drawn = []

    def standard_normal(self, *, out):
        self.drawn.append(out.size)
        return self.gen.standard_normal(out=out)


def _layout_draws(n_paths: int, n_steps: int, dim: int) -> tuple[int, int]:
    """The normals and the row blocks that `_bridge_sums` draws for `n_paths` paths: each
    path's own modes and each group's shared ones, in blocks of whole groups."""
    group, own, rows = feynman_kac._sums_layout(n_paths, n_steps, dim)
    groups = -(-n_paths // group)
    return (n_paths * own + groups * (n_steps - 1 - own)) * dim, -(-groups // rows)


@pytest.mark.parametrize("n_steps, dim, strides", [
    (1, 2, (1,)), (2, 1, (2, 1)), (16, 3, (1,)), (256, 1, (16, 8, 4, 2, 1)),
])
def test_sums_path_draws_n_steps_minus_one_normals_per_path(n_steps, dim, strides):
    # up to 17 steps every path draws its n_steps - 1 modes alone; at 256 steps groups
    # of 8 paths share the modes above 16, so a path draws 16 + 239 / 8 of them
    gen = _CountingGenerator(RngSeed(5).generator())
    paths = sum(len(levels[0][2]) for levels in _bridge_sums(gen, 3000, n_steps, dim, strides))
    assert paths == 3000
    normals, blocks = _layout_draws(3000, n_steps, dim)
    assert sum(gen.drawn) == normals
    assert len(gen.drawn) == blocks
    if n_steps <= 17:
        assert normals == 3000 * (n_steps - 1) * dim
    else:
        assert normals == (3000 * 16 + 375 * 239) * dim


def test_one_step_estimate_is_the_exact_line_weight():
    # no interior node: nothing is drawn and every path carries exp(-t D(x, y))
    for V in (harmonic(omega=1.3), stark(0.7), harmonic(dim=2)):
        est = estimate_Q(0.4, -0.3, V, 0.8, 500, 1, RngSeed(2))
        assert est.mean == pytest.approx(gaussian_q(0.4, -0.3, V.form, 0.8, 1), rel=1e-15)
        assert est.std_error <= 1e-15 * est.mean


@pytest.mark.parametrize("x, y, V", [
    (0.4, -0.7, harmonic()),
    (1.0, 0.3, stark(0.9)),
    ((0.5, -0.2), (-0.3, 0.6), harmonic(omega=1.3, dim=2)),
], ids=["harmonic", "stark", "dim-2"])
def test_sine_coordinate_estimates_match_the_exact_grid_value(x, y, V):
    t = 0.9
    est = estimate_Q(x, y, V, t, 20_000, 32, RngSeed(73))
    assert abs(est.mean - gaussian_q(x, y, V.form, t, 32)) <= 5.0 * est.std_error
    # the coarse grids of a restricted study read their C from folded coordinates
    rep = refine_steps(x, y, V, t, 20_000, (4, 8, 32), RngSeed(73))
    for level in rep.estimates:
        exact = gaussian_q(x, y, V.form, t, level.n_steps)
        assert abs(level.mean - exact) <= 5.0 * level.std_error


def test_stark_error_bars_are_calibrated_on_pair_units():
    # a path and its mirror are strongly anticorrelated for stark (about -0.92), so the
    # units' error bar is far below a per-path one: against the exact grid value the
    # z-scores of 40 seeds spread by about 1, where per-path error bars give about 0.3
    x, y, t, n_steps = 0.3, -0.4, 1.0, 16
    V = stark(1.0)
    exact = gaussian_q(x, y, V.form, t, n_steps)
    z = [(e.mean - exact) / e.std_error
         for e in (estimate_Q(x, y, V, t, 2000, n_steps, RngSeed(k)) for k in range(40))]
    assert 0.7 <= np.std(z, ddof=1) <= 1.3


def _trapezoid_sums(alpha):
    """A, B and C of paths `alpha` (n_paths, n_steps + 1, dim), each paired
    with its sum of absolute terms, which bounds its rounding error."""
    n_steps = alpha.shape[1] - 1
    u = np.arange(n_steps + 1) / n_steps
    tau = np.full(n_steps + 1, 1.0 / n_steps)
    tau[[0, -1]] *= 0.5
    sq = np.square(alpha).sum(axis=2) @ tau
    return [(np.einsum("pkd,k->pd", alpha, w), np.einsum("pkd,k->pd", np.abs(alpha), w))
            for w in (tau, tau * u)] + [(sq, sq)]


def _grouped_xi(gen, n_paths: int, n_steps: int, dim: int) -> np.ndarray:
    """The sine coordinates (n_paths, n_steps - 1, dim) of `n_paths` paths drawn from gen
    row by row, one row per group of `_sums_layout`: the own modes of the group's paths,
    path by path, then the modes they share, each times dim.  A group of one path draws
    its coordinates as `gen.standard_normal((1, n_steps - 1, dim))` would."""
    group, own, _ = feynman_kac._sums_layout(n_paths, n_steps, dim)
    xi = np.empty((n_paths, n_steps - 1, dim))
    for first in range(0, n_paths, group):
        k = min(group, n_paths - first)  # the chunk's last group may be short
        row = gen.standard_normal((k * own + n_steps - 1 - own) * dim)
        xi[first:first + k, :own] = row[:k * own * dim].reshape(k, own, dim)
        xi[first:first + k, own:] = row[k * own * dim:].reshape(n_steps - 1 - own, dim)
    return xi


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n_steps, strides, n_paths", [
    (1, (1,), 50),
    (7, (7, 1), 50),
    (256, (16, 8, 4, 2, 1), 100),
    (4096, (4096, 64, 1), 60),  # several row blocks per chunk at dim 3
    # groups of 8 paths share their modes above 16.  22 groups, the last of 2 paths
    (128, (1,), 170),
    # coarse grids of 5 and 10 steps fold the own modes, 20 keeps them as they are
    (40, (8, 4, 2, 1), 171),
    # 42 groups, the last of 5 paths
    (256, (16, 8, 4, 2, 1), 333),
])
def test_bridge_sums_match_trapezoid_sums_of_the_bridge(dim, n_steps, strides, n_paths):
    # at most 20 groups of 8 (160 paths), or at most 17 steps, every path draws alone
    group = feynman_kac._sums_layout(n_paths, n_steps, dim)[0]
    assert group == (8 if n_paths > 160 and n_steps > 17 else 1)
    alpha = _sine_bridge(_grouped_xi(RngSeed(41).generator(), n_paths, n_steps, dim))
    # the node values that callables and clipped forms synthesize are the same paths
    (nodes,) = _node_paths([RngSeed(41).generator()], n_paths, n_steps, dim)
    np.testing.assert_allclose(nodes, alpha, rtol=0.0, atol=1e-12)
    start = 0
    for levels in _bridge_sums(RngSeed(41).generator(), n_paths, n_steps, dim, strides):
        assert len(levels) == len(strides)
        stop = start + len(levels[0][2])
        for got, s in zip(levels, strides):
            assert got[0].shape == got[1].shape == (stop - start, dim)
            assert got[2].shape == (stop - start,)
            for g, (want, scale) in zip(got, _trapezoid_sums(alpha[start:stop, ::s])):
                # relative to the sum of absolute terms: A and B cancel; a
                # one-step level has alpha = 0 at both nodes and must give 0
                assert np.all(np.abs(g - want) <= 1e-13 * scale)
        start = stop
    assert start == n_paths


def _node_paths(draws, n_paths, n_steps, dim):
    """The bridges that `_node_blocks` synthesizes for each generator of `draws`, path-major:
    one array (n_paths, n_steps + 1, dim) per draw, from the columns its blocks give it."""
    paths = [np.empty((n_paths, n_steps + 1, dim)) for _ in draws]
    for alpha, spans, _ in _node_blocks(draws, n_paths, n_steps, dim):
        for index, _, col, first, size in spans:
            paths[index][first:first + size] = alpha[:, col:col + size].transpose(1, 0, 2)
    return paths


@pytest.mark.parametrize("n_steps", [16, 64, 256], ids=["own", "dense", "dst"])
def test_synthesized_nodes_do_not_depend_on_blocks_tiles_or_workers(monkeypatch, n_steps):
    # two draws of 170 paths: 22 groups of 8 each, the last of 2 (at 16 steps, 170 groups
    # of one).  The shared modes are one dense product per block up to 128 steps and one
    # DST per group above.  A path's columns move between blocks and product tiles as
    # the blocks shrink, and blocks run on three threads at once
    dim, n_paths = 2, 170
    group = feynman_kac._sums_layout(n_paths, n_steps, dim)[0]
    assert group == (1 if n_steps <= 17 else 8)

    def run():
        return _node_paths([RngSeed(47).generator(k) for k in (0, 1)], n_paths, n_steps, dim)

    whole = run()
    for a, b in zip(whole, _node_paths([RngSeed(47).generator(k) for k in (0, 1)], n_paths,
                                       n_steps, dim)):
        assert np.array_equal(a, b)
    assert all(np.all(p[:, [0, -1]] == 0.0) for p in whole)
    for groups in (1, 3, 7):
        # `groups` groups per block; blocks straddle the two draws unless groups divide 22
        monkeypatch.setattr(feynman_kac, "_BLOCK_ELEMENTS",
                            groups * group * feynman_kac._NODE_BUFFERS * (n_steps + 1) * dim)
        widths = [alpha.shape[1] for alpha, _, _ in
                  _node_blocks([RngSeed(47).generator(k) for k in (0, 1)], n_paths, n_steps,
                               dim)]
        assert max(widths) == groups * group
        for runs in feynman_kac._run_ordered([run] * 3, 3):
            for a, b in zip(whole, runs):
                assert np.array_equal(a, b)


class _StreamGenerator:
    """Generator proxy whose standard normals are the numbers of `stream`, in order."""

    def __init__(self, stream):
        self.stream = stream.reshape(-1)
        self.done = 0

    def standard_normal(self, *, out):
        flat = out.reshape(-1)
        flat[:] = self.stream[self.done:self.done + flat.size]
        self.done += flat.size


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n_steps", [2, 16, 17, 18, 128, 512])
def test_synthesis_map_carries_the_bridge_covariance(n_steps, dim):
    # a group's row of L normals gives its paths' node values linearly: drawn as the rows
    # of the L x L identity, the groups' paths are the columns of that map.  Each path's
    # map times its transpose is the bridge covariance min(s, u) (1 - max(s, u)) per
    # coordinate, coordinates apart; two paths of one group covary by their shared modes
    # alone: the covariance less that of the own modes j <= 16
    own = min(16, n_steps - 1)
    group = 8 if n_steps > 17 else 1
    length = (group * own + n_steps - 1 - own) * dim
    n_paths = length * group
    assert feynman_kac._sums_layout(n_paths, n_steps, dim)[:2] == (
        group, own if group > 1 else n_steps - 1)
    (paths,) = _node_paths([_StreamGenerator(np.eye(length))], n_paths, n_steps, dim)
    maps = paths.reshape(length, group, -1)  # [row, path of the group, (node, coordinate)]
    u = np.arange(n_steps + 1) / n_steps
    bridge = np.minimum.outer(u, u) * (1.0 - np.maximum.outer(u, u))
    want = np.kron(bridge, np.eye(dim))
    for p in sorted({0, group - 1}):
        np.testing.assert_allclose(maps[:, p].T @ maps[:, p], want, rtol=0.0, atol=1e-12)
    if group > 1:
        own_nodes = np.zeros((n_steps + 1, own))
        own_nodes[1:-1] = feynman_kac._synthesis(n_steps)[0]
        shared = want - np.kron(own_nodes @ own_nodes.T, np.eye(dim))
        assert np.abs(shared).max() > 1e-4
        np.testing.assert_allclose(maps[:, 0].T @ maps[:, group - 1], shared, rtol=0.0,
                                   atol=1e-12)


def test_callable_may_return_a_read_only_view():
    # the weights are clipped and summed in place, never in what evaluate returns
    V = custom(lambda p: np.broadcast_to(0.0, np.shape(p)[:-1]), lambda eps: 0.0)
    est = estimate_Q(0.2, 0.1, V, 1.0, 100, 4, RngSeed(0))
    assert est.mean == 1.0
    assert est.std_error == 0.0


def _callable_harmonic(points):
    return 0.5 * np.square(points).sum(axis=-1)


def _writing_harmonic(points):
    # squares the positions it is given in place
    return 0.5 * np.square(points, out=points).sum(axis=-1)


def _read_only_harmonic(points):
    return np.broadcast_to(0.5 * np.square(points).sum(axis=-1), np.shape(points)[:-1])


_STREAMED = {
    "callable": (custom(_callable_harmonic, lambda eps: 0.0), (1,), None),
    "read-only view": (custom(_read_only_harmonic, lambda eps: 0.0), (1,), None),
    "three floors": (truncate(inverted_quadratic(0.5), 2.0), (1,), (-1.0, -4.0, -math.inf)),
    "clipped stark": (truncate(stark(0.8), 0.5), (1,), None),
    "dim 2": (custom(_callable_harmonic, lambda eps: 0.0, dim=2), (1,), (-0.3, -math.inf)),
    "strides": (custom(_callable_harmonic, lambda eps: 0.0), (1, 2, 4), None),
    "writing callable": (custom(_writing_harmonic, lambda eps: 0.0), (4, 2, 1), None),
    "writing truncation": (truncate(custom(_writing_harmonic, lambda eps: 0.0), 1.0), (4, 2, 1),
                           None),
}


def _pair_units(plus, minus, paired):
    """Units of weights `plus` of drawn paths and `minus` of their mirrors, paths last:
    (plus + minus) / 2 for the first `paired` paths, plus alone for the rest."""
    units = np.array(plus, dtype=np.float64)
    units[..., :paired] = 0.5 * (units[..., :paired] + np.asarray(minus)[..., :paired])
    return units


def _one_shot_weights(alpha, x, y, t, V, strides, floors=None):
    """Weights of whole bridges alpha (n_paths, n_steps + 1, dim) in one pass of the
    node-major kernel, one row per stride and then per floor: a callable at the
    positions, a quadratic form from its even and odd parts."""
    if V.form is None:
        line = _line_positions(alpha.shape[1] - 1, x, y)
        pos = (line[None] + np.sqrt(t) * alpha).transpose(1, 0, 2)
        return [w for s in strides
                for w in backend.floored_weights(np.array(V.evaluate(pos[::s].copy())),
                                                 (-math.inf,) if floors is None else floors, t)]
    nodes = alpha.transpose(1, 0, 2)
    even, odd = np.empty((2,) + nodes.shape[:2])
    backend.form_parts(nodes, [(x, y, 0, len(alpha))], t, V.form, even, odd)
    return backend.floored_weights(even + odd, (V.form.floor,) if floors is None else floors, t,
                                   strides)


@pytest.mark.parametrize("case", list(_STREAMED) + ["shared modes"])
def test_streamed_weights_equal_one_shot_weights(monkeypatch, case):
    # 199 paths: 100 drawn, 13 per block (seven full blocks and a ragged one of 9), the
    # first 99 weighed with their mirrors and the last a unit of its own.  With shared
    # modes, 339 paths at 32 steps: 170 drawn in 22 groups of 8, the last of 2 holding the
    # lone path, two groups per block; a group's unit is the mean of its pair units
    V, strides, floors = _STREAMED.get(case, _STREAMED["callable"])
    n_paths, n_steps, t = (339, 32, 0.8) if case == "shared modes" else (199, 16, 0.8)
    drawn = -(-n_paths // 2)
    group = feynman_kac._sums_layout(drawn, n_steps, V.dim)[0]
    x, y = np.full(V.dim, 0.4), np.full(V.dim, -0.3)
    # the one-shot bridges: every path in one block
    (alpha,) = _node_paths([RngSeed(3).generator(5)], drawn, n_steps, V.dim)
    monkeypatch.setattr(feynman_kac, "_BLOCK_ELEMENTS",
                        13 * feynman_kac._NODE_BUFFERS * (n_steps + 1) * V.dim
                        if group == 1 else 2 * 8 * feynman_kac._NODE_BUFFERS * (n_steps + 1))
    got = _walk_units([(RngSeed(3).generator(5), x, y)], n_paths, n_steps, t, V, strides,
                      floors)

    def one_shot(alpha):
        return _one_shot_weights(alpha, x, y, t, V, strides, floors)

    pairs = _pair_units(one_shot(alpha), one_shot(-alpha), n_paths // 2).T
    want = np.stack([sum(pairs[a:a + group]) / len(pairs[a:a + group])
                     for a in range(0, drawn, group)], axis=1)
    assert got.shape == want.shape == (len(strides) * (1 if floors is None else len(floors)),
                                       -(-drawn // group))
    assert np.array_equal(got, want)


class _NegatedGenerator:
    """Generator proxy whose draws are those of `gen`, negated."""

    def __init__(self, gen):
        self.gen = gen

    def standard_normal(self, *, out):
        self.gen.standard_normal(out=out)
        np.negative(out, out=out)


def _chunk_units(gen, count, n_steps, x, y, t, V, strides):
    """Pair units of a chunk of `count` paths of an unclipped form, one row per stride:
    the buffers of `_sums_units` joined."""
    return np.concatenate([units[:, 0].copy() for units in
                           _sums_units(gen, count, x[None], y[None], t, V.form, n_steps, strides)],
                          axis=1)


def _drawn_weights(gen, n_paths, n_steps, x, y, t, V, strides):
    """Weights of `n_paths` drawn paths each alone, no mirror: from the trapezoid sums of
    an unclipped form, else from the synthesized node values; one row per stride."""
    if V.form is not None and V.form.floor == -math.inf:
        lines = [_line_action(x[None], y[None], V.form, n_steps // s) for s in strides]
        return np.concatenate(
            [[_sums_weights(sums, x[None], y[None], t, V.form, line)[0, 0]
              for sums, line in zip(levels, lines)]
             for levels in _bridge_sums(gen, n_paths, n_steps, V.dim, strides)], axis=1)
    (alpha,) = _node_paths([gen], n_paths, n_steps, V.dim)
    return np.array(_one_shot_weights(alpha, x, y, t, V, strides))


@pytest.mark.parametrize("V, strides", [
    (harmonic(omega=1.3), (1,)),
    (stark(0.8), (4, 2, 1)),
    (dataclasses.replace(harmonic(dim=2), form=QuadraticForm(-0.2, (0.3, -0.6), 0.45)), (1,)),
], ids=["harmonic", "stark-strides", "dim-2-form"])
@pytest.mark.parametrize("count", [1, 2, 97, 200, 336, 401])
def test_units_are_the_means_of_each_path_and_its_mirror(monkeypatch, V, strides, count):
    # on the sums path the mirror is the path drawn as the negated sine coordinates -xi
    # (the node values' mirrors are checked against -alpha above); with an odd
    # count the last path is a unit alone.  Up to 200 paths (at most 100 drawn) every
    # path is a group of one; 336 paths are 168 drawn in 21 groups of 8 that share their
    # modes above 16, and 401 paths 201 drawn in 26 groups, the last of them the lone
    # path alone.  A group's unit is the mean of its paths' pair units
    n_steps, t = 64, 0.7
    # 13 paths per row block alone, 2 groups of 8 per block when they share
    monkeypatch.setattr(feynman_kac, "_BLOCK_ELEMENTS", 13 * n_steps * V.dim)
    x, y = np.full(V.dim, 0.4), np.full(V.dim, -0.3)
    got = _chunk_units(RngSeed(9).generator(2), count, n_steps, x, y, t, V, strides)
    drawn = -(-count // 2)
    group = 1 if count <= 200 else 8
    assert feynman_kac._sums_layout(drawn, n_steps, V.dim)[0] == group
    plus = _drawn_weights(RngSeed(9).generator(2), drawn, n_steps, x, y, t, V, strides)
    minus = _drawn_weights(_NegatedGenerator(RngSeed(9).generator(2)), drawn, n_steps, x, y, t,
                           V, strides)
    pairs = _pair_units(plus, minus, count // 2).T
    # summed in draw order, as the estimator sums them
    want = np.stack([sum(pairs[a:a + group]) / len(pairs[a:a + group])
                     for a in range(0, drawn, group)], axis=1)
    assert got.shape == (len(strides), -(-drawn // group))
    assert np.array_equal(got, want)
    if count % 2:
        assert np.array_equal(got[:, -1], plus[:, -1])


@pytest.mark.parametrize("count, n_steps, dim, strides", [
    (1, 8, 1, (1,)), (2, 1, 2, (1,)), (3001, 16, 3, (1,)), (3000, 256, 1, (16, 4, 1)),
])
def test_a_chunk_draws_the_normals_of_half_its_paths(count, n_steps, dim, strides):
    gen = _CountingGenerator(RngSeed(5).generator())
    V = harmonic(dim=dim)
    units = _chunk_units(gen, count, n_steps, np.zeros(dim), np.ones(dim), 1.0, V, strides)
    drawn = -(-count // 2)
    group = feynman_kac._sums_layout(drawn, n_steps, dim)[0]
    assert units.shape == (len(strides), -(-drawn // group))
    assert (sum(gen.drawn), len(gen.drawn)) == _layout_draws(drawn, n_steps, dim)


def _buffered_callers():
    """Per caller of `_sums_records`: its public call, as (numbers, flags), and the node
    pairs, strides and coefficients it reduces with."""
    # at t = 2.2 the heavy-tail rule flags 6 of the 9 node pairs and 1 of the 3 grids
    V, t, mc, rng = inverted_quadratic(1.0), 2.2, McConfig(501, 8), RngSeed(2)
    phi, psi = bump(width=1.0), bump(0.2, 1.0)

    def q():
        est = estimate_Q(0.3, -0.2, V, t, mc.n_samples, mc.n_steps, rng)
        return [est.mean, est.std_error], [est.divergence_suspected]

    def refine():
        rep = refine_steps(0.3, -0.2, V, t, mc.n_samples, [2, 4, 8], rng)
        return ([n for e in rep.estimates for n in (e.mean, e.std_error)]
                + list(rep.diff_means) + list(rep.diff_std_errors),
                [e.divergence_suspected for e in rep.estimates])

    def element():
        me = matrix_element(phi, psi, V, t, QuadratureConfig(3), mc, rng)
        return [me.value, me.std_error], [me.divergence_nodes]

    xs = _tensor_gauss_legendre(phi.support_box, 3)[0]
    ys = _tensor_gauss_legendre(psi.support_box, 3)[0]
    one = (np.array([[0.3]]), np.array([[-0.2]]))
    return {"estimate_Q": (q, *one, (1,), None),
            "refine_steps": (refine, *one, (4, 2, 1), None),
            "matrix_element": (element, xs, ys, (1,), np.linspace(0.5, 1.5, 9))}


@pytest.mark.parametrize("caller", ["estimate_Q", "refine_steps", "matrix_element"])
def test_a_small_unit_buffer_reduces_like_one_buffer(monkeypatch, caller):
    call, xs, ys, strides, coef = _buffered_callers()[caller]
    numbers, flags = call()
    # 501 paths: 251 units, in sums blocks of 100 // 7 = 14 paths.  The buffer holds
    # 100, 33 or 11 units, so it fills inside a sums block, and the chunk ends in a
    # ragged buffer
    monkeypatch.setattr(feynman_kac, "_BLOCK_ELEMENTS", 100)
    small_numbers, small_flags = call()
    np.testing.assert_allclose(small_numbers, numbers, rtol=1e-12)
    assert small_flags == flags
    # the same units reduced buffer by buffer and all at once
    args = (xs, ys, 2.2, inverted_quadratic(1.0).form, 8, strides)
    buffered = _sums_records(*args, coef, [RngSeed(2).generator()], 501)
    whole = np.concatenate([units.copy() for units in _sums_units(RngSeed(2).generator(), 501,
                                                                   *args)], axis=-1)
    assert whole.shape == (len(strides), len(xs) * len(ys), 251)
    one = _unit_records(whole, coef)
    assert len(buffered) == len(one) == 1 + (len(strides) > 1) + (coef is not None)
    for a, b in zip(buffered, one):
        assert a.n == b.n == 251
        np.testing.assert_allclose(a.mean, b.mean, rtol=1e-12)
        np.testing.assert_allclose(a.std_error, b.std_error, rtol=1e-12)
        assert np.array_equal(np.sort(a.top), np.sort(b.top))
        assert np.array_equal(a.heavy()[1], b.heavy()[1])


def test_heavy_mass_fraction_stays_at_most_one():
    # 20 paths are 10 units, all of them among the 10 heaviest: their sorted sum
    # exceeded the total, summed in another order, by one ulp
    est = estimate_Q(0.3, -0.2, stark(1.0), 1.0, 20, 8, RngSeed(0))
    assert est.heavy_mass_fraction == 1.0
    assert not est.divergence_suspected


# the clipped floor -0.01 lies above V = -0.5 x^2 at both ends (-0.045 and -0.02), so it binds
# at the pinned ends of every path and the clipped units spread for any stream
@pytest.mark.parametrize("V", [harmonic(), custom(_callable_harmonic, lambda eps: 0.0),
                               truncate(inverted_quadratic(0.5), 0.01)],
                         ids=["harmonic", "callable", "clipped"])
def test_n_samples_counts_paths(V):
    one = estimate_Q(0.3, -0.2, V, 0.8, 1, 8, RngSeed(4))
    # one path: a unit of its own, with no mirror and no spread
    alone = _drawn_weights(RngSeed(4).generator(0), 1, 8, np.array([0.3]), np.array([-0.2]), 0.8,
                           V, (1,))
    assert one.n_samples == 1 and one.std_error == 0.0
    if V.form is None or V.form.floor == -math.inf:
        assert one.mean == alone[0, 0]
    # odd, and across two chunks (the second holds one path, alone)
    for n_samples in (7, feynman_kac._CHUNK + 1):
        est = estimate_Q(0.3, -0.2, V, 0.8, n_samples, 4, RngSeed(4))
        assert est.n_samples == n_samples
        assert 0.0 < est.std_error < math.inf
    rep = refine_steps(0.3, -0.2, V, 0.8, 7, (2, 4), RngSeed(4))
    assert [e.n_samples for e in rep.estimates] == [7, 7]
    me = matrix_element(bump(width=0.5), bump(width=0.5), V, 0.8, QuadratureConfig(2),
                        McConfig(7, 4), RngSeed(4))
    assert me.mc_samples_per_node == 7


def test_heavy_tail_rule_counts_units():
    # the top 10 of n units hold at least 10/n of any positive total, so at the heavy
    # fraction 0.5 a row needs more than 20 units (40 paths) to be flagged for it
    for n_paths in (20, 22, 30):
        exact = estimate_Q(0.0, 0.0, zero(), 1.0, n_paths, 8, RngSeed(3))
        assert (exact.mean, exact.std_error) == (1.0, 0.0)
        assert exact.heavy_mass_fraction >= 10.0 / math.ceil(n_paths / 2)
        assert not exact.divergence_suspected
    heavy = np.ones(21)
    heavy[0] = 1e6
    for units, flagged in ((heavy[1:], False), (heavy[:20], False), (np.ones(21), False),
                           (heavy, True)):
        fraction, suspected = _Stats.of(units[None, :], top_k=10).heavy()
        assert bool(suspected[0]) is flagged
    assert fraction[0] > 0.99
    # at (30, 30) the harmonic weights are heavy-tailed: 40 paths (20 units) cannot be
    # flagged, 42 paths (21 units) are
    below = estimate_Q(30, 30, harmonic(), 1.0, 40, 64, RngSeed(1))
    above = estimate_Q(30, 30, harmonic(), 1.0, 42, 64, RngSeed(1))
    assert min(below.heavy_mass_fraction, above.heavy_mass_fraction) > 0.99
    assert not below.divergence_suspected
    assert above.divergence_suspected


def test_shared_path_units_pair_as_the_pointwise_units(monkeypatch):
    # one set of paths: each node's units are those of estimate_Q at that node with
    # key=(), also across a chunk boundary with an odd count and many weight blocks
    monkeypatch.setattr(feynman_kac, "_BLOCK_ELEMENTS", 4 * 37)
    phi, psi = bump(width=0.8), bump(0.3, 0.8)
    mc = McConfig(feynman_kac._CHUNK + 3, 4)
    me = matrix_element(phi, psi, stark(0.7), 0.6, QuadratureConfig(2), mc, RngSeed(8))
    xp, xw = _tensor_gauss_legendre(phi.support_box, 2)
    yp, yw = _tensor_gauss_legendre(psi.support_box, 2)
    want = sum(xw[i] * phi.evaluate(xp[i]) * yw[j] * psi.evaluate(yp[j])
               * free_kernel(xp[i], yp[j], 0.6)
               * estimate_Q(xp[i], yp[j], stark(0.7), 0.6, mc.n_samples, 4, RngSeed(8)).mean
               for i in range(2) for j in range(2))
    assert me.value == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n_samples", [feynman_kac._CHUNK - 1, feynman_kac._CHUNK + 1],
                         ids=["one chunk", "two chunks"])
@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("V", [truncate(inverted_quadratic(0.5), 1.0),
                               custom(_callable_harmonic, lambda eps: 0.0)],
                         ids=["truncated", "callable"])
def test_batched_node_pairs_equal_their_own_estimates(monkeypatch, V, workers, n_samples):
    # _CHUNK - 1 paths: each pair draws 16 384 paths, the last alone.  The truncation (two
    # rows: its floor and the control) weighs pairs 0-2 together and pair 3 alone, the
    # callable all four; a block of 3276 paths holds the end of pair 0 and the start of
    # pair 1, and each pair's paths span several blocks.  _CHUNK + 1 paths: chunk 0
    # draws 16 384 paths and chunk 1 one path alone, and each pair is weighed alone
    n_steps = 4
    monkeypatch.setattr(feynman_kac, "_BLOCK_ELEMENTS", 3 * 2 * 16384)
    blocks = _node_blocks([RngSeed(0).generator()] * 2, 16384, n_steps, 1)
    assert [(alpha.shape[1], spans) for alpha, spans, _ in itertools.islice(blocks, 6)][4:] == [
        (3276, [(0, 0, 0, 13104, 3276)]), (3276, [(0, 0, 0, 16380, 4), (1, 4, 4, 0, 3272)])]
    pair_estimates = feynman_kac._pair_estimates
    recorded = []

    def record(*args, **kwargs):
        recorded.append(pair_estimates(*args, **kwargs))
        return recorded[-1]

    monkeypatch.setattr(feynman_kac, "_pair_estimates", record)
    phi, psi = bump(width=0.8), bump(0.3, 0.8)
    mc = McConfig(n_samples, n_steps)
    matrix_element(phi, psi, V, 0.7, QuadratureConfig(2), mc, RngSeed(6), workers=workers)
    xp, _ = _tensor_gauss_legendre(phi.support_box, 2)
    yp, _ = _tensor_gauss_legendre(psi.support_box, 2)
    (pairs,) = recorded
    assert len(pairs) == 4
    for (i, j), (est,) in zip([(i, j) for i in range(2) for j in range(2)], pairs):
        assert est == estimate_Q(xp[i], yp[j], V, 0.7, mc.n_samples, n_steps, RngSeed(6),
                                 key=(i, j))


def test_callable_estimate_memory_stays_within_a_few_blocks():
    # one chunk's normals, 32 768 x 128 doubles, would take 33.5 MB; its bridges,
    # positions and potential values would each take as much again
    V = custom(_callable_harmonic, lambda eps: 0.0)
    tracemalloc.start()
    try:
        est = estimate_Q(0.3, -0.2, V, 1.0, 32768, 128, RngSeed(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.n_samples == 32768
    assert peak < 8e6


def _flat(v):
    if dataclasses.is_dataclass(v):
        v = dataclasses.astuple(v)
    if isinstance(v, tuple):
        return [x for item in v for x in _flat(item)]
    return [v]


@pytest.mark.parametrize("V, exact", [
    (custom(_callable_harmonic, lambda eps: 0.0), True),
    (truncate(stark(0.8), 0.5), True),
    # the sums of an unclipped form come from one matrix product per block,
    # whose rounding may follow the block's row count
    (harmonic(), False),
], ids=["callable", "truncation", "harmonic"])
def test_results_do_not_depend_on_the_block_size(monkeypatch, V, exact):
    def run():
        return (estimate_Q(0.4, -0.3, V, 0.8, 1000, 32, RngSeed(4)),
                refine_steps(0.4, -0.3, V, 0.8, 1000, (8, 16, 32), RngSeed(4)),
                matrix_element(bump(width=0.8), bump(0.2, 0.8), V, 0.8, QuadratureConfig(2),
                               McConfig(300, 16), RngSeed(4)))

    whole = run()
    monkeypatch.setattr(feynman_kac, "_BLOCK_ELEMENTS", 37 * 32)
    blocked = run()
    if exact:
        assert blocked == whole
    assert _flat(blocked) == pytest.approx(_flat(whole), rel=1e-12)


@pytest.mark.parametrize("V", [stark(0.8), harmonic(dim=2)], ids=["stark", "dim-2"])
def test_shared_mode_estimates_do_not_depend_on_blocks_or_workers(monkeypatch, V):
    # three chunks, in groups of 8 paths that share their modes above 16.  Blocks hold
    # whole groups and a group unit reads its own paths alone, so neither the row blocks
    # nor the threads that run the chunks move a bit
    def run(workers=1):
        return (estimate_Q(0.4, -0.3, V, 0.8, 2 * feynman_kac._CHUNK + 3001, 64, RngSeed(4),
                           workers=workers),
                matrix_element(bump(width=0.8, dim=V.dim), bump(0.2, 0.8, dim=V.dim), V, 0.8,
                               QuadratureConfig(2), McConfig(5001, 64), RngSeed(4),
                               workers=workers))

    whole = run()
    assert feynman_kac._sums_layout(feynman_kac._CHUNK // 2, 64, V.dim)[0] == 8
    assert run(workers=2) == whole
    # a few groups per row block, while each chunk's units still fill one buffer (the
    # records of several buffers merge in another order)
    monkeypatch.setattr(feynman_kac, "_BLOCK_ELEMENTS", 2**13)
    assert feynman_kac._sums_layout(feynman_kac._CHUNK // 2, 64, V.dim)[2] <= 27
    assert run() == whole


def test_unshared_layouts_reproduce_their_recorded_values():
    # up to 17 steps, or with at most 20 groups of 8 paths in a chunk, every path draws
    # all its modes alone: the values recorded before groups shared their high modes
    est = estimate_Q(0.3, -0.2, harmonic(), 1.0, 20000, 16, RngSeed(7))
    assert (est.mean, est.std_error) == (0.9117526972403069, 0.0006270812521629713)
    rep = refine_steps(0.3, -0.2, stark(1.0), 1.0, 20000, (4, 8, 16), RngSeed(7))
    assert [(e.mean, e.std_error) for e in rep.estimates] == [
        (0.9893535006893762, 0.0005443035234192544), (0.9912987345153932, 0.0005716528203464687),
        (0.9918129706466258, 0.0005781794410292013)]
    assert rep.diff_means == (0.0019452338260167572, 0.0005142361312327961)
    assert rep.diff_std_errors == (0.00017448595391729042, 8.715074240837319e-05)
    me = matrix_element(bump(width=0.8), bump(0.2, 0.8), inverted_quadratic(0.5), 0.8,
                        QuadratureConfig(3), McConfig(2000, 16), RngSeed(7))
    assert (me.value, me.std_error) == (0.04842094872271157, 8.54294945232019e-05)
    # 320 paths at 128 steps: 160 drawn paths would be 20 groups
    assert feynman_kac._sums_layout(160, 128, 1)[0] == 1
    assert feynman_kac._sums_layout(161, 128, 1)[0] == 8
    est = estimate_Q(0.3, -0.2, stark(1.0), 1.0, 320, 128, RngSeed(7))
    assert (est.mean, est.std_error) == (0.9967129600973603, 0.005249481647932332)
    rep = refine_steps(0.3, -0.2, harmonic(), 1.0, 320, (16, 64, 128), RngSeed(7))
    assert [(e.mean, e.std_error) for e in rep.estimates] == [
        (0.9089329253504218, 0.005445919609739252), (0.9087218420412455, 0.005387663199405582),
        (0.9087769644806165, 0.005407850510236063)]
    assert rep.diff_means == (-0.0002110833091762951, 5.5122439371125405e-05)
    assert rep.diff_std_errors == (0.00047232366583911293, 0.00011170731268009188)


def _z_band(z, sigmas: float = 3.5) -> tuple[float, float, float]:
    """|mean| and |sd - 1| of z-scores, and their bound: N standard normals have a mean of
    standard deviation 1 / sqrt(N) and a sample sd of about 1 / sqrt(2 (N - 1)); the bound
    is `sigmas` of the latter, and of the former `sigmas` / sqrt(N)."""
    n = len(z)
    return (abs(float(np.mean(z))) * math.sqrt(n), abs(float(np.std(z, ddof=1)) - 1.0)
            * math.sqrt(2.0 * (n - 1)), sigmas)


def test_shared_mode_error_bars_are_calibrated():
    # 8192 paths at 128 steps: 4096 drawn in 512 groups of 8 that share their modes above
    # 16, so every record counts group units.  Against the exact grid values the z-scores
    # of seeds 0-39 must keep mean and sd within 3.5 standard deviations of those of
    # standard normals (`_z_band`)
    t, n_steps, n_samples = 1.0, 128, 8192
    assert feynman_kac._sums_layout(n_samples // 2, n_steps, 1)[0] == 8
    # harmonic and stark(1) also as callables, weighed from the node values synthesized
    # from the same group rows, against the forms' exact grid values.  A clipped case
    # waits for an exact time-grid oracle of clipped potentials (the planned `grid_q`,
    # see ROADMAP.md): `gaussian_q` gives unclipped forms alone
    for V, x, y, form in ((harmonic(), 0.0, 0.0, None), (stark(1.0), 0.7, -0.6, None),
                          (inverted_quadratic(0.5), 0.3, 0.3, None),
                          (custom(harmonic().evaluate, lambda eps: 0.0), 0.0, 0.0,
                           harmonic().form),
                          (custom(stark(1.0).evaluate, lambda eps: 0.0), 0.7, -0.6,
                           stark(1.0).form)):
        exact = gaussian_q(x, y, form or V.form, t, n_steps)
        z = [(e.mean - exact) / e.std_error
             for e in (estimate_Q(x, y, V, t, n_samples, n_steps, RngSeed(k)) for k in range(40))]
        mean, sd, bound = _z_band(z)
        assert mean <= bound and sd <= bound
    # the finest difference of a restricted refinement reads the shared modes most: taken
    # over each path's units, its error bars fall about 15 % short (z sd 1.18 over these
    # seeds), against 2 % for the levels above.  400 seeds put its band at sd 1 +- 0.12
    V, x, y, schedule = harmonic(omega=2.0), 0.7, -0.6, (16, 32, 128)
    exact = gaussian_q(x, y, V.form, t, 128) - gaussian_q(x, y, V.form, t, 32)
    z = []
    for k in range(400):
        rep = refine_steps(x, y, V, t, n_samples, schedule, RngSeed(k))
        z.append((rep.diff_means[-1] - exact) / rep.diff_std_errors[-1])
    mean, sd, bound = _z_band(z)
    assert mean <= bound and sd <= bound


@pytest.mark.parametrize("V", [custom(_callable_harmonic, lambda eps: 0.0),
                               truncate(inverted_quadratic(0.5), 2.0), harmonic()],
                         ids=["callable", "truncation", "harmonic"])
def test_estimate_memory_does_not_grow_with_n_steps(V):
    # the whole chunk's normals alone would be 2048 x 4096 doubles, 67 MB
    for n_steps in (1024, 4096):
        tracemalloc.start()
        try:
            est = estimate_Q(0.3, -0.2, V, 0.5, 2048, n_steps, RngSeed(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.n_steps == n_steps
        assert peak < 32e6


def test_mc_config_validation():
    McConfig()
    with pytest.raises(ValueError):
        McConfig(n_samples=0)
    with pytest.raises(ValueError):
        McConfig(n_steps=0)
    with pytest.raises(ValueError):
        McConfig(n_samples=2.5)
    with pytest.raises(ValueError):
        McConfig(n_steps=True)
    with pytest.raises(ValueError):
        QuadratureConfig(nodes_per_axis=0)
    # True would run with one node; 2.0 would fail later inside numpy
    for nodes in (True, 2.0):
        with pytest.raises(ValueError, match="nodes_per_axis"):
            QuadratureConfig(nodes)


def test_bump_support_and_smoothness():
    phi = bump(center=0.5, width=2.0)
    assert phi.kind == "compact"
    assert phi.support_box == ((-1.5,), (2.5,))
    vals = phi.evaluate(np.array([[0.5], [2.5], [3.0], [-1.5]]))
    assert vals[0] == pytest.approx(math.exp(-1.0))
    assert vals[1] == 0.0
    assert vals[2] == 0.0
    assert vals[3] == 0.0


def test_gaussian_box_carries_requested_tail_mass():
    psi = gaussian(sigma=2.0, tail_mass=1e-8)
    (lo,), (hi,) = psi.support_box
    assert hi == -lo
    # per-axis mass outside the box: erfc(r / sigma)
    assert math.erfc(hi / 2.0) == pytest.approx(1e-8, rel=1e-3)
    assert psi.evaluate(np.array([[0.0]]))[0] == 1.0


@pytest.mark.parametrize("make", [
    lambda: bump(width=math.nan),
    lambda: bump(width=math.inf),
    lambda: bump(center=math.nan),
    lambda: bump(center=(0.0, math.inf), dim=2),
    lambda: gaussian(sigma=math.nan),
    lambda: gaussian(sigma=math.inf),
    lambda: gaussian(center=math.nan),
], ids=["bump-width-nan", "bump-width-inf", "bump-center-nan", "bump-center-inf",
        "gaussian-sigma-nan", "gaussian-sigma-inf", "gaussian-center-nan"])
def test_wavefunction_factories_reject_non_finite_parameters(make):
    with pytest.raises(ValueError, match="finite"):
        make()


def test_wavefunction_validation():
    with pytest.raises(ValueError):
        Wavefunction(dim=1, evaluate=lambda p: p, support_box=((1.0,), (-1.0,)),
                     kind="compact")
    for box in (((math.nan,), (1.0,)), ((-1.0,), (math.nan,))):
        with pytest.raises(ValueError, match="NaN"):
            Wavefunction(dim=1, evaluate=lambda p: p, support_box=box, kind="compact")
    with pytest.raises(ValueError):
        Wavefunction(dim=1, evaluate=lambda p: p, support_box=((-1.0,), (1.0,)),
                     kind="mystery")


@pytest.mark.parametrize("make", [
    lambda: bump(dim=0),
    lambda: bump(dim=True),
    lambda: gaussian(dim=0),
    lambda: Wavefunction(dim=1.0, evaluate=lambda p: p, support_box=((-1.0,), (1.0,)),
                         kind="compact"),
    lambda: harmonic(dim=True),
    lambda: zero(dim=False),
], ids=["bump-0", "bump-true", "gaussian-0", "wavefunction-float", "harmonic-true",
        "zero-false"])
def test_dimensions_must_be_positive_integers(make):
    # dim 0 would build a zero-dimensional bump or divide by zero in gaussian; True would pass as 1
    with pytest.raises(ValueError, match="dim"):
        make()


def test_matrix_element_free_case_equals_kernel_quadrature():
    phi = bump(center=-0.3, width=0.8)
    psi = bump(center=0.5, width=1.1)
    t = 0.9
    me = matrix_element(phi, psi, zero(), t, QuadratureConfig(16),
                        McConfig(n_samples=50, n_steps=4), RngSeed(0))
    assert me.std_error == 0.0
    xp, xw = _tensor_gauss_legendre(phi.support_box, 16)
    yp, yw = _tensor_gauss_legendre(psi.support_box, 16)
    fx = phi.evaluate(xp)
    fy = psi.evaluate(yp)
    K = np.array([[free_kernel(a[0], b[0], t) for b in yp] for a in xp])
    want = float((xw * fx) @ K @ (yw * fy))
    assert me.value == pytest.approx(want, rel=1e-13)
    assert me.quadrature_nodes == 256
    assert me.mc_samples_per_node == 50
    assert me.divergence_nodes == 0


def test_matrix_element_harmonic_against_mehler_quadrature():
    phi = bump(width=1.0)
    psi = bump(width=1.0)
    t = 0.5
    me = matrix_element(phi, psi, harmonic(), t, QuadratureConfig(20),
                        McConfig(n_samples=4000, n_steps=32), RngSeed(21), workers=2)
    xp, xw = _tensor_gauss_legendre(phi.support_box, 20)
    yp, yw = _tensor_gauss_legendre(psi.support_box, 20)
    K = np.array([[mehler_kernel(a[0], b[0], 1.0, t) for b in yp] for a in xp])
    want = float((xw * phi.evaluate(xp)) @ K @ (yw * psi.evaluate(yp)))
    assert abs(me.value - want) < max(4.0 * me.std_error, 1e-2 * abs(want))


def test_matrix_element_is_reproducible():
    phi = bump(width=0.7)
    psi = bump(center=0.2, width=0.7)
    cfg = McConfig(n_samples=400, n_steps=8)
    a = matrix_element(phi, psi, harmonic(), 0.4, QuadratureConfig(6), cfg, RngSeed(2))
    b = matrix_element(phi, psi, harmonic(), 0.4, QuadratureConfig(6), cfg, RngSeed(2),
                       workers=3)
    assert a.value == b.value
    assert a.std_error == b.std_error


def test_shared_path_matrix_element_is_worker_and_block_invariant(monkeypatch):
    # three keyed chunks, so the workers really split the draw
    phi = bump(width=0.8)
    psi = bump(center=0.3, width=0.8)
    cfg = McConfig(n_samples=2 * feynman_kac._CHUNK + 500, n_steps=4)
    args = (phi, psi, harmonic(), 0.6, QuadratureConfig(3), cfg, RngSeed(12))
    a = matrix_element(*args)
    b = matrix_element(*args, workers=3)
    assert a == b
    # many small bridge and weight blocks per chunk change only the summation order
    monkeypatch.setattr(feynman_kac, "_BLOCK_ELEMENTS", 9 * 1000)
    c = matrix_element(*args)
    assert c.value == pytest.approx(a.value, rel=1e-12)
    assert c.std_error == pytest.approx(a.std_error, rel=1e-9)
    assert c.divergence_nodes == a.divergence_nodes


class _DrawLoggingGenerator:
    """Generator proxy that logs ("draw", key) before every draw."""

    def __init__(self, gen, key, events):
        self.gen, self.key, self.events = gen, key, events

    def standard_normal(self, *, out):
        self.events.append(("draw", self.key))
        return self.gen.standard_normal(out=out)


@dataclasses.dataclass(frozen=True)
class _DrawLoggingSeed(RngSeed):
    """RngSeed that logs ("open", key) for every generator it opens, and its draws."""

    events: list = dataclasses.field(default_factory=list, compare=False)

    def generator(self, *key):
        self.events.append(("open", key))
        return _DrawLoggingGenerator(super().generator(*key), key, self.events)


@pytest.mark.parametrize("V", [harmonic(), truncate(inverted_quadratic(0.5), 1.0)],
                         ids=["sums", "walk"])
def test_a_chunk_opens_its_stream_when_it_is_drawn(V):
    # no stream is held open while earlier chunks are drawn
    rng = _DrawLoggingSeed(3)
    estimate_Q(0.3, -0.2, V, 1.0, 2 * feynman_kac._CHUNK + 1, 2, rng)
    events = [e for k, e in enumerate(rng.events) if k == 0 or e != rng.events[k - 1]]
    assert events == [(kind, (c,)) for c in range(3) for kind in ("open", "draw")]


def test_shared_path_matrix_element_opens_one_stream_per_chunk(counting_seed):
    phi = bump(width=1.0)
    args = (phi, phi, stark(0.7), 0.5, QuadratureConfig(8))
    rng = counting_seed(3)
    matrix_element(*args, McConfig(n_samples=feynman_kac._CHUNK + 1, n_steps=4), rng)
    assert rng.opened == [(0,), (1,)]
    # a clipped form keeps one stream per node pair
    clipped = counting_seed(3)
    matrix_element(phi, phi, truncate(stark(0.7), 1.0), 0.5, QuadratureConfig(2),
                   McConfig(n_samples=10, n_steps=4), clipped)
    assert clipped.opened == [(i, j, 0) for i in range(2) for j in range(2)]


def test_shared_path_std_error_matches_spread_over_seeds():
    # shared paths correlate the nodes; the error bar must still match the
    # spread of independent runs (a per-node formula would be ~3x too small)
    phi = bump(width=1.0)
    psi = bump(center=0.5, width=1.0)
    runs = [matrix_element(phi, psi, harmonic(), 0.5, QuadratureConfig(6),
                           McConfig(n_samples=400, n_steps=16), RngSeed(500 + k))
            for k in range(30)]
    spread = float(np.std([r.value for r in runs], ddof=1))
    reported = float(np.mean([r.std_error for r in runs]))
    assert 0.6 < spread / reported < 1.5


def test_shared_path_error_bar_survives_tiny_weights():
    # weights near 1e-185 at (30, 30): the squares of their per-path totals underflow
    # unless scaled; shifting V by -425 scales every weight by e^{425 t} and nothing else
    args = (bump(30.0, 0.5), bump(30.0, 0.5))
    cfg = (1.0, QuadratureConfig(4), McConfig(2000, 64), RngSeed(1))
    tiny = matrix_element(*args, harmonic(), *cfg)
    assert 0.0 < tiny.std_error < math.inf
    lifted = dataclasses.replace(harmonic(), form=QuadraticForm(0.5, (0.0,), -425.0))
    unit = matrix_element(*args, lifted, *cfg)
    assert unit.value > 1e-3
    assert tiny.value == pytest.approx(unit.value * math.exp(-425.0), rel=1e-9)
    assert tiny.std_error == pytest.approx(unit.std_error * math.exp(-425.0), rel=1e-9)


def test_shared_path_matrix_element_memory_is_blocked():
    # a dense 1024-pair x 20 000-path weight matrix alone would take 164 MB
    phi = bump(width=1.0)
    tracemalloc.start()
    try:
        me = matrix_element(phi, phi, harmonic(), 0.5, QuadratureConfig(32),
                            McConfig(n_samples=20_000, n_steps=4), RngSeed(8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert me.quadrature_nodes == 1024
    assert peak < 8e6


def test_matrix_element_counts_divergent_nodes():
    phi = bump(width=1.0)
    psi = bump(width=1.0)
    me = matrix_element(phi, psi, inverted_quadratic(1.0), 3.0, QuadratureConfig(4),
                        McConfig(n_samples=2000, n_steps=32), RngSeed(6), workers=2)
    assert me.divergence_nodes > 0


def test_matrix_element_rejects_unbounded_support():
    unbounded = Wavefunction(
        dim=1, evaluate=lambda p: np.ones(p.shape[:-1]),
        support_box=((-math.inf,), (math.inf,)), kind="gaussian-weighted",
    )
    with pytest.raises(ValueError):
        matrix_element(unbounded, bump(), zero(), 1.0, QuadratureConfig(4),
                       McConfig(n_samples=10, n_steps=2), RngSeed(0))


def test_refine_steps_validation():
    with pytest.raises(ValueError):
        refine_steps(0.0, 0.0, zero(), 1.0, 100, [8], RngSeed(0))
    with pytest.raises(ValueError):
        refine_steps(0.0, 0.0, zero(), 1.0, 100, [8, 8], RngSeed(0))
    with pytest.raises(ValueError):
        refine_steps(0.0, 0.0, zero(), 1.0, 100, [8, 12, 32], RngSeed(0),
                     mode="restricted")
    with pytest.raises(ValueError):
        refine_steps(0.0, 0.0, zero(), 1.0, 100, [8, 16], RngSeed(0), mode="magic")
    # a step count below 1 would be a reversed or zero stride in restricted mode,
    # and a fractional one must not be truncated to a different grid
    for mode in ("restricted", "independent"):
        for schedule in ([-2, 4], [0, 4], [2.5, 5]):
            with pytest.raises(ValueError):
                refine_steps(0.0, 0.0, harmonic(), 1.0, 200, schedule, RngSeed(1), mode=mode)
        rep = refine_steps(0.0, 0.0, harmonic(), 1.0, 200, np.array([2, 4]), RngSeed(1), mode=mode)
        assert rep.schedule == (2, 4)


def test_refine_steps_memory_stays_near_the_normals_buffer():
    # the finest grid's normals, 8192 x 256 doubles, are never held at once:
    # each 1 MB block of them is drawn, made the bridge in place and summed
    # for every level before the next is drawn
    buffer = 8192 * 256 * 8
    block = feynman_kac._BLOCK_ELEMENTS * 8
    tracemalloc.start()
    try:
        rep = refine_steps(0.3, -0.2, harmonic(), 1.0, 8192, (16, 32, 64, 128, 256), RngSeed(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rep.estimates) == 5
    assert peak < 3 * block < buffer


def test_refine_steps_free_case_differences_vanish():
    rep = refine_steps(0.3, -0.1, zero(), 1.0, 2000, [4, 8, 16], RngSeed(1),
                       mode="restricted")
    assert rep.diff_means == (0.0, 0.0)
    assert rep.diff_std_errors == (0.0, 0.0)
    assert rep.fitted_order is None


def test_refine_steps_restricted_resolves_harmonic_bias():
    # the finest difference is about 6.1e-5 (exact grid values): 120 000 paths put it
    # about 7.5 standard errors from zero, so the 4-sigma check fails for few draws
    rep = refine_steps(0.0, 0.0, harmonic(), 1.0, 120_000, [8, 16, 32, 64],
                       RngSeed(13), mode="restricted", workers=2)
    # trapezoid bias shrinks the action deficit: finer grids lower Q
    assert all(d < 0.0 for d in rep.diff_means)
    assert all(abs(d) > 4.0 * e for d, e in zip(rep.diff_means, rep.diff_std_errors))
    assert rep.fitted_order is not None
    assert 1.4 < rep.fitted_order < 2.6


def test_refine_steps_modes_are_reproducible():
    for mode in ("restricted", "independent"):
        a = refine_steps(0.1, 0.2, harmonic(), 0.8, 3000, [4, 8, 16], RngSeed(7),
                         mode=mode)
        b = refine_steps(0.1, 0.2, harmonic(), 0.8, 3000, [4, 8, 16], RngSeed(7),
                         mode=mode, workers=4)
        assert a.diff_means == b.diff_means
        assert a.diff_std_errors == b.diff_std_errors


def test_restricted_coarse_level_matches_direct_estimate_law():
    # restriction reuses the fine stream, so the coarse estimate differs from
    # a direct run, but both see the same grid law; check statistical accord
    V = harmonic()
    rep = refine_steps(0.0, 0.0, V, 1.0, 30_000, [8, 32], RngSeed(19),
                       mode="restricted")
    direct = estimate_Q(0.0, 0.0, V, 1.0, 30_000, 8, RngSeed(23))
    coarse = rep.estimates[0]
    err = math.hypot(coarse.std_error, direct.std_error)
    assert abs(coarse.mean - direct.mean) < 4.0 * err


def _inverted_callable(c):
    return custom(lambda p: -c * np.square(p).sum(axis=-1), lambda eps: math.inf)


def test_clipped_form_reads_the_exact_grid_value_where_no_floor_binds():
    # harmonic >= 0 > -1: the floor never binds, so w = w_ref on every path
    exact = gaussian_q(0.3, 0.2, harmonic().form, 1.0, 16)
    est = estimate_Q(0.3, 0.2, truncate(harmonic(), 1.0), 1.0, 500, 16, RngSeed(2))
    assert est.mean == exact
    assert est.std_error == 0.0
    # the flag and the heavy-mass fraction still come from the plain weights (the
    # callable's positions and the form's even and odd parts round differently)
    plain = estimate_Q(0.3, 0.2, truncate(custom(_callable_harmonic, lambda eps: 0.0), 1.0),
                       1.0, 500, 16, RngSeed(2))
    assert est.heavy_mass_fraction == pytest.approx(plain.heavy_mass_fraction, rel=1e-12)
    assert est.divergence_suspected == plain.divergence_suspected
    # far out, the plain mean underflows in its squares; the control does not
    far = estimate_Q(30.0, 30.0, truncate(harmonic(), 1.0), 1.0, 2000, 64, RngSeed(1))
    assert far.mean == pytest.approx(2.1655e-181, rel=1e-4, abs=0.0)


def test_exact_controlled_level_is_not_flagged():
    # plain weights at (30, 30) are heavy-tailed, but the floor never binds: the level is exact
    est = estimate_Q(30, 30, truncate(harmonic(), 1.0), 1.0, 2000, 64, RngSeed(1))
    assert est.mean == gaussian_q(30, 30, harmonic().form, 1.0, 64)
    assert est.std_error == 0.0
    assert not est.divergence_suspected
    plain = estimate_Q(30, 30, truncate(custom(_callable_harmonic, lambda eps: 0.0), 1.0), 1.0,
                       2000, 64, RngSeed(1))
    assert plain.divergence_suspected
    assert est.heavy_mass_fraction == pytest.approx(plain.heavy_mass_fraction, rel=1e-12)


def test_clipped_form_control_variate_agrees_with_plain_weights():
    V, t, n_steps = inverted_quadratic(0.5), 1.0, 32
    for x, y, level in ((0.0, 0.0, 1.0), (0.7, -0.7, 2.0)):
        est = estimate_Q(x, y, truncate(V, level), t, 4000, n_steps, RngSeed(4))
        plain = estimate_Q(x, y, truncate(_inverted_callable(0.5), level), t, 40000, n_steps,
                           RngSeed(6))
        assert abs(est.mean - plain.mean) <= 5.0 * math.hypot(est.std_error, plain.std_error)
        # same paths, same floor: the differences spread far less than the weights
        same_paths = estimate_Q(x, y, truncate(_inverted_callable(0.5), level), t, 4000,
                                n_steps, RngSeed(4))
        assert est.std_error < same_paths.std_error / 5.0
        assert est.heavy_mass_fraction == pytest.approx(same_paths.heavy_mass_fraction,
                                                        rel=1e-12)


@pytest.mark.parametrize("t", [2.0, 3.0])
def test_clipped_form_keeps_plain_weights_where_the_control_has_infinite_variance(t):
    # the doubled form of -x^2 diverges for 2 t > pi (on the grid, a little earlier)
    doubled = QuadraticForm(-2.0, (0.0,), 0.0)
    assert gaussian_q(0.2, -0.1, doubled, t, 32) is DIVERGENT
    est = estimate_Q(0.2, -0.1, truncate(inverted_quadratic(1.0), 4.0), t, 3000, 32,
                     RngSeed(4))
    plain = estimate_Q(0.2, -0.1, truncate(_inverted_callable(1.0), 4.0), t, 3000, 32,
                       RngSeed(4))
    # the same weights up to rounding: the form is weighed from its even and odd parts
    assert (est.n_samples, est.n_steps, est.divergence_suspected) == (
        plain.n_samples, plain.n_steps, plain.divergence_suspected)
    for field in ("mean", "std_error", "heavy_mass_fraction"):
        assert getattr(est, field) == pytest.approx(getattr(plain, field), rel=1e-12)


@pytest.mark.parametrize("t, weighed", [(1.0, [-4.0, -math.inf]), (2.5, [-4.0])])
def test_the_control_row_is_weighed_only_where_a_reference_exists(monkeypatch, t, weighed):
    # above the doubled form's threshold w_ref has infinite variance: no Q_ref, no control
    walk_units = feynman_kac._walk_units
    floors = []

    def record(*args, **kwargs):
        floors.append(list(kwargs["floors"]))
        return walk_units(*args, **kwargs)

    monkeypatch.setattr(feynman_kac, "_walk_units", record)
    estimate_Q(0.2, -0.1, truncate(inverted_quadratic(1.0), 4.0), t, 100, 8, RngSeed(4))
    assert floors == [weighed]


@pytest.mark.parametrize("n_steps, threshold", [(16, 2.21787), (128, 2.22139)])
def test_control_variate_switches_at_the_doubled_forms_grid_threshold(n_steps, threshold):
    # the doubled form of -x^2 / 2 is -x^2, whose grid Q diverges at `threshold`;
    # at level 1e6 no floor binds, so a controlled estimate is exact
    V = truncate(inverted_quadratic(0.5), 1e6)
    below = estimate_Q(0.0, 0.0, V, threshold - 1e-4, 200, n_steps, RngSeed(1))
    assert below.std_error == 0.0
    assert below.mean == gaussian_q(0.0, 0.0, inverted_quadratic(0.5).form, threshold - 1e-4,
                                    n_steps)
    above = estimate_Q(0.0, 0.0, V, threshold + 1e-4, 200, n_steps, RngSeed(1))
    assert above.std_error > 0.0


def test_clipped_matrix_element_reads_the_exact_grid_value_where_no_floor_binds():
    phi = bump(width=1.0)
    quadrature, mc = QuadratureConfig(3), McConfig(n_samples=50, n_steps=8)
    me = matrix_element(phi, phi, truncate(harmonic(), 2.0), 0.7, quadrature, mc, RngSeed(1))
    assert me.std_error == 0.0
    pts, wts = feynman_kac._tensor_gauss_legendre(phi.support_box, 3)
    f = wts * phi.evaluate(pts)
    exact = sum(f[i] * f[j] * free_kernel(pts[i], pts[j], 0.7)
                * gaussian_q(pts[i], pts[j], harmonic().form, 0.7, 8)
                for i in range(3) for j in range(3))
    assert me.value == pytest.approx(exact, rel=1e-12)
