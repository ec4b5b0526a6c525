import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from bridgekac import feynman_kac
from bridgekac.backend import path_positions, quadratic_weights
from bridgekac.feynman_kac import (
    McConfig,
    QuadratureConfig,
    Wavefunction,
    action_integral,
    bump,
    estimate_Q,
    free_kernel,
    gaussian,
    l2_norm,
    matrix_element,
    refine_steps,
    _bridge_blocks,
    _bridge_sums,
    _chunk_weights,
    _estimates,
    _line_action,
    _matrix_elements,
    _position_blocks,
    _sums_weights,
    _tensor_gauss_legendre,
    _weights,
)
from bridgekac.oracles import mehler_kernel, stark_q
from bridgekac.potentials import (
    QuadraticForm, custom, harmonic, inverted_quadratic, stark, truncate, zero,
)
from bridgekac.stochastic import RngSeed, bridge_values, sample_bridge


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
    with pytest.raises(ValueError):
        action_integral(sample_bridge(1, 4, RngSeed(0)), harmonic(), 0.0, 0.0, t)
    phi = bump()
    rng = counting_seed(1)
    calls = [
        lambda: estimate_Q(0.0, 0.0, harmonic(), t, 100, 8, rng),
        lambda: _estimates(0.0, 0.0, harmonic(), t, 100, 8, rng, [-1.0], top_k=10,
                           heavy_fraction=0.5, workers=1),
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
    {"top_k": 0}, {"top_k": 2.5}, {"heavy_fraction": 1.5}, {"heavy_fraction": math.nan},
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
    xi = RngSeed(31).generator().standard_normal((128, n_steps, dim))
    alpha = bridge_values(xi)
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


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n_steps, strides, n_paths", [
    (1, (1,), 50),
    (7, (7, 1), 50),
    (256, (16, 8, 4, 2, 1), 100),
    (4096, (4096, 64, 1), 60),  # several row blocks per chunk at dim 3
])
def test_bridge_sums_match_trapezoid_sums_of_the_bridge(dim, n_steps, strides, n_paths):
    alpha = bridge_values(RngSeed(41).generator().standard_normal((n_paths, n_steps, dim)))
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


@pytest.mark.parametrize("ends", [False, True])
def test_bridge_blocks_are_the_rows_of_the_one_shot_bridge(monkeypatch, ends):
    # 13 rows per block: 100 paths are seven full blocks and a ragged one of 9
    monkeypatch.setattr(feynman_kac, "_BLOCK_ELEMENTS", 13 * 16 * 2)
    alpha = bridge_values(RngSeed(47).generator().standard_normal((100, 16, 2)))
    if ends:
        # nodes 0..n: the positions of pin-to-pin paths from 0 to 0 at t = 1
        blocks = _position_blocks(RngSeed(47).generator(), 100, 16, np.zeros(2), np.zeros(2),
                                  1.0)
    else:
        blocks = _bridge_blocks(RngSeed(47).generator(), 100, 16, 2)
    blocks = [b.copy() for b in blocks]
    assert [len(b) for b in blocks] == [13] * 7 + [9]
    assert np.array_equal(np.concatenate(blocks), alpha if ends else alpha[:, 1:])


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


@pytest.mark.parametrize("case", list(_STREAMED))
def test_streamed_weights_equal_one_shot_weights(monkeypatch, case):
    V, strides, floors = _STREAMED[case]
    n_paths, n_steps, t = 100, 16, 0.8
    # 13 rows per block: seven full blocks and a ragged one of 9
    monkeypatch.setattr(feynman_kac, "_BLOCK_ELEMENTS", 13 * n_steps * V.dim)
    x, y = np.full(V.dim, 0.4), np.full(V.dim, -0.3)
    got = _chunk_weights(RngSeed(3).generator(5), n_paths, n_steps, x, y, t, V, strides, floors)
    alpha = bridge_values(RngSeed(3).generator(5).standard_normal((n_paths, n_steps, V.dim)))
    want = [w for s in strides
            for w in _weights(path_positions(alpha[:, ::s], x, y, t), t, V, floors)]
    assert len(got) == len(want) == len(strides) * (1 if floors is None else len(floors))
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


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


def test_action_integral_trapezoid():
    path = sample_bridge(1, 8, RngSeed(4))
    x, y, t = 0.5, -0.25, 1.7
    V = harmonic(omega=1.3)
    got = action_integral(path, V, x, y, t)
    u = path.times
    pos = (1.0 - u)[:, None] * x + u[:, None] * y + math.sqrt(t) * path.values
    vals = V.evaluate(pos)
    want = float(np.trapezoid(vals, dx=1.0 / 8.0) * t)
    assert got == pytest.approx(want, rel=1e-14)


def test_mc_config_validation():
    McConfig()
    with pytest.raises(ValueError):
        McConfig(n_samples=0)
    with pytest.raises(ValueError):
        McConfig(n_steps=0)
    with pytest.raises(ValueError):
        McConfig(heavy_fraction=0.0)
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


def test_l2_norm_of_gaussian():
    # the support box drops tail_mass = 1e-8 of squared mass, so the norm
    # sits within ~0.5e-8 relative of the closed form
    psi = gaussian(sigma=1.0)
    assert l2_norm(psi) == pytest.approx(math.pi**0.25, rel=1e-7)


def test_wavefunction_validation():
    with pytest.raises(ValueError):
        Wavefunction(dim=1, evaluate=lambda p: p, support_box=((1.0,), (-1.0,)),
                     kind="compact")
    with pytest.raises(ValueError):
        Wavefunction(dim=1, evaluate=lambda p: p, support_box=((-1.0,), (1.0,)),
                     kind="mystery")


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
    # spread of independent runs (a per-node formula would be ~5x too small)
    phi = bump(width=1.0)
    psi = bump(center=0.5, width=1.0)
    runs = [matrix_element(phi, psi, harmonic(), 0.5, QuadratureConfig(6),
                           McConfig(n_samples=400, n_steps=16), RngSeed(500 + k))
            for k in range(30)]
    spread = float(np.std([r.value for r in runs], ddof=1))
    reported = float(np.mean([r.std_error for r in runs]))
    assert 0.6 < spread / reported < 1.5


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
    rep = refine_steps(0.0, 0.0, harmonic(), 1.0, 40_000, [8, 16, 32, 64],
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
