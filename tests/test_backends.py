import math
import types

import numpy as np
import pytest

from bridgekac import _kernels_py, backend
from bridgekac.convergence import q_truncation_study
from bridgekac.feynman_kac import McConfig, QuadratureConfig, bump, estimate_Q, matrix_element, refine_steps
from bridgekac.potentials import QuadraticForm, harmonic, inverted_quadratic, stark, truncate
from bridgekac.stochastic import RngSeed, bridge_values

needs_compiled = pytest.mark.skipif(
    not backend.HAVE_COMPILED, reason="compiled kernels not built"
)


def _paths(n_paths=64, n_steps=32, dim=1, seed=5):
    xi = RngSeed(seed).generator().standard_normal((n_paths, n_steps, dim))
    return bridge_values(xi)


def _reference_weights(alpha, x, y, t, form):
    # independent re-derivation: trapezoid action per path, plain python
    n_paths, n_nodes, dim = alpha.shape
    n = n_nodes - 1
    out = np.empty(n_paths)
    lin = np.asarray(form.lin)
    for i in range(n_paths):
        acc = 0.0
        for k in range(n_nodes):
            u = k / n
            pos = (1.0 - u) * np.asarray(x) + u * np.asarray(y) + math.sqrt(t) * alpha[i, k]
            v = form.quad * float(pos @ pos) + float(pos @ lin) + form.const
            v = max(v, form.floor)
            acc += 0.5 * v if k in (0, n) else v
        out[i] = math.exp(-acc * t / n)
    return out


def test_python_backend_matches_reference():
    alpha = _paths()
    form = QuadraticForm(0.5, (0.3,), -0.1, floor=-2.0)
    got = backend.quadratic_weights(alpha, 0.4, -0.7, 0.9, form, backend="python")
    want = _reference_weights(alpha, np.array([0.4]), np.array([-0.7]), 0.9, form)
    np.testing.assert_allclose(got, want, rtol=1e-12)


@needs_compiled
def test_backends_agree_to_tight_relative_tolerance():
    for form, dim in [
        (QuadraticForm(0.5, (0.0,), 0.0), 1),
        (QuadraticForm(0.0, (1.0,), 0.0), 1),
        (QuadraticForm(-0.05, (0.0,), 0.0, floor=-3.0), 1),
        (QuadraticForm(0.25, (0.1, -0.2), 0.05, floor=-1.0), 2),
    ]:
        alpha = _paths(n_paths=256, n_steps=48, dim=dim, seed=9)
        a = backend.quadratic_weights(alpha, 0.3, -0.2, 1.3, form, backend="python")
        b = backend.quadratic_weights(alpha, 0.3, -0.2, 1.3, form, backend="compiled")
        np.testing.assert_allclose(a, b, rtol=1e-12)


@needs_compiled
def test_default_backend_prefers_compiled():
    assert backend.DEFAULT_BACKEND == "compiled"
    assert backend.available_backends() == ("compiled", "python")


def test_backend_rejects_unknown_name():
    alpha = _paths(n_paths=4)
    form = QuadraticForm(0.5, (0.0,), 0.0)
    with pytest.raises(ValueError):
        backend.quadratic_weights(alpha, 0.0, 0.0, 1.0, form, backend="fortran")


def _entry_points(V, name):
    return [
        lambda: estimate_Q(0.1, 0.2, V, 1.0, 16, 4, RngSeed(0), backend=name),
        lambda: refine_steps(0.1, 0.2, V, 1.0, 16, [2, 4], RngSeed(0), backend=name),
        lambda: matrix_element(bump(), bump(), V, 1.0, QuadratureConfig(2),
                               McConfig(n_samples=4, n_steps=2), RngSeed(0), backend=name),
    ]


@pytest.mark.parametrize("V", [harmonic(), truncate(inverted_quadratic(0.5), 1.0)])
def test_entry_points_validate_backend(V, monkeypatch):
    # unclipped forms never call the kernel, so the entry point must check
    for call in _entry_points(V, "fortran"):
        with pytest.raises(ValueError):
            call()
    monkeypatch.setattr(backend, "HAVE_COMPILED", False)
    for call in _entry_points(V, "compiled"):
        with pytest.raises(RuntimeError):
            call()


def test_backend_validates_shapes():
    form = QuadraticForm(0.5, (0.0,), 0.0)
    with pytest.raises(ValueError):
        backend.quadratic_weights(np.zeros((4, 5)), 0.0, 0.0, 1.0, form)
    with pytest.raises(ValueError):
        backend.quadratic_weights(np.zeros((4, 1, 1)), 0.0, 0.0, 1.0, form)
    with pytest.raises(ValueError):
        backend.quadratic_weights(np.zeros((4, 5, 1)), 0.0, 0.0, -1.0, form)
    with pytest.raises(ValueError):
        backend.quadratic_weights(
            np.zeros((4, 5, 2)), 0.0, 0.0, 1.0, QuadraticForm(0.5, (0.0,), 0.0)
        )


def test_catalog_forms_match_their_evaluate():
    # the QuadraticForm fast path and the vectorized evaluate are twins
    pts = np.linspace(-6.0, 6.0, 25)[:, None]
    for V in [harmonic(omega=1.7), stark(-0.8), inverted_quadratic(0.3),
              truncate(inverted_quadratic(1.0), 5.0)]:
        f = V.form
        direct = f.quad * np.square(pts[:, 0]) + f.lin[0] * pts[:, 0] + f.const
        direct = np.maximum(direct, f.floor)
        np.testing.assert_allclose(V.evaluate(pts), direct, rtol=0, atol=1e-14)


def test_weights_respect_floor_clipping():
    alpha = _paths(n_paths=32, n_steps=16, seed=2)
    deep = QuadraticForm(-1.0, (0.0,), 0.0)
    clipped = QuadraticForm(-1.0, (0.0,), 0.0, floor=-0.5)
    w_deep = backend.quadratic_weights(alpha, 2.0, 2.0, 1.0, deep, backend="python")
    w_clip = backend.quadratic_weights(alpha, 2.0, 2.0, 1.0, clipped, backend="python")
    # the floor raises the potential, so clipped weights are never larger
    assert np.all(w_clip <= w_deep)
    assert np.any(w_clip < w_deep)


def test_out_argument_is_used():
    alpha = _paths(n_paths=8)
    form = QuadraticForm(0.5, (0.0,), 0.0)
    out = np.empty(8)
    got = backend.quadratic_weights(alpha, 0.0, 0.0, 1.0, form, backend="python", out=out)
    assert got is out


def test_compiled_kernel_runs_once_per_level_on_shared_paths(monkeypatch):
    # a stand-in extension: the numpy kernel, logging the floor of each call
    floors = []

    def kernel(alpha, x, y, t, quad, lin, const, floor, out):
        floors.append(floor)
        return _kernels_py.quadratic_weights(alpha, x, y, t, quad, lin, const, floor, out)

    monkeypatch.setattr(backend, "_compiled", types.SimpleNamespace(quadratic_weights=kernel))
    monkeypatch.setattr(backend, "HAVE_COMPILED", True)
    levels = [1.0, 2.0, math.inf]
    mc = McConfig(n_samples=100, n_steps=8)
    args = (0.3, -0.2, inverted_quadratic(0.5), 1.0, levels, mc, RngSeed(2))
    compiled = q_truncation_study(*args, backend="compiled")
    assert floors == [-1.0, -2.0, -math.inf]
    assert compiled == q_truncation_study(*args, backend="python")
