import math

import numpy as np
import pytest

from bridgekac import backend
from bridgekac.potentials import QuadraticForm, harmonic, inverted_quadratic, stark, truncate
from bridgekac.stochastic import RngSeed, bridge_values


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


@pytest.mark.parametrize("form, dim", [
    (QuadraticForm(0.5, (0.3,), -0.1, floor=-2.0), 1),
    (QuadraticForm(0.5, (0.0,), 0.0), 1),
    (QuadraticForm(0.0, (1.0,), 0.0), 1),
    (QuadraticForm(-0.05, (0.0,), 0.0, floor=-3.0), 1),
    (QuadraticForm(0.25, (0.1, -0.2), 0.05, floor=-1.0), 2),
])
def test_kernel_matches_reference(form, dim):
    alpha = _paths(n_paths=256, n_steps=48, dim=dim, seed=9)
    got = backend.quadratic_weights(alpha, 0.3, -0.2, 1.3, form)
    want = _reference_weights(alpha, np.full(dim, 0.3), np.full(dim, -0.2), 1.3, form)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_backend_validates_shapes():
    form = QuadraticForm(0.5, (0.0,), 0.0)
    with pytest.raises(ValueError):
        backend.quadratic_weights(np.zeros((4, 5)), 0.0, 0.0, 1.0, form)
    with pytest.raises(ValueError):
        backend.quadratic_weights(np.zeros((4, 1, 1)), 0.0, 0.0, 1.0, form)
    for t in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            backend.quadratic_weights(np.zeros((4, 5, 1)), 0.0, 0.0, t, form)
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
    w_deep = backend.quadratic_weights(alpha, 2.0, 2.0, 1.0, deep)
    w_clip = backend.quadratic_weights(alpha, 2.0, 2.0, 1.0, clipped)
    # the floor raises the potential, so clipped weights are never larger
    assert np.all(w_clip <= w_deep)
    assert np.any(w_clip < w_deep)


def test_out_argument_is_used():
    alpha = _paths(n_paths=8)
    form = QuadraticForm(0.5, (0.0,), 0.0)
    out = np.empty(8)
    got = backend.quadratic_weights(alpha, 0.0, 0.0, 1.0, form, out=out)
    assert got is out

