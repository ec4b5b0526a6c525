import math

import numpy as np
import pytest

from bridgekac.oracles import mehler_kernel, stark_q
from bridgekac.potentials import (
    QuadraticForm,
    TruncatedPotential,
    certify,
    custom,
    harmonic,
    inverted_quadratic,
    stark,
    truncate,
    zero,
)


def test_zero_potential():
    V = zero()
    assert V.dim == 1
    np.testing.assert_array_equal(V.evaluate(np.array([[0.0], [3.0], [-7.0]])), 0.0)
    assert V.growth_certificate(0.01) == 0.0
    assert V.form == QuadraticForm(0.0, (0.0,), 0.0)


def test_harmonic_values_and_certificate():
    V = harmonic(omega=2.0)
    pts = np.array([[0.0], [1.0], [-2.0]])
    np.testing.assert_allclose(V.evaluate(pts), [0.0, 2.0, 8.0])
    assert V.growth_certificate(1e-9) == 0.0
    with pytest.raises(ValueError):
        harmonic(omega=0.0)


def test_harmonic_multidim():
    V = harmonic(omega=1.0, dim=3)
    pts = np.array([[1.0, 2.0, 2.0]])
    np.testing.assert_allclose(V.evaluate(pts), [4.5])
    assert V.form.lin == (0.0, 0.0, 0.0)


def test_stark_certificate_is_tight():
    # V + eps x^2 + F^2/(4 eps) has a double root at x = -F / (2 eps)
    V = stark(1.0)
    eps = 0.1
    assert V.growth_certificate(eps) == pytest.approx(2.5)
    report = certify(V, eps, np.array([-5.0, -4.0, 0.0, 3.0]))
    assert report.passed
    assert report.worst_margin == pytest.approx(0.0, abs=1e-12)
    assert report.worst_point == (-5.0,)


def test_stark_rejects_zero_field():
    with pytest.raises(ValueError):
        stark(0.0)


def test_inverted_quadratic_certificate_boundary():
    V = inverted_quadratic(c=0.05)
    assert V.growth_certificate(0.05) == 0.0
    assert V.growth_certificate(0.2) == 0.0
    assert V.growth_certificate(0.049) == math.inf
    np.testing.assert_allclose(V.evaluate(np.array([[2.0]])), [-0.2])
    with pytest.raises(ValueError):
        inverted_quadratic(c=-1.0)


def test_certify_rejects_wrong_constant():
    V = stark(1.0)
    eps = 0.1
    report = certify(V, eps, np.array([-5.0]), c_eps=2.4)
    assert not report.passed
    assert report.worst_margin == pytest.approx(-0.1)


def test_truncate_evaluates_clipped_values():
    V = inverted_quadratic(c=1.0)
    Vn = truncate(V, 4.0)
    assert isinstance(Vn, TruncatedPotential)
    assert Vn.base is V
    assert Vn.level == 4.0
    pts = np.array([[0.0], [1.0], [3.0]])
    np.testing.assert_allclose(Vn.evaluate(pts), [0.0, -1.0, -4.0])
    # certificate of the truncation is its own bound
    assert Vn.growth_certificate(1e-6) == 4.0
    assert Vn.form.floor == -4.0
    assert "floor4" in Vn.name


def test_truncate_composes_with_existing_floor():
    V = truncate(truncate(inverted_quadratic(c=1.0), 2.0), 8.0)
    # inner floor -2 dominates
    assert V.form.floor == -2.0
    np.testing.assert_allclose(V.evaluate(np.array([[5.0]])), [-2.0])


def test_truncated_potential_certified_at_any_eps():
    Vn = truncate(inverted_quadratic(c=1.0), 3.0)
    report = certify(Vn, 1e-9, np.linspace(-50.0, 50.0, 101))
    assert report.passed


def test_custom_potential_roundtrip():
    V = custom(lambda p: np.cos(p[..., 0]), lambda eps: 1.0, name="cosine")
    assert V.form is None
    assert V.name == "cosine"
    np.testing.assert_allclose(V.evaluate(np.array([[0.0], [math.pi]])), [1.0, -1.0])
    assert certify(V, 0.5, np.linspace(-10, 10, 41)).passed


def test_certify_validation():
    V = zero()
    with pytest.raises(ValueError):
        certify(V, 0.0, np.array([1.0]))
    with pytest.raises(ValueError):
        certify(V, 0.1, np.zeros((0,)))
    with pytest.raises(ValueError):
        certify(zero(dim=2), 0.1, np.array([[1.0]]))


def test_truncate_rejects_nan_and_negative_levels():
    V = inverted_quadratic(c=0.5)
    for level in (math.nan, -1.0, -math.inf):
        with pytest.raises(ValueError):
            truncate(V, level)
    assert truncate(V, math.inf).form.floor == -math.inf


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("make", [
    harmonic,
    stark,
    inverted_quadratic,
    lambda v: mehler_kernel(0.3, -0.2, v, 1.0),
    lambda v: stark_q(0.3, -0.2, v, 1.0),
], ids=["harmonic", "stark", "inverted-quadratic", "mehler-omega", "stark-q-F"])
def test_catalog_and_closed_forms_reject_non_finite_parameters(make, bad):
    # a NaN or infinite parameter used to yield NaN forms, estimates and kernels
    with pytest.raises(ValueError, match="finite"):
        make(bad)
