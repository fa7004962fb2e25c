"""Tests for the band representation of spherical polynomials."""

import math

import numpy as np
import pytest

from sphinterp import (
    InputError,
    SphericalPoly,
    basis_index_order,
    fold_azimuth_modes,
    multiply_linear_z,
    poly,
    random_spherical,
    spherical_from_vector,
    zero,
    zero_spherical,
)


def band_poly(n, k, kind, coeffs):
    a = [zero()] * (n + 1)
    b = [zero()] * (n + 1)
    if kind == "a":
        a[k] = poly(coeffs)
    else:
        b[k] = poly(coeffs)
    return SphericalPoly(degree=n, a=tuple(a), b=tuple(b))


def test_eval_constant():
    T = band_poly(0, 0, "a", [1.0])
    assert T.eval(0.3, 5.1) == 1.0


def test_eval_x_coordinate():
    # the k=1 cosine band with a_1 = 1 is x = sin(theta) cos(phi)
    T = band_poly(1, 1, "a", [1.0])
    assert T.eval(math.pi / 2, 0.0) == pytest.approx(1.0)
    th, ph = 0.7, 2.1
    assert T.eval(th, ph) == pytest.approx(math.sin(th) * math.cos(ph))


def test_eval_sine_band():
    # b_2 = 1 at (pi/2, pi/4): sin^2(pi/2) * sin(pi/2) = 1
    T = band_poly(2, 2, "b", [1.0])
    assert T.eval(math.pi / 2, math.pi / 4) == pytest.approx(1.0)


def test_z_is_the_linear_a0_band():
    T = band_poly(1, 0, "a", [0.0, 1.0])
    for th in (0.2, 1.1, 2.9):
        assert T.eval(th, 0.4) == pytest.approx(math.cos(th))


def test_degree_bounds_enforced():
    with pytest.raises(InputError):
        band_poly(2, 1, "a", [1.0, 2.0, 3.0])  # deg 2 > n - k = 1
    with pytest.raises(InputError):
        SphericalPoly(degree=1, a=(zero(), zero()), b=(poly([1.0]), zero()))


def test_basis_counts():
    assert len(basis_index_order(0)) == 1
    assert len(basis_index_order(1)) == 4
    assert len(basis_index_order(3)) == 16


def test_basis_order_is_deterministic():
    order = basis_index_order(2)
    assert order == [
        (0, "cos", 0),
        (0, "cos", 1),
        (0, "cos", 2),
        (1, "cos", 0),
        (1, "cos", 1),
        (1, "sin", 0),
        (1, "sin", 1),
        (2, "cos", 0),
        (2, "sin", 0),
    ]


def test_phi_wraparound_invariance():
    rng = np.random.default_rng(1)
    T = random_spherical(3, rng)
    for th, ph in [(0.4, 0.3), (1.2, 5.9), (2.8, 3.3)]:
        a = T.eval(th, ph)
        b = T.eval(th, ph + 2.0 * math.pi)
        assert a == pytest.approx(b, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_fixed_theta_slice_is_low_degree_trig(n):
    # discrete Fourier analysis at 4n azimuths: modes above n must vanish
    rng = np.random.default_rng(n)
    T = random_spherical(n, rng)
    theta = 1.234
    phis = np.arange(4 * n) * 2.0 * math.pi / (4 * n)
    vals = T.eval(theta, phis)
    spectrum = np.fft.rfft(vals) / (4 * n)
    assert np.max(np.abs(spectrum[n + 1 :])) < 1e-10


def test_coefficient_vector_roundtrip():
    rng = np.random.default_rng(2)
    T = random_spherical(4, rng)
    back = spherical_from_vector(4, T.coefficient_vector())
    assert np.allclose(back.coefficient_vector(), T.coefficient_vector(), atol=0.0)


def test_multiply_linear_z_matches_pointwise():
    rng = np.random.default_rng(3)
    T = random_spherical(2, rng)
    c = 0.37
    S = multiply_linear_z(T, c)
    assert S.degree == 3
    for th, ph in [(0.5, 0.1), (1.4, 2.2), (2.2, 4.0)]:
        assert S.eval(th, ph) == pytest.approx((math.cos(th) - c) * T.eval(th, ph))


def test_fold_constant_is_constant():
    T = band_poly(1, 0, "a", [1.0])
    for alpha in (0.0, 1.0, 0.37):
        folded = fold_azimuth_modes(T, alpha, 1)
        assert folded.a0.coeffs == (1.0,)
        assert folded.axial.is_zero()


def test_fold_alpha_zero_highband_signs():
    # at alpha = 0 the folded high bands are u = a_{2m-k}, v = -b_{2m-k}
    m = 3
    n = 2 * m - 1
    rng = np.random.default_rng(4)
    T = random_spherical(n, rng)
    folded = fold_azimuth_modes(T, 0.0, m)
    for idx in range(m - 1):
        k = idx + 1
        assert np.allclose(folded.cos_high[idx].coeffs, T.a[2 * m - k].coeffs)
        assert np.allclose(folded.sin_high[idx].coeffs, (-1.0 * T.b[2 * m - k]).coeffs)


def test_fold_high_band_degrees():
    m = 4
    rng = np.random.default_rng(5)
    T = random_spherical(2 * m - 1, rng)
    folded = fold_azimuth_modes(T, 0.37, m)
    for idx in range(m - 1):
        k = idx + 1
        assert folded.cos_high[idx].degree <= k - 1
        assert folded.sin_high[idx].degree <= k - 1


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("alpha", [0.0, 1.0, 0.37])
def test_fold_identity_on_grid(m, alpha):
    rng = np.random.default_rng(10 * m + int(10 * alpha))
    for _ in range(10):
        T = random_spherical(2 * m - 1, rng)
        folded = fold_azimuth_modes(T, alpha, m)
        theta = float(rng.uniform(0.1, math.pi - 0.1))
        for j in range(2 * m):
            phi = (2 * j + alpha) * math.pi / (2 * m)
            direct = float(T.eval(theta, phi))
            scale = max(1.0, abs(direct))
            assert abs(folded.eval(theta, phi) - direct) <= 1e-12 * scale


def test_fold_rejects_wrong_degree():
    with pytest.raises(InputError):
        fold_azimuth_modes(zero_spherical(4), 0.0, 2)  # degree 4 != 2m-1


def test_fold_rejects_off_grid_eval():
    T = band_poly(1, 0, "a", [1.0])
    folded = fold_azimuth_modes(T, 0.0, 1)
    with pytest.raises(InputError):
        folded.eval(0.8, 0.3)  # sin(phi) != 0


def test_eval_spherical_agrees_with_band_formula():
    # independent evaluation straight from the band definition
    rng = np.random.default_rng(6)
    n = 3
    T = random_spherical(n, rng)
    th, ph = 0.9, 2.7
    c, s = math.cos(th), math.sin(th)
    direct = float(T.a[0](c))
    for k in range(1, n + 1):
        direct += float(T.a[k](c)) * s**k * math.cos(k * ph)
        direct += float(T.b[k](c)) * s**k * math.sin(k * ph)
    assert T.eval(th, ph) == pytest.approx(direct, rel=1e-14)

