"""Tests for the coefficient-array representation of spherical polynomials."""

import math

import numpy as np
import pytest

from sphinterp import (
    InputError,
    SphericalPoly,
    band_mask,
    basis_index_order,
    fold_azimuth_modes,
    multiply_linear_z,
    random_spherical,
    spherical_from_vector,
    zero_spherical,
)
from sphinterp.spherical import TOL_FOLD_GRID

from helpers import eval_per_point


def band_poly(n, k, kind, coeffs):
    coef = np.zeros((n + 1, n + 1, 2))
    coef[: len(coeffs), k, "ab".index(kind)] = coeffs
    return SphericalPoly(coef)


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
        band_poly(1, 0, "b", [1.0])  # there is no b_0


@pytest.mark.parametrize("shape", [(4, 4), (4, 3, 2), (3, 3, 3), (0, 0, 2)])
def test_constructor_rejects_wrong_shape(shape):
    with pytest.raises(InputError, match="shape"):
        SphericalPoly(np.zeros(shape))


@pytest.mark.parametrize("build", [zero_spherical, lambda n: spherical_from_vector(n, [1.0])])
@pytest.mark.parametrize("n", [-1, -2])
def test_negative_degree_is_input_error(build, n):
    with pytest.raises(InputError):
        build(n)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_constructor_rejects_non_finite_coefficients(bad):
    coef = np.zeros((3, 3, 2))
    coef[1, 2, 0] = bad  # outside the bands too: finiteness is checked first
    with pytest.raises(InputError, match=f"t\\*\\*1 in a_2 must be finite, got {bad!r}"):
        SphericalPoly(coef)


def test_constructor_rejects_every_slot_outside_the_bands():
    n = 3
    mask = band_mask(n)
    outside = np.argwhere(~mask)
    # the array has 2 (n + 1)**2 slots, (n + 1)**2 of them in the bands
    assert len(outside) == (n + 1) ** 2
    for k, kind, j in outside:
        coef = np.zeros((n + 1, n + 1, 2))
        coef[j, k, kind] = 1e-300
        with pytest.raises(InputError, match=f"{'ab'[kind]}_{k}"):
            SphericalPoly(coef)
    for k, kind, j in np.argwhere(mask):
        coef = np.zeros((n + 1, n + 1, 2))
        coef[j, k, kind] = 1.0
        assert SphericalPoly(coef).coefficient_vector().sum() == 1.0


def test_constructor_copies_and_freezes():
    coef = np.zeros((2, 2, 2))
    T = SphericalPoly(coef)
    coef[0, 0, 0] = 5.0
    assert T.coef[0, 0, 0] == 0.0
    with pytest.raises(ValueError):
        T.coef[0, 0, 0] = 1.0
    assert T.degree == 1


def test_eval_matches_scalar_horner_bit_for_bit():
    # reference: scalar Horner band by band, in the summation order of
    # SphericalPoly.eval; the two must agree exactly
    rng = np.random.default_rng(8)
    n = 7
    T = random_spherical(n, rng)
    theta = rng.uniform(0.0, math.pi, size=20)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=20)
    got = T.eval(theta, phi)
    for th, ph, value in zip(theta, phi, got):
        c, s = np.cos(th), np.sin(th)
        ref, sk = 0.0, 1.0
        for k in range(n + 1):
            a = b = 0.0 * c
            for j in range(n - k, -1, -1):
                a = a * c + T.coef[j, k, 0]
                b = b * c + T.coef[j, k, 1]
            if k == 0:
                ref = a
                continue
            sk = sk * s
            ref = ref + a * sk * np.cos(k * ph)
            ref = ref + b * sk * np.sin(k * ph)
        assert value == ref


@pytest.mark.parametrize("n", [0, 1, 7, 21])
def test_eval_once_per_distinct_angle_matches_per_point_eval(n):
    # the q x 2q grid of interpolate --eval-grid repeats each theta along a
    # row and each phi down a column; scattered points repeat neither, and
    # a scalar against an array broadcasts; all must equal the per-point
    # evaluation exactly
    rng = np.random.default_rng(40 + n)
    T = random_spherical(n, rng)
    q = 2 * (n + 1)
    grid = np.meshgrid((np.arange(q) + 0.5) * math.pi / q, np.arange(2 * q) * math.pi / q, indexing="ij")
    scattered = rng.uniform(0.0, math.pi, size=50), rng.uniform(0.0, 2.0 * math.pi, size=50)
    broadcast = 0.7, rng.uniform(0.0, 2.0 * math.pi, size=(3, 4))
    for theta, phi in (grid, scattered, broadcast):
        got = T.eval(theta, phi)
        expected = eval_per_point(T, theta, phi)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
    value = T.eval(0.4, 1.3)
    assert np.ndim(value) == 0 and isinstance(value, float)
    assert value == eval_per_point(T, 0.4, 1.3)


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


@pytest.mark.parametrize("n", range(7))
def test_coefficient_vector_roundtrip(n):
    rng = np.random.default_rng(2)
    T = random_spherical(n, rng)
    back = spherical_from_vector(n, T.coefficient_vector())
    assert np.array_equal(back.coefficient_vector(), T.coefficient_vector())
    assert np.array_equal(back.coef, T.coef)


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
        folded = fold_azimuth_modes(T, alpha)
        assert folded.low[:, 0, 0].tolist() == [1.0, 0.0]
        assert not np.any(folded.low[:, 1, 0])  # the axial band


def test_fold_alpha_zero_highband_signs():
    # at alpha = 0 the folded high bands are u = a_{2m-k}, v = -b_{2m-k}
    m = 3
    n = 2 * m - 1
    rng = np.random.default_rng(4)
    T = random_spherical(n, rng)
    folded = fold_azimuth_modes(T, 0.0)
    for idx in range(m - 1):
        k = idx + 1
        assert np.allclose(folded.high[:k, k, 0], T.coef[:k, 2 * m - k, 0])
        assert np.allclose(folded.high[:k, k, 1], -1.0 * T.coef[:k, 2 * m - k, 1])


def test_fold_high_band_degrees():
    m = 4
    rng = np.random.default_rng(5)
    T = random_spherical(2 * m - 1, rng)
    folded = fold_azimuth_modes(T, 0.37)
    for idx in range(m - 1):
        k = idx + 1
        assert not np.any(folded.high[k:, k])  # degree at most k - 1


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("alpha", [0.0, 1.0, 0.37])
def test_fold_identity_on_grid(m, alpha):
    rng = np.random.default_rng(10 * m + int(10 * alpha))
    for _ in range(10):
        T = random_spherical(2 * m - 1, rng)
        folded = fold_azimuth_modes(T, alpha)
        theta = float(rng.uniform(0.1, math.pi - 0.1))
        for j in range(2 * m):
            phi = (2 * j + alpha) * math.pi / (2 * m)
            direct = float(T.eval(theta, phi))
            scale = max(1.0, abs(direct))
            assert abs(folded.eval(theta, phi) - direct) <= 1e-12 * scale


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_fold_reads_m_off_the_degree(m):
    assert fold_azimuth_modes(zero_spherical(2 * m - 1), 0.37).m == m


def test_fold_rejects_wrong_degree():
    with pytest.raises(InputError, match="degree must be odd, got 4"):
        fold_azimuth_modes(zero_spherical(4), 0.0)  # no m with 2m - 1 = 4


def test_fold_rejects_off_grid_eval():
    T = band_poly(1, 0, "a", [1.0])
    folded = fold_azimuth_modes(T, 0.0)
    with pytest.raises(InputError):
        folded.eval(0.8, 0.3)  # sin(phi) != 0


@pytest.mark.parametrize("offset, on_grid", [(1e-8, False), (1e-12, True)])
def test_fold_grid_gate_is_tol_fold_grid(offset, on_grid):
    # at m = 2, alpha = 0 the gate is sin(2 phi), about 2 * offset next to phi = pi / 2
    folded = fold_azimuth_modes(random_spherical(3, np.random.default_rng(8)), 0.0)
    phi = math.pi / 2 + offset
    assert (abs(math.sin(2 * phi)) <= TOL_FOLD_GRID) == on_grid
    if on_grid:
        assert math.isfinite(folded.eval(0.8, phi))
    else:
        with pytest.raises(InputError, match="not on the fold grid for m=2"):
            folded.eval(0.8, phi)


def test_eval_spherical_agrees_with_band_formula():
    # independent evaluation straight from the band definition
    rng = np.random.default_rng(6)
    n = 3
    T = random_spherical(n, rng)
    th, ph = 0.9, 2.7
    c, s = math.cos(th), math.sin(th)
    direct = float(T.coef[:, 0, 0] @ c ** np.arange(n + 1))
    for k in range(1, n + 1):
        a, b = T.coef[:, k].T @ c ** np.arange(n + 1)
        direct += float(a) * s**k * math.cos(k * ph)
        direct += float(b) * s**k * math.sin(k * ph)
    assert T.eval(th, ph) == pytest.approx(direct, rel=1e-14)

