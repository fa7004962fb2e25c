"""Tests for collocation determinants, vanishing systems, and factor steps."""

import math
from fractions import Fraction

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from helpers import det_cofactor, halfpower_derivative_poly_value, jittered_points
from sphinterp import (
    ChebyshevTestCase,
    InputError,
    InternalInconsistencyError,
    PartitionPlan,
    SphericalPoly,
    build_nodeset,
    chain_kernel_certificate,
    chebyshev_collocation_det,
    collocation_matrix,
    default_latitudes,
    factor_chain,
    factor_step,
    latitude_vanishing_residuals,
    mixed_parity_matrix,
    multiply_linear_z,
    poisedness_certificate,
    poly,
    random_spherical,
    reduction_coefficients,
    reduction_system_det,
    zero,
    zero_spherical,
)
from sphinterp.nodes import LatitudeRing, NodeGroup, NodeSet, azimuth_grid

PI = math.pi


def symmetric_thetas(lam, rng):
    north = sorted(math.acos(c) for c in jittered_points(lam, rng))
    return north + [PI - t for t in reversed(north)]


# ---------------------------------------------------------------------------
# Mixed power collocation determinants
# ---------------------------------------------------------------------------


def test_case_validation():
    good = dict(r=2, s=1, epsilon=0, power_sign=1, sample_points=(0.2, 0.5, 0.8, 0.9))
    ChebyshevTestCase(**good)
    with pytest.raises(InputError):
        ChebyshevTestCase(**{**good, "r": 1})  # needs r > s
    with pytest.raises(InputError):
        ChebyshevTestCase(**{**good, "sample_points": (0.2, 0.5, 0.8)})
    with pytest.raises(InputError):
        ChebyshevTestCase(**{**good, "sample_points": (0.2, 0.5, 0.8, 1.2)})
    with pytest.raises(InputError):
        ChebyshevTestCase(**{**good, "sample_points": (0.2, 0.2, 0.8, 0.9)})


def test_four_by_four_determinant_matches_cofactor_oracle():
    case = ChebyshevTestCase(
        r=2, s=1, epsilon=0, power_sign=1, sample_points=(0.2, 0.5, 0.8, 0.9)
    )
    det = chebyshev_collocation_det(case)
    assert det != 0.0
    rows = [list(r) for r in collocation_matrix(case)]
    assert det == pytest.approx(det_cofactor(rows), rel=1e-12)


def test_duplicate_row_makes_determinant_zero():
    case = ChebyshevTestCase(
        r=2, s=1, epsilon=0, power_sign=1, sample_points=(0.2, 0.5, 0.8, 0.9)
    )
    mat = collocation_matrix(case)
    mat[1] = mat[0]
    assert np.linalg.det(mat) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("epsilon", [0, 1])
@pytest.mark.parametrize("sign", [1, -1])
def test_collocation_determinants_nonzero_small_sweep(epsilon, sign):
    rng = np.random.default_rng(100 + epsilon + (sign > 0))
    for r in range(2, 5):
        for s in range(1, r):
            for _ in range(5):
                pts = jittered_points(r + s + 1 + epsilon, rng)
                case = ChebyshevTestCase(
                    r=r, s=s, epsilon=epsilon, power_sign=sign, sample_points=tuple(pts)
                )
                det = chebyshev_collocation_det(case)
                vand = abs(np.linalg.det(np.vander(np.array(pts), increasing=True)))
                assert abs(det) / vand > 1e-14


# ---------------------------------------------------------------------------
# Reduced coefficient tables
# ---------------------------------------------------------------------------


def test_reduction_table_r2_s1_by_hand():
    family = reduction_coefficients(2, 1)
    # j = 0: C(1,0) * (1) * (3 * 1) = 3; j = 1: C(1,1) * (1 * 3) * (1) = 3
    assert family.table == ((3, 3),)
    h0 = family.poly(0)
    assert h0.degree == 1  # r - s + k
    assert h0.coeffs == (3.0, 3.0)


@pytest.mark.parametrize("r", range(2, 9))
def test_reduction_tables_all_positive(r):
    for s in range(1, r):
        family = reduction_coefficients(r, s)
        assert min(min(row) for row in family.table) > 0
        for k in range(s):
            assert family.poly(k).degree == r - s + k


@pytest.mark.parametrize(
    "r,s",
    [(2, 1), (3, 2), (4, 1), (5, 3), (6, 2), (7, 5), (8, 4), (8, 7)],
)
def test_reduction_polys_match_derivative_oracle(r, s):
    # high-order finite differences of t**(k + 1/2) (1 - t)**(r - s) in exact
    # rational arithmetic, compared at five sample points
    family = reduction_coefficients(r, s)
    sample = [Fraction(31, 100), Fraction(2, 5), Fraction(13, 25), Fraction(63, 100), Fraction(71, 100)]
    for k in range(s):
        hk = family.poly(k)
        for t0 in sample:
            oracle = halfpower_derivative_poly_value(r, s, k, t0)
            direct = hk(float(t0))
            assert abs(oracle - direct) <= 1e-6 * abs(direct)


def test_reduction_det_s1_is_positive_polynomial_value():
    # s = 1: the determinant is h_0 at the single point, positive since all
    # coefficients are positive and the argument is positive
    val = reduction_system_det(3, 1, [0.42])
    family = reduction_coefficients(3, 1)
    assert val == pytest.approx(family.poly(0)(0.42))
    assert val > 0.0


def test_reduction_det_2x2_direct():
    r, s = 4, 2
    pts = [0.3, 0.7]
    family = reduction_coefficients(r, s)
    direct = family.poly(0)(0.3) * family.poly(1)(0.7) - family.poly(0)(0.7) * family.poly(1)(0.3)
    det = reduction_system_det(r, s, pts)
    assert det == pytest.approx(direct, rel=1e-13)
    assert det > 0.0


@pytest.mark.parametrize("r", range(2, 7))
def test_reduction_dets_positive_sorted_sweep(r):
    rng = np.random.default_rng(300 + r)
    for s in range(1, r):
        for _ in range(5):
            pts = sorted(jittered_points(s, rng))
            assert reduction_system_det(r, s, pts) > 0.0


# ---------------------------------------------------------------------------
# Per-latitude vanishing system
# ---------------------------------------------------------------------------


def test_vanishing_system_zero_polynomial():
    res = latitude_vanishing_residuals(zero_spherical(5), 0.8, 0.0)
    assert all(v == 0.0 for v in res)
    assert len(res) == 6  # 2m values for m = 3


def test_vanishing_system_constant_polynomial():
    T = zero_spherical(5)
    T = type(T)(degree=5, a=(poly([1.0]),) + T.a[1:], b=T.b)
    res = latitude_vanishing_residuals(T, 0.8, 0.5)
    assert res[0] == 1.0
    assert all(v == 0.0 for v in res[1:])
    # and the polynomial indeed misses zero on the grid
    phis = [(2 * j + 0.5) * PI / 6 for j in range(6)]
    assert min(abs(T.eval(0.8, ph)) for ph in phis) == 1.0


def test_vanishing_system_rejects_poles():
    with pytest.raises(InputError):
        latitude_vanishing_residuals(zero_spherical(3), 0.0, 0.0)
    with pytest.raises(InputError):
        latitude_vanishing_residuals(zero_spherical(3), PI, 0.0)
    with pytest.raises(InputError):
        latitude_vanishing_residuals(zero_spherical(2), 0.5, 0.0)  # even degree


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_vanishing_system_equivalence_sampled(alpha):
    # residuals are tiny exactly when the grid values are tiny
    rng = np.random.default_rng(17)
    m = 3
    for trial in range(20):
        T = random_spherical(2 * m - 1, rng)
        theta = float(rng.uniform(0.25, PI - 0.25))
        phis = [(2 * j + alpha) * PI / (2 * m) for j in range(2 * m)]
        scale = max(1.0, T.coeff_scale())
        vals_small = max(abs(float(T.eval(theta, ph))) for ph in phis) <= 1e-11 * scale
        res_small = (
            max(abs(v) for v in latitude_vanishing_residuals(T, theta, alpha))
            <= 1e-11 * scale
        )
        assert vals_small == res_small
        assert not vals_small  # random polynomials never vanish on the grid


# ---------------------------------------------------------------------------
# Mixed parity systems
# ---------------------------------------------------------------------------


def test_mixed_parity_random_pairs_fail():
    rng = np.random.default_rng(23)
    count = 0
    for _ in range(200):
        m = int(rng.integers(1, 6))
        k = int(rng.integers(1, m + 1))
        vec = rng.standard_normal(2 * m)  # p (2m - k coefficients), then q (k)
        pts = jittered_points(m, rng)
        resid = mixed_parity_matrix(k, m, pts) @ vec
        if np.max(np.abs(resid)) > 1e-11 * max(1.0, np.max(np.abs(vec))):
            count += 1
    assert count == 200


def test_mixed_parity_residuals_match_matrix():
    # the matrix rows must reproduce the directly evaluated residuals
    rng = np.random.default_rng(29)
    m, k = 4, 2
    p = rng.standard_normal(2 * m - k)
    q = rng.standard_normal(k)
    pts = jittered_points(m, rng)
    mat = mixed_parity_matrix(k, m, pts)
    resid = mat @ np.concatenate([p, q])

    def part(c, parity):
        # the even or odd part of a coefficient vector, evaluated by numpy
        return lambda t: npoly.polyval(t, np.where(np.arange(len(c)) % 2 == parity, c, 0.0))

    p_even, p_odd, q_even, q_odd = part(p, 0), part(p, 1), part(q, 0), part(q, 1)
    for i, t in enumerate(pts):
        w = (1 - t * t) ** (m - k)
        assert resid[i] == pytest.approx(p_even(t) + q_odd(t) * w, rel=1e-12, abs=1e-12)
        assert resid[m + i] == pytest.approx(p_odd(t) + q_even(t) * w, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("m", range(1, 6))
def test_mixed_parity_kernel_trivial_sweep(m):
    # smallest singular value bounded away from zero: only the zero pair
    # solves the system, which is the uniqueness half of the story
    rng = np.random.default_rng(31 + m)
    for k in range(1, m + 1):
        for _ in range(25):
            pts = jittered_points(m, rng)
            mat = mixed_parity_matrix(k, m, pts)
            sv = np.linalg.svd(mat, compute_uv=False)
            assert sv[-1] > 1e-10 * sv[0]


# ---------------------------------------------------------------------------
# Factor steps
# ---------------------------------------------------------------------------


def test_factor_step_planted_constant():
    thetas = [0.6, PI - 0.6]
    one_poly = type(zero_spherical(0))(degree=0, a=(poly([1.0]),), b=(zero(),))
    T = multiply_linear_z(multiply_linear_z(one_poly, math.cos(thetas[0])), math.cos(thetas[1]))
    out = factor_step(T, m=2, lam=1, thetas=thetas)
    assert out.degree == 0
    assert out.a[0].coeffs[0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("m", range(1, 6))
def test_factor_step_plant_and_recover(m):
    rng = np.random.default_rng(41 + m)
    for s_deg in range(m, 2 * m):
        lam = s_deg - m + 1
        new_deg = s_deg - 2 * lam
        if new_deg < 0:
            continue
        for _ in range(3):
            thetas = symmetric_thetas(lam, rng)
            planted = random_spherical(new_deg, rng)
            T = planted
            for th in thetas:
                T = multiply_linear_z(T, math.cos(th))
            out = factor_step(T, m=m, lam=lam, thetas=thetas)
            ref = planted.coefficient_vector()
            got = out.coefficient_vector()
            assert np.max(np.abs(got - ref)) <= 1e-8 * max(1.0, np.max(np.abs(ref)))


def test_factor_step_roundtrip_multiplication():
    rng = np.random.default_rng(47)
    m, s_deg = 4, 6
    lam = s_deg - m + 1
    thetas = symmetric_thetas(lam, rng)
    planted = random_spherical(s_deg - 2 * lam, rng)
    T = planted
    for th in thetas:
        T = multiply_linear_z(T, math.cos(th))
    out = factor_step(T, m=m, lam=lam, thetas=thetas)
    back = out
    for th in thetas:
        back = multiply_linear_z(back, math.cos(th))
    assert np.max(np.abs(back.coefficient_vector() - T.coefficient_vector())) <= 1e-8 * max(
        1.0, T.coeff_scale()
    )


def test_factor_step_full_degree_returns_zero():
    out = factor_step(zero_spherical(3), m=2, lam=2, thetas=[0.5, 0.8, PI - 0.8, PI - 0.5])
    assert out.degree == 0
    assert out.coeff_scale() == 0.0


def test_factor_step_rejects_nonvanishing_input():
    rng = np.random.default_rng(53)
    T = random_spherical(3, rng)
    with pytest.raises(InputError) as exc:
        factor_step(T, m=2, lam=2, thetas=[0.5, 0.8, PI - 0.8, PI - 0.5])
    assert "vanish" in str(exc.value)


def test_factor_step_names_first_nonvanishing_node():
    T = SphericalPoly(degree=3, a=(poly([1.0]),) + (zero(),) * 3, b=(zero(),) * 4)
    with pytest.raises(InputError) as exc:
        factor_step(T, m=2, lam=2, thetas=[0.5, 0.8, PI - 0.8, PI - 0.5])
    assert "theta=0.5, phi=0.0:" in str(exc.value)


def test_factor_step_parameter_validation():
    thetas = [0.5, PI - 0.5]
    with pytest.raises(InputError):
        factor_step(zero_spherical(3), m=3, lam=2, thetas=thetas)  # lam != s - m + 1
    with pytest.raises(InputError):
        factor_step(zero_spherical(5), m=2, lam=4, thetas=thetas)  # degree out of range
    with pytest.raises(InputError):
        factor_step(zero_spherical(1), m=1, lam=1, thetas=[0.5, PI - 0.6])  # asymmetric


def test_factor_step_inconsistency_on_forged_bands():
    # grid vanishing is forged while a band that must annihilate stays
    # large; factor_step must flag the breakdown instead of dividing on
    thetas = [0.6, PI - 0.6]
    one_poly = type(zero_spherical(0))(degree=0, a=(poly([1.0]),), b=(zero(),))
    T = multiply_linear_z(multiply_linear_z(one_poly, math.cos(thetas[0])), math.cos(thetas[1]))

    class Forged:
        degree = T.degree
        a = (T.a[0], T.a[1], poly([0.5]))  # the top band cannot annihilate
        b = T.b
        eval = staticmethod(lambda th, ph: 0.0 * th * ph)
        coeff_scale = T.coeff_scale

    with pytest.raises(InternalInconsistencyError):
        factor_step(Forged(), m=2, lam=1, thetas=thetas)


def test_factor_chain_zero_in_zero_out():
    plan = PartitionPlan(n=3, lambdas=(1, 1))
    nodes = build_nodeset(plan, default_latitudes(plan))
    out = factor_chain(zero_spherical(3), nodes)
    assert out[-1].coeff_scale() == 0.0


def test_factor_chain_degree_trace():
    plan = PartitionPlan(n=3, lambdas=(1, 1))
    nodes = build_nodeset(plan, default_latitudes(plan))
    quotients = factor_chain(zero_spherical(3), nodes)
    degrees = [3] + [q.degree for q in quotients]
    assert degrees[:2] == [3, 1]  # intermediate quotient has degree 1
    assert quotients[-1].coeff_scale() == 0.0


# ---------------------------------------------------------------------------
# Kernel certificates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 5, 7])
def test_chain_certificate_passes_on_standard_sets(n):
    from sphinterp import enumerate_partitions

    for plan in enumerate_partitions(n):
        nodes = build_nodeset(plan, default_latitudes(plan))
        cert = chain_kernel_certificate(nodes)
        assert cert.passed
        assert cert.min_scaled_sigma > 1e-12


def test_chain_certificate_agrees_with_determinant_on_collapse():
    theta = PI / 6
    nodes = build_nodeset(
        PartitionPlan(n=3, lambdas=(2,)), [[theta, theta * (1.0 + 4e-16)]]
    )
    chain = chain_kernel_certificate(nodes)
    det_cert = poisedness_certificate(nodes, trials=2, seed=0)
    assert chain.passed == det_cert.passed  # both flag the collapse
    assert not chain.passed


def test_chain_certificate_reports_cross_group_separation():
    plan = PartitionPlan(n=5, lambdas=(2, 1))
    nodes = build_nodeset(plan, default_latitudes(plan))
    cert = chain_kernel_certificate(nodes)
    assert 0.0 < cert.cross_group_separation < 2.0
    assert len(cert.steps) == 2
