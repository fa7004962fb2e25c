"""Tests for collocation determinants, vanishing systems, and factor steps."""

import math
from fractions import Fraction

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import assume, given, strategies as st

from helpers import det_cofactor, halfpower_derivative_poly_value, jittered_points, mixed_parity_matrix
from sphinterp import (
    ChebyshevTestCase,
    InputError,
    InternalInconsistencyError,
    NodeSet,
    PartitionPlan,
    SphericalPoly,
    build_nodeset,
    chain_kernel_certificate,
    chebyshev_collocation_det,
    collocation_matrix,
    default_latitudes,
    enumerate_partitions,
    factor_chain,
    factor_step,
    latitude_vanishing_residuals,
    mirror,
    mirror_alphas,
    mixed_parity_matrices,
    multiply_linear_z,
    poisedness_certificate,
    random_spherical,
    reduction_coefficients,
    reduction_system_det,
    seeded_latitudes,
    zero_spherical,
)
from sphinterp.factorization import DIVISION_TOL, _divide_band, scaled_sigma_min

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
    assert len(h0) - 1 == 1  # r - s + k
    assert h0.tolist() == [3.0, 3.0]


@pytest.mark.parametrize("r", range(2, 9))
def test_reduction_tables_all_positive(r):
    for s in range(1, r):
        family = reduction_coefficients(r, s)
        assert min(min(row) for row in family.table) > 0
        for k in range(s):
            assert len(family.poly(k)) - 1 == r - s + k


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
            direct = npoly.polyval(float(t0), hk)
            assert abs(oracle - direct) <= 1e-6 * abs(direct)


def test_reduction_det_s1_is_positive_polynomial_value():
    # s = 1: the determinant is h_0 at the single point, positive since all
    # coefficients are positive and the argument is positive
    val = reduction_system_det(3, [0.42])
    family = reduction_coefficients(3, 1)
    assert val == pytest.approx(npoly.polyval(0.42, family.poly(0)))
    assert val > 0.0


def test_reduction_det_2x2_direct():
    r, s = 4, 2
    pts = [0.3, 0.7]
    family = reduction_coefficients(r, s)
    h0, h1 = family.poly(0), family.poly(1)
    direct = npoly.polyval(0.3, h0) * npoly.polyval(0.7, h1) - npoly.polyval(0.7, h0) * npoly.polyval(0.3, h1)
    det = reduction_system_det(r, pts)
    assert det == pytest.approx(direct, rel=1e-13)
    assert det > 0.0


@pytest.mark.parametrize("r", range(2, 7))
def test_reduction_dets_positive_sorted_sweep(r):
    rng = np.random.default_rng(300 + r)
    for s in range(1, r):
        for _ in range(5):
            pts = sorted(jittered_points(s, rng))
            assert reduction_system_det(r, pts) > 0.0


# ---------------------------------------------------------------------------
# Per-latitude vanishing system
# ---------------------------------------------------------------------------


def test_vanishing_system_zero_polynomial():
    res = latitude_vanishing_residuals(zero_spherical(5), 0.8, 0.0)
    assert all(v == 0.0 for v in res)
    assert len(res) == 6  # 2m values for m = 3


def test_vanishing_system_constant_polynomial():
    coef = np.zeros((6, 6, 2))
    coef[0, 0, 0] = 1.0
    T = SphericalPoly(coef)
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
        resid = mixed_parity_matrices(pts)[k - 1] @ vec
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
    mat = mixed_parity_matrices(pts)[k - 1]
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
            mat = mixed_parity_matrices(pts)[k - 1]
            sv = np.linalg.svd(mat, compute_uv=False)
            assert sv[-1] > 1e-10 * sv[0]


def test_mixed_parity_stack_matches_the_entrywise_reference():
    # one table of Python-float powers per point gives the same bits as
    # filling each k's matrix entry by entry
    rng = np.random.default_rng(37)
    for m in range(0, 32):
        for pts in ([(q + 1) / (m + 1) for q in range(m)], jittered_points(m, rng)):
            stack = mixed_parity_matrices(pts)
            assert stack.shape == (m, 2 * m, 2 * m)
            for k in range(1, m + 1):
                assert (stack[k - 1] == mixed_parity_matrix(k, pts)).all(), (m, k)


@pytest.mark.parametrize("pts", [[0.2, 0.2], [0.0, 0.5], [0.5, 1.0]])
def test_mixed_parity_rejects_bad_points(pts):
    with pytest.raises(InputError, match="points must"):
        mixed_parity_matrices(pts)


# ---------------------------------------------------------------------------
# Band division
# ---------------------------------------------------------------------------


def test_divide_exact_factorization():
    assert _divide_band(np.array([-1.0, 0.0, 1.0]), [1.0, -1.0], 1.0).tolist() == [1.0]


def test_divide_nonroot_raises_naming_the_root():
    with pytest.raises(InternalInconsistencyError) as exc:
        _divide_band(np.array([1.0, 0.0, 1.0]), [1.0], 1.0)
    assert "division by (t - 1.0) leaves remainder 2.000e+00" in str(exc.value)


def test_divide_rejects_a_nan_remainder():
    # NaN > bound is False, so the check must read "not |rem| <= bound"
    with pytest.raises(InternalInconsistencyError, match="remainder nan"):
        _divide_band(np.array([math.nan, 1.0]), [0.5], 1.0)


def test_divide_expanded_product():
    # (t - 0.3)(t + 0.3)(t^2 + 2) = t^4 + 1.91 t^2 - 0.18
    p = np.convolve(npoly.polyfromroots([0.3, -0.3]), [2.0, 0.0, 1.0])
    assert np.allclose(p, [-0.18, 0.0, 1.91, 0.0, 1.0])
    q = _divide_band(p, [0.3, -0.3], 1.0)
    assert np.max(np.abs(q - [2.0, 0.0, 1.0])) < 1e-12


def test_divide_constant_dividend_gives_positive_zero():
    assert _divide_band(np.array([-0.0]), [0.5, -0.5], 1.0).tolist() == [0.0]
    # the first root leaves the constant -1e-9, within 1e-8 * 0.9: polydiv's
    # quotient of it is -0.0, and the division must hand back +0.0
    q = _divide_band(np.array([1e-8, -1e-9]), [10.0, 0.5], 0.9)
    assert q.tolist() == [0.0] and not np.signbit(q).any()


def test_divide_keeps_the_structural_length_when_top_coefficients_are_zero():
    assert _divide_band(np.array([-0.5, 1.0, 0.0, 0.0]), [0.5], 1.0).tolist() == [1.0, 0.0, 0.0]
    assert _divide_band(np.array([-0.25, 0.0, 1.0, 0.0, 0.0]), [0.5, -0.5], 1.0).tolist() == [1.0, 0.0, 0.0]


def _synthetic_division_reference(coeffs, roots, scale):
    """Schoolbook synthetic division in Python floats, root by root, with
    remainders bounded by DIVISION_TOL * scale; a band already within the
    bound is the zero quotient."""
    work = [float(c) for c in coeffs]
    bound = DIVISION_TOL * scale
    if max(abs(c) for c in work) <= bound:
        return [0.0] * max(len(work) - len(roots), 1)
    for r in roots:
        quot, acc = [0.0] * max(len(work) - 1, 1), work[-1]
        for j in range(len(work) - 2, -1, -1):
            quot[j] = acc
            acc = work[j] + r * acc
        if abs(acc) > bound:
            return ("raised", r, f"{abs(acc):.3e}")
        work = quot
    return work


def test_divide_matches_python_synthetic_division():
    # quotients, remainders and raised roots all equal the schoolbook loop
    rng = np.random.default_rng(11)
    for trial in range(2000):
        roots = rng.uniform(-1.0, 1.0, size=int(rng.integers(0, 5))).tolist()
        p = rng.standard_normal(int(rng.integers(1, 10)))
        if trial % 2:
            p = np.convolve(p, npoly.polyfromroots(roots))
        if trial % 3 == 0:
            p[len(p) // 2 :] = 0.0
        scale = float(np.max(np.abs(p)) * rng.choice([1e-4, 1e2, 1e9]))
        expected = _synthetic_division_reference(p.tolist(), roots, scale)
        try:
            got = _divide_band(p, roots, scale).tolist()
        except InternalInconsistencyError as exc:
            root, residual = str(exc).split("(t - ")[1].split(") leaves remainder ")
            got = ("raised", float(root), residual.split()[0])
        assert got == expected


@given(
    st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=1, max_size=8),
    st.lists(st.floats(min_value=-0.9, max_value=0.9, allow_nan=False), min_size=1, max_size=3, unique=True),
)
def test_divide_then_remultiply(a, roots):
    assume(all(abs(r1 - r2) > 1e-3 for i, r1 in enumerate(roots) for r2 in roots[:i]))
    base = np.array(a)
    # relative tolerances need tol * scale representable; stay clear of the
    # subnormal floor where that product underflows to zero
    assume(np.max(np.abs(base)) > 1e-100)
    p = np.convolve(base, npoly.polyfromroots(roots))
    scale = np.max(np.abs(p))
    q = _divide_band(p, roots, scale)
    back = np.convolve(q, npoly.polyfromroots(roots))
    bound = 1e-10 * scale
    for j, c in enumerate(p):
        got = back[j] if j < len(back) else 0.0
        assert abs(got - c) <= max(bound, 64 * np.finfo(float).eps * scale)


# ---------------------------------------------------------------------------
# Factor steps
# ---------------------------------------------------------------------------


def test_factor_step_planted_constant():
    thetas = [0.6, PI - 0.6]
    one_poly = SphericalPoly([[[1.0, 0.0]]])  # the constant 1
    T = multiply_linear_z(multiply_linear_z(one_poly, math.cos(thetas[0])), math.cos(thetas[1]))
    out = factor_step(T, thetas)
    assert out.degree == 0
    assert out.coef[0, 0, 0] == pytest.approx(1.0, abs=1e-12)


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
            out = factor_step(T, thetas)
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
    out = factor_step(T, thetas)
    back = out
    for th in thetas:
        back = multiply_linear_z(back, math.cos(th))
    assert np.max(np.abs(back.coefficient_vector() - T.coefficient_vector())) <= 1e-8 * max(
        1.0, T.coeff_scale()
    )


def test_factor_step_input_cannot_carry_nan():
    # a NaN constant would pass the vanishing and annihilation checks (NaN >
    # bound is False) and come back as the zero quotient of a full-degree step
    coef = np.zeros((4, 4, 2))
    coef[0, 0, 0] = math.nan
    with pytest.raises(InputError, match="t\\*\\*0 in a_0 must be finite, got nan"):
        factor_step(SphericalPoly(coef), [0.5, 0.8, PI - 0.8, PI - 0.5])


def test_factor_step_rejects_input_that_overflows():
    # coefficients near the float64 limit overflow on the reference grid:
    # bad input, not a failed annihilation inside the step
    coef = np.zeros((4, 4, 2))
    coef[:, 0, 0] = 1e308
    with pytest.raises(InputError, match="not finite on the reference grid: max \\|T\\| = inf"):
        factor_step(SphericalPoly(coef), [0.5, 0.8, PI - 0.8, PI - 0.5])


def _forged(values, bands=np.zeros((4, 4, 2))):
    """A duck-typed degree-3 T whose eval is ``values`` and whose coefficients are ``bands``."""

    class Forged:
        degree = 3
        coef = bands
        eval = staticmethod(values)

        def coeff_scale(self):
            return float(np.max(np.abs(bands)))

    return Forged()


@pytest.mark.parametrize(
    "forged, error, match",
    [
        (_forged(lambda th, ph: math.nan * th * ph), InputError, "not finite on the reference grid"),
        # finite on the reference grid (2-D), NaN at the grid nodes (1-D)
        (_forged(lambda th, ph: np.full(np.shape(th), math.nan if np.ndim(th) == 1 else 0.0)), InputError, "does not vanish"),
        (_forged(lambda th, ph: 0.0 * th * ph, np.full((4, 4, 2), math.nan)), InternalInconsistencyError, "should annihilate"),
    ],
    ids=["nan-everywhere", "nan-at-nodes", "nan-bands"],
)
def test_factor_step_checks_fail_on_nan(forged, error, match):
    with pytest.raises(error, match=match):
        factor_step(forged, [0.5, 0.8, PI - 0.8, PI - 0.5])


def test_factor_step_full_degree_returns_zero():
    out = factor_step(zero_spherical(3), [0.5, 0.8, PI - 0.8, PI - 0.5])
    assert out.degree == 0
    assert out.coeff_scale() == 0.0


def test_factor_step_rejects_nonvanishing_input():
    rng = np.random.default_rng(53)
    T = random_spherical(3, rng)
    with pytest.raises(InputError) as exc:
        factor_step(T, [0.5, 0.8, PI - 0.8, PI - 0.5])
    assert "vanish" in str(exc.value)


def test_factor_step_names_first_nonvanishing_node():
    coef = np.zeros((4, 4, 2))
    coef[0, 0, 0] = 1.0
    T = SphericalPoly(coef)
    with pytest.raises(InputError) as exc:
        factor_step(T, [0.5, 0.8, PI - 0.8, PI - 0.5])
    assert "theta=0.5, phi=0.0:" in str(exc.value)


def test_factor_step_parameter_validation():
    with pytest.raises(InputError, match="deg T >= 2 lam - 1 = 3"):
        factor_step(zero_spherical(2), [0.5, 0.8, PI - 0.8, PI - 0.5])  # deg T < 2 lam - 1
    with pytest.raises(InputError):
        factor_step(zero_spherical(1), [0.5, PI - 0.6])  # asymmetric


def test_factor_step_inconsistency_on_forged_bands():
    # grid vanishing is forged while a band that must annihilate stays
    # large; factor_step must flag the breakdown instead of dividing on
    thetas = [0.6, PI - 0.6]
    one_poly = SphericalPoly([[[1.0, 0.0]]])  # the constant 1
    T = multiply_linear_z(multiply_linear_z(one_poly, math.cos(thetas[0])), math.cos(thetas[1]))

    class Forged:
        degree = T.degree
        coef = np.array(T.coef)
        coef[0, 2, 0] = 0.5  # the top band cannot annihilate
        eval = staticmethod(lambda th, ph: 0.0 * th * ph)
        coeff_scale = T.coeff_scale

    with pytest.raises(InternalInconsistencyError):
        factor_step(Forged(), thetas)


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


def _separation_by_loops(nodes) -> float:
    """Smallest |cos theta_i - cos theta_j| over rings of different groups, pair by pair."""
    groups = [[math.cos(th) for th in nodes.theta[rings].tolist()] for rings in nodes.plan.ring_slices()]
    separation = math.inf
    for g1 in range(len(groups)):
        for g2 in range(g1 + 1, len(groups)):
            for c1 in groups[g1]:
                for c2 in groups[g2]:
                    separation = min(separation, abs(c1 - c2))
    return separation


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
def test_chain_certificate_separation_matches_the_pairwise_loops(n):
    for plan in enumerate_partitions(n):
        for lats in (default_latitudes(plan), seeded_latitudes(plan, n)):
            nodes = build_nodeset(plan, lats)
            got = chain_kernel_certificate(nodes).cross_group_separation
            assert got == _separation_by_loops(nodes)
            assert type(got) is float


def test_sigma_ratio_reads_each_matrix_of_a_stack():
    stack = np.stack([np.zeros((3, 2)), np.diag([4.0, 1.0, 0.0])[:, :2], np.array([[2.0, 0.0], [0.0, -8.0], [0.0, 0.0]])])
    assert scaled_sigma_min(stack).tolist() == [0.0, 0.25, 0.25]
    assert scaled_sigma_min(np.eye(2)).shape == ()


def _min_scaled_sigma_by_loops(nodes) -> float:
    """Smallest sigma_min / sigma_max over every step matrix, one SVD per matrix."""

    def scaled(mat):
        sv = np.linalg.svd(mat, compute_uv=False)
        return 0.0 if sv[0] == 0.0 else float(sv[-1] / sv[0])

    sigmas = []
    cosines = [math.cos(th) for th in nodes.theta.tolist()]
    for rings, lam in zip(nodes.plan.ring_slices(), nodes.plan.lambdas):
        t_all = cosines[rings]
        t_north = [abs(t) for t in t_all[:lam]]
        if len(set(t_north)) != len(t_north):
            sigmas.append(0.0)
            continue
        sigmas.append(scaled(np.vander(np.array(t_all), increasing=True)))
        sigmas.append(scaled(np.vander(np.array(t_north), increasing=True)))
        sigmas += [scaled(mixed_parity_matrix(k, t_north)) for k in range(1, lam)]
    return min(sigmas)


def _assert_certificate_matches_the_loops(nodes):
    cert = chain_kernel_certificate(nodes)
    expected = _min_scaled_sigma_by_loops(nodes)
    assert cert.min_scaled_sigma == expected and type(cert.min_scaled_sigma) is float
    assert cert.passed == (expected > 1e-12 and _separation_by_loops(nodes) > 0.0)


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
def test_chain_certificate_matches_one_svd_per_matrix(n):
    for plan in enumerate_partitions(n):
        for lats in (default_latitudes(plan), seeded_latitudes(plan, n)):
            _assert_certificate_matches_the_loops(build_nodeset(plan, lats))


@pytest.mark.parametrize("n", [21, 31, 41])
@pytest.mark.parametrize("shape", ["single", "all-ones", "two-groups"])
def test_chain_certificate_matches_one_svd_per_matrix_at_large_n(n, shape):
    half = (n + 1) // 2
    lambdas = {"single": (half,), "all-ones": (1,) * half, "two-groups": (half // 2, half - half // 2)}[shape]
    plan = PartitionPlan(n=n, lambdas=lambdas)
    _assert_certificate_matches_the_loops(build_nodeset(plan, default_latitudes(plan)))


@pytest.mark.parametrize("lambdas", [(2,), (2, 1), (1, 2)], ids=["2", "2,1", "1,2"])
def test_chain_certificate_fails_on_opposite_northern_cosines(lambdas):
    # theta and pi - theta both among the two northern rings: their cosines are
    # exact negatives, while the southern rings sit 5e-15 off the exact mirrors
    # (inside TOL_MIRROR), so every cosine of the node set stays distinct
    opposite = [0.2, PI - 0.2, 0.2 + 5e-15, PI - 0.2 - 5e-15]
    assert math.cos(opposite[1]) == -math.cos(opposite[0])
    groups = {2: (opposite, mirror_alphas(4)), 1: (mirror([PI / 3]), mirror_alphas(2))}
    theta = np.concatenate([groups[lam][0] for lam in lambdas])
    alpha = np.concatenate([groups[lam][1] for lam in lambdas])
    nodes = NodeSet(plan=PartitionPlan(n=2 * sum(lambdas) - 1, lambdas=lambdas), theta=theta, alpha=alpha)
    cert = chain_kernel_certificate(nodes)
    assert not cert.passed
    assert cert.min_scaled_sigma == 0.0
