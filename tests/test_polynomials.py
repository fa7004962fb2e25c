"""Tests for the dense univariate polynomial layer."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sphinterp import (
    DivisibilityError,
    UnivariatePoly,
    divide_by_linear_factors,
    from_roots,
    integrate_unit_interval,
    poly,
)


def cardinal(points, i):
    """Lagrange cardinal at points[i], built from the package's root product."""
    others = [x for j, x in enumerate(points) if j != i]
    return from_roots(others) * (1.0 / math.prod(points[i] - x for x in others))


coeff_lists = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=1, max_size=8
)


def test_eval_constant():
    assert poly([1.0])(0.37) == 1.0


def test_eval_root():
    assert poly([-1.0, 0.0, 1.0])(1.0) == 0.0


def test_eval_direct_sum():
    # oracle: 1 + 2*2 + 3*4 = 17
    assert poly([1.0, 2.0, 3.0])(2.0) == pytest.approx(17.0, abs=0.0)


def test_eval_accepts_arrays():
    p = poly([1.0, 0.0, 1.0])
    out = p(np.array([0.0, 1.0, 2.0]))
    assert np.allclose(out, [1.0, 2.0, 5.0])


def test_degree_is_structural():
    assert poly([1.0, 0.0]).degree == 1


def test_integrate_constant():
    assert integrate_unit_interval(poly([1.0])) == 2.0


def test_integrate_odd_term():
    assert integrate_unit_interval(poly([0.0, 1.0])) == 0.0


def test_integrate_quadratic_moment():
    assert integrate_unit_interval(poly([0.0, 0.0, 1.0])) == pytest.approx(2.0 / 3.0)


def test_divide_exact_factorization():
    q = divide_by_linear_factors(poly([-1.0, 0.0, 1.0]), [1.0, -1.0], 1e-12)
    assert q.coeffs == (1.0,)


def test_divide_nonroot_raises():
    with pytest.raises(DivisibilityError) as exc:
        divide_by_linear_factors(poly([1.0, 0.0, 1.0]), [1.0], 1e-12)
    assert exc.value.root == 1.0
    assert exc.value.residual == pytest.approx(2.0)


def test_divide_expanded_product():
    # (t - 0.3)(t + 0.3)(t^2 + 2) = t^4 + 1.91 t^2 - 0.18
    p = from_roots([0.3, -0.3]) * poly([2.0, 0.0, 1.0])
    assert np.allclose(p.coeffs, [-0.18, 0.0, 1.91, 0.0, 1.0])
    q = divide_by_linear_factors(p, [0.3, -0.3], 1e-12)
    assert np.max(np.abs(np.array(q.coeffs) - [2.0, 0.0, 1.0])) < 1e-12


def test_divide_constant_dividend_gives_zero_quotient():
    q = divide_by_linear_factors(poly([0.0]), [0.5, -0.5], 1e-12)
    assert q.is_zero()


@given(coeff_lists, coeff_lists, st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
def test_eval_additivity(a, b, t):
    p, q = poly(a), poly(b)
    scale = (sum(abs(c) for c in a) + sum(abs(c) for c in b)) * max(1.0, abs(t)) ** max(
        p.degree, q.degree
    )
    assert abs((p + q)(t) - (p(t) + q(t))) <= 8 * np.finfo(float).eps * max(scale, 1.0)


@pytest.mark.parametrize("npts", range(2, 13))
def test_partition_of_unity_chebyshev_spread(npts):
    # Chebyshev spreads keep the cardinal coefficients small enough for a
    # coefficient-wise 1e-12 check up to 12 points; tighter clustering
    # inflates the cardinals beyond what float64 can cancel to 1e-12
    points = [math.cos((2 * q + 1) * math.pi / (2 * npts)) for q in range(npts)]
    total = cardinal(points, 0)
    for i in range(1, npts):
        total = total + cardinal(points, i)
    coeffs = np.array(total.coeffs)
    assert abs(coeffs[0] - 1.0) < 1e-12
    assert np.max(np.abs(coeffs[1:])) < 1e-12


@pytest.mark.parametrize("npts", range(1, 13))
def test_cardinal_integrals_sum_to_two(npts):
    points = [math.cos((2 * q + 1) * math.pi / (2 * npts)) for q in range(npts)]
    total = sum(integrate_unit_interval(cardinal(points, i)) for i in range(npts))
    assert abs(total - 2.0) < 1e-12


@settings(deadline=None)
@given(
    st.lists(
        st.floats(min_value=-0.95, max_value=0.95, allow_nan=False),
        min_size=2,
        max_size=12,
        unique=True,
    )
)
def test_partition_of_unity_scale_aware(points):
    # arbitrary point sets only support a bound relative to the size of the
    # cardinal coefficients themselves (float64 cancellation limit)
    assume(all(abs(a - b) > 1e-6 for i, a in enumerate(points) for b in points[:i]))
    cardinals = [cardinal(points, i) for i in range(len(points))]
    total = cardinals[0]
    for ell in cardinals[1:]:
        total = total + ell
    scale = max(ell.coeff_scale() for ell in cardinals)
    coeffs = np.array(total.coeffs)
    err = max(abs(coeffs[0] - 1.0), float(np.max(np.abs(coeffs[1:]))) if len(coeffs) > 1 else 0.0)
    assert err <= 1e-13 * max(1.0, scale)


@given(coeff_lists, st.lists(st.floats(min_value=-0.9, max_value=0.9, allow_nan=False), min_size=1, max_size=3, unique=True))
def test_divide_then_remultiply(a, roots):
    assume(all(abs(r1 - r2) > 1e-3 for i, r1 in enumerate(roots) for r2 in roots[:i]))
    base = poly(a)
    # relative tolerances need tol * scale representable; stay clear of the
    # subnormal floor where that product underflows to zero
    assume(base.coeff_scale() > 1e-100)
    p = base * from_roots(roots)
    tol = 1e-10
    q = divide_by_linear_factors(p, roots, tol)
    back = q * from_roots(roots)
    bound = tol * p.coeff_scale()
    for j, c in enumerate(p.coeffs):
        got = back.coeffs[j] if j < len(back.coeffs) else 0.0
        assert abs(got - c) <= max(bound, 64 * np.finfo(float).eps * p.coeff_scale())
