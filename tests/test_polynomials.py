"""Tests for the univariate coefficient-array helpers."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sphinterp import (
    DivisibilityError,
    divide_by_linear_factors,
    from_roots,
    integrate_unit_interval,
)


def cardinal(points, i):
    """Lagrange cardinal at points[i], built from the package's root product."""
    others = [x for j, x in enumerate(points) if j != i]
    return from_roots(others) * (1.0 / math.prod(points[i] - x for x in others))


coeff_lists = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=1, max_size=8
)


def test_integrate_constant():
    assert integrate_unit_interval([1.0]) == 2.0


def test_integrate_odd_term():
    assert integrate_unit_interval([0.0, 1.0]) == 0.0


def test_integrate_quadratic_moment():
    assert integrate_unit_interval([0.0, 0.0, 1.0]) == pytest.approx(2.0 / 3.0)


def test_divide_exact_factorization():
    q = divide_by_linear_factors([-1.0, 0.0, 1.0], [1.0, -1.0], 1e-12)
    assert q.tolist() == [1.0]


def test_divide_nonroot_raises():
    with pytest.raises(DivisibilityError) as exc:
        divide_by_linear_factors([1.0, 0.0, 1.0], [1.0], 1e-12)
    assert exc.value.root == 1.0
    assert exc.value.residual == pytest.approx(2.0)


def test_divide_expanded_product():
    # (t - 0.3)(t + 0.3)(t^2 + 2) = t^4 + 1.91 t^2 - 0.18
    p = np.convolve(from_roots([0.3, -0.3]), [2.0, 0.0, 1.0])
    assert np.allclose(p, [-0.18, 0.0, 1.91, 0.0, 1.0])
    q = divide_by_linear_factors(p, [0.3, -0.3], 1e-12)
    assert np.max(np.abs(q - [2.0, 0.0, 1.0])) < 1e-12


def test_divide_constant_dividend_gives_zero_quotient():
    q = divide_by_linear_factors([0.0], [0.5, -0.5], 1e-12)
    assert not np.any(q)


def test_divide_keeps_the_structural_length_when_top_coefficients_are_zero():
    assert divide_by_linear_factors([-0.5, 1.0, 0.0, 0.0], [0.5], 1e-12).tolist() == [1.0, 0.0, 0.0]
    assert divide_by_linear_factors([-0.25, 0.0, 1.0, 0.0, 0.0], [0.5, -0.5], 1e-12).tolist() == [1.0, 0.0, 0.0]


def _synthetic_division_reference(coeffs, roots, tol):
    """Schoolbook synthetic division in Python floats, root by root; a
    constant dividend has the zero quotient and is its own remainder."""
    work = [float(c) for c in coeffs]
    bound = tol * max(abs(c) for c in work)
    for r in roots:
        quot, acc = [0.0] * max(len(work) - 1, 1), work[-1]
        for j in range(len(work) - 2, -1, -1):
            quot[j] = acc
            acc = work[j] + r * acc
        if abs(acc) > bound:
            return ("raised", r, abs(acc))
        work = quot
    return work


def test_divide_matches_python_synthetic_division():
    # quotients, remainders and raised roots all equal the schoolbook loop
    rng = np.random.default_rng(11)
    for trial in range(2000):
        roots = rng.uniform(-1.0, 1.0, size=int(rng.integers(0, 5))).tolist()
        p = rng.standard_normal(int(rng.integers(1, 10)))
        if trial % 2:
            p = np.convolve(p, from_roots(roots))
        if trial % 3 == 0:
            p[len(p) // 2 :] = 0.0
        tol = float(rng.choice([1e-12, 1e-6, 10.0]))
        expected = _synthetic_division_reference(p.tolist(), roots, tol)
        try:
            got = divide_by_linear_factors(p, roots, tol).tolist()
        except DivisibilityError as exc:
            got = ("raised", exc.root, exc.residual)
        assert got == expected


@pytest.mark.parametrize("npts", range(2, 13))
def test_partition_of_unity_chebyshev_spread(npts):
    # Chebyshev spreads keep the cardinal coefficients small enough for a
    # coefficient-wise 1e-12 check up to 12 points; tighter clustering
    # inflates the cardinals beyond what float64 can cancel to 1e-12
    points = [math.cos((2 * q + 1) * math.pi / (2 * npts)) for q in range(npts)]
    total = cardinal(points, 0)
    for i in range(1, npts):
        total = total + cardinal(points, i)
    assert abs(total[0] - 1.0) < 1e-12
    assert np.max(np.abs(total[1:])) < 1e-12


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
    scale = max(np.max(np.abs(ell)) for ell in cardinals)
    err = max(abs(total[0] - 1.0), float(np.max(np.abs(total[1:]))) if len(total) > 1 else 0.0)
    assert err <= 1e-13 * max(1.0, scale)


@given(coeff_lists, st.lists(st.floats(min_value=-0.9, max_value=0.9, allow_nan=False), min_size=1, max_size=3, unique=True))
def test_divide_then_remultiply(a, roots):
    assume(all(abs(r1 - r2) > 1e-3 for i, r1 in enumerate(roots) for r2 in roots[:i]))
    base = np.array(a)
    # relative tolerances need tol * scale representable; stay clear of the
    # subnormal floor where that product underflows to zero
    assume(np.max(np.abs(base)) > 1e-100)
    p = np.convolve(base, from_roots(roots))
    tol = 1e-10
    q = divide_by_linear_factors(p, roots, tol)
    back = np.convolve(q, from_roots(roots))
    scale = np.max(np.abs(p))
    bound = tol * scale
    for j, c in enumerate(p):
        got = back[j] if j < len(back) else 0.0
        assert abs(got - c) <= max(bound, 64 * np.finfo(float).eps * scale)


def test_from_roots_matches_python_product_loop():
    # reference: the schoolbook product, one factor (t - r) at a time, in
    # Python floats; from_roots must reproduce it bit for bit
    rng = np.random.default_rng(7)
    for _ in range(200):
        roots = rng.uniform(-1.0, 1.0, size=int(rng.integers(0, 12))).tolist()
        ref = [1.0]
        for r in roots:
            out = [0.0] * (len(ref) + 1)
            for i, c in enumerate(ref):
                out[i] += c * -r
                out[i + 1] += c
            ref = out
        assert from_roots(roots).tolist() == ref
