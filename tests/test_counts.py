"""Every integer count in the package goes through ``nodes.read_count``.

A float, a bool or a string where a count belongs raises ``InputError``
naming the parameter, and a numpy integer count behaves like the int.
"""

import json
import math

import numpy as np
import pytest

from sphinterp import (
    ChebyshevTestCase,
    CubatureRule,
    InputError,
    PartitionPlan,
    azimuth_grid,
    band_mask,
    basis_index_order,
    build_nodeset,
    chebyshev_collocation_det,
    default_latitudes,
    dimension_identity_check,
    equispaced_latitudes,
    legendre_latitudes,
    mirror_alphas,
    poisedness_certificate,
    random_spherical,
    reduction_coefficients,
    seeded_latitudes,
    spherical_from_vector,
    trig_quadrature_check,
    zero_spherical,
)
from sphinterp.verification import (
    chebyshev_suite,
    cubature_suite,
    dimension_suite,
    factorization_suite,
    lemmas_suite,
    poisedness_suite,
)

PLAN = PartitionPlan(n=3, lambdas=(1, 1))
M1_LATITUDES = (1.0, math.pi - 1.0)


def _cheb(**counts):
    args = dict(r=2, s=1, epsilon=0, power_sign=1, sample_points=(0.2, 0.5, 0.8, 0.9)) | counts
    return ChebyshevTestCase(**args)


@pytest.mark.parametrize(
    "call, name",
    [
        pytest.param(lambda: azimuth_grid(1.5, 0), "s", id="azimuth_grid"),
        pytest.param(lambda: PartitionPlan(n=3, lambdas=(True, 1.0)), "a plan part", id="plan-bool-and-float"),
        pytest.param(lambda: PartitionPlan(n=3, lambdas=(2.0,)), "a plan part", id="plan-float"),
        pytest.param(lambda: legendre_latitudes(True), "m", id="legendre_latitudes"),
        pytest.param(lambda: equispaced_latitudes(2.0), "m", id="equispaced_latitudes"),
        pytest.param(lambda: CubatureRule(m=1.0, latitudes=M1_LATITUDES, weights=(1.0, 1.0)), "m", id="CubatureRule"),
        pytest.param(lambda: trig_quadrature_check(2, 1.5, 0, 3), "m", id="trig-m"),
        pytest.param(lambda: trig_quadrature_check(2, 2, True, 3), "alpha", id="trig-alpha"),
        pytest.param(lambda: trig_quadrature_check(2.0, 2, 0, 3), "p_degree", id="trig-p_degree"),
        pytest.param(lambda: trig_quadrature_check(2, 2, 0, 3.0), "trials", id="trig-trials"),
        pytest.param(lambda: dimension_identity_check(3.0, 1), "s", id="dimension-s"),
        pytest.param(lambda: dimension_identity_check(3, True), "lam", id="dimension-lam"),
        pytest.param(lambda: reduction_coefficients(3.0, 1), "r", id="reduction-r"),
        pytest.param(lambda: reduction_coefficients(3, 1).poly(1.0), "k", id="reduction-poly-k"),
        pytest.param(lambda: spherical_from_vector(1.0, np.zeros(4)), "n", id="spherical_from_vector"),
        pytest.param(lambda: random_spherical(2.5, np.random.default_rng(0)), "n", id="random_spherical"),
        pytest.param(lambda: zero_spherical(2.0), "n", id="zero_spherical"),
        pytest.param(lambda: seeded_latitudes(PLAN, 2.5), "seed", id="seeded-float"),
        pytest.param(lambda: seeded_latitudes(PLAN, -1), "seed", id="seeded-negative"),
        pytest.param(lambda: _cheb(s=1.0), "s", id="cheb-s"),
        pytest.param(lambda: _cheb(epsilon=False), "epsilon", id="cheb-epsilon"),
        pytest.param(lambda: _cheb(power_sign=1.0), "power_sign", id="cheb-power_sign"),
        pytest.param(lambda: band_mask(2.5), "n", id="band_mask"),
        pytest.param(lambda: basis_index_order(-2), "n", id="basis_index_order"),
        pytest.param(lambda: mirror_alphas(2.5), "count", id="mirror_alphas"),
        pytest.param(lambda: trig_quadrature_check(1, 2, 0, 3, seed=0.5), "seed", id="trig-seed"),
    ],
)
def test_a_count_that_is_not_an_integer_is_input_error_naming_it(call, name):
    with pytest.raises(InputError, match=f"^{name} must be an? (positive |nonnegative )?integer, got "):
        call()


@pytest.mark.parametrize(
    "suite, counts, name",
    [
        pytest.param(poisedness_suite, dict(n=3, seed=-1, trials=1), "seed", id="poisedness-seed=-1"),
        pytest.param(poisedness_suite, dict(n=3, seed=0, trials=0), "trials", id="poisedness-trials=0"),
        pytest.param(chebyshev_suite, dict(rmax=2.5, seed=0), "rmax", id="chebyshev-rmax=2.5"),
        pytest.param(chebyshev_suite, dict(rmax=2, seed=-1), "seed", id="chebyshev-seed=-1"),
        pytest.param(factorization_suite, dict(mmax=2, seeds=0, seed=0), "seeds", id="factorization-seeds=0"),
        pytest.param(factorization_suite, dict(mmax=2, seeds=1.5, seed=0), "seeds", id="factorization-seeds=1.5"),
        pytest.param(factorization_suite, dict(mmax=0, seeds=1, seed=0), "mmax", id="factorization-mmax=0"),
        pytest.param(factorization_suite, dict(mmax=2, seeds=1, seed=-1), "seed", id="factorization-seed=-1"),
        pytest.param(lemmas_suite, dict(mmax=2, fold_trials=0, seed=0), "fold_trials", id="lemmas-fold_trials=0"),
        pytest.param(lemmas_suite, dict(mmax=True, fold_trials=1, seed=0), "mmax", id="lemmas-mmax=True"),
        pytest.param(lemmas_suite, dict(mmax=2, fold_trials=1, seed=0.5), "seed", id="lemmas-seed=0.5"),
        pytest.param(cubature_suite, dict(mmax=2, trig_trials=0, seed=0), "trig_trials", id="cubature-trig_trials=0"),
        pytest.param(cubature_suite, dict(mmax=0, trig_trials=1, seed=0), "mmax", id="cubature-mmax=0"),
        pytest.param(cubature_suite, dict(mmax=2, trig_trials=1, seed=-1), "seed", id="cubature-seed=-1"),
        pytest.param(dimension_suite, dict(smax=-1), "smax", id="dimension-smax=-1"),
        pytest.param(dimension_suite, dict(smax=2.0), "smax", id="dimension-smax=2.0"),
    ],
)
def test_a_bad_suite_count_is_input_error_naming_it(suite, counts, name):
    with pytest.raises(InputError, match=f"^{name} must be an? (positive |nonnegative )?integer, got "):
        suite(**counts)


def test_random_spherical_checks_the_degree_before_it_draws():
    # (n + 1) ** 2 = 4 draws at n = -3, were n not checked first
    rng = np.random.default_rng(3)
    with pytest.raises(InputError, match="^n must be a nonnegative integer, got -3$"):
        random_spherical(-3, rng)
    assert rng.standard_normal() == np.random.default_rng(3).standard_normal()


def _plain(count):
    """Results of every counted call at ``count(k)``, as JSON."""
    plan = PartitionPlan(n=count(5), lambdas=(count(2), count(1)))
    nodes = build_nodeset(PLAN, default_latitudes(PLAN))
    cert = poisedness_certificate(nodes, trials=count(2), seed=count(3))
    results = {
        "plan": [plan.n, list(plan.lambdas), plan.degrees(), plan.azimuth_half_counts()],
        "azimuths": azimuth_grid(count(3), [0.0, 1.0]).tolist(),
        "seeded": seeded_latitudes(plan, count(7)),
        "legendre": legendre_latitudes(count(3)),
        "equispaced": equispaced_latitudes(count(3)),
        "rule": CubatureRule(m=count(1), latitudes=M1_LATITUDES, weights=(1.0, 1.0)).to_json_dict(),
        "trig": trig_quadrature_check(count(3), count(2), count(1), count(4), seed=5),
        "dimension": dimension_identity_check(count(5), count(2)),
        "reduction": [list(row) for row in reduction_coefficients(count(4), count(2)).table],
        "poly": reduction_coefficients(4, 2).poly(count(1)).tolist(),
        "vector": spherical_from_vector(count(1), [1.0, 2.0, 3.0, 4.0]).coef.tolist(),
        "random": random_spherical(count(2), np.random.default_rng(1)).coef.tolist(),
        "zero": zero_spherical(count(2)).coef.tolist(),
        "cheb": chebyshev_collocation_det(_cheb(r=count(2), s=count(1), epsilon=count(0), power_sign=count(-1))),
        "certificate": [cert.passed, cert.log_abs_det, list(cert.residuals)],
    }
    return json.dumps(results)


def test_numpy_integer_counts_give_the_results_of_ints():
    assert _plain(np.int64) == _plain(int)


def test_counts_are_stored_as_ints():
    plan = PartitionPlan(n=np.int64(5), lambdas=(np.int64(2), np.int32(1)))
    rule = CubatureRule(m=np.int64(1), latitudes=M1_LATITUDES, weights=(1.0, 1.0))
    assert [type(v) for v in (plan.n, *plan.lambdas, rule.m)] == [int] * 4
