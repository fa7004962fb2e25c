"""Input checks that reject a malformed call raise ``InputError`` with a message naming the fault."""

import numpy as np
import pytest

from sphinterp import (
    ChebyshevTestCase,
    CubatureRule,
    InputError,
    PartitionPlan,
    build_nodeset,
    check_mirrored,
    default_latitudes,
    factor_chain,
    fold_azimuth_modes,
    reduction_coefficients,
    reduction_system_det,
    spherical_from_vector,
    trig_quadrature_check,
    zero_spherical,
)

N5_PLAN = PartitionPlan(n=5, lambdas=(3,))
POINTS = (0.2, 0.5, 0.8, 0.9)


@pytest.mark.parametrize(
    "call, fragment",
    [
        pytest.param(
            lambda: CubatureRule(m=1, latitudes=(0.3,), weights=(1.0, 1.0)),
            "need 2 latitudes and weights",
            id="rule-lengths",
        ),
        pytest.param(lambda: trig_quadrature_check(1, 2, 2, 3), "alpha must be 0 or 1", id="trig-alpha"),
        pytest.param(lambda: ChebyshevTestCase(2, 1, 2, 1, POINTS), "epsilon must be 0 or 1", id="cheb-epsilon"),
        pytest.param(lambda: ChebyshevTestCase(2, 1, 0, 0, POINTS), "power_sign must be +1 or -1", id="cheb-power_sign"),
        pytest.param(lambda: reduction_coefficients(3, 1).poly(1), "k must lie in 0..0", id="reduction-poly-k"),
        pytest.param(lambda: reduction_coefficients(2, 2), "need r > s > 0", id="reduction-r-s"),
        pytest.param(lambda: reduction_system_det(3, [0.5, 1.5]), "open interval (0, 1)", id="reduction-det-points"),
        pytest.param(
            lambda: factor_chain(zero_spherical(3), build_nodeset(N5_PLAN, default_latitudes(N5_PLAN))),
            "deg T = 3 must equal n = 5",
            id="factor_chain-degree",
        ),
        pytest.param(lambda: check_mirrored(["a", "b"]), "latitudes must be a list of numbers", id="check_mirrored"),
        pytest.param(lambda: PartitionPlan(n=1, lambdas=()), "plan needs at least one part", id="plan-empty"),
        pytest.param(
            lambda: build_nodeset(PartitionPlan(1, (1,)), [["x"]]), "per-group lists of numbers", id="nodeset-numbers"
        ),
        pytest.param(
            lambda: build_nodeset(PartitionPlan(3, (1, 1)), [[0.5]]),
            "expected 2 latitude groups, got 1",
            id="nodeset-groups",
        ),
        pytest.param(lambda: spherical_from_vector(1, np.zeros(3)), "must have length 4", id="vector-length"),
        pytest.param(lambda: fold_azimuth_modes(zero_spherical(1), 2.0), "alpha must lie in [0, 2)", id="fold-alpha"),
    ],
)
def test_a_malformed_call_is_input_error_with_its_message(call, fragment):
    with pytest.raises(InputError) as info:
        call()
    assert fragment in str(info.value)
