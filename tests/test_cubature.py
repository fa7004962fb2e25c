"""Tests for the latitude cubature rules."""

import json
import math

import numpy as np
import pytest

from sphinterp import (
    CubatureRule,
    InputError,
    InterpolationProblem,
    PartitionPlan,
    WeightSumError,
    apply_rule,
    basis_index_order,
    build_nodeset,
    build_rule,
    equispaced_latitudes,
    exactness_certificate,
    legendre_latitudes,
    legendre_rule,
    seeded_latitudes,
    solve,
    spherical_from_vector,
    trig_quadrature_check,
)
from sphinterp.verification import TOL_EXACTNESS, analytic_basis_integral

from helpers import cardinal_integral_weights, dense_exactness_errors

PI = math.pi


def symmetric(north):
    return list(north) + [PI - t for t in reversed(north)]


def test_m1_weights_closed_form():
    # Lagrange cardinals on +-1/sqrt(3): each integrates to exactly 1
    rule = legendre_rule(1)
    assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-14)


def test_m2_weights_match_direct_cardinal_integrals():
    rule = legendre_rule(2)
    grid = [math.cos(t) for t in rule.latitudes]
    for i in range(4):
        # direct oracle: cubic cardinal through the four grid values
        c = np.polyfit(grid, np.eye(4)[i], 3)
        integral = sum(
            2.0 * c[3 - j] / (j + 1) for j in range(4) if j % 2 == 0
        )
        assert rule.weights[i] == pytest.approx(integral, rel=1e-10)


def _oracle_latitudes(family, m):
    if family == "equispaced":
        return equispaced_latitudes(m)
    if family == "seeded":
        return symmetric(seeded_latitudes(PartitionPlan(n=2 * m - 1, lambdas=(m,)), 0)[0])
    return symmetric([math.acos(c) for c in (0.95, 0.9)])


@pytest.mark.parametrize(
    "family,m",
    [(f, m) for f in ("equispaced", "seeded") for m in range(1, 9)]
    + [("clustered", 2)]
    + [("legendre", m) for m in (1, 8, 32, 64)],
)
def test_weights_match_exact_cardinals_and_leggauss(family, m):
    if family == "legendre":
        # against numpy's Gauss-Legendre weights, which are symmetric
        _, gauss = np.polynomial.legendre.leggauss(2 * m)
        weights = np.array(legendre_rule(m).weights)
        assert np.max(np.abs(weights - gauss)) <= 1e-14
        return
    lats = _oracle_latitudes(family, m)
    exact = np.array(cardinal_integral_weights([math.cos(t) for t in lats]))
    weights = np.array(build_rule(lats).weights)
    scale = max(1.0, float(np.max(np.abs(exact))))
    assert np.max(np.abs(weights - exact)) <= 1e-12 * scale


def test_weight_symmetry_for_symmetric_latitudes():
    rule = build_rule(symmetric([0.4, 0.9, 1.3]))
    for i in range(3):
        assert rule.weights[i] == pytest.approx(rule.weights[5 - i], abs=1e-12)


def test_weights_sum_to_two_and_nodes_to_4pi():
    rule = build_rule(symmetric([0.3, 0.7, 1.0, 1.4]))
    assert sum(rule.weights) == pytest.approx(2.0, abs=1e-12)
    total = sum(w for _, _, w in rule.nodes())
    assert total == pytest.approx(4 * PI, abs=1e-10)
    assert rule.node_count() == 64


def test_build_rule_rejections():
    with pytest.raises(InputError):
        build_rule([0.4, 0.8, PI - 0.7, PI - 0.4])  # asymmetric
    with pytest.raises(InputError):
        build_rule([0.4, PI - 0.4, 0.4, PI - 0.4])  # duplicates
    with pytest.raises(InputError):
        build_rule([0.4, 0.8, PI - 0.4])  # odd count


def test_apply_constant_gives_surface_area():
    rule = legendre_rule(3)
    assert apply_rule(rule, lambda th, ph: 1.0) == pytest.approx(4 * PI, abs=1e-12)


def test_apply_z_is_zero():
    rule = legendre_rule(2)
    assert apply_rule(rule, lambda th, ph: math.cos(th)) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_apply_z_squared(m):
    rule = legendre_rule(m)
    val = apply_rule(rule, lambda th, ph: math.cos(th) ** 2)
    assert val == pytest.approx(4 * PI / 3, abs=1e-10)


def test_trig_quadrature_constant_exact():
    assert trig_quadrature_check(0, 4, 0, trials=5, seed=1) < 1e-15


def test_trig_quadrature_cos_m_phi_direct():
    # the mode cos(m phi) averages to zero on the unrotated grid: the grid
    # values alternate +1/-1, summing to zero like the true mean
    m = 3
    phis = [(2 * j) * PI / (2 * m) for j in range(2 * m)]
    direct = sum(math.cos(m * ph) for ph in phis) / (2 * m)
    assert direct == pytest.approx(0.0, abs=1e-15)
    vals = [math.cos(m * ph) for ph in phis]
    assert vals == pytest.approx([(-1) ** j for j in range(2 * m)])


@pytest.mark.parametrize("m", range(1, 9))
@pytest.mark.parametrize("alpha", [0, 1])
def test_trig_quadrature_exact_through_m(m, alpha):
    for degree in range(0, m + 1):
        err = trig_quadrature_check(degree, m, alpha, trials=10, seed=degree)
        assert err < 1e-12


def test_trig_quadrature_observed_above_m():
    # recorded, not asserted: equidistant averaging stays exact up to
    # degree 2m - 1 and first fails at the aliasing frequency 2m
    m = 4
    below = trig_quadrature_check(2 * m - 1, m, 0, trials=10, seed=2)
    at_alias = trig_quadrature_check(2 * m, m, 0, trials=10, seed=2)
    assert below < 1e-12
    assert at_alias > 1e-3


def test_exactness_legendre_m2():
    report = exactness_certificate(legendre_rule(2))
    assert report.max_abs_error < 1e-11
    assert len(report.errors) == 16


def test_exactness_arbitrary_symmetric_latitudes():
    report = exactness_certificate(build_rule([PI / 6, PI / 3, 2 * PI / 3, 5 * PI / 6]))
    assert report.max_abs_error < 1e-11


def test_exactness_odd_moment_element():
    # the k = 0 band with a_0 = t**3 integrates to zero
    rule = legendre_rule(2)
    report = exactness_certificate(rule)
    idx = basis_index_order(3).index((0, "cos", 3))
    assert analytic_basis_integral(0, 3) == 0.0
    assert abs(report.errors[idx]) < 1e-12


def test_certificate_matches_apply_rule_route():
    # dual route: the certificate's matrix contraction equals applying the
    # rule to the evaluated basis element
    rule = build_rule(symmetric([0.5, 1.1]))
    report = exactness_certificate(rule)
    order = basis_index_order(3)
    for idx in (0, 2, 5, 9, 15):
        elem = spherical_from_vector(3, np.eye(16)[idx])
        k, _, j = order[idx]
        direct = apply_rule(rule, elem.eval) - analytic_basis_integral(k, j)
        assert report.errors[idx] == pytest.approx(direct, abs=1e-11)


def _certificate_families(m):
    plan = PartitionPlan(n=2 * m - 1, lambdas=(m,))
    families = {"legendre": legendre_latitudes(m), "equispaced": equispaced_latitudes(m)}
    for seed in range(3):
        families[f"seeded{seed}"] = symmetric(seeded_latitudes(plan, seed)[0])
    return families


@pytest.mark.parametrize("m", range(1, 13))
def test_ring_certificate_matches_dense_oracle(m):
    checked = 0
    for family, lats in _certificate_families(m).items():
        try:
            rule = build_rule(lats)
        except WeightSumError:
            continue
        errors = np.array(exactness_certificate(rule).errors)
        dense = dense_exactness_errors(rule)
        scale = max(1.0, sum(abs(w) for w in rule.weights))
        assert np.max(np.abs(errors - dense)) <= 1e-13 * scale, family
        checked += 1
    assert checked >= 2


def test_certificate_never_assembles(monkeypatch):
    import sphinterp.cubature as cubature
    import sphinterp.interpolation as interpolation

    def refuse(*args, **kwargs):
        raise AssertionError("the collocation matrix was assembled")

    monkeypatch.setattr(interpolation, "assemble_at_points", refuse)
    # also catches a module-level import of the assembler into cubature
    monkeypatch.setattr(cubature, "assemble_at_points", refuse, raising=False)
    for lats in _certificate_families(4).values():
        assert exactness_certificate(build_rule(lats)).max_abs_error < 1e-11


def test_certificate_reads_the_rules_own_azimuths(monkeypatch):
    # nudge one azimuth of one ring: the certificate must see the broken
    # rule, as the dense oracle does, rather than assume exact trig sums
    rule = legendre_rule(3)
    azimuths = rule.azimuths()
    azimuths[1, 0] += 1e-3
    monkeypatch.setattr(CubatureRule, "azimuths", lambda self: azimuths)
    errors = np.array(exactness_certificate(rule).errors)
    assert np.max(np.abs(errors)) > 1e-5
    assert np.max(np.abs(errors - dense_exactness_errors(rule))) <= 1e-13


def test_m64_legendre_rule_certifies():
    report = exactness_certificate(legendre_rule(64))
    assert len(report.errors) == 128**2
    assert report.max_abs_error <= TOL_EXACTNESS


@pytest.mark.parametrize("family", ["equispaced", "seeded0"])
def test_build_rule_reports_lost_weight_sum_as_numerical_limit(family):
    with pytest.raises(WeightSumError, match="sum to") as info:
        build_rule(_certificate_families(16)[family])
    assert not isinstance(info.value, InputError)


@pytest.mark.parametrize(
    "lats",
    [
        pytest.param(lambda: equispaced_latitudes(31), id="equispaced-m31"),
        pytest.param(lambda: symmetric(seeded_latitudes(PartitionPlan(117, (59,)), 1)[0]), id="seeded-m59"),
    ],
)
def test_build_rule_reports_a_singular_moment_matrix_as_numerical_limit(lats):
    # valid, distinct mirror-paired latitudes whose even Legendre moment
    # matrix is exactly singular in float64
    with pytest.raises(WeightSumError, match="^the even Legendre moment matrix is singular in float64 at m = ") as info:
        build_rule(lats())
    assert not isinstance(info.value, InputError)


@pytest.mark.parametrize("m", range(1, 9))
def test_nonnegativity_at_legendre_latitudes(m):
    rule = legendre_rule(m)
    assert min(rule.weights) >= 0.0


def test_clustered_latitudes_weights_recorded():
    # positivity is only claimed at the Gauss-Legendre angles; clustered
    # latitudes may go negative and are merely recorded
    lats = sorted([math.acos(0.95), math.acos(0.9), math.acos(-0.9), math.acos(-0.95)])
    rule = build_rule(lats)
    assert isinstance(min(rule.weights), float)


def test_rule_json_roundtrip():
    rule = legendre_rule(3)
    back = CubatureRule.from_json_dict(json.loads(json.dumps(rule.to_json_dict())))
    assert back.m == rule.m
    assert back.latitudes == rule.latitudes
    assert back.weights == rule.weights


def test_rule_rejects_latitudes_that_do_not_mirror():
    with pytest.raises(InputError, match="mirror"):
        CubatureRule(m=1, latitudes=(0.3, 0.5), weights=(1.0, 1.0))


def test_rule_rejects_nan_weights():
    with pytest.raises(InputError, match="sum to 2"):
        CubatureRule(m=1, latitudes=(0.3, PI - 0.3), weights=(math.nan, 1.0))


@pytest.mark.parametrize(
    "data",
    [
        {"m": 1},
        {"m": "one", "latitudes": [0.3, PI - 0.3], "weights": [1.0, 1.0]},
        {"m": 1, "latitudes": 0.3, "weights": [1.0, 1.0]},
        {"m": 1, "latitudes": ["north", "south"], "weights": [1.0, 1.0]},
        {"m": 1, "latitudes": [0.3, PI - 0.3], "weights": [1.0, 1.0 + 1e-9]},
        [1, 2],
    ],
)
def test_rule_from_json_dict_malformed_is_input_error(data):
    with pytest.raises(InputError):
        CubatureRule.from_json_dict(data)


def test_trig_quadrature_rejects_zero_trials():
    with pytest.raises(InputError, match="trials"):
        trig_quadrature_check(1, 2, 0, trials=0)


def test_integrating_interpolant_matches_rule():
    # the rule is the integral of the interpolant on the matching node set
    m = 2
    rule = legendre_rule(m)
    plan = PartitionPlan(n=2 * m - 1, lambdas=(m,))
    nodes = build_nodeset(plan, [list(rule.latitudes[:m])])
    f = lambda th, ph: math.exp(math.cos(th)) + math.sin(th) * math.cos(ph)
    data = [f(th, ph) for th, ph in nodes.points()]
    report = solve(InterpolationProblem(nodes=nodes, data=tuple(data)))
    antiderivative = np.polynomial.polynomial.polyint(report.solution.coef[:, 0, 0], lbnd=-1.0)
    via_interp = 2.0 * PI * np.polynomial.polynomial.polyval(1.0, antiderivative)
    via_rule = apply_rule(rule, f)
    assert via_interp == pytest.approx(via_rule, abs=1e-8)


@pytest.mark.parametrize("m", [2.6, 2.0, True, "2"])
def test_rule_from_json_dict_rejects_a_count_that_is_not_an_integer(m):
    data = legendre_rule(2 if m is not True else 1).to_json_dict()
    data["m"] = m
    with pytest.raises(InputError, match="must be an integer"):
        CubatureRule.from_json_dict(data)


@pytest.mark.parametrize("m", range(1, 9))
def test_rule_files_round_trip_byte_for_byte(tmp_path, m):
    from sphinterp import cli

    rule, cert = tmp_path / "rule.json", tmp_path / "cert.json"
    assert cli.main(["cubature", "--m", str(m), "--out-rule", str(rule), "--out-cert", str(cert)]) == 0
    text = rule.read_text()
    back = CubatureRule.from_json_dict(json.loads(text)).to_json_dict()
    assert json.dumps(back, indent=2, sort_keys=True) + "\n" == text


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda d: d.update(nodes=[[0, 0, 0]]), "nodes differ"),
        (lambda d: d["nodes"][3].reverse(), "nodes differ"),
        (lambda d: d["nodes"].pop(), "nodes differ"),
        (lambda d: d.update(weights=[str(w) for w in d["weights"]]), "a weight must be a number"),
        (lambda d: d.update(latitudes=[str(t) for t in d["latitudes"]]), "a latitude must be a number"),
        (lambda d: d["weights"].__setitem__(0, None), "a weight must be a number"),
        (lambda d: d["latitudes"].__setitem__(0, True), "a latitude must be a number"),
    ],
)
def test_rule_from_json_dict_rejects_non_numbers_and_nodes_that_disagree(edit, match):
    data = json.loads(json.dumps(legendre_rule(2).to_json_dict()))
    edit(data)
    with pytest.raises(InputError, match=match):
        CubatureRule.from_json_dict(data)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["weights"].__setitem__(0, "1.0"), "a weight must be a number, got '1.0'"),
        (lambda d: d.update(m=2.5), "m must be an integer, got 2.5"),
    ],
)
def test_rule_reader_raises_its_own_input_error_unwrapped(edit, message):
    data = json.loads(json.dumps(legendre_rule(2).to_json_dict()))
    edit(data)
    with pytest.raises(InputError) as exc:
        CubatureRule.from_json_dict(data)
    assert str(exc.value) == message


def test_rule_json_without_nodes_loads_the_same_rule():
    data = legendre_rule(3).to_json_dict()
    nodes = data.pop("nodes")
    assert CubatureRule.from_json_dict(data).to_json_dict()["nodes"] == nodes
