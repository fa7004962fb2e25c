"""Tests for node families: azimuth grids, plans, node sets, latitudes."""

import json
import math

import numpy as np
import pytest

from sphinterp import (
    InputError,
    NodeSet,
    PartitionPlan,
    azimuth_grid,
    build_nodeset,
    build_rule,
    default_latitudes,
    dimension_identity_check,
    enumerate_partitions,
    factor_step,
    legendre_latitudes,
    mirror,
    mirror_alphas,
    seeded_latitudes,
    zero_spherical,
)
from sphinterp.nodes import read_count, read_number

PI = math.pi


def test_azimuth_grid_s2_alpha0():
    assert azimuth_grid(2, 0.0).tolist() == pytest.approx([0.0, PI / 2, PI, 3 * PI / 2])


def test_azimuth_grid_s2_alpha1():
    assert azimuth_grid(2, 1.0).tolist() == pytest.approx([PI / 4, 3 * PI / 4, 5 * PI / 4, 7 * PI / 4])


def test_azimuth_grid_uniform_gaps():
    grid = azimuth_grid(3, 0.0)
    assert len(grid) == 6
    gaps = np.diff(grid)
    assert np.allclose(gaps, PI / 3)
    assert all(0.0 <= a < 2 * PI for a in grid)


def test_azimuth_grid_validation():
    with pytest.raises(InputError):
        azimuth_grid(0, 0.0)
    with pytest.raises(InputError):
        azimuth_grid(2, 2.0)
    with pytest.raises(InputError):
        azimuth_grid(2, -0.1)


def test_partitions_n3():
    plans = enumerate_partitions(3)
    assert [p.lambdas for p in plans] == [(2,), (1, 1)]


def test_partitions_n5():
    plans = enumerate_partitions(5)
    assert [p.lambdas for p in plans] == [(3,), (1, 2), (2, 1), (1, 1, 1)]


def test_partitions_n7_count():
    assert len(enumerate_partitions(7)) == 8


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21])
def test_partition_counts_are_powers_of_two(n):
    # distinct plans, shortest first, then lexicographic
    plans = [p.lambdas for p in enumerate_partitions(n)]
    assert len(plans) == len(set(plans)) == 2 ** ((n - 1) // 2)
    assert plans == sorted(plans, key=lambda lambdas: (len(lambdas), lambdas))


def test_partitions_reject_even_degree():
    with pytest.raises(InputError):
        enumerate_partitions(4)


def test_plan_validation():
    with pytest.raises(InputError):
        PartitionPlan(n=3, lambdas=(1,))  # sums to 1, needs 2
    with pytest.raises(InputError):
        PartitionPlan(n=4, lambdas=(2,))
    with pytest.raises(InputError):
        PartitionPlan(n=3, lambdas=(2, 0))


@pytest.mark.parametrize("n, lambdas", [(5.0, (3,)), (True, (1,)), ("5", (3,)), (None, (3,)), (1.5, (1,))])
def test_plan_degree_must_be_an_integer(n, lambdas):
    # a float degree would reach numpy's range and arange and fail there
    # with a TypeError, and True would make a plan of degree True
    with pytest.raises(InputError, match="n must be an odd positive integer"):
        PartitionPlan(n=n, lambdas=lambdas)
    with pytest.raises(InputError, match="n must be an odd positive integer"):
        enumerate_partitions(n)


@pytest.mark.parametrize("n", [5, np.int64(5), np.int32(5)])
def test_plan_degree_accepts_python_and_numpy_ints(n):
    plan = PartitionPlan(n=n, lambdas=(1, 2))
    assert type(plan.n) is int and plan == PartitionPlan(n=5, lambdas=(1, 2))
    assert [p.lambdas for p in enumerate_partitions(n)] == [p.lambdas for p in enumerate_partitions(5)]
    nodes = build_nodeset(plan, default_latitudes(plan))
    assert json.loads(json.dumps(nodes.to_json_dict()))["n"] == 5


def test_plan_degree_sequence():
    plan = PartitionPlan(n=7, lambdas=(1, 2, 1))
    assert plan.degrees() == (7, 5, 1, -1)
    assert plan.azimuth_half_counts() == (7, 4, 1)


@pytest.mark.parametrize("n", range(1, 16, 2))
def test_every_plan_has_positive_degrees_until_the_last_step(n):
    for plan in enumerate_partitions(n):
        degs = plan.degrees()
        assert degs[-1] == -1 and all(d >= 1 for d in degs[:-1])
        assert all(s >= 1 for s in plan.azimuth_half_counts())


def test_plan_summaries_match_catalog():
    assert PartitionPlan(n=3, lambdas=(2,)).summary() == "4 latitudes with 4 points"
    assert (
        PartitionPlan(n=3, lambdas=(1, 1)).summary()
        == "2 latitudes with 6 points and 2 latitudes with 2 points"
    )
    assert (
        PartitionPlan(n=7, lambdas=(3, 1)).summary()
        == "6 latitudes with 10 points and 2 latitudes with 2 points"
    )


def test_build_nodeset_single_group():
    plan = PartitionPlan(n=3, lambdas=(2,))
    nodes = build_nodeset(plan, [[PI / 6, PI / 3]])
    assert nodes.count() == 16
    assert plan.ring_slices() == (slice(0, 4),)
    assert len(nodes.theta) == 4
    assert nodes.points()[:, 0].tolist() == np.repeat(nodes.theta, 4).tolist()


def test_build_nodeset_two_groups():
    plan = PartitionPlan(n=3, lambdas=(1, 1))
    nodes = build_nodeset(plan, [[PI / 5], [2 * PI / 5]])
    sizes = [(len(nodes.theta[rings]), 2 * s) for rings, s in zip(plan.ring_slices(), plan.azimuth_half_counts())]
    assert sizes == [(2, 6), (2, 2)]
    assert nodes.points()[:, 0].tolist() == np.repeat(nodes.theta, [6, 6, 2, 2]).tolist()
    assert nodes.count() == 16


@pytest.mark.parametrize("n", [3, 5, 7])
def test_every_plan_totals_square(n):
    for plan in enumerate_partitions(n):
        nodes = build_nodeset(plan, default_latitudes(plan))
        assert nodes.count() == (n + 1) ** 2


def test_nodeset_mirror_symmetry_and_alpha_pattern():
    plan = PartitionPlan(n=5, lambdas=(2, 1))
    nodes = build_nodeset(plan, default_latitudes(plan))
    for rings, lam in zip(plan.ring_slices(), plan.lambdas):
        theta, alpha = nodes.theta[rings], nodes.alpha[rings]
        for i in range(lam):
            assert theta[2 * lam - 1 - i] == pytest.approx(PI - theta[i], abs=1e-14)
            assert alpha[i] == 0.0
            assert alpha[2 * lam - 1 - i] == 1.0


def test_mirrored_grids_differ_by_half_step_rotation():
    plan = PartitionPlan(n=3, lambdas=(2,))
    nodes = build_nodeset(plan, [[PI / 6, PI / 3]])
    s = plan.azimuth_half_counts()[0]
    phi = nodes.points()[:, 1].reshape(4, 2 * s)
    north, south = phi[0], phi[3]
    assert np.allclose(south - north, PI / (2 * s))


def test_nodeset_points_pairwise_distinct_on_sphere():
    plan = PartitionPlan(n=3, lambdas=(1, 1))
    nodes = build_nodeset(plan, default_latitudes(plan))
    xyz = []
    for th, ph in nodes.points():
        xyz.append(
            (math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th))
        )
    xyz = np.array(xyz)
    diff = xyz[:, None, :] - xyz[None, :, :]
    dist = np.sqrt((diff**2).sum(-1))
    dist[np.diag_indices(len(xyz))] = np.inf
    assert dist.min() > 1e-3


def test_build_nodeset_rejections():
    plan = PartitionPlan(n=3, lambdas=(2,))
    with pytest.raises(InputError):
        build_nodeset(plan, [[PI / 6, PI / 6]])  # duplicate
    with pytest.raises(InputError):
        build_nodeset(plan, [[PI / 6, PI / 2]])  # equator
    with pytest.raises(InputError):
        build_nodeset(plan, [[PI / 6, 2.0]])  # beyond pi/2
    with pytest.raises(InputError):
        build_nodeset(plan, [[PI / 6]])  # wrong count


def test_default_latitudes_are_valid_everywhere():
    for n in (3, 5, 7, 9):
        for plan in enumerate_partitions(n):
            lats = default_latitudes(plan)
            flat = [t for group in lats for t in group]
            assert len(set(flat)) == len(flat)
            assert all(0.0 < t < PI / 2 for t in flat)


def test_seeded_latitudes_are_valid_and_deterministic():
    plan = PartitionPlan(n=7, lambdas=(2, 2))
    a = seeded_latitudes(plan, 42)
    b = seeded_latitudes(plan, 42)
    assert a == b
    flat = [t for group in a for t in group]
    assert len(set(flat)) == len(flat)
    assert all(0.0 < t < PI / 2 for t in flat)


def test_legendre_m1_closed_form():
    lats = legendre_latitudes(1)
    assert lats == pytest.approx(
        [math.acos(1.0 / math.sqrt(3.0)), math.acos(-1.0 / math.sqrt(3.0))]
    )


def test_legendre_m2_closed_form():
    # zeros of the degree-4 polynomial: +-sqrt((3 +- 2 sqrt(6/5)) / 7)
    inner = math.sqrt((3.0 - 2.0 * math.sqrt(6.0 / 5.0)) / 7.0)
    outer = math.sqrt((3.0 + 2.0 * math.sqrt(6.0 / 5.0)) / 7.0)
    lats = legendre_latitudes(2)
    expected = [math.acos(outer), math.acos(inner), math.acos(-inner), math.acos(-outer)]
    assert lats == pytest.approx(expected, abs=1e-14)
    for i in range(2):
        assert lats[3 - i] == PI - lats[i]  # exact by construction


@pytest.mark.parametrize("m", range(1, 9))
def test_legendre_residuals_and_symmetry(m):
    def legendre(nn, x):
        p_prev, p = 1.0, x
        for k in range(2, nn + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        return p

    lats = legendre_latitudes(m)
    for th in lats:
        assert abs(legendre(2 * m, math.cos(th))) < 1e-13
    for i in range(m):
        assert abs(lats[2 * m - 1 - i] - (PI - lats[i])) <= 1e-14  # exact pairing


def test_dimension_identity_instances():
    assert dimension_identity_check(3, 2)  # 16 = 0 + 4*4
    assert dimension_identity_check(5, 1)  # 36 = 16 + 2*10
    assert dimension_identity_check(7, 3)  # 64 = 4 + 6*10
    with pytest.raises(InputError):
        dimension_identity_check(3, 3)  # s - 2 lam < -1


def test_nodeset_json_roundtrip():
    plan = PartitionPlan(n=5, lambdas=(2, 1))
    nodes = build_nodeset(plan, default_latitudes(plan))
    data = nodes.to_json_dict()
    text = json.dumps(data)
    back = NodeSet.from_json_dict(json.loads(text))
    assert back.plan == nodes.plan
    assert np.array_equal(back.points(), nodes.points())
    assert back.alpha.tolist() == nodes.alpha.tolist()


def test_nodeset_json_contains_contract_fields():
    plan = PartitionPlan(n=3, lambdas=(2,))
    nodes = build_nodeset(plan, [[PI / 6, PI / 3]])
    data = nodes.to_json_dict()
    assert data["n"] == 3
    assert data["lambdas"] == [2]
    assert len(data["points"]) == 16
    group = data["groups"][0]
    assert group["k"] == 1 and group["s"] == 2
    assert [lat["index"] for lat in group["latitudes"]] == [1, 2, 3, 4]


def _nodeset_with_mirror_error(error):
    plan = PartitionPlan(n=3, lambdas=(2,))
    data = build_nodeset(plan, [[PI / 6, PI / 3]]).to_json_dict()
    data["groups"][0]["latitudes"][3]["theta"] += error
    del data["points"]  # the edit moves that ring's points
    NodeSet.from_json_dict(data)


def _rule_with_mirror_error(error):
    build_rule([PI / 6, PI / 3, PI - PI / 3, PI - PI / 6 + error])


def _factor_step_with_mirror_error(error):
    factor_step(zero_spherical(3), [PI / 6, PI / 3, PI - PI / 3, PI - PI / 6 + error])


@pytest.mark.parametrize(
    "check", [_nodeset_with_mirror_error, _rule_with_mirror_error, _factor_step_with_mirror_error]
)
@pytest.mark.parametrize("error, accepted", [(5e-15, True), (5e-13, False)])
def test_mirror_tolerance_is_shared(check, error, accepted):
    if accepted:
        check(error)
    else:
        with pytest.raises(InputError, match="mirror"):
            check(error)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 0.37])
def test_azimuth_grid_is_the_scalar_formula_bit_for_bit(alpha):
    for s in range(1, 41):
        expected = [(2 * j + alpha) * PI / (2 * s) for j in range(2 * s)]
        assert azimuth_grid(s, alpha).tolist() == expected
        assert azimuth_grid(s, [alpha, alpha]).tolist() == [expected, expected]


def test_mirror_alphas_rotate_the_southern_half():
    assert mirror_alphas(6).tolist() == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    plan = PartitionPlan(n=5, lambdas=(1, 2))
    nodes = build_nodeset(plan, default_latitudes(plan))
    assert nodes.alpha.tolist() == mirror_alphas(2).tolist() + mirror_alphas(4).tolist()


def test_nodeset_copies_its_arrays_and_freezes_them():
    plan = PartitionPlan(n=3, lambdas=(2,))
    theta = np.array(mirror([PI / 6, PI / 3]))
    alpha = mirror_alphas(4)
    nodes = NodeSet(plan=plan, theta=theta, alpha=alpha)
    theta[0] = alpha[0] = 0.5
    assert nodes.theta[0] == PI / 6 and nodes.alpha[0] == 0.0
    for values in (nodes.theta, nodes.alpha):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.25


@pytest.mark.parametrize(
    "theta, alpha, match",
    [
        (mirror([PI / 6]), [0.0, 1.0], "shape"),
        (mirror([PI / 6, PI / 3]), [[0.0, 0.0], [1.0, 1.0]], "shape"),
        (mirror([PI / 6, math.nan]), [0.0, 0.0, 1.0, 1.0], "inside"),
        (mirror([PI / 6, PI / 3]), [0.0, 0.0, 1.0, math.nan], r"\[0, 2\)"),
        (mirror([PI / 6, PI / 3]), [0.0, 0.0, 1.0, 2.0], r"\[0, 2\)"),
        (mirror([PI / 6, PI / 3]), [0.0, 0.0, 1.0, -0.5], r"\[0, 2\)"),
    ],
)
def test_nodeset_rejects_bad_arrays(theta, alpha, match):
    with pytest.raises(InputError, match=match):
        NodeSet(plan=PartitionPlan(n=3, lambdas=(2,)), theta=theta, alpha=alpha)


@pytest.mark.parametrize(
    "check",
    [
        lambda lats: build_nodeset(PartitionPlan(n=3, lambdas=(2,)), [lats]),
        lambda lats: build_rule(mirror(lats)),
        lambda lats: factor_step(zero_spherical(3), mirror(lats)),
    ],
    ids=["nodeset", "rule", "factor_step"],
)
def test_latitudes_whose_cosines_coincide_in_float64_are_rejected(check):
    # 1e-9 != 2e-9, but both cosines round to 1.0 (and their mirrors' to -1.0)
    assert math.cos(1e-9) == math.cos(2e-9) == 1.0
    with pytest.raises(InputError, match="latitudes must have pairwise distinct cosines"):
        check([1e-9, 2e-9])


def test_nodeset_rejects_cosines_that_coincide_across_groups():
    plan = PartitionPlan(n=3, lambdas=(1, 1))
    with pytest.raises(InputError, match="pairwise distinct cosines across all groups"):
        build_nodeset(plan, [[1e-9], [2e-9]])


def test_nodeset_rings_must_mirror_within_their_group():
    # four mirror-paired rings, but dealt 1 + 1 across the groups of plan (1, 1)
    with pytest.raises(InputError, match="mirror"):
        NodeSet(plan=PartitionPlan(n=3, lambdas=(1, 1)), theta=mirror([PI / 6, PI / 3]), alpha=mirror_alphas(4))


def _nodeset_json(n=3, plan="1,1"):
    parts = tuple(int(p) for p in plan.split(","))
    plan = PartitionPlan(n=n, lambdas=parts)
    return build_nodeset(plan, default_latitudes(plan)).to_json_dict()


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda d: d.update(n=3.9), "n must be an integer"),
        (lambda d: d.update(n=True), "n must be an integer"),
        (lambda d: d.update(lambdas=[1.0, 1]), "plan part must be an integer"),
        (lambda d: d["groups"][0].update(s=3.5), "s must be an integer"),
        (lambda d: d["groups"][0].update(k=True), "k must be an integer"),
        (lambda d: d["groups"][0]["latitudes"][1].update(index=2.0), "index must be an integer"),
        (lambda d: [g.update(k=7) for g in d["groups"]], "group 1 must have k = 1"),
        (lambda d: d["groups"][1].update(k=1), "group 2 must have k = 2"),
        (lambda d: d["groups"][0].update(s=2), "group 1 must have k = 1 and s = 3"),
        (lambda d: d["groups"][0]["latitudes"][0].update(index=2), "latitude 1 of group 1 has index 2"),
        (lambda d: d["groups"][1]["latitudes"].pop(), "group 2 must have 2 latitudes"),
        (lambda d: d["groups"].pop(), "group count"),
        (lambda d: d.update(points=[[0, 0]]), "points differ"),
        (lambda d: d["points"][5].reverse(), "points differ"),
        (lambda d: d["groups"][1]["latitudes"][1].update(alpha=0.0), "points differ"),
        (lambda d: (lat := d["groups"][0]["latitudes"][0]).update(theta=str(lat["theta"])), "theta must be a number"),
        (lambda d: d["groups"][0]["latitudes"][0].update(theta=None), "theta must be a number"),
        (lambda d: d["groups"][0]["latitudes"][0].update(alpha=False), "alpha must be a number"),
        (lambda d: d["groups"][0]["latitudes"][1].update(alpha=True), "alpha must be a number"),
        (lambda d: d["groups"][1]["latitudes"][0].update(alpha="0"), "alpha must be a number"),
    ],
)
def test_nodeset_json_rejects_counts_and_derived_fields_that_disagree(edit, match):
    data = _nodeset_json()
    edit(data)
    with pytest.raises(InputError, match=match):
        NodeSet.from_json_dict(data)


@pytest.mark.parametrize("value", [0, 3, 0.5, -1e300])
def test_read_number_accepts_json_numbers_as_floats(value):
    got = read_number(value, "x")
    assert type(got) is float and got == value


@pytest.mark.parametrize(
    "value, low, message",
    [
        (2.0, None, "x must be an integer, got 2.0"),
        (True, None, "x must be an integer, got True"),
        ("3", None, "x must be an integer, got '3'"),
        (-1, 0, "x must be a nonnegative integer, got -1"),
        (False, 0, "x must be a nonnegative integer, got False"),
        (0, 1, "x must be a positive integer, got 0"),
        (1.0, 1, "x must be a positive integer, got 1.0"),
    ],
)
def test_read_count_rejects_what_is_not_a_count_of_the_bound(value, low, message):
    with pytest.raises(InputError) as exc:
        read_count(value, "x", low)
    assert str(exc.value) == message


@pytest.mark.parametrize("value, low", [(-5, None), (0, 0), (3, 1), (np.int64(3), 1), (np.uint8(0), 0)])
def test_read_count_returns_python_ints(value, low):
    got = read_count(value, "x", low)
    assert type(got) is int and got == value


def test_nodeset_json_without_points_loads_the_same_node_set():
    data = _nodeset_json(n=5, plan="2,1")
    points = data.pop("points")
    assert NodeSet.from_json_dict(data).points().tolist() == points


def _gen_nodes_text(tmp_path, *args):
    from sphinterp import cli

    out = tmp_path / "nodes.json"
    assert cli.main(["gen-nodes", *args, "--out", str(out)]) == 0
    return out.read_text()


def _lat_file_args(tmp_path):
    lat_file = tmp_path / "lats.json"
    lat_file.write_text(json.dumps([[0.3, 1.2], [0.7]]))
    return ["--n", "5", "--plan", "2,1", "--latitudes", "file", "--lat-file", str(lat_file)]


@pytest.mark.parametrize(
    "family",
    [f"default-n{n}" for n in (1, 3, 5, 7, 9)] + [f"legendre-n{n}" for n in (1, 3, 5, 7, 9)] + ["lat-file"],
)
def test_gen_nodes_files_round_trip_byte_for_byte(tmp_path, family):
    if family == "lat-file":
        arg_sets = [_lat_file_args(tmp_path)]
    else:
        kind, n = family.split("-n")
        plans = enumerate_partitions(int(n)) if kind == "default" else [PartitionPlan(int(n), ((int(n) + 1) // 2,))]
        arg_sets = [
            ["--n", n, "--plan", ",".join(map(str, plan.lambdas)), "--latitudes", kind] for plan in plans
        ]
    for args in arg_sets:
        text = _gen_nodes_text(tmp_path, *args)
        back = NodeSet.from_json_dict(json.loads(text)).to_json_dict()
        assert json.dumps(back, indent=2, sort_keys=True) + "\n" == text


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_points_match_the_ring_by_ring_loop(n):
    for plan in enumerate_partitions(n):
        nodes = build_nodeset(plan, seeded_latitudes(plan, n))
        expected = []
        for rings, s in zip(plan.ring_slices(), plan.azimuth_half_counts()):
            for th, a in zip(nodes.theta[rings].tolist(), nodes.alpha[rings].tolist()):
                expected += [[th, (2 * j + a) * PI / (2 * s)] for j in range(2 * s)]
        assert nodes.points().tolist() == expected
