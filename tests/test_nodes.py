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
    seeded_latitudes,
    zero_spherical,
)
from sphinterp.nodes import LatitudeRing, NodeGroup

PI = math.pi


def test_azimuth_grid_s2_alpha0():
    grid = azimuth_grid(2, 0.0)
    assert grid.angles == pytest.approx([0.0, PI / 2, PI, 3 * PI / 2])


def test_azimuth_grid_s2_alpha1():
    grid = azimuth_grid(2, 1.0)
    assert grid.angles == pytest.approx([PI / 4, 3 * PI / 4, 5 * PI / 4, 7 * PI / 4])


def test_azimuth_grid_uniform_gaps():
    grid = azimuth_grid(3, 0.0)
    assert len(grid.angles) == 6
    gaps = np.diff(grid.angles)
    assert np.allclose(gaps, PI / 3)
    assert all(0.0 <= a < 2 * PI for a in grid.angles)


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


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 11])
def test_partition_counts_are_powers_of_two(n):
    assert len(enumerate_partitions(n)) == 2 ** ((n - 1) // 2)


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


def test_plan_degree_sequence():
    plan = PartitionPlan(n=7, lambdas=(1, 2, 1))
    assert plan.degrees() == (7, 5, 1, -1)
    assert plan.azimuth_half_counts() == (7, 4, 1)


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
    assert len(nodes.groups) == 1
    assert len(nodes.groups[0].rings) == 4
    assert all(len(r.grid.angles) == 4 for r in nodes.groups[0].rings)


def test_build_nodeset_two_groups():
    plan = PartitionPlan(n=3, lambdas=(1, 1))
    nodes = build_nodeset(plan, [[PI / 5], [2 * PI / 5]])
    sizes = [(len(g.rings), g.rings[0].grid.count) for g in nodes.groups]
    assert sizes == [(2, 6), (2, 2)]
    assert nodes.count() == 16


@pytest.mark.parametrize("n", [3, 5, 7])
def test_every_plan_totals_square(n):
    for plan in enumerate_partitions(n):
        nodes = build_nodeset(plan, default_latitudes(plan))
        assert nodes.count() == (n + 1) ** 2


def test_nodeset_mirror_symmetry_and_alpha_pattern():
    plan = PartitionPlan(n=5, lambdas=(2, 1))
    nodes = build_nodeset(plan, default_latitudes(plan))
    for k, group in enumerate(nodes.groups):
        lam = plan.lambdas[k]
        for i in range(lam):
            north = group.rings[i]
            south = group.rings[2 * lam - 1 - i]
            assert south.theta == pytest.approx(PI - north.theta, abs=1e-14)
            assert north.alpha == 0.0
            assert south.alpha == 1.0


def test_mirrored_grids_differ_by_half_step_rotation():
    plan = PartitionPlan(n=3, lambdas=(2,))
    nodes = build_nodeset(plan, [[PI / 6, PI / 3]])
    group = nodes.groups[0]
    s = group.s
    north = np.array(group.rings[0].grid.angles)
    south = np.array(group.rings[3].grid.angles)
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
    assert back.points() == nodes.points()
    assert [r.alpha for g in back.groups for r in g.rings] == [
        r.alpha for g in nodes.groups for r in g.rings
    ]


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


def test_nodeset_rejects_ring_alpha_that_differs_from_its_grid():
    plan = PartitionPlan(n=3, lambdas=(2,))
    group = build_nodeset(plan, [[PI / 6, PI / 3]]).groups[0]
    south = group.rings[3]
    # tagged unrotated but carrying the rotated grid: to_json_dict would
    # record alpha 0, and reading that back would move the points
    relabeled = LatitudeRing(theta=south.theta, alpha=0.0, grid=south.grid)
    rings = group.rings[:3] + (relabeled,)
    with pytest.raises(InputError, match="alpha"):
        NodeSet(plan=plan, groups=(NodeGroup(index=1, s=group.s, rings=rings),))


def _nodeset_with_mirror_error(error):
    plan = PartitionPlan(n=3, lambdas=(2,))
    data = build_nodeset(plan, [[PI / 6, PI / 3]]).to_json_dict()
    data["groups"][0]["latitudes"][3]["theta"] += error
    NodeSet.from_json_dict(data)


def _rule_with_mirror_error(error):
    build_rule([PI / 6, PI / 3, PI - PI / 3, PI - PI / 6 + error])


def _factor_step_with_mirror_error(error):
    factor_step(zero_spherical(3), m=2, lam=2, thetas=[PI / 6, PI / 3, PI - PI / 3, PI - PI / 6 + error])


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
