"""Tests for collocation assembly, solving, and poisedness certificates."""

import math

import numpy as np
import pytest

from sphinterp import (
    InputError,
    InterpolationProblem,
    PartitionPlan,
    PoisednessError,
    assemble_at_points,
    assemble_matrix,
    basis_index_order,
    build_nodeset,
    default_latitudes,
    enumerate_partitions,
    poisedness_certificate,
    random_spherical,
    seeded_latitudes,
    solve,
    spherical_from_vector,
)
from sphinterp.interpolation import _class_blocks
from sphinterp.nodes import NodeSet, azimuth_grid, mirror
from sphinterp.verification import TOL_PLANT_COEFF

from helpers import dense_solve, extended_solve

PI = math.pi


def example_nodes():
    return build_nodeset(PartitionPlan(n=3, lambdas=(2,)), [[PI / 6, PI / 3]])


def test_assembly_is_generic_over_points():
    pts = [(0.3, 0.1), (1.0, 2.0), (2.0, 4.0), (2.8, 5.5)]
    M = assemble_at_points(1, pts)
    assert M.shape == (4, 4)


def test_constant_column_is_ones():
    nodes = example_nodes()
    M = assemble_matrix(nodes)
    col = basis_index_order(3).index((0, "cos", 0))
    assert np.allclose(M[:, col], 1.0)


def test_assembly_agrees_with_basis_evaluation():
    # dual route: structural columns vs evaluating each basis element, at the
    # example nodes (n = 3) and at multi-group node sets of degree 1, 5 and 9
    node_sets = [example_nodes()] + [
        build_nodeset(plan, seeded_latitudes(plan, 1))
        for plan in (PartitionPlan(1, (1,)), PartitionPlan(5, (1, 2)), PartitionPlan(9, (2, 1, 2)))
    ]
    for nodes in node_sets:
        M = assemble_matrix(nodes)
        th, ph = nodes.points().T
        assert M.shape == (nodes.count(), nodes.count())
        for j, e_j in enumerate(np.eye(nodes.count())):
            direct = spherical_from_vector(nodes.n, e_j).eval(th, ph)
            assert np.allclose(M[:, j], direct, atol=1e-14)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 0.37])
@pytest.mark.parametrize("s", range(1, 8))
def test_class_blocks_are_the_ring_spectra_of_the_coefficients(s, alpha):
    # the solver's spelling of the alias identity k <-> 2s - k: on 2 lam = 2s
    # rings a degree-(2s - 1) T is all of V_g, so the middle blocks map its
    # gathered coefficients to sqrt(2) (Re, Im) of each ring's orthonormal
    # rfft at the classes 0 < p < s, and the end blocks to Re at 0 and s
    rng = np.random.default_rng(100 * s + int(100 * alpha))
    T = random_spherical(2 * s - 1, rng)
    theta = np.sort(rng.uniform(0.1, PI - 0.1, size=2 * s))
    tags = np.full(2 * s, alpha)
    mid, mid_index, end, end_index = _class_blocks(np.cos(theta), np.sin(theta), tags, s, s, 2 * s - 1)
    spectra = np.fft.rfft(T.eval(theta[:, None], azimuth_grid(s, tags)), axis=1, norm="ortho")
    middle = spectra[:, 1:s].T
    pairs = [
        (np.einsum("pab,pb->pa", mid, T.coef[mid_index]), math.sqrt(2.0) * np.hstack([middle.real, middle.imag])),
        (np.einsum("cab,cb->ca", end, T.coef[end_index]), np.stack([spectra[:, 0].real, spectra[:, s].real])),
    ]
    for got, expected in pairs:  # the middle pair is empty at s = 1
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected), initial=0.0) <= 1e-13 * np.max(np.abs(expected), initial=0.0)


def test_example_nodeset_is_full_rank():
    nodes = example_nodes()
    cert = poisedness_certificate(nodes, trials=2, seed=0)
    assert cert.pivot_min > 1e-6
    assert math.isfinite(cert.log_abs_det)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_problem_rejects_non_finite_data(bad):
    data = [1.0] * 16
    data[5] = bad
    with pytest.raises(InputError, match="index 5"):
        InterpolationProblem(nodes=example_nodes(), data=tuple(data))


def test_solve_constant_data():
    nodes = example_nodes()
    report = solve(InterpolationProblem(nodes=nodes, data=(1.0,) * 16))
    sol = report.solution
    assert sol.coef[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
    vec = sol.coefficient_vector()
    vec[basis_index_order(3).index((0, "cos", 0))] = 0.0
    assert np.max(np.abs(vec)) < 1e-10


def test_solve_plant_and_recover():
    rng = np.random.default_rng(11)
    nodes = example_nodes()
    planted = random_spherical(3, rng)
    data = [planted.eval(th, ph) for th, ph in nodes.points()]
    report = solve(InterpolationProblem(nodes=nodes, data=tuple(data)))
    ref = planted.coefficient_vector()
    got = report.solution.coefficient_vector()
    assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 1e-8
    assert report.residual_inf <= 1e-8 * max(1.0, max(abs(v) for v in data))


def test_solve_z_data_recovers_linear_a0():
    nodes = example_nodes()
    data = [math.cos(th) for th, _ in nodes.points()]
    report = solve(InterpolationProblem(nodes=nodes, data=tuple(data)))
    vec = report.solution.coefficient_vector()
    target = basis_index_order(3).index((0, "cos", 1))
    assert vec[target] == pytest.approx(1.0, abs=1e-10)
    vec[target] = 0.0
    assert np.max(np.abs(vec)) < 1e-10


def test_solve_is_deterministic():
    rng = np.random.default_rng(12)
    nodes = example_nodes()
    data = tuple(rng.uniform(-1, 1, 16))
    a = solve(InterpolationProblem(nodes=nodes, data=data))
    b = solve(InterpolationProblem(nodes=nodes, data=data))
    assert np.array_equal(a.solution.coefficient_vector(), b.solution.coefficient_vector())


def test_solve_linearity():
    rng = np.random.default_rng(13)
    nodes = example_nodes()
    f = rng.uniform(-1, 1, 16)
    g = rng.uniform(-1, 1, 16)
    al, be = 0.7, -1.3
    sol_f = solve(InterpolationProblem(nodes=nodes, data=tuple(f))).solution.coefficient_vector()
    sol_g = solve(InterpolationProblem(nodes=nodes, data=tuple(g))).solution.coefficient_vector()
    sol_mix = solve(
        InterpolationProblem(nodes=nodes, data=tuple(al * f + be * g))
    ).solution.coefficient_vector()
    ref = al * sol_f + be * sol_g
    assert np.max(np.abs(sol_mix - ref)) / max(1.0, np.max(np.abs(ref))) < 1e-9


def test_data_length_mismatch_rejected():
    nodes = example_nodes()
    with pytest.raises(InputError):
        InterpolationProblem(nodes=nodes, data=(1.0,) * 15)


def test_near_coalescing_latitudes_raise_poisedness_error():
    theta = PI / 6
    nodes = build_nodeset(
        PartitionPlan(n=3, lambdas=(2,)), [[theta, theta * (1.0 + 4e-16)]]
    )
    with pytest.raises(PoisednessError) as exc:
        solve(InterpolationProblem(nodes=nodes, data=(1.0,) * 16))
    assert exc.value.pivot_min > 0.0  # conditioning collapse, not exact singularity
    assert exc.value.condition_estimate > 1e12


def test_certificate_fails_gracefully_on_collapse():
    theta = PI / 6
    nodes = build_nodeset(
        PartitionPlan(n=3, lambdas=(2,)), [[theta, theta * (1.0 + 4e-16)]]
    )
    cert = poisedness_certificate(nodes, trials=2, seed=0)
    assert not cert.passed or cert.condition_estimate > 1e12


def test_certificate_passes_on_all_n5_plans():
    from sphinterp import enumerate_partitions

    for plan in enumerate_partitions(5):
        nodes = build_nodeset(plan, default_latitudes(plan))
        cert = poisedness_certificate(nodes, trials=3, seed=1)
        assert cert.passed, plan.lambdas


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_plant_and_recover_twenty_targets_per_plan(n):
    from sphinterp import enumerate_partitions

    rng = np.random.default_rng(1000 + n)
    for plan in enumerate_partitions(n):
        nodes = build_nodeset(plan, default_latitudes(plan))
        pts = nodes.points()
        th = np.array([p[0] for p in pts])
        ph = np.array([p[1] for p in pts])
        for _ in range(20):
            planted = random_spherical(n, rng)
            data = planted.eval(th, ph)
            report = solve(InterpolationProblem(nodes=nodes, data=tuple(data)))
            ref = planted.coefficient_vector()
            got = report.solution.coefficient_vector()
            err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
            assert err < 1e-7, (plan.lambdas, err)


def _bypassed_nodes():
    # rotation removed: both hemispheres on the unrotated grid
    plan = PartitionPlan(n=3, lambdas=(1, 1))
    theta = [th for group_lats in default_latitudes(plan) for th in mirror(group_lats)]
    return NodeSet(plan=plan, theta=theta, alpha=np.zeros(len(theta)))


def test_alpha_bypass_outcome_recorded_not_asserted():
    # the poisedness guarantee does not cover this set, so only record the
    # certificate outcome
    cert = poisedness_certificate(_bypassed_nodes(), trials=2, seed=0)
    assert isinstance(cert.passed, bool)
    assert cert.pivot_min >= 0.0


def test_certificate_rejects_zero_trials():
    # no right-hand side tried means nothing certified
    with pytest.raises(InputError, match="trials"):
        poisedness_certificate(example_nodes(), trials=0)


def test_certificate_report_fields():
    cert = poisedness_certificate(example_nodes(), trials=4, seed=9)
    assert cert.passed
    assert cert.condition_estimate >= 1.0
    assert len(cert.residuals) == 4
    assert all(r <= 1e-8 for r in cert.residuals)


def test_alpha_bypass_nyquist_class_is_singular():
    # sin(s phi) vanishes on every unrotated ring, so the frequency-s block
    # has an identically zero column: the certificate fails without raising
    nodes = _bypassed_nodes()
    cert = poisedness_certificate(nodes, trials=2, seed=0)
    assert not cert.passed
    assert cert.log_abs_det == -math.inf
    assert cert.residuals == (math.inf, math.inf)
    with pytest.raises(PoisednessError, match="exactly singular") as exc:
        solve(InterpolationProblem(nodes=nodes, data=(1.0,) * 16))
    assert exc.value.condition_estimate == math.inf


def _coefficient_gap(x, ref) -> float:
    return float(np.max(np.abs(x - ref)) / max(1.0, np.max(np.abs(ref))))


def _chain_coefficients(nodes, data):
    return solve(InterpolationProblem(nodes=nodes, data=tuple(data))).solution.coefficient_vector()


@pytest.mark.parametrize("family", ["default", "seeded"])
@pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
def test_chain_solve_matches_dense_oracle(n, family):
    rng = np.random.default_rng(300 + n)
    for plan in enumerate_partitions(n):
        lats = default_latitudes(plan) if family == "default" else seeded_latitudes(plan, 7)
        nodes = build_nodeset(plan, lats)
        data = rng.uniform(-1.0, 1.0, nodes.count())
        gap = _coefficient_gap(_chain_coefficients(nodes, data), dense_solve(assemble_matrix(nodes), data))
        assert gap <= TOL_PLANT_COEFF, (plan.lambdas, gap)


def test_single_group_chain_solve_matches_dense_oracle_n13():
    plan = PartitionPlan(n=13, lambdas=(7,))
    nodes = build_nodeset(plan, default_latitudes(plan))
    data = np.random.default_rng(13).uniform(-1.0, 1.0, nodes.count())
    gap = _coefficient_gap(_chain_coefficients(nodes, data), dense_solve(assemble_matrix(nodes), data))
    assert gap <= TOL_PLANT_COEFF


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended-precision long double"
)
def test_single_group_chain_solve_matches_extended_oracle_n21():
    # at n = 21 (condition 5e10) the float64 dense LU is itself off by up
    # to about 1e-7, so elimination in extended precision is the reference
    plan = PartitionPlan(n=21, lambdas=(11,))
    nodes = build_nodeset(plan, default_latitudes(plan))
    data = np.random.default_rng(21).uniform(-1.0, 1.0, nodes.count())
    reference = extended_solve(assemble_matrix(nodes), data).astype(float)
    assert _coefficient_gap(_chain_coefficients(nodes, data), reference) <= TOL_PLANT_COEFF


@pytest.mark.parametrize("family", ["default", "seeded"])
@pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
def test_log_abs_det_matches_dense_slogdet(n, family):
    for plan in enumerate_partitions(n):
        lats = default_latitudes(plan) if family == "default" else seeded_latitudes(plan, 7)
        nodes = build_nodeset(plan, lats)
        _, logdet = np.linalg.slogdet(assemble_matrix(nodes))
        cert = poisedness_certificate(nodes, trials=1, seed=0)
        assert cert.log_abs_det == pytest.approx(logdet, rel=1e-10, abs=1e-10), plan.lambdas


@pytest.mark.parametrize("lambdas", [(2,), (1, 1), (2, 1, 2), (3, 1, 1)])
def test_solve_and_certificate_report_the_same_pivot_min(lambdas):
    plan = PartitionPlan(n=2 * sum(lambdas) - 1, lambdas=lambdas)
    nodes = build_nodeset(plan, seeded_latitudes(plan, 7))
    report = solve(InterpolationProblem(nodes=nodes, data=(1.0,) * nodes.count()))
    assert report.pivot_min == poisedness_certificate(nodes, trials=1, seed=0).pivot_min


@pytest.mark.parametrize("family", ["default", "seeded"])
@pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
def test_condition_estimate_brackets_infinity_norm_condition(n, family):
    for plan in enumerate_partitions(n):
        lats = default_latitudes(plan) if family == "default" else seeded_latitudes(plan, 7)
        nodes = build_nodeset(plan, lats)
        matrix = assemble_matrix(nodes)
        kappa = np.linalg.norm(matrix, np.inf) * np.linalg.norm(np.linalg.inv(matrix), np.inf)
        report = solve(InterpolationProblem(nodes=nodes, data=(1.0,) * nodes.count()))
        cert = poisedness_certificate(nodes, trials=1, seed=0)
        assert report.condition_estimate == cert.condition_estimate
        assert kappa / 100.0 <= report.condition_estimate <= kappa, (plan.lambdas, kappa)


def test_solve_and_certificate_never_assemble(monkeypatch):
    import sphinterp.interpolation as interpolation

    def refuse(*args, **kwargs):
        raise AssertionError("the collocation matrix was assembled")

    monkeypatch.setattr(interpolation, "assemble_at_points", refuse)
    plan = PartitionPlan(n=9, lambdas=(2, 1, 2))
    nodes = build_nodeset(plan, default_latitudes(plan))
    report = solve(InterpolationProblem(nodes=nodes, data=(1.0,) * nodes.count()))
    assert report.residual_inf < 1e-10
    assert poisedness_certificate(nodes, trials=2, seed=0).passed
