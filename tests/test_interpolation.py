"""Tests for collocation assembly, solving, and poisedness certificates."""

import dataclasses
import gc
import math
import weakref
from collections import Counter

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
from sphinterp.interpolation import _CHAINS, _Chain, _class_blocks
from sphinterp.nodes import NodeSet, azimuth_grid, mirror, mirror_alphas
from sphinterp.verification import TOL_PLANT_COEFF

from helpers import dense_solve, extended_solve, realified

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
    # rings a degree-(2s - 1) T is all of V_g, so the complex middle blocks
    # map the unknowns a - i fold b of its gathered (cos, sin) coefficients
    # to sqrt(2) times each ring's orthonormal rfft at the classes
    # 0 < p < s, and the real end blocks map theirs (the cos coefficients of
    # band 0; the cos, then the sin, coefficients of band s) to Re at 0 and
    # s; the blocks read the powers 0..2s - 1 and the (cos, sin) of k phi at
    # each ring's first azimuth from per-ring tables
    rng = np.random.default_rng(100 * s + int(100 * alpha))
    T = random_spherical(2 * s - 1, rng)
    theta = np.sort(rng.uniform(0.1, PI - 0.1, size=2 * s))
    tags = np.full(2 * s, alpha)
    powers = np.arange(2 * s)
    tables = np.cos(theta)[:, None] ** powers, np.sin(theta)[:, None] ** powers
    kphi = azimuth_grid(s, tags)[:, :1] * powers
    mid, (j, k, fold), end = _class_blocks(*tables, np.stack([np.cos(kphi), np.sin(kphi)], axis=-1), s)
    spectra = np.fft.rfft(T.eval(theta[:, None], azimuth_grid(s, tags)), axis=1, norm="ortho")
    unknowns = T.coef[j, k, 0] - 1j * fold * T.coef[j, k, 1]
    end_unknowns = np.stack([T.coef[:, 0, 0], T.coef[:s, s].T.ravel()])
    pairs = [
        (np.einsum("pab,pb->pa", mid, unknowns), math.sqrt(2.0) * spectra[:, 1:s].T),
        (np.einsum("cab,cb->ca", end, end_unknowns), np.stack([spectra[:, 0].real, spectra[:, s].real])),
    ]
    for got, expected in pairs:  # the middle pair is empty at s = 1
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected), initial=0.0) <= 1e-13 * np.max(np.abs(expected), initial=0.0)


def _broadcast_blocks(t, sn, alpha, s, mid_cols):
    """A group's middle and end blocks with every power a broadcast ``**``."""
    lam = len(t) // 2
    beta = alpha * PI / (2 * s)
    j, k, _ = mid_cols
    mag = math.sqrt(s) * t[None, :, None] ** j[:, None, :] * sn[None, :, None] ** k[:, None, :]
    phase = k[:, None, :] * beta[None, :, None]
    fold = np.where(k < s, 1.0, -1.0)[:, None, :]
    root_m = math.sqrt(2 * s)
    nyquist = root_m * t[:, None] ** np.arange(lam) * sn[:, None] ** s
    nyquist_cols = np.hstack([nyquist * np.cos(s * beta)[:, None], nyquist * np.sin(s * beta)[:, None]])
    end = np.stack([root_m * t[:, None] ** np.arange(2 * lam), nyquist_cols])
    return mag * (np.cos(phase) + 1j * fold * np.sin(phase)), end


def _plans_to_41():
    """Every plan at n <= 9, then the single, all-ones and two-group plans at n = 21, 31 and 41."""
    for n in range(1, 10, 2):
        yield from enumerate_partitions(n)
    for half in (11, 16, 21):
        yield from (PartitionPlan(2 * half - 1, lams) for lams in [(half,), (1,) * half, (half // 2, half - half // 2)])


def _chains_to_41():
    """(node set, chain) over ``_plans_to_41`` at default and seed-3 latitudes."""
    for plan in _plans_to_41():
        for lats in (default_latitudes(plan), seeded_latitudes(plan, 3)):
            nodes = build_nodeset(plan, lats)
            yield nodes, _Chain(nodes)


def test_class_blocks_match_the_broadcast_powers_bit_for_bit():
    # the gathers from the chain's power tables, which hold the powers 0..n
    # at every ring, must reproduce the broadcast t**j sin**k exactly; n = 7
    # plans (2, 2) and (1, 1, 2) hold the s = 2 Nyquist column, where a
    # table pow differs from numpy's squaring
    for nodes, chain in _chains_to_41():
        for g in chain.groups:
            th = nodes.theta[g.rings]
            mid, end = _broadcast_blocks(np.cos(th), np.sin(th), nodes.alpha[g.rings], g.s, g.mid_cols)
            assert g.mid.shape == mid.shape == (g.s - 1, 2 * g.lam, 2 * g.lam)
            assert (g.mid == mid).all(), (nodes.plan.lambdas, g.s)
            assert (g.end == end).all(), (nodes.plan.lambdas, g.s)


def test_complex_blocks_have_the_singular_values_of_their_real_form():
    # a complex block's singular values, each counted twice, are those of
    # its real 4 lam x 4 lam form; the chain counts them that way
    for nodes, chain in _chains_to_41():
        for g in chain.groups:
            doubled = np.sort(np.repeat(np.linalg.svd(g.mid, compute_uv=False), 2, axis=-1), axis=-1)
            real = np.sort(np.linalg.svd(realified(g.mid), compute_uv=False), axis=-1)
            scale = real.max(axis=-1, keepdims=True, initial=0.0)
            assert np.all(np.abs(doubled - real) <= 1e-13 * scale), (nodes.count(), g.lam, g.s)


@pytest.mark.parametrize("cols", [1, 8])
def test_chain_values_match_the_collocation_matrix(cols):
    # dual route: ring-wise band values and one matmul per group of rings
    # against the assembled matrix times canonical coefficient vectors, from
    # the first group and from a middle one
    rng = np.random.default_rng(cols)
    for nodes, chain in _chains_to_41():
        polys = [random_spherical(nodes.n, rng) for _ in range(cols)]
        coef = np.stack([T.coef for T in polys], axis=-1)
        expected = assemble_matrix(nodes) @ np.stack([T.coefficient_vector() for T in polys], axis=1)
        scale = np.max(np.abs(coef))
        for first in {0, len(chain.groups) // 2}:
            got = chain.values(coef, slice(first, None))
            rows = expected[chain.groups[first].nodes.start :]
            assert got.shape == rows.shape
            assert np.max(np.abs(got - rows)) <= 1e-13 * scale, (nodes.plan.lambdas, first)


def test_psi_tables_match_python_product_loop():
    # reference: the schoolbook product, one factor (t - r) at a time over the
    # latitude cosines of every earlier ring, in Python floats; column j of
    # the chain's Psi_g table must hold t**j Psi_g bit for bit (a pairwise
    # product such as polyfromroots rounds differently and would change the
    # solver's coefficients)
    for seed in range(8):
        for n in (1, 3, 5, 7, 9, 21):
            for plan in enumerate_partitions(n)[:16]:
                nodes = build_nodeset(plan, seeded_latitudes(plan, seed))
                for g, rings in zip(_Chain(nodes).groups, plan.ring_slices()):
                    ref = [1.0]
                    for r in np.cos(nodes.theta[: rings.start]).tolist():
                        out = [0.0] * (len(ref) + 1)
                        for i, c in enumerate(ref):
                            out[i] += c * -r
                            out[i + 1] += c
                        ref = out
                    table = [[0.0] * (2 * g.lam) for _ in range(n + 1)]
                    for j in range(2 * g.lam):
                        for i, c in enumerate(ref):
                            table[i + j][j] = c
                    assert g.psi_table.tolist() == table


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


def test_problem_names_the_first_non_finite_entry():
    data = [1.0] * 16
    data[9], data[4] = math.nan, -math.inf
    with pytest.raises(InputError, match=r"got -inf at index 4$"):
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


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"trials": 2.5}, "trials"),
        ({"trials": True}, "trials"),
        ({"trials": "3"}, "trials"),
        ({"seed": -1}, "seed"),
        ({"seed": 0.5}, "seed"),
        ({"seed": False}, "seed"),
    ],
)
def test_certificate_rejects_bad_trials_and_seed(kwargs, name):
    with pytest.raises(InputError, match=f"^{name} must be a"):
        poisedness_certificate(example_nodes(), **kwargs)


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


def test_latitude_shared_across_groups_is_exactly_singular(monkeypatch):
    # Psi_1 vanishes on group 1 when it repeats group 0's latitude; NodeSet
    # rejects such a set, so it is built around that check; the chain build
    # flags it without solving the probes
    plan = PartitionPlan(n=3, lambdas=(1, 1))
    nodes = object.__new__(NodeSet)
    fields = {"plan": plan, "theta": np.array(mirror([0.6]) * 2), "alpha": np.tile(mirror_alphas(2), 2)}
    for name, value in fields.items():
        object.__setattr__(nodes, name, value)

    def refuse(self, rhs):
        raise AssertionError("the probes were solved")

    monkeypatch.setattr(_Chain, "solve", refuse)
    chain = _Chain(nodes)
    assert chain.exactly_singular
    assert chain.log_abs_det == -math.inf and chain.condition_estimate == math.inf


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


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended-precision long double"
)
@pytest.mark.parametrize("lambdas", [(1,) * 11, (5, 6)], ids=["all-ones", "5-6"])
def test_multi_group_chain_solve_matches_extended_oracle_n21(lambdas):
    # reversed dealing: the cosines (q + 1) / (M + 1) go to the groups from
    # the equator out, so the later groups sit nearest the poles, where
    # Psi_g is smallest; kappa is about 4e9 (all ones) and 2e11 (5, 6)
    plan = PartitionPlan(n=21, lambdas=lambdas)
    cosines = iter((q + 1) / 12.0 for q in range(11))
    nodes = build_nodeset(plan, [[math.acos(next(cosines)) for _ in range(lam)] for lam in lambdas])
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


@pytest.mark.parametrize(
    "plan, latitudes",
    [
        (PartitionPlan(n=3, lambdas=(2,)), [[PI / 6, PI / 6 * (1.0 + 4e-16)]]),  # near-coalescing
        (PartitionPlan(n=31, lambdas=(16,)), None),  # single group, default latitudes
    ],
    ids=["n3-near-coalescing", "n31-single-group"],
)
def test_raising_solve_reports_the_certificate_numbers(plan, latitudes):
    nodes = build_nodeset(plan, latitudes or default_latitudes(plan))
    with pytest.raises(PoisednessError) as exc:
        solve(InterpolationProblem(nodes=nodes, data=(1.0,) * nodes.count()))
    cert = poisedness_certificate(nodes, trials=1, seed=0)
    assert exc.value.condition_estimate == cert.condition_estimate
    assert exc.value.pivot_min == cert.pivot_min


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


def _counting_chain(monkeypatch):
    """Fresh chain cache, and counts of chain builds, block SVDs and chain
    solves by their number of columns."""
    import sphinterp.interpolation as interpolation

    counts = {"build": 0, "svd": 0, "solve": Counter()}
    build, chain_solve, svd = _Chain.__init__, _Chain.solve, np.linalg.svd

    def counted_build(self, nodes):
        counts["build"] += 1
        build(self, nodes)

    def counted_svd(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    def counted_solve(self, rhs):
        counts["solve"][rhs.shape[1]] += 1
        return chain_solve(self, rhs)

    monkeypatch.setattr(_Chain, "__init__", counted_build)
    monkeypatch.setattr(_Chain, "solve", counted_solve)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(interpolation, "_CHAINS", weakref.WeakKeyDictionary())
    return interpolation, counts


@pytest.mark.parametrize("solve_first", [True, False])
def test_solve_and_certificate_share_one_chain(monkeypatch, solve_first):
    # one chain build, one block SVD sweep (two SVDs for each of the three
    # groups) and one solve of the 3 probe columns per node set, in either
    # order; the 1 data column of solve and the 2 of the certificate are
    # solved twice each (the solve and its refinement step), and a second
    # certificate call solves only its own data
    interpolation, counts = _counting_chain(monkeypatch)
    plan = PartitionPlan(n=9, lambdas=(2, 1, 2))
    nodes = build_nodeset(plan, default_latitudes(plan))
    calls = [
        lambda: solve(InterpolationProblem(nodes=nodes, data=(1.0,) * nodes.count())),
        lambda: poisedness_certificate(nodes, trials=2, seed=0),
    ]
    for call in calls if solve_first else calls[::-1]:
        call()
    assert interpolation._PROBES == 3
    assert counts == {"build": 1, "svd": 6, "solve": {3: 1, 1: 2, 2: 2}}
    poisedness_certificate(nodes, trials=2, seed=1)
    assert counts == {"build": 1, "svd": 6, "solve": {3: 1, 1: 2, 2: 4}}
    assert len(interpolation._CHAINS) == 1


def test_chain_cache_entry_dies_with_its_node_set():
    gc.collect()
    before = len(_CHAINS)
    nodes = build_nodeset(PartitionPlan(n=5, lambdas=(2, 1)), [[0.4, 0.9], [1.2]])
    problem = InterpolationProblem(nodes=nodes, data=(1.0,) * nodes.count())
    report, cert = solve(problem), poisedness_certificate(nodes, trials=2, seed=0)
    alive = weakref.ref(nodes)
    assert len(_CHAINS) == before + 1
    del nodes, problem
    gc.collect()
    assert alive() is None
    assert len(_CHAINS) == before
    assert report.residual_inf < 1e-10 and cert.passed


def _same_report(a, b) -> bool:
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if field.name == "solution":
            x, y = x.coef, y.coef
        if not np.array_equal(x, y):
            return False
    return True


@pytest.mark.parametrize(
    "lambdas, seed", [((2,), 3), ((1, 1), 3), ((2, 1, 2), 7), ((3, 1, 1), 7), ((8,), 3), ((4, 4), 5)]
)
def test_warm_reports_equal_cold_reports(lambdas, seed):
    # each node set is rebuilt from the same fields, so one call of each
    # pair runs cold and the other reads the chain the first one built
    plan = PartitionPlan(n=2 * sum(lambdas) - 1, lambdas=lambdas)
    base = build_nodeset(plan, seeded_latitudes(plan, seed))
    data = tuple(np.random.default_rng(seed).uniform(-1.0, 1.0, base.count()))

    def fresh():
        return NodeSet(plan=plan, theta=base.theta, alpha=base.alpha)

    first, second = fresh(), fresh()
    cold_solve = solve(InterpolationProblem(nodes=first, data=data))
    warm_cert = poisedness_certificate(first, trials=3, seed=seed)
    cold_cert = poisedness_certificate(second, trials=3, seed=seed)
    warm_solve = solve(InterpolationProblem(nodes=second, data=data))
    assert _same_report(warm_solve, cold_solve)
    assert _same_report(warm_cert, cold_cert)
    assert poisedness_certificate(first, trials=3, seed=seed) == warm_cert
