"""Desk-scale verification sweeps.

Each suite returns a flat list of check rows (suite, case, metric, value,
threshold, status) so the CLI can dump them as CSV and the test suite can
assert on them. Status is ``pass``/``fail`` for asserted checks and
``info`` for values that are recorded without any claim.
"""

from __future__ import annotations

import math

import numpy as np

from .cubature import (
    analytic_basis_integral,
    apply_rule,
    build_rule,
    exactness_certificate,
    legendre_rule,
    trig_quadrature_check,
)
from .errors import PoisednessError, WeightSumError
from .factorization import (
    SIGMA_TOL,
    ChebyshevTestCase,
    chain_kernel_certificate,
    chebyshev_collocation_det,
    factor_chain,
    factor_step,
    latitude_vanishing_residuals,
    reduction_coefficients,
    reduction_system_det,
    scaled_sigma_min,
)
from .interpolation import (
    RESIDUAL_TOL,
    InterpolationProblem,
    assemble_matrix,
    poisedness_certificate,
    solve,
)
from .nodes import (
    PartitionPlan,
    azimuth_grid,
    build_nodeset,
    default_latitudes,
    dimension_identity_check,
    enumerate_partitions,
    equispaced_latitudes,
    legendre_latitudes,
    mirror,
    read_count,
    seeded_latitudes,
)
from .spherical import (
    SphericalPoly,
    basis_index_order,
    fold_azimuth_modes,
    multiply_linear_z,
    random_spherical,
    zero_spherical,
)

_PI = math.pi

TOL_PLANT_COEFF = 1e-7
TOL_FOLD = 1e-11
TOL_VANISH_EQUIV = 1e-11
TOL_CHEB_DET = 1e-14
TOL_FACTOR_RECOVER = 1e-8
TOL_EXACTNESS = 1e-10
TOL_WEIGHT_SYM = 1e-12
TOL_TOTAL_WEIGHT = 1e-10
TOL_TRIG = 1e-12
TOL_CONSISTENCY = 1e-8

SEEDED_CONFIGS = 2  # seeded latitude draws per plan, besides the default
TABLE_RMAX = 8  # reduction tables are checked for r = 2..TABLE_RMAX
POINT_SETS = 25  # jittered point sets per Chebyshev family
EQUIV_TRIALS = 100  # planted/random polynomials in the vanishing equivalence
NONNEG_MMAX = 8  # Gauss-Legendre rules checked for nonnegative weights
TRIG_MMAX = 8  # azimuth grids checked for trigonometric exactness


def _row(suite: str, case: str, metric: str, value, threshold, ok) -> dict:
    status = "info" if ok is None else ("pass" if ok else "fail")
    return {
        "suite": suite,
        "case": case,
        "metric": metric,
        "value": value,
        "threshold": threshold,
        "status": status,
    }


def _jittered_points(count: int, rng: np.random.Generator) -> list[float]:
    """Distinct seeded points in (0, 1), ascending, separation >= 0.2 slots."""
    jitter = rng.uniform(-0.4, 0.4, size=count)
    return [(q + 1 + jitter[q]) / (count + 1.0) for q in range(count)]


def _symmetric_thetas(lam: int, rng: np.random.Generator) -> list[float]:
    """2 lam mirror-paired latitudes with jittered cosines in (0, 1)."""
    return mirror(sorted(math.acos(c) for c in _jittered_points(lam, rng)))


# ---------------------------------------------------------------------------
# Poisedness (with the two-oracle agreement)
# ---------------------------------------------------------------------------


def poisedness_suite(n: int, seed: int, trials: int) -> list[dict]:
    """Certificates, plant-and-recover, and chain agreement for every plan.

    A solve that raises ``PoisednessError`` becomes a failed
    ``plant_solve_condition`` row carrying its condition estimate, so one
    unsolvable case does not end the sweep.
    """
    seed, trials = read_count(seed, "seed", 0), read_count(trials, "trials", 1)
    rows = []
    rng = np.random.default_rng(seed)
    for plan in enumerate_partitions(n):
        plan_id = ",".join(str(l) for l in plan.lambdas)
        configs = [("default", default_latitudes(plan))]
        for j in range(SEEDED_CONFIGS):
            configs.append((f"seeded{j + 1}", seeded_latitudes(plan, seed + 101 * j + 7)))
        for config, lats in configs:
            case = f"n{n}-plan({plan_id})-{config}"
            nodes = build_nodeset(plan, lats)
            cert = poisedness_certificate(nodes, trials=trials, seed=seed)
            rows.append(_row("poisedness", case, "certificate", int(cert.passed), 1, cert.passed))
            rows.append(
                _row(
                    "poisedness",
                    case,
                    "log_abs_det_finite",
                    cert.log_abs_det,
                    "finite",
                    math.isfinite(cert.log_abs_det),
                )
            )
            rows.append(_row("poisedness", case, "condition_estimate", cert.condition_estimate, "", None))
            max_res = max(cert.residuals)
            rows.append(_row("poisedness", case, "max_rhs_residual", max_res, RESIDUAL_TOL, max_res <= RESIDUAL_TOL))

            planted = random_spherical(n, rng)
            data = planted.eval(*nodes.points().T)
            try:
                report = solve(InterpolationProblem(nodes=nodes, data=tuple(data)))
            except PoisednessError as exc:
                rows.append(_row("poisedness", case, "plant_solve_condition", exc.condition_estimate, "solve raised", False))
            else:
                ref = planted.coefficient_vector()
                got = report.solution.coefficient_vector()
                coeff_err = float(np.max(np.abs(got - ref)) / max(1.0, np.max(np.abs(ref))))
                res_rel = report.residual_inf / max(1.0, float(np.max(np.abs(data))))
                rows.append(_row("poisedness", case, "plant_coeff_err", coeff_err, TOL_PLANT_COEFF, coeff_err <= TOL_PLANT_COEFF))
                rows.append(_row("poisedness", case, "plant_residual", res_rel, RESIDUAL_TOL, res_rel <= RESIDUAL_TOL))

            chain = chain_kernel_certificate(nodes)
            rows.append(_row("poisedness", case, "chain_min_sigma", chain.min_scaled_sigma, SIGMA_TOL, None))
            rows.append(
                _row(
                    "poisedness",
                    case,
                    "two_oracle_agreement",
                    int(chain.passed == cert.passed),
                    1,
                    chain.passed == cert.passed,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Node catalog
# ---------------------------------------------------------------------------


def catalog_suite(n: int) -> list[dict]:
    """Per-plan group summaries with the (n + 1)**2 total check."""
    rows = []
    for plan in enumerate_partitions(n):
        plan_id = ",".join(str(l) for l in plan.lambdas)
        case = f"n{n}-plan({plan_id})"
        total = sum(
            2 * lam * 2 * s for lam, s in zip(plan.lambdas, plan.azimuth_half_counts())
        )
        rows.append(_row("catalog", case, "summary:" + plan.summary(), total, (n + 1) ** 2, total == (n + 1) ** 2))
    return rows


# ---------------------------------------------------------------------------
# Mixed power families
# ---------------------------------------------------------------------------


def chebyshev_suite(rmax: int, seed: int) -> list[dict]:
    rmax, seed = read_count(rmax, "rmax", 1), read_count(seed, "seed", 0)
    rows = []
    rng = np.random.default_rng(seed)
    for r in range(2, rmax + 1):
        for s in range(1, r):
            for epsilon in (0, 1):
                for sign in (1, -1):
                    worst = math.inf
                    for _ in range(POINT_SETS):
                        pts = _jittered_points(r + s + 1 + epsilon, rng)
                        case_obj = ChebyshevTestCase(
                            r=r, s=s, epsilon=epsilon, power_sign=sign, sample_points=tuple(pts)
                        )
                        det = chebyshev_collocation_det(case_obj)
                        # scale by the plain Vandermonde determinant at the
                        # same points: it carries the universal clustering
                        # factor, so the ratio stays O(1) for a sound family
                        scale = abs(np.linalg.det(np.vander(np.array(pts), increasing=True)))
                        worst = min(worst, abs(det) / scale)
                    case = f"r{r}-s{s}-eps{epsilon}-sign{sign:+d}"
                    rows.append(_row("chebyshev", case, "min_scaled_det", worst, TOL_CHEB_DET, worst > TOL_CHEB_DET))
    for r in range(2, TABLE_RMAX + 1):
        for s in range(1, r):
            family = reduction_coefficients(r, s)
            min_entry = min(min(row) for row in family.table)
            rows.append(
                _row("chebyshev", f"table-r{r}-s{s}", "min_coefficient", min_entry, 0, min_entry > 0)
            )
    for r in range(2, rmax + 1):
        for s in range(1, r):
            worst = math.inf
            for _ in range(POINT_SETS):
                pts = sorted(_jittered_points(s, rng))
                worst = min(worst, reduction_system_det(r, pts))
            rows.append(
                _row("chebyshev", f"hdet-r{r}-s{s}", "min_sorted_det", worst, 0.0, worst > 0.0)
            )
    return rows


# ---------------------------------------------------------------------------
# Factorization
# ---------------------------------------------------------------------------


def factorization_suite(mmax: int, seeds: int, seed: int) -> list[dict]:
    mmax, seeds, seed = read_count(mmax, "mmax", 1), read_count(seeds, "seeds", 1), read_count(seed, "seed", 0)
    rows = []
    rng = np.random.default_rng(seed)
    for m in range(1, mmax + 1):
        for s_deg in range(m, 2 * m):
            lam = s_deg - m + 1
            new_deg = s_deg - 2 * lam
            case = f"m{m}-s{s_deg}"
            if new_deg >= 0:
                worst = 0.0
                for _ in range(seeds):
                    thetas = _symmetric_thetas(lam, rng)
                    planted = random_spherical(new_deg, rng)
                    T = planted
                    for th in thetas:
                        T = multiply_linear_z(T, math.cos(th))
                    quotient = factor_step(T, thetas)
                    ref = planted.coefficient_vector()
                    got = quotient.coefficient_vector()
                    err = float(np.max(np.abs(got - ref)) / max(1.0, np.max(np.abs(ref))))
                    worst = max(worst, err)
                rows.append(
                    _row("factorization", case, "plant_recover_err", worst, TOL_FACTOR_RECOVER, worst <= TOL_FACTOR_RECOVER)
                )
            else:
                # full-degree step: the grid is square, so kernel triviality
                # is the smallest scaled singular value of its collocation
                thetas = _symmetric_thetas(lam, rng)
                mat = assemble_matrix(build_nodeset(PartitionPlan(n=s_deg, lambdas=(lam,)), [thetas[:lam]]))
                ratio = float(scaled_sigma_min(mat))
                rows.append(_row("factorization", case, "grid_sigma_min", ratio, SIGMA_TOL, ratio > SIGMA_TOL))
                out = factor_step(zero_spherical(s_deg), thetas)
                ok = out.degree == 0 and out.coeff_scale() == 0.0
                rows.append(_row("factorization", case, "zero_in_zero_out", int(ok), 1, ok))

    for m in range(1, mmax + 1):
        n = 2 * m - 1
        for plan in enumerate_partitions(n):
            plan_id = ",".join(str(l) for l in plan.lambdas)
            nodes = build_nodeset(plan, default_latitudes(plan))
            quotients = factor_chain(zero_spherical(n), nodes)
            trace = [n] + [q.degree for q in quotients]
            # the final quotient is the zero polynomial, reported as degree 0
            ok = tuple(trace[:-1]) == plan.degrees()[:-1] and quotients[-1].coeff_scale() == 0.0
            rows.append(
                _row(
                    "factorization",
                    f"chain-n{n}-plan({plan_id})",
                    "degree_trace:" + "/".join(str(d) for d in trace),
                    int(ok),
                    1,
                    ok,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Fold and vanishing-system identities
# ---------------------------------------------------------------------------


def _plant_vanishing(T: SphericalPoly, theta: float, alpha: float) -> SphericalPoly:
    """Subtract the vanishing-system residuals from the band constants.

    Each residual moves one-for-one with the constant term of a single band
    (a_0, then a_k and b_k for k < m, then a_m or b_m over its axial
    weight), so the shifted polynomial vanishes on the fold grid.
    """
    m = (T.degree + 1) // 2
    res = latitude_vanishing_residuals(T, theta, alpha)
    coef = np.array(T.coef)
    coef[0, 0, 0] -= res[0]
    coef[0, 1:m] -= np.reshape(res[1:-1], (m - 1, 2))  # a_k, b_k for k < m
    cs2 = math.cos(alpha * _PI / 2.0)
    sn2 = math.sin(alpha * _PI / 2.0)
    if abs(cs2) >= abs(sn2):
        coef[0, m, 0] -= res[-1] / cs2
    else:
        coef[0, m, 1] -= res[-1] / sn2
    return SphericalPoly(coef)


def lemmas_suite(mmax: int, fold_trials: int, seed: int) -> list[dict]:
    mmax, fold_trials = read_count(mmax, "mmax", 1), read_count(fold_trials, "fold_trials", 1)
    seed = read_count(seed, "seed", 0)
    rows = []
    rng = np.random.default_rng(seed)
    for m in range(1, mmax + 1):
        n = 2 * m - 1
        for alpha in (0.0, 1.0, 0.37):
            worst = 0.0
            for _ in range(fold_trials):
                T = random_spherical(n, rng)
                folded = fold_azimuth_modes(T, alpha)
                theta = float(rng.uniform(0.1, _PI - 0.1))
                phis = azimuth_grid(m, alpha)
                direct = T.eval(theta, phis).tolist()
                scale = max(1.0, max(abs(v) for v in direct))
                diff = max(
                    abs(folded.eval(theta, ph) - v) for ph, v in zip(phis.tolist(), direct)
                )
                worst = max(worst, diff / scale)
            case = f"fold-m{m}-alpha{alpha}"
            rows.append(_row("lemmas", case, "max_rel_diff", worst, TOL_FOLD, worst <= TOL_FOLD))

    agree = True
    planted_both = 0
    random_both = 0
    for trial in range(EQUIV_TRIALS):
        m = int(rng.integers(1, min(mmax, 5) + 1))
        n = 2 * m - 1
        alpha = float(rng.integers(0, 2))
        theta = float(rng.uniform(0.2, _PI - 0.2))
        T = random_spherical(n, rng)
        if trial % 2 == 0:
            T = _plant_vanishing(T, theta, alpha)
        scale = max(1.0, T.coeff_scale())
        max_val = float(np.max(np.abs(T.eval(theta, azimuth_grid(m, alpha)))))
        max_res = max(abs(v) for v in latitude_vanishing_residuals(T, theta, alpha))
        vals_small = max_val <= TOL_VANISH_EQUIV * scale
        res_small = max_res <= TOL_VANISH_EQUIV * scale
        if vals_small != res_small:
            agree = False
        if trial % 2 == 0 and vals_small and res_small:
            planted_both += 1
        if trial % 2 == 1 and not vals_small and not res_small:
            random_both += 1
    rows.append(_row("lemmas", "vanish-equivalence", "agreements", int(agree), 1, agree))
    rows.append(
        _row("lemmas", "vanish-equivalence", "planted_all_vanish", planted_both, EQUIV_TRIALS // 2 + EQUIV_TRIALS % 2, planted_both == EQUIV_TRIALS // 2 + EQUIV_TRIALS % 2)
    )
    rows.append(
        _row("lemmas", "vanish-equivalence", "random_none_vanish", random_both, EQUIV_TRIALS // 2, random_both == EQUIV_TRIALS // 2)
    )
    return rows


# ---------------------------------------------------------------------------
# Cubature
# ---------------------------------------------------------------------------


def cubature_suite(mmax: int, trig_trials: int, seed: int) -> list[dict]:
    mmax, trig_trials = read_count(mmax, "mmax", 1), read_count(trig_trials, "trig_trials", 1)
    seed = read_count(seed, "seed", 0)
    rows = []
    rng = np.random.default_rng(seed)
    for m in range(1, mmax + 1):
        families = {
            "legendre": legendre_latitudes(m),
            "equispaced": equispaced_latitudes(m),
            "seeded": _symmetric_thetas(m, rng),
        }
        for family, lats in families.items():
            case = f"m{m}-{family}"
            try:
                rule = build_rule(lats)
            except WeightSumError as exc:
                rows.append(_row("cubature", case, "weight_sum", str(exc), "build_rule raised", False))
                continue
            report = exactness_certificate(rule)
            worst = 0.0
            for err, (k, _kind, j) in zip(report.errors, basis_index_order(2 * m - 1)):
                true = analytic_basis_integral(k, j)
                worst = max(worst, abs(err) / max(1.0, abs(true)))
            rows.append(_row("cubature", case, "exactness_scaled_err", worst, TOL_EXACTNESS, worst <= TOL_EXACTNESS))
            sym = max(
                abs(rule.weights[i] - rule.weights[2 * m - 1 - i]) for i in range(m)
            )
            rows.append(_row("cubature", case, "weight_symmetry", sym, TOL_WEIGHT_SYM, sym <= TOL_WEIGHT_SYM))
            total = sum(w for _, _, w in rule.nodes())
            rows.append(
                _row("cubature", case, "total_weight_err", abs(total - 4 * _PI), TOL_TOTAL_WEIGHT, abs(total - 4 * _PI) <= TOL_TOTAL_WEIGHT)
            )
            area = apply_rule(rule, lambda th, ph: 1.0)
            rows.append(
                _row("cubature", case, "surface_area_err", abs(area - 4 * _PI), TOL_EXACTNESS * 4 * _PI, abs(area - 4 * _PI) <= TOL_EXACTNESS * 4 * _PI)
            )
            if m >= 2:  # z**2 has degree 2, beyond the m = 1 exactness range
                z2 = apply_rule(rule, lambda th, ph: math.cos(th) ** 2)
                rows.append(
                    _row("cubature", case, "z2_moment_err", abs(z2 - 4 * _PI / 3), TOL_EXACTNESS * 4 * _PI, abs(z2 - 4 * _PI / 3) <= TOL_EXACTNESS * 4 * _PI)
                )

        # agreement with interpolation through the plan with one group
        rule = legendre_rule(m)
        nodes = build_nodeset(PartitionPlan(n=2 * m - 1, lambdas=(m,)), [rule.latitudes[:m]])
        f = lambda th, ph: math.exp(math.cos(th))
        data = [f(th, ph) for th, ph in nodes.points().tolist()]
        try:
            report = solve(InterpolationProblem(nodes=nodes, data=tuple(data)))
        except PoisednessError as exc:
            rows.append(_row("cubature", f"m{m}-legendre", "interp_consistency", exc.condition_estimate, "solve raised", False))
        else:
            # a_0 integrated over [-1, 1]: odd terms cancel, even terms give 2 c_j / (j + 1)
            a0 = report.solution.coef[:, 0, 0].tolist()
            via_interp = 2.0 * _PI * sum(2.0 * c / (j + 1) for j, c in enumerate(a0) if j % 2 == 0)
            via_rule = apply_rule(rule, f)
            diff = abs(via_interp - via_rule)
            rows.append(
                _row("cubature", f"m{m}-legendre", "interp_consistency", diff, TOL_CONSISTENCY, diff <= TOL_CONSISTENCY)
            )

    for m in range(1, NONNEG_MMAX + 1):
        rule = legendre_rule(m)
        wmin = min(rule.weights)
        rows.append(_row("cubature", f"m{m}-legendre", "min_weight", wmin, 0.0, wmin >= 0.0))

    clustered = mirror([math.acos(c) for c in (0.95, 0.9)])
    wmin = min(build_rule(clustered).weights)
    rows.append(_row("cubature", "m2-clustered", "min_weight", wmin, "", None))

    for m in range(1, TRIG_MMAX + 1):
        for alpha in (0, 1):
            for degree in range(0, 2 * m + 1):
                err = trig_quadrature_check(degree, m, alpha, trig_trials, seed=seed + degree)
                case = f"trig-m{m}-alpha{alpha}-deg{degree}"
                if degree <= m:
                    rows.append(_row("cubature", case, "max_err", err, TOL_TRIG, err <= TOL_TRIG))
                else:
                    rows.append(_row("cubature", case, "max_err", err, "", None))
    return rows


# ---------------------------------------------------------------------------
# Dimension identity
# ---------------------------------------------------------------------------


def dimension_suite(smax: int) -> list[dict]:
    rows = []
    for s in range(0, read_count(smax, "smax", 0) + 1):
        for lam in range(1, (s + 1) // 2 + 1):
            ok = dimension_identity_check(s, lam)
            rows.append(_row("dimension", f"s{s}-lam{lam}", "identity", int(ok), 1, ok))
    return rows
