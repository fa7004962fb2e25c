"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines on stdout. Tolerances are pinned here and in
``sphinterp.verification``; nothing is deferred to calibration.
"""

import math
import time

import numpy as np
import pytest

from sphinterp import cli
from sphinterp import verification as V
from sphinterp import (
    basis_index_order,
    enumerate_partitions,
)

PI = math.pi


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _failures(rows):
    return [r for r in rows if r["status"] == "fail"]


# ---------------------------------------------------------------------------
# 1. Poisedness across every composition plan of n in {3, 5, 7, 9}
# ---------------------------------------------------------------------------


def test_criterion_01_poisedness():
    t0 = time.time()
    rows = []
    plan_count = 0
    for n in (3, 5, 7, 9):
        plan_count += len(enumerate_partitions(n))
        rows += V.poisedness_suite(n, seed=0, trials=3)
    elapsed = time.time() - t0
    checked = [
        r
        for r in rows
        if r["metric"]
        in ("certificate", "log_abs_det_finite", "max_rhs_residual", "plant_coeff_err", "plant_residual")
    ]
    bad = _failures(checked)
    ok = plan_count == 30 and not bad and elapsed < 30.0
    _report(
        1,
        "poisedness for all 30 plans, 3 configs each",
        ok,
        f"{len(checked)} checks, {elapsed:.1f}s" + (f", first fail {bad[0]}" if bad else ""),
    )


# ---------------------------------------------------------------------------
# 2. The node catalog for n = 3, 5, 7
# ---------------------------------------------------------------------------

EXPECTED_CATALOG = {
    3: {
        (2,): "4 latitudes with 4 points",
        (1, 1): "2 latitudes with 6 points and 2 latitudes with 2 points",
    },
    5: {
        (3,): "6 latitudes with 6 points",
        (1, 2): "2 latitudes with 10 points and 4 latitudes with 4 points",
        (2, 1): "4 latitudes with 8 points and 2 latitudes with 2 points",
        (1, 1, 1): "2 latitudes with 10 points, 2 latitudes with 6 points and 2 latitudes with 2 points",
    },
    7: {
        (4,): "8 latitudes with 8 points",
        (2, 2): "4 latitudes with 12 points and 4 latitudes with 4 points",
        (1, 3): "2 latitudes with 14 points and 6 latitudes with 6 points",
        (3, 1): "6 latitudes with 10 points and 2 latitudes with 2 points",
        (1, 1, 2): "2 latitudes with 14 points, 2 latitudes with 10 points and 4 latitudes with 4 points",
        (1, 2, 1): "2 latitudes with 14 points, 4 latitudes with 8 points and 2 latitudes with 2 points",
        (2, 1, 1): "4 latitudes with 12 points, 2 latitudes with 6 points and 2 latitudes with 2 points",
        (1, 1, 1, 1): "2 latitudes with 14 points, 2 latitudes with 10 points, "
        "2 latitudes with 6 points and 2 latitudes with 2 points",
    },
}


def test_criterion_02_example_catalog(tmp_path, capsys):
    ok = True
    detail = ""
    for n, table in EXPECTED_CATALOG.items():
        plans = enumerate_partitions(n)
        if {p.lambdas for p in plans} != set(table):
            ok, detail = False, f"n={n}: plan set mismatch"
            break
        for plan in plans:
            plan_arg = ",".join(str(l) for l in plan.lambdas)
            out = tmp_path / f"nodes-{n}-{plan_arg}.json"
            code = cli.main(
                ["gen-nodes", "--n", str(n), "--plan", plan_arg, "--out", str(out)]
            )
            printed = capsys.readouterr().out
            expected = f"{(n + 1) ** 2} points: {table[plan.lambdas]}"
            if code != 0 or expected not in printed:
                ok = False
                detail = f"n={n} plan {plan.lambdas}: got {printed.strip()!r}"
                break
        if not ok:
            break
    catalog_rows = []
    for n in EXPECTED_CATALOG:
        catalog_rows += V.catalog_suite(n)
    ok = ok and not _failures(catalog_rows)
    _report(2, "node catalog for n = 3, 5, 7", ok, detail)


# ---------------------------------------------------------------------------
# 3. Factorization plant-and-recover and chain traces
# ---------------------------------------------------------------------------


def test_criterion_03_factorization():
    rows = V.factorization_suite(mmax=5, seeds=20, seed=0)
    bad = _failures(rows)
    recover = [r for r in rows if r["metric"] == "plant_recover_err"]
    traces = [r for r in rows if r["metric"].startswith("degree_trace")]
    ok = not bad and len(recover) == 10 and len(traces) == sum(
        2 ** ((2 * m - 2) // 2) for m in range(1, 6)
    )
    _report(
        3,
        "factorization plant-and-recover, m <= 5, 20 seeds",
        ok,
        f"{len(recover)} step cases, {len(traces)} chain traces"
        + (f", first fail {bad[0]}" if bad else ""),
    )


# ---------------------------------------------------------------------------
# 4. Collocation determinants and positive coefficient tables
# ---------------------------------------------------------------------------


def test_criterion_04_chebyshev_systems():
    rows = V.chebyshev_suite(rmax=6, seed=0)
    bad = _failures(rows)
    dets = [r for r in rows if r["metric"] == "min_scaled_det"]
    tables = [r for r in rows if r["metric"] == "min_coefficient"]
    hdets = [r for r in rows if r["metric"] == "min_sorted_det"]
    ok = not bad and len(dets) == 60 and len(tables) == 28 and len(hdets) == 15
    _report(
        4,
        "collocation dets r <= 6, tables r <= 8, sorted dets r <= 6",
        ok,
        f"{len(dets)} det sweeps, {len(tables)} tables" + (f", first fail {bad[0]}" if bad else ""),
    )


# ---------------------------------------------------------------------------
# 5. Fold identity and vanishing-system equivalence
# ---------------------------------------------------------------------------


def test_criterion_05_identities():
    rows = V.lemmas_suite(mmax=6, fold_trials=50, seed=0)
    bad = _failures(rows)
    folds = [r for r in rows if r["metric"] == "max_rel_diff"]
    ok = not bad and len(folds) == 18  # m <= 6 and three rotations
    _report(
        5,
        "fold identity (50 seeds per case) and vanishing equivalence (100 triples)",
        ok,
        f"{len(folds)} fold cases" + (f", first fail {bad[0]}" if bad else ""),
    )


# ---------------------------------------------------------------------------
# 6, 7, 8. Cubature: exactness, nonnegativity, trigonometric quadrature
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cubature_rows():
    return V.cubature_suite(mmax=6, trig_trials=50, seed=0)


def test_criterion_06_cubature_exactness(cubature_rows):
    relevant = [
        r
        for r in cubature_rows
        if r["metric"] in ("exactness_scaled_err", "surface_area_err", "z2_moment_err", "interp_consistency")
    ]
    bad = _failures(relevant)
    families = {r["case"] for r in relevant if r["metric"] == "exactness_scaled_err"}
    ok = not bad and len(families) == 18  # m <= 6, three latitude families
    _report(
        6,
        "cubature exactness on the full degree 2m-1 basis, m <= 6",
        ok,
        f"{len(relevant)} checks" + (f", first fail {bad[0]}" if bad else ""),
    )


def test_criterion_07_nonnegativity(cubature_rows):
    weights = [
        r
        for r in cubature_rows
        if r["metric"] == "min_weight" and "legendre" in r["case"] and r["status"] != "info"
    ]
    sym = [r for r in cubature_rows if r["metric"] == "weight_symmetry"]
    totals = [r for r in cubature_rows if r["metric"] == "total_weight_err"]
    bad = _failures(weights + sym + totals)
    ok = not bad and len(weights) == 8
    _report(
        7,
        "nonnegative weights at Gauss-Legendre latitudes, m <= 8",
        ok,
        f"{len(weights)} weight cases" + (f", first fail {bad[0]}" if bad else ""),
    )


def test_criterion_08_trig_quadrature(cubature_rows):
    claimed = [
        r
        for r in cubature_rows
        if r["case"].startswith("trig-") and r["status"] != "info"
    ]
    bad = _failures(claimed)
    ok = not bad and len(claimed) == sum(2 * (m + 1) for m in range(1, 9))
    _report(
        8,
        "equal-weight quadrature exact through degree m, m <= 8, 50 seeds",
        ok,
        f"{len(claimed)} asserted cases" + (f", first fail {bad[0]}" if bad else ""),
    )


# ---------------------------------------------------------------------------
# 9. Two-oracle agreement on every criterion-1 node set
# ---------------------------------------------------------------------------


def test_criterion_09_two_oracle_agreement():
    rows = []
    for n in (3, 5, 7, 9):
        rows += V.poisedness_suite(n, seed=0, trials=2)
    agreements = [r for r in rows if r["metric"] == "two_oracle_agreement"]
    bad = _failures(agreements)
    ok = not bad and len(agreements) == 90  # 30 plans x 3 configurations
    _report(
        9,
        "factor-chain certificates agree with determinant certificates",
        ok,
        f"{len(agreements)} node sets" + (f", first fail {bad[0]}" if bad else ""),
    )


# ---------------------------------------------------------------------------
# 10. Dimension identity
# ---------------------------------------------------------------------------


def test_criterion_10_dimension_identity():
    rows = V.dimension_suite(smax=20)
    bad = _failures(rows)
    expected = sum((s + 1) // 2 for s in range(21))
    ok = not bad and len(rows) == expected
    _report(
        10,
        "dimension identity for all s <= 20 and valid lambda",
        ok,
        f"{len(rows)} instances" + (f", first fail {bad[0]}" if bad else ""),
    )
