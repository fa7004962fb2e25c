"""End-to-end CLI tests driven through subprocesses."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sphinterp import NodeSet, SphericalPoly, UnivariatePoly, random_spherical
from sphinterp.verification import TOL_EXACTNESS


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "sphinterp.cli", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def test_gen_nodes_writes_valid_nodeset(tmp_path: Path):
    out = tmp_path / "nodes.json"
    res = run_cli("gen-nodes", "--n", "3", "--plan", "2", "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert "16 points: 4 latitudes with 4 points" in res.stdout
    nodes = NodeSet.from_json_dict(json.loads(out.read_text()))
    assert nodes.count() == 16


def test_gen_nodes_summary_for_two_groups(tmp_path: Path):
    res = run_cli(
        "gen-nodes", "--n", "3", "--plan", "1,1", "--out", str(tmp_path / "n.json")
    )
    assert res.returncode == 0
    assert "2 latitudes with 6 points and 2 latitudes with 2 points" in res.stdout


def test_gen_nodes_rejects_even_degree(tmp_path: Path):
    res = run_cli("gen-nodes", "--n", "4", "--plan", "2", "--out", str(tmp_path / "x.json"))
    assert res.returncode == 2
    assert "odd" in res.stderr


def test_gen_nodes_rejects_bad_plan(tmp_path: Path):
    res = run_cli("gen-nodes", "--n", "5", "--plan", "2,2", "--out", str(tmp_path / "x.json"))
    assert res.returncode == 2
    assert "(n + 1) / 2" in res.stderr


def test_gen_nodes_is_byte_deterministic(tmp_path: Path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("gen-nodes", "--n", "5", "--plan", "2,1", "--out", str(a))
    run_cli("gen-nodes", "--n", "5", "--plan", "2,1", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_gen_nodes_latitude_file(tmp_path: Path):
    lat_file = tmp_path / "lats.json"
    lat_file.write_text(json.dumps([[math.pi / 6, math.pi / 3]]))
    res = run_cli(
        "gen-nodes",
        "--n",
        "3",
        "--plan",
        "2",
        "--latitudes",
        "file",
        "--lat-file",
        str(lat_file),
        "--out",
        str(tmp_path / "n.json"),
    )
    assert res.returncode == 0


def test_interpolate_constant_function(tmp_path: Path):
    nodes_path = tmp_path / "nodes.json"
    run_cli("gen-nodes", "--n", "3", "--plan", "2", "--out", str(nodes_path))
    coeffs = tmp_path / "coeffs.json"
    report = tmp_path / "report.json"
    res = run_cli(
        "interpolate",
        "--nodes",
        str(nodes_path),
        "--function",
        "one",
        "--out-coeffs",
        str(coeffs),
        "--out-report",
        str(report),
    )
    assert res.returncode == 0, res.stderr
    sol = json.loads(coeffs.read_text())
    assert sol["n"] == 3
    assert sol["a"][0][0] == pytest.approx(1.0, abs=1e-12)
    flat = [c for band in sol["a"] + sol["b"] for c in band]
    assert sum(abs(c) for c in flat) == pytest.approx(1.0, abs=1e-9)
    rep = json.loads(report.read_text())
    assert rep["residual_inf"] < 1e-10
    assert rep["condition_estimate"] >= 1.0


def test_interpolate_csv_roundtrip(tmp_path: Path):
    nodes_path = tmp_path / "nodes.json"
    run_cli("gen-nodes", "--n", "3", "--plan", "1,1", "--out", str(nodes_path))
    nodes = NodeSet.from_json_dict(json.loads(nodes_path.read_text()))
    planted = random_spherical(3, np.random.default_rng(5))
    data_path = tmp_path / "data.csv"
    with data_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "value"])
        for i, (th, ph) in enumerate(nodes.points()):
            writer.writerow([i, repr(float(planted.eval(th, ph)))])
    report = tmp_path / "report.json"
    res = run_cli(
        "interpolate",
        "--nodes",
        str(nodes_path),
        "--data",
        str(data_path),
        "--out-coeffs",
        str(tmp_path / "c.json"),
        "--out-report",
        str(report),
    )
    assert res.returncode == 0, res.stderr
    assert json.loads(report.read_text())["residual_inf"] < 1e-8


def test_interpolate_malformed_csv_names_line(tmp_path: Path):
    nodes_path = tmp_path / "nodes.json"
    run_cli("gen-nodes", "--n", "3", "--plan", "2", "--out", str(nodes_path))
    bad = tmp_path / "bad.csv"
    bad.write_text("index,value\n0,1.0\n1,not-a-number\n")
    res = run_cli(
        "interpolate",
        "--nodes",
        str(nodes_path),
        "--data",
        str(bad),
        "--out-coeffs",
        str(tmp_path / "c.json"),
        "--out-report",
        str(tmp_path / "r.json"),
    )
    assert res.returncode == 2
    assert ":3:" in res.stderr  # failing line number


def test_interpolate_nan_data_is_bad_input(tmp_path: Path):
    nodes_path = tmp_path / "nodes.json"
    run_cli("gen-nodes", "--n", "3", "--plan", "2", "--out", str(nodes_path))
    data = tmp_path / "nan.csv"
    data.write_text("index,value\n" + "".join(f"{i},{'nan' if i == 7 else 1.0}\n" for i in range(16)))
    res = run_cli(
        "interpolate",
        "--nodes",
        str(nodes_path),
        "--data",
        str(data),
        "--out-coeffs",
        str(tmp_path / "c.json"),
        "--out-report",
        str(tmp_path / "r.json"),
    )
    assert res.returncode == 2
    assert "finite" in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "edit",
    [
        lambda data: data.update(lambdas=3),
        lambda data: data["groups"][0]["latitudes"][0].pop("alpha"),
    ],
    ids=["lambdas-not-a-list", "missing-key"],
)
def test_interpolate_malformed_nodeset_is_bad_input(tmp_path: Path, edit):
    nodes_path = tmp_path / "nodes.json"
    run_cli("gen-nodes", "--n", "3", "--plan", "2", "--out", str(nodes_path))
    data = json.loads(nodes_path.read_text())
    edit(data)
    nodes_path.write_text(json.dumps(data))
    res = run_cli(
        "interpolate",
        "--nodes",
        str(nodes_path),
        "--function",
        "one",
        "--out-coeffs",
        str(tmp_path / "c.json"),
        "--out-report",
        str(tmp_path / "r.json"),
    )
    assert res.returncode == 2
    assert "malformed node set" in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "command, lats",
    [
        (["gen-nodes", "--n", "3", "--plan", "2"], [[0.5, "north"]]),
        (["cubature", "--m", "1"], [0.5, "south"]),
    ],
    ids=["gen-nodes", "cubature"],
)
def test_non_numeric_latitude_file_is_bad_input(tmp_path: Path, command, lats):
    lat_file = tmp_path / "lats.json"
    lat_file.write_text(json.dumps(lats))
    res = run_cli(
        *command,
        "--latitudes",
        "file",
        "--lat-file",
        str(lat_file),
        "--out" if command[0] == "gen-nodes" else "--out-rule",
        str(tmp_path / "out.json"),
    )
    assert res.returncode == 2
    assert "numbers" in res.stderr and "Traceback" not in res.stderr


def test_interpolate_eval_grid(tmp_path: Path):
    nodes_path = tmp_path / "nodes.json"
    run_cli("gen-nodes", "--n", "3", "--plan", "2", "--out", str(nodes_path))
    grid = tmp_path / "grid.csv"
    res = run_cli(
        "interpolate",
        "--nodes",
        str(nodes_path),
        "--function",
        "z",
        "--out-coeffs",
        str(tmp_path / "c.json"),
        "--out-report",
        str(tmp_path / "r.json"),
        "--eval-grid",
        str(grid),
        "--grid-size",
        "6",
    )
    assert res.returncode == 0
    rows = list(csv.reader(grid.open()))
    assert rows[0] == ["theta", "phi", "value"]
    assert len(rows) == 1 + 6 * 12
    th, ph, val = (float(x) for x in rows[1])
    assert val == pytest.approx(math.cos(th), abs=1e-9)


def test_cubature_legendre_apply_one(tmp_path: Path):
    rule_path = tmp_path / "rule.json"
    cert_path = tmp_path / "cert.json"
    res = run_cli(
        "cubature",
        "--m",
        "2",
        "--latitudes",
        "legendre",
        "--out-rule",
        str(rule_path),
        "--out-cert",
        str(cert_path),
        "--apply",
        "one",
    )
    assert res.returncode == 0, res.stderr
    printed = float(res.stdout.rsplit("=", 1)[1])
    assert printed == pytest.approx(4 * math.pi, abs=1e-10)
    cert = json.loads(cert_path.read_text())
    assert cert["weights_nonnegative"] is True
    assert cert["max_abs_error"] < 1e-11
    rule = json.loads(rule_path.read_text())
    assert len(rule["nodes"]) == 16


def test_cubature_apply_z2(tmp_path: Path):
    res = run_cli(
        "cubature",
        "--m",
        "2",
        "--out-rule",
        str(tmp_path / "rule.json"),
        "--out-cert",
        str(tmp_path / "cert.json"),
        "--apply",
        "z2",
    )
    assert res.returncode == 0
    printed = float(res.stdout.rsplit("=", 1)[1])
    assert printed == pytest.approx(4 * math.pi / 3, abs=1e-10)


def test_cubature_rejects_asymmetric_file(tmp_path: Path):
    lat_file = tmp_path / "lats.json"
    lat_file.write_text(json.dumps([0.4, 0.9, math.pi - 0.8, math.pi - 0.4]))
    res = run_cli(
        "cubature",
        "--m",
        "2",
        "--latitudes",
        "file",
        "--lat-file",
        str(lat_file),
        "--out-rule",
        str(tmp_path / "rule.json"),
        "--out-cert",
        str(tmp_path / "cert.json"),
    )
    assert res.returncode == 2
    assert "mirror" in res.stderr


def test_cubature_byte_deterministic(tmp_path: Path):
    runs = [(tmp_path / f"rule_{x}.json", tmp_path / f"cert_{x}.json") for x in "ab"]
    for rule_path, cert_path in runs:
        res = run_cli(
            "cubature",
            "--m",
            "32",
            "--out-rule",
            str(rule_path),
            "--out-cert",
            str(cert_path),
        )
        assert res.returncode == 0, res.stderr
    for first, second in zip(*runs):
        assert first.read_bytes() == second.read_bytes()


def test_cubature_m64_legendre_certifies(tmp_path: Path):
    cert_path = tmp_path / "cert.json"
    res = run_cli(
        "cubature",
        "--m",
        "64",
        "--latitudes",
        "legendre",
        "--out-rule",
        str(tmp_path / "rule.json"),
        "--out-cert",
        str(cert_path),
    )
    assert res.returncode == 0, res.stderr
    cert = json.loads(cert_path.read_text())
    assert cert["basis_size"] == 128**2
    assert cert["max_abs_error"] <= TOL_EXACTNESS


def test_cubature_lost_weight_sum_is_numerical_failure(tmp_path: Path):
    rule_path = tmp_path / "rule.json"
    res = run_cli(
        "cubature",
        "--m",
        "16",
        "--latitudes",
        "default",
        "--out-rule",
        str(rule_path),
        "--out-cert",
        str(tmp_path / "cert.json"),
    )
    assert res.returncode == 1
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "sum to" in lines[0] and "Traceback" not in res.stderr
    assert not rule_path.exists()


def test_verify_poisedness_suite(tmp_path: Path):
    out = tmp_path / "results.csv"
    res = run_cli("verify", "--suite", "poisedness", "--n", "3", "--out", str(out))
    assert res.returncode == 0, res.stdout + res.stderr
    rows = list(csv.DictReader(out.open()))
    assert rows
    assert all(r["status"] in ("pass", "info") for r in rows)
    cases = [r["case"] for r in rows]
    assert cases == sorted(cases)


def test_verify_dimension_suite():
    res = run_cli("verify", "--suite", "dimension", "--smax", "12")
    assert res.returncode == 0


def test_verify_unknown_suite():
    res = run_cli("verify", "--suite", "nope")
    assert res.returncode == 2
    assert "unknown suite" in res.stderr


def test_verify_rejects_bad_degree():
    res = run_cli("verify", "--suite", "poisedness", "--n", "4")
    assert res.returncode == 2
    assert "odd" in res.stderr


def test_verify_lemmas_cli_example():
    res = run_cli("verify", "--suite", "lemmas", "--m", "4", "--trials", "50")
    assert res.returncode == 0
    assert "checks passed" in res.stdout


def test_non_integer_seed_env_is_bad_input():
    env = dict(os.environ, SPHINTERP_SEED="abc")
    res = run_cli("verify", "--suite", "dimension", "--smax", "4", env=env)
    assert res.returncode == 2
    assert "SPHINTERP_SEED" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("--suite", "factorization", "--m", "0"),
        ("--suite", "lemmas", "--m", "0"),
        ("--suite", "poisedness", "--trials", "0"),
    ],
)
def test_verify_rejects_nonpositive_m_and_trials(args):
    res = run_cli("verify", *args)
    assert res.returncode == 2
    assert "must be positive" in res.stderr
    assert "Traceback" not in res.stderr


def test_verify_with_no_checked_row_is_bad_input():
    res = run_cli("verify", "--suite", "dimension", "--smax", "0")
    assert res.returncode == 2
    assert "no case to check" in res.stderr


def test_interpolate_rejects_nonpositive_grid_size(tmp_path: Path):
    nodes_path = tmp_path / "nodes.json"
    run_cli("gen-nodes", "--n", "3", "--plan", "2", "--out", str(nodes_path))
    grid = tmp_path / "grid.csv"
    res = run_cli(
        "interpolate",
        "--nodes",
        str(nodes_path),
        "--function",
        "z",
        "--out-coeffs",
        str(tmp_path / "c.json"),
        "--out-report",
        str(tmp_path / "r.json"),
        "--eval-grid",
        str(grid),
        "--grid-size",
        "0",
    )
    assert res.returncode == 2
    assert "--grid-size" in res.stderr
    assert not grid.exists()


def test_eval_grid_matches_pointwise_evaluation(tmp_path: Path):
    nodes_path = tmp_path / "nodes.json"
    run_cli("gen-nodes", "--n", "5", "--plan", "2,1", "--out", str(nodes_path))
    coeffs, grid = tmp_path / "c.json", tmp_path / "grid.csv"
    res = run_cli(
        "interpolate",
        "--nodes",
        str(nodes_path),
        "--function",
        "band2",
        "--out-coeffs",
        str(coeffs),
        "--out-report",
        str(tmp_path / "r.json"),
        "--eval-grid",
        str(grid),
        "--grid-size",
        "5",
    )
    assert res.returncode == 0, res.stderr
    c = json.loads(coeffs.read_text())
    sol = SphericalPoly(
        degree=c["n"],
        a=tuple(UnivariatePoly(tuple(p)) for p in c["a"]),
        b=tuple(UnivariatePoly(tuple(p)) for p in c["b"]),
    )
    rows = list(csv.reader(grid.open()))[1:]
    assert len(rows) == 5 * 10
    for k, (th, ph, val) in enumerate(rows):
        i, j = divmod(k, 10)
        assert float(th) == (i + 0.5) * math.pi / 5
        assert float(ph) == j * math.pi / 5
        assert float(val) == pytest.approx(sol.eval(float(th), float(ph)), abs=1e-13)


def test_interpolate_report_is_byte_reproducible_at_n21(tmp_path: Path):
    # the condition estimate used to drift in its last digits between runs
    nodes_path = tmp_path / "nodes.json"
    run_cli("gen-nodes", "--n", "21", "--plan", "11", "--out", str(nodes_path))
    outputs = []
    for run in ("a", "b"):
        coeffs, report = tmp_path / f"coeffs-{run}.json", tmp_path / f"report-{run}.json"
        res = run_cli(
            "interpolate",
            "--nodes",
            str(nodes_path),
            "--function",
            "expz",
            "--out-coeffs",
            str(coeffs),
            "--out-report",
            str(report),
        )
        assert res.returncode == 0, res.stderr
        outputs.append((coeffs.read_bytes(), report.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_interpolate_rejects_bad_residual_tol_before_reading_nodes(tmp_path: Path, tol):
    res = run_cli(
        "interpolate",
        "--nodes",
        str(tmp_path / "missing.json"),
        "--function",
        "one",
        "--residual-tol",
        tol,
        "--out-coeffs",
        str(tmp_path / "c.json"),
        "--out-report",
        str(tmp_path / "r.json"),
    )
    assert res.returncode == 2
    assert "--residual-tol" in res.stderr
    assert "Traceback" not in res.stderr


def test_import_leaves_scipy_unloaded():
    code = "import sys, sphinterp, sphinterp.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_verify_poisedness_records_a_raising_solve_as_failure(tmp_path: Path, monkeypatch):
    from sphinterp import PoisednessError, cli, verification

    def raising_solve(problem):
        raise PoisednessError("forced", pivot_min=1e-20, condition_estimate=3.5e20)

    monkeypatch.setattr(verification, "solve", raising_solve)
    out = tmp_path / "poisedness.csv"
    assert cli.main(["verify", "--suite", "poisedness", "--n", "3", "--seed", "0", "--out", str(out)]) == 1
    rows = list(csv.DictReader(out.open()))
    raised = [r for r in rows if r["metric"] == "plant_solve_condition"]
    assert len(raised) == 2 * 3  # two plans, three latitude configurations each
    assert all(r["status"] == "fail" and float(r["value"]) == 3.5e20 for r in raised)
    assert any(r["metric"] == "certificate" and r["status"] == "pass" for r in rows)
