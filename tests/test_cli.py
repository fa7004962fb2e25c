"""End-to-end CLI tests driven through subprocesses."""

import codecs
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sphinterp
from sphinterp import InterpolationProblem, NodeSet, SphericalPoly, random_spherical, solve
from sphinterp.verification import TOL_EXACTNESS


def package_env(env=None) -> dict:
    """``env`` (default: this process's) with the tested package first on PYTHONPATH."""
    env = dict(os.environ if env is None else env)
    src = str(Path(sphinterp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_cli(*args, env=None, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "sphinterp.cli", *args],
        capture_output=True,
        text=True,
        env=package_env(env),
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


def test_interpolate_data_that_overflows_the_solve_is_bad_input(tmp_path: Path, capsys):
    # finite data near the float64 limit overflow inside the solve; the
    # non-finite coefficients must stop the command before it writes a file.
    # In process, so a numpy RuntimeWarning reaching stderr fails the test.
    from sphinterp import cli

    nodes_path = tmp_path / "nodes.json"
    assert cli.main(["gen-nodes", "--n", "5", "--plan", "3", "--out", str(nodes_path)]) == 0
    points = NodeSet.from_json_dict(json.loads(nodes_path.read_text())).points()
    data = tmp_path / "big.csv"
    data.write_text("".join(f"{i},{1.7e308 * math.cos(th)!r}\n" for i, (th, _) in enumerate(points.tolist())))
    outs = [tmp_path / "c.json", tmp_path / "r.json"]
    capsys.readouterr()
    argv = ["interpolate", "--nodes", str(nodes_path), "--data", str(data), "--out-coeffs", str(outs[0]), "--out-report", str(outs[1])]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: coefficient of t**0 in a_0 must be finite, got nan\n"
    assert not any(path.exists() for path in outs)


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
    "edit, message",
    [
        (lambda data: data.update(n=3.9), "n must be an integer"),
        (lambda data: data["groups"][0].update(s=True), "s must be an integer"),
        (lambda data: data["groups"][0]["latitudes"][2].update(index=1), "has index 1"),
        (lambda data: data.update(points=[[0, 0]]), "points differ"),
        (lambda data: (lat := data["groups"][0]["latitudes"][0]).update(theta=str(lat["theta"])), "theta must be a number"),
        (lambda data: data["groups"][0]["latitudes"][0].update(alpha=False), "alpha must be a number"),
    ],
    ids=["fractional-n", "boolean-s", "wrong-index", "edited-points", "string-theta", "boolean-alpha"],
)
def test_interpolate_rejects_a_nodeset_whose_fields_disagree(tmp_path: Path, edit, message):
    nodes_path = tmp_path / "nodes.json"
    run_cli("gen-nodes", "--n", "3", "--plan", "2", "--out", str(nodes_path))
    data = json.loads(nodes_path.read_text())
    edit(data)
    nodes_path.write_text(json.dumps(data))
    outs = [tmp_path / "c.json", tmp_path / "r.json"]
    res = run_cli(
        "interpolate", "--nodes", str(nodes_path), "--function", "one", "--out-coeffs", str(outs[0]), "--out-report", str(outs[1])
    )
    assert res.returncode == 2
    assert message in res.stderr and "Traceback" not in res.stderr
    assert not any(out.exists() for out in outs)


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
    rows = list(csv.reader(grid.read_text().splitlines()))
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


def test_latitudes_whose_cosines_coincide_are_bad_input(tmp_path: Path):
    # the cosines of 1e-9 and 2e-9 both round to 1.0, those of their mirrors to -1.0
    rule_lats = tmp_path / "rule_lats.json"
    rule_lats.write_text(json.dumps([1e-9, 2e-9, math.pi - 2e-9, math.pi - 1e-9]))
    group_lats = tmp_path / "group_lats.json"
    group_lats.write_text(json.dumps([[1e-9], [2e-9]]))
    nodes = tmp_path / "nodes.json"
    assert run_cli("gen-nodes", "--n", "3", "--plan", "1,1", "--out", str(nodes)).returncode == 0
    data = json.loads(nodes.read_text())
    del data["points"]
    for group, north in zip(data["groups"], (1e-9, 2e-9)):
        group["latitudes"][0]["theta"], group["latitudes"][1]["theta"] = north, math.pi - north
    nodes.write_text(json.dumps(data))
    outs = [tmp_path / name for name in ("rule.json", "cert.json", "new_nodes.json", "coeffs.json", "report.json")]
    for res in (
        run_cli("cubature", "--m", "2", "--latitudes", "file", "--lat-file", str(rule_lats), "--out-rule", str(outs[0]), "--out-cert", str(outs[1])),
        run_cli("gen-nodes", "--n", "3", "--plan", "1,1", "--latitudes", "file", "--lat-file", str(group_lats), "--out", str(outs[2])),
        run_cli("interpolate", "--nodes", str(nodes), "--function", "one", "--out-coeffs", str(outs[3]), "--out-report", str(outs[4])),
    ):
        assert res.returncode == 2
        assert "pairwise distinct cosines" in res.stderr and "Traceback" not in res.stderr
    assert not any(path.exists() for path in outs)


def test_cubature_rejects_file_that_disagrees_with_m(tmp_path: Path):
    lat_file = tmp_path / "lats.json"
    zeros, _ = np.polynomial.legendre.leggauss(8)
    lat_file.write_text(json.dumps([math.acos(x) for x in zeros[::-1]]))
    rule_path = tmp_path / "rule.json"
    res = run_cli(
        "cubature",
        "--m",
        "3",
        "--latitudes",
        "file",
        "--lat-file",
        str(lat_file),
        "--out-rule",
        str(rule_path),
        "--out-cert",
        str(tmp_path / "cert.json"),
    )
    assert res.returncode == 2
    assert "--m 3 needs 6" in res.stderr and "Traceback" not in res.stderr
    assert not rule_path.exists()


@pytest.mark.parametrize("source", ["legendre", "default", "file"])
def test_cubature_m_below_one_is_bad_input_for_every_latitude_source(tmp_path: Path, source):
    # --m is read before the latitude source is chosen, so a valid file of
    # two latitudes does not turn m = 0 into a count mismatch
    lat_file = tmp_path / "lats.json"
    lat_file.write_text(json.dumps([1.0, math.pi - 1.0]))
    outs = [tmp_path / "rule.json", tmp_path / "cert.json"]
    res = run_cli(
        "cubature", "--m", "0", "--latitudes", source, "--lat-file", str(lat_file),
        "--out-rule", str(outs[0]), "--out-cert", str(outs[1]),
    )
    assert res.returncode == 2
    assert res.stderr == "error: m must be a positive integer, got 0\n"
    assert not any(path.exists() for path in outs)


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


@pytest.mark.parametrize("m", ["31", "33", "41"])
def test_cubature_singular_moment_matrix_is_numerical_failure(tmp_path: Path, m):
    rule_path = tmp_path / "rule.json"
    res = run_cli(
        "cubature", "--m", m, "--latitudes", "default",
        "--out-rule", str(rule_path), "--out-cert", str(tmp_path / "cert.json"),
    )
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    assert res.stderr == f"error: the even Legendre moment matrix is singular in float64 at m = {m}\n"
    assert not rule_path.exists()


def test_verify_cubature_records_a_singular_moment_matrix_as_failed_row(tmp_path: Path):
    out = tmp_path / "results.csv"
    res = run_cli("verify", "--suite", "cubature", "--m", "31", "--trials", "2", "--out", str(out))
    assert res.returncode == 1
    assert res.stderr == ""
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    failed = {(r["case"], r["value"]) for r in rows if r["metric"] == "weight_sum" and r["status"] == "fail"}
    assert ("m31-equispaced", "the even Legendre moment matrix is singular in float64 at m = 31") in failed


@pytest.mark.parametrize("m, code", [(12, 0), (14, 1)])
def test_cubature_exits_1_when_exactness_fails(tmp_path: Path, m, code):
    # equispaced latitudes: max error 8.7e-12 at m = 12, 2.3e-10 at m = 14
    rule_path, cert_path = tmp_path / "rule.json", tmp_path / "cert.json"
    res = run_cli(
        "cubature", "--m", str(m), "--latitudes", "default",
        "--out-rule", str(rule_path), "--out-cert", str(cert_path),
    )
    assert res.returncode == code, res.stderr
    assert "Traceback" not in res.stderr
    assert rule_path.exists() and cert_path.exists()
    error = json.loads(cert_path.read_text())["max_abs_error"]
    assert (error > TOL_EXACTNESS) == (code == 1)
    if code == 1:
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: exactness")


def test_verify_poisedness_suite(tmp_path: Path):
    out = tmp_path / "results.csv"
    res = run_cli("verify", "--suite", "poisedness", "--n", "3", "--out", str(out))
    assert res.returncode == 0, res.stdout + res.stderr
    rows = list(csv.DictReader(out.read_text().splitlines()))
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
    "args, env_seed",
    [(("gen-nodes", "--n", "3", "--plan", "2"), "abc"), (("cubature", "--m", "2"), "-4")],
    ids=["gen-nodes", "cubature"],
)
def test_seed_env_does_not_reach_commands_without_a_seed(tmp_path: Path, args, env_seed):
    runs = []
    for name, seed in (("plain", None), ("seeded", env_seed)):
        env = {key: value for key, value in os.environ.items() if key != "SPHINTERP_SEED"}
        if seed is not None:
            env["SPHINTERP_SEED"] = seed
        cwd = tmp_path / name
        cwd.mkdir()
        res = run_cli(*args, env=env, cwd=cwd)
        assert res.returncode == 0, res.stderr
        runs.append((res.stdout, res.stderr, {path.name: path.read_bytes() for path in sorted(cwd.iterdir())}))
    assert runs[0] == runs[1]
    assert runs[0][2]  # the command wrote its default output files


@pytest.mark.parametrize(
    "args, env_seed",
    [
        (("--suite", "lemmas", "--seed", "-1"), None),
        (("--suite", "poisedness"), "-5"),
    ],
)
def test_negative_seed_is_bad_input(tmp_path: Path, args, env_seed):
    env = dict(os.environ)
    if env_seed is not None:
        env["SPHINTERP_SEED"] = env_seed
    out = tmp_path / "rows.csv"
    res = run_cli("verify", *args, "--out", str(out), env=env)
    assert res.returncode == 2
    assert "nonnegative" in res.stderr and "Traceback" not in res.stderr
    assert not out.exists()


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


@pytest.mark.parametrize("rmax", ["1", "0", "-3"])
def test_verify_rejects_chebyshev_rmax_below_two(rmax):
    # the sweep runs r = 2..rmax, so a smaller cap would check only the fixed table rows
    res = run_cli("verify", "--suite", "chebyshev", "--rmax", rmax)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == f"error: --rmax must be at least 2, got {rmax}\n"


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
    coef = np.zeros((c["n"] + 1, c["n"] + 1, 2))
    for k, (a, b) in enumerate(zip(c["a"], c["b"])):
        coef[: len(a), k, 0] = a
        coef[: len(b), k, 1] = b
    sol = SphericalPoly(coef)
    rows = list(csv.reader(grid.read_text().splitlines()))[1:]
    assert len(rows) == 5 * 10
    for k, (th, ph, val) in enumerate(rows):
        i, j = divmod(k, 10)
        assert float(th) == (i + 0.5) * math.pi / 5
        assert float(ph) == j * math.pi / 5
        assert float(val) == pytest.approx(sol.eval(float(th), float(ph)), abs=1e-13)


def test_coeffs_json_lists_the_bands_in_canonical_order(tmp_path: Path):
    n = 9
    nodes_path, coeffs = tmp_path / "nodes.json", tmp_path / "coeffs.json"
    assert run_cli("gen-nodes", "--n", str(n), "--plan", "2,1,2", "--out", str(nodes_path)).returncode == 0
    res = run_cli(
        "interpolate", "--nodes", str(nodes_path), "--function", "expz",
        "--out-coeffs", str(coeffs), "--out-report", str(tmp_path / "r.json"),
    )
    assert res.returncode == 0, res.stderr
    c = json.loads(coeffs.read_text())
    a, b = c["a"], c["b"]
    assert c["n"] == n and len(a) == len(b) == n + 1
    assert [len(band) for band in a] == [n - k + 1 for k in range(n + 1)]
    assert b[0] == [0.0]
    assert [len(band) for band in b[1:]] == [len(band) for band in a[1:]]
    flat = a[0] + [v for k in range(1, n + 1) for v in a[k] + b[k]]
    nodes = NodeSet.from_json_dict(json.loads(nodes_path.read_text()))
    data = tuple(math.exp(math.cos(th)) for th, _ in nodes.points())
    assert flat == solve(InterpolationProblem(nodes=nodes, data=data)).solution.coefficient_vector().tolist()


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
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=package_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_import_leaves_numpy_polynomial_unloaded():
    # spherical and factorization reach np.polynomial at the call, so CLI
    # start-up does not pay for importing it
    code = "import sys, sphinterp.cli; print('numpy.polynomial' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=package_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


@pytest.mark.parametrize(
    "case", ["data-with-header", "data-without-header", "nodes", "gen-nodes-lat-file", "cubature-lat-file"]
)
def test_inputs_with_utf8_bom_read_like_plain_ones(tmp_path: Path, case):
    nodes = tmp_path / "nodes.json"
    assert run_cli("gen-nodes", "--n", "3", "--plan", "1,1", "--out", str(nodes)).returncode == 0
    outs = [tmp_path / "out1.json", tmp_path / "out2.json"]
    interpolate = ["interpolate", "--out-coeffs", str(outs[0]), "--out-report", str(outs[1]), "--nodes"]
    if case.startswith("data"):
        points = NodeSet.from_json_dict(json.loads(nodes.read_text())).points()
        rows = [f"{i},{math.cos(th)!r}" for i, (th, _) in enumerate(points)]
        src = tmp_path / "data.csv"
        src.write_text("\n".join(["index,value"] * (case == "data-with-header") + rows) + "\n")
        args = lambda path: [*interpolate, str(nodes), "--data", str(path)]
    elif case == "nodes":
        src = nodes
        args = lambda path: [*interpolate, str(path), "--function", "expz"]
    elif case == "gen-nodes-lat-file":
        src = tmp_path / "lats.json"
        src.write_text(json.dumps([[math.pi / 6, math.pi / 3]]))
        args = lambda path: [
            "gen-nodes", "--n", "3", "--plan", "2", "--latitudes", "file", "--lat-file", str(path), "--out", str(outs[0]),
        ]
    else:
        src = tmp_path / "lats.json"
        src.write_text(json.dumps([0.4, 0.9, math.pi - 0.9, math.pi - 0.4]))
        args = lambda path: [
            "cubature", "--m", "2", "--latitudes", "file", "--lat-file", str(path),
            "--out-rule", str(outs[0]), "--out-cert", str(outs[1]),
        ]
    bom = tmp_path / f"bom-{src.name}"
    bom.write_bytes(codecs.BOM_UTF8 + src.read_bytes())
    runs = []
    for path in (src, bom):
        for out in outs:
            out.unlink(missing_ok=True)
        res = run_cli(*args(path))
        assert res.returncode == 0, res.stderr
        runs.append((res.stdout, [out.read_bytes() for out in outs if out.exists()]))
    assert runs[0][1] and runs[0] == runs[1]


@pytest.mark.parametrize("case", ["interpolate-nodes", "interpolate-data", "gen-nodes-lat-file", "cubature-lat-file"])
def test_input_that_is_not_utf8_is_bad_input(tmp_path: Path, case):
    nodes = tmp_path / "nodes.json"
    assert run_cli("gen-nodes", "--n", "3", "--plan", "1,1", "--out", str(nodes)).returncode == 0
    bad = tmp_path / "utf16.txt"
    bad.write_bytes(codecs.BOM_UTF16_LE + "[0.5]".encode("utf-16-le"))
    outs = [tmp_path / "out1.json", tmp_path / "out2.json"]
    interpolate = ["interpolate", "--out-coeffs", str(outs[0]), "--out-report", str(outs[1])]
    args = {
        "interpolate-nodes": [*interpolate, "--nodes", str(bad), "--function", "one"],
        "interpolate-data": [*interpolate, "--nodes", str(nodes), "--data", str(bad)],
        "gen-nodes-lat-file": ["gen-nodes", "--n", "3", "--plan", "2", "--latitudes", "file", "--lat-file", str(bad), "--out", str(outs[0])],
        "cubature-lat-file": [
            "cubature", "--m", "2", "--latitudes", "file", "--lat-file", str(bad),
            "--out-rule", str(outs[0]), "--out-cert", str(outs[1]),
        ],
    }[case]
    res = run_cli(*args)
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1 and res.stderr.endswith("\n")
    assert not any(out.exists() for out in outs)


def test_verify_poisedness_records_a_raising_solve_as_failure(tmp_path: Path, monkeypatch):
    from sphinterp import PoisednessError, cli, verification

    def raising_solve(problem):
        raise PoisednessError("forced", pivot_min=1e-20, condition_estimate=3.5e20)

    monkeypatch.setattr(verification, "solve", raising_solve)
    out = tmp_path / "poisedness.csv"
    assert cli.main(["verify", "--suite", "poisedness", "--n", "3", "--seed", "0", "--out", str(out)]) == 1
    rows = list(csv.DictReader(out.read_text().splitlines()))
    raised = [r for r in rows if r["metric"] == "plant_solve_condition"]
    assert len(raised) == 2 * 3  # two plans, three latitude configurations each
    assert all(r["status"] == "fail" and float(r["value"]) == 3.5e20 for r in raised)
    assert any(r["metric"] == "certificate" and r["status"] == "pass" for r in rows)


def test_verify_cubature_records_a_raising_solve_as_failure(tmp_path: Path):
    from sphinterp import cli

    # the n = 17 single-group Gauss-Legendre solve behind the m = 9
    # interp_consistency row reaches the condition bound and raises
    out = tmp_path / "cubature.csv"
    assert cli.main(["verify", "--suite", "cubature", "--m", "9", "--trials", "2", "--seed", "0", "--out", str(out)]) == 1
    rows = list(csv.DictReader(out.read_text().splitlines()))
    failed = [(r["case"], r["metric"], r["threshold"]) for r in rows if r["status"] == "fail"]
    assert failed == [("m9-legendre", "interp_consistency", "solve raised")]
    assert any(r["case"] == "m8-legendre" and r["metric"] == "interp_consistency" for r in rows)


def test_verify_cubature_records_a_weight_sum_error_as_failure(tmp_path: Path):
    from sphinterp import cli

    # at m = 13 the moment solve on equispaced latitudes misses the sum 2
    out = tmp_path / "cubature.csv"
    assert cli.main(["verify", "--suite", "cubature", "--m", "13", "--trials", "2", "--seed", "0", "--out", str(out)]) == 1
    rows = list(csv.DictReader(out.read_text().splitlines()))
    raised = [r for r in rows if r["metric"] == "weight_sum"]
    assert [(r["case"], r["threshold"], r["status"]) for r in raised] == [("m13-equispaced", "build_rule raised", "fail")]
    assert "sum to" in raised[0]["value"]
    assert not any(r["case"] == "m13-equispaced" and r["metric"] != "weight_sum" for r in rows)
    assert any(r["case"] == "m13-seeded" and r["metric"] == "exactness_scaled_err" for r in rows)


_SOLVE_OUT = ["--out-coeffs", "{coeffs}", "--out-report", "{report}"]


@pytest.mark.parametrize(
    "gen_args, data, args, code, message, writes",
    [
        pytest.param(
            ["--n", "21", "--plan", "2,9"],
            None,
            ["interpolate", "--nodes", "{nodes}", "--function", "one", *_SOLVE_OUT],
            1,
            "error: solve failed: collocation matrix is singular to working precision (condition estimate ",
            False,
            id="near-singular-solve",
        ),
        pytest.param(
            ["--n", "5", "--plan", "3"],
            None,
            ["interpolate", "--nodes", "{nodes}", "--function", "expz", "--residual-tol", "1e-300", *_SOLVE_OUT],
            1,
            "exceeds --residual-tol 1.000e-300",
            True,
            id="residual-above-tol",
        ),
        pytest.param(
            ["--n", "5", "--plan", "3"],
            "index,value\n0,1.0\n0,2.0\n",
            ["interpolate", "--nodes", "{nodes}", "--data", "{data}", *_SOLVE_OUT],
            2,
            "error: {data}:3: duplicate index 0",
            False,
            id="duplicate-index",
        ),
        pytest.param(
            ["--n", "5", "--plan", "3"],
            "index,value\n0,1.0\n1,2.0\n",
            ["interpolate", "--nodes", "{nodes}", "--data", "{data}", *_SOLVE_OUT],
            2,
            "error: {data}: data must cover indices 0..35, got 2 rows",
            False,
            id="missing-indices",
        ),
        pytest.param(
            None,
            None,
            ["gen-nodes", "--n", "5", "--plan", "2,1", "--latitudes", "legendre", "--out", "{nodes}"],
            2,
            "error: legendre latitudes require a single-group plan",
            None,
            id="legendre-multi-group",
        ),
        pytest.param(
            None,
            None,
            ["gen-nodes", "--n", "5", "--plan", "3", "--latitudes", "file", "--out", "{nodes}"],
            2,
            "error: --latitudes file requires --lat-file",
            None,
            id="gen-nodes-no-lat-file",
        ),
        pytest.param(
            None,
            None,
            ["cubature", "--m", "2", "--latitudes", "file", "--out-rule", "{coeffs}", "--out-cert", "{report}"],
            2,
            "error: --latitudes file requires --lat-file",
            False,
            id="cubature-no-lat-file",
        ),
        pytest.param(
            ["--n", "5", "--plan", "3"],
            None,
            ["interpolate", "--nodes", "{nodes}", "--function", "nope", *_SOLVE_OUT],
            2,
            "error: unknown function 'nope'; choose from ",
            False,
            id="unknown-function",
        ),
        pytest.param(
            None,
            None,
            ["gen-nodes", "--n", "5", "--plan", "2,x", "--out", "{nodes}"],
            2,
            "error: plan '2,x' is not a comma-separated integer list",
            None,
            id="plan-not-integers",
        ),
    ],
)
def test_cli_failure_exits_with_one_error_line(tmp_path: Path, gen_args, data, args, code, message, writes):
    paths = {name: str(tmp_path / f"{name}.out") for name in ("nodes", "data", "coeffs", "report")}
    if gen_args is not None:
        assert run_cli("gen-nodes", *gen_args, "--out", paths["nodes"]).returncode == 0
    if data is not None:
        Path(paths["data"]).write_text(data)
    res = run_cli(*(a.format(**paths) for a in args))
    assert res.returncode == code
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr
    assert message.format(**paths) in res.stderr
    assert "Traceback" not in res.stderr
    if writes is not None:
        assert all(Path(paths[name]).exists() == writes for name in ("coeffs", "report"))
