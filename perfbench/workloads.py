"""The three benchmark workloads.

Each ``setup_*`` function generates every input and reference from the seed
before the timed loop and returns the workload's fixed job list. A job is one
operation a user waits for; the harness runs the jobs one after another (a
closed loop with one client). Each job checks its own result against an
independent reference, using the package's named tolerances, and returns an
``Outcome``. The seed changes planted data, seeded latitudes and sampled
plans, never the shape of the job list.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

import sphinterp as sp
from sphinterp.verification import TOL_EXACTNESS, TOL_PLANT_COEFF

_PI = math.pi


@dataclass
class Outcome:
    """What the correctness gate saw for one job."""

    attempted: int = 1
    failed: int = 0
    key: tuple = ()  # the verdicts; identical on every pass of a reproducible run
    health: dict = field(default_factory=dict)


@dataclass
class Job:
    name: str
    size: str  # "small" or "large" feed job_s.small / job_s.large; "" feeds neither
    run: Callable  # run(tracer) -> Outcome


def _attempt(tr, name, fn, *args):
    """One library call; an exception is a failed operation, recorded by type.

    The traceback is dropped: it would keep the failed call's frames, with
    their matrices, alive until the cyclic garbage collector runs, which
    makes peak RSS depend on when that happens.
    """
    try:
        return tr.call(name, fn, *args), None
    except Exception as exc:  # the gate counts any raised error as a failure
        return None, exc.with_traceback(None)


# ---------------------------------------------------------------------------
# interp-ladder
# ---------------------------------------------------------------------------

# other compositions sampled per degree, besides the single-group and all-ones
# plans; fewer at large n, where one job costs up to 0.6 s
INTERP_SAMPLED = {5: 2, 9: 3, 13: 3, 21: 2, 31: 1, 41: 1}
INTERP_SAMPLED_SMOKE = {3: 0, 5: 2}
INTERP_SIZES = {13: "small", 31: "large"}
INTERP_SIZES_SMOKE = {3: "small", 5: "large"}


def band_values(n: int, vec: np.ndarray, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Evaluate a canonical coefficient vector with numpy, independently of sphinterp.

    Canonical order: k ascending, the cos band then the sin band, powers of
    t = cos(theta) ascending within a band, each band times sin(theta)**k.
    """
    t = np.cos(theta)
    s = np.sin(theta)
    out = np.zeros_like(t)
    pos = 0
    for k in range(n + 1):
        width = n - k + 1
        sk = s**k
        out += npoly.polyval(t, vec[pos : pos + width]) * sk * np.cos(k * phi)
        pos += width
        if k >= 1:
            out += npoly.polyval(t, vec[pos : pos + width]) * sk * np.sin(k * phi)
            pos += width
    return out


def _sample_compositions(total: int, count: int, rng: np.random.Generator) -> list[tuple[int, ...]]:
    """Distinct compositions of ``total`` other than (total,) and (1, ..., 1).

    Drawn as random cut sets, because enumerating all 2**(total - 1)
    compositions is out of reach at n = 41.
    """
    seen = {(total,), (1,) * total}
    out = []
    while len(out) < count:
        parts, run = [], 1
        for cut in rng.random(total - 1) < 0.5:
            if cut:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        comp = tuple(parts)
        if comp not in seen:
            seen.add(comp)
            out.append(comp)
    return out


def _eval_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The q x 2q sampling grid of ``interpolate --eval-grid`` with q = 2(n + 1)."""
    q = 2 * (n + 1)
    theta = (np.arange(q) + 0.5) * _PI / q
    phi = np.arange(2 * q) * _PI / q
    return np.meshgrid(theta, phi, indexing="ij")


def _interp_job(n, plan, family, lats, data, grid, ref, size) -> Job:
    plan_id = ",".join(str(l) for l in plan.lambdas)
    name = f"n{n}-plan({plan_id})-{family}"
    dim = (n + 1) ** 2
    ref_scale = float(np.max(np.abs(ref)))

    def run(tr) -> Outcome:
        health = {"n": n, "plan": plan_id, "family": family}
        nodes, exc = _attempt(tr, "nodes.build_nodeset", sp.build_nodeset, plan, lats)
        if exc is not None:
            tr.count("interpolation.raised")
            health["raised"] = type(exc).__name__
            return Outcome(failed=1, key=(type(exc).__name__,), health=health)
        tr.attributed("interpolation.assemble_matrix", sp.assemble_matrix, nodes)
        # the solve and the certificate each assemble and factor the matrix once
        tr.count("interpolation.lu_flop", 2 * (2.0 / 3.0) * dim**3)
        tr.count("interpolation.matrix_bytes", 2 * 8 * dim**2)
        report, solve_exc = _attempt(
            tr,
            "interpolation.solve",
            lambda: sp.solve(sp.InterpolationProblem(nodes=nodes, data=data)),
        )
        cert, cert_exc = _attempt(tr, "interpolation.poisedness_certificate", sp.poisedness_certificate, nodes)
        chain, chain_exc = _attempt(tr, "factorization.chain_kernel_certificate", sp.chain_kernel_certificate, nodes)
        source = report if report is not None else solve_exc
        health["condition_estimate"] = getattr(source, "condition_estimate", None)
        health["pivot_min"] = getattr(source, "pivot_min", None)
        health["certificate"] = None if cert is None else cert.passed
        health["chain"] = None if chain is None else chain.passed
        grid_err = None
        values_exc = None
        if report is not None:
            values, values_exc = _attempt(tr, "spherical.eval", report.solution.eval, *grid)
            tr.count("spherical.eval.points", grid[0].size)
            if values is not None:
                grid_err = float(np.max(np.abs(values - ref))) / ref_scale
        health["grid_err"] = grid_err
        raised = [e for e in (solve_exc, cert_exc, chain_exc, values_exc) if e is not None]
        health["raised"] = ",".join(type(e).__name__ for e in raised) or None
        wrong = grid_err is not None and not grid_err <= TOL_PLANT_COEFF
        if raised:
            tr.count("interpolation.raised")
        elif wrong:
            tr.count("interpolation.silent_wrong")
        if cert is not None and not cert.passed:
            tr.count("interpolation.cert_failed")
        if chain is not None and not chain.passed:
            tr.count("interpolation.chain_failed")
        if cert is not None and chain is not None and cert.passed != chain.passed:
            tr.count("interpolation.oracle_disagree")
        failed = bool(raised) or wrong
        key = (failed, health["raised"], health["certificate"], health["chain"])
        return Outcome(failed=int(failed), key=key, health=health)

    return Job(name=name, size=size, run=run)


def setup_interp(seed: int, smoke: bool, tr, workdir: Path) -> list[Job]:
    rng = np.random.default_rng(seed)
    jobs = []
    sizes = INTERP_SIZES_SMOKE if smoke else INTERP_SIZES
    for n, sampled in (INTERP_SAMPLED_SMOKE if smoke else INTERP_SAMPLED).items():
        total = (n + 1) // 2
        fixed = [(total,), (1,) * total]
        comps = fixed + _sample_compositions(total, sampled, rng)
        grid = _eval_grid(n)
        for comp in comps:
            plan = sp.PartitionPlan(n=n, lambdas=comp)
            families = [
                ("default", tr.call("nodes.default_latitudes", sp.default_latitudes, plan)),
                (
                    "seeded",
                    tr.call("nodes.seeded_latitudes", sp.seeded_latitudes, plan, int(rng.integers(2**31))),
                ),
            ]
            if plan.sigma == 1:
                gl = tr.call("nodes.legendre_latitudes", sp.legendre_latitudes, total)
                families.append(("legendre", [gl[:total]]))
            for family, lats in families:
                nodes = tr.call("nodes.build_nodeset", sp.build_nodeset, plan, lats)
                planted = tr.call("spherical.random_spherical", sp.random_spherical, n, rng)
                vec = planted.coefficient_vector()
                pts = np.array(nodes.points())
                data = tuple(band_values(n, vec, pts[:, 0], pts[:, 1]).tolist())
                ref = band_values(n, vec, *grid)
                # the job classes use only the fixed plans, so the seed does not change their mix
                size = sizes.get(n, "") if comp in fixed else ""
                jobs.append(_interp_job(n, plan, family, lats, data, grid, ref, size))
    return jobs


# ---------------------------------------------------------------------------
# cubature-ladder
# ---------------------------------------------------------------------------

CUBATURE_MS = {4: "", 8: "small", 16: "", 32: "large"}
CUBATURE_MS_SMOKE = {2: "small", 4: "large"}
CUBATURE_FAMILIES = ("legendre", "equispaced", "seeded")


def _horner(coeffs: list[float], t: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _planted_integrand(m: int, rng: np.random.Generator):
    """A degree 2m - 1 polynomial as a scalar callback, with its exact integral.

    The k = 0 band and the bands k in {1, m, 2m - 1} carry standard-normal
    coefficients up to their structural degree 2m - 1 - k. Only the k = 0
    band has a nonzero surface integral, 2 pi times its moment over [-1, 1].
    Keeping four bands bounds the callback cost, which is not under test.
    """
    n = 2 * m - 1
    a0 = rng.standard_normal(n + 1).tolist()
    bands = [
        (k, rng.standard_normal(n - k + 1).tolist(), rng.standard_normal(n - k + 1).tolist())
        for k in sorted({1, m, n})
    ]

    def f(theta: float, phi: float) -> float:
        t = math.cos(theta)
        s = math.sin(theta)
        val = _horner(a0, t)
        for k, a, b in bands:
            val += s**k * (_horner(a, t) * math.cos(k * phi) + _horner(b, t) * math.sin(k * phi))
        return val

    exact = 2.0 * _PI * sum(2.0 * c / (j + 1) for j, c in enumerate(a0) if j % 2 == 0)
    return f, exact


def _mirrored(north: list[float]) -> list[float]:
    return list(north) + [_PI - th for th in reversed(north)]


def _rule_job(m: int, family: str, lat_seed: int, f, exact: float, size: str) -> Job:
    plan = sp.PartitionPlan(n=2 * m - 1, lambdas=(m,))

    def latitudes(tr):
        if family == "legendre":
            return tr.call("nodes.legendre_latitudes", sp.legendre_latitudes, m)
        if family == "equispaced":
            return _mirrored(tr.call("nodes.default_latitudes", sp.default_latitudes, plan)[0])
        return _mirrored(tr.call("nodes.seeded_latitudes", sp.seeded_latitudes, plan, lat_seed)[0])

    def run(tr) -> Outcome:
        health = {"m": m, "family": family}
        calls = [0]

        def counted(theta, phi):
            calls[0] += 1
            return f(theta, phi)

        rule, exc = _attempt(tr, "cubature.build_rule", lambda: sp.build_rule(latitudes(tr)))
        report = integral = None
        if rule is not None:
            report, exc = _attempt(tr, "cubature.exactness_certificate", sp.exactness_certificate, rule)
            tr.count("cubature.assemble_bytes", 8 * rule.node_count() ** 2)
        if report is not None:
            integral, exc = _attempt(tr, "cubature.apply_rule", sp.apply_rule, rule, counted)
            tr.count("cubature.apply_rule.f_calls", calls[0])
        if exc is not None:
            tr.count("cubature.raised")
            health["raised"] = f"{type(exc).__name__}: {exc}"
            return Outcome(failed=1, key=(type(exc).__name__,), health=health)
        health["exactness_err"] = report.max_abs_error
        health["integral_err"] = abs(integral - exact)
        health["min_weight"] = min(rule.weights)
        checks = (
            report.max_abs_error <= TOL_EXACTNESS,
            health["integral_err"] <= TOL_EXACTNESS * 4 * _PI,
            family != "legendre" or health["min_weight"] >= 0.0,
        )
        failed = not all(checks)
        return Outcome(failed=int(failed), key=checks, health=health)

    return Job(name=f"m{m}-{family}", size=size, run=run)


def setup_cubature(seed: int, smoke: bool, tr, workdir: Path) -> list[Job]:
    rng = np.random.default_rng(seed)
    jobs = []
    for m, size in (CUBATURE_MS_SMOKE if smoke else CUBATURE_MS).items():
        for family in CUBATURE_FAMILIES:
            f, exact = _planted_integrand(m, rng)
            jobs.append(_rule_job(m, family, int(rng.integers(2**31)), f, exact, size))
    return jobs


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------


def _cli_env() -> dict:
    env = dict(os.environ)
    env.pop("SPHINTERP_SEED", None)
    return env


def _parses(path: Path) -> bool:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            if path.suffix == ".json":
                json.load(fh)
            else:
                return len(list(csv.reader(fh))) >= 2
    except (OSError, ValueError):
        return False
    return True


def _main_inprocess(argv: list[str]):
    """``cli.main(argv)`` in this process; returns its exit status."""
    from sphinterp import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception as exc:  # NaN data reaches scipy, which raises ValueError
            return type(exc).__name__


def _cli_job(name: str, argv: list[str], expect: int, outputs: list[Path], size: str) -> Job:
    command = argv[0]
    cmd = [sys.executable, "-m", "sphinterp.cli", *argv]

    def run(tr) -> Outcome:
        for path in outputs:
            path.unlink(missing_ok=True)
        try:
            proc = tr.call(
                f"cli.{command}",
                subprocess.run,
                cmd,
                env=_cli_env(),
                capture_output=True,
                text=True,
                timeout=120,
            )
        except subprocess.TimeoutExpired:
            tr.count("cli.exit_mismatch")
            return Outcome(failed=1, key=("timeout",), health={"argv": argv, "exit": None})
        tr.attributed(f"cli.{command}.main", _main_inprocess, argv)
        traceback = "Traceback" in proc.stderr
        ok_exit = proc.returncode == expect and not (expect == 2 and traceback)
        if not ok_exit:
            tr.count("cli.exit_mismatch")
        parsed = expect != 0 or all(_parses(p) for p in outputs)
        failed = not (ok_exit and parsed)
        health = {"argv": argv, "exit": proc.returncode, "expect": expect, "traceback": traceback, "outputs_parse": parsed}
        return Outcome(failed=int(failed), key=(proc.returncode, traceback, parsed), health=health)

    return Job(name=name, size=size, run=run)


def setup_cli(seed: int, smoke: bool, tr, workdir: Path) -> list[Job]:
    import sphinterp.cli  # noqa: F401  (set-up includes the CLI's imports)

    rng = np.random.default_rng(seed)
    w = lambda name: workdir / name  # noqa: E731
    nan_csv = w("nan.csv")
    values = rng.uniform(-1.0, 1.0, size=(13 + 1) ** 2).tolist()
    values[int(rng.integers(len(values)))] = math.nan
    with open(nan_csv, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "value"])
        writer.writerows(enumerate(values))

    def interp(nodes, q, size):
        outs = [w(f"coeffs{q}.json"), w(f"report{q}.json"), w(f"grid{q}.csv")]
        argv = ["interpolate", "--nodes", str(nodes), "--function", "expz",
                "--out-coeffs", str(outs[0]), "--out-report", str(outs[1]),
                "--eval-grid", str(outs[2]), "--grid-size", str(q)]
        return _cli_job(f"interpolate-grid{q}", argv, 0, outs, size)

    def cubature(m, family):
        outs = [w(f"rule{m}.json"), w(f"cert{m}.json")]
        argv = ["cubature", "--m", str(m), "--latitudes", family, "--apply", "expz",
                "--out-rule", str(outs[0]), "--out-cert", str(outs[1])]
        return _cli_job(f"cubature-m{m}-{family}", argv, 0, outs, "")

    def verify(suite, *flags):
        out = w(f"verify-{suite}.csv")
        argv = ["verify", "--suite", suite, *flags, "--seed", str(seed), "--out", str(out)]
        return _cli_job(f"verify-{suite}", argv, 0, [out], "")

    nodes13, nodes21 = w("nodes13.json"), w("nodes21.json")
    gen13 = _cli_job("gen-nodes-n13", ["gen-nodes", "--n", "13", "--plan", "7", "--out", str(nodes13)], 0, [nodes13], "small")
    nan_cmd = _cli_job(
        "interpolate-nan-csv",
        ["interpolate", "--nodes", str(nodes13), "--data", str(nan_csv),
         "--out-coeffs", str(w("nan-coeffs.json")), "--out-report", str(w("nan-report.json"))],
        2, [], "",
    )
    if smoke:
        return [gen13, interp(nodes13, 24, "large"), cubature(4, "legendre"), verify("dimension"), nan_cmd]
    return [
        gen13,
        _cli_job("gen-nodes-n21", ["gen-nodes", "--n", "21", "--plan", "11", "--out", str(nodes21)], 0, [nodes21], ""),
        interp(nodes13, 24, ""),
        interp(nodes21, 48, "large"),
        cubature(8, "legendre"),
        cubature(16, "default"),
        verify("poisedness", "--n", "5"),
        verify("lemmas", "--m", "4"),
        verify("dimension"),
        nan_cmd,
    ]


WORKLOADS = {
    "interp-ladder": setup_interp,
    "cubature-ladder": setup_cubature,
    "cli-session": setup_cli,
}
