"""Command-line front end: node generation, interpolation, cubature, verify.

Structured artifacts are JSON (node sets, rules, reports) and tabular data
is CSV; inputs may start with a UTF-8 byte-order mark. All angles are
serialized in radians at full double precision, and every command is
deterministic given its flags and seed, so repeated runs produce
byte-identical files. The environment variable SPHINTERP_SEED overrides
the default seed of ``verify``, the one command that takes a seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from .cubature import apply_rule, build_rule, exactness_certificate
from .errors import InputError, PoisednessError, WeightSumError
from .interpolation import RESIDUAL_TOL, InterpolationProblem, solve
from .nodes import (
    NodeSet,
    PartitionPlan,
    build_nodeset,
    check_mirrored,
    default_latitudes,
    equispaced_latitudes,
    legendre_latitudes,
)
from .verification import (
    TOL_EXACTNESS,
    catalog_suite,
    chebyshev_suite,
    cubature_suite,
    dimension_suite,
    factorization_suite,
    lemmas_suite,
    poisedness_suite,
)

BUILTIN_FUNCTIONS = {
    "one": lambda th, ph: 1.0,
    "z": lambda th, ph: math.cos(th),
    "z2": lambda th, ph: math.cos(th) ** 2,
    "x": lambda th, ph: math.sin(th) * math.cos(ph),
    "y": lambda th, ph: math.sin(th) * math.sin(ph),
    "expz": lambda th, ph: math.exp(math.cos(th)),
    "band2": lambda th, ph: math.cos(th) * math.sin(th) ** 2 * math.cos(2 * ph),
}

_SUITES = {
    "poisedness": lambda args: poisedness_suite(args.n, seed=args.seed, trials=args.trials),
    "catalog": lambda args: catalog_suite(args.n),
    "chebyshev": lambda args: chebyshev_suite(rmax=args.rmax, seed=args.seed),
    "factorization": lambda args: factorization_suite(mmax=args.m, seeds=args.trials, seed=args.seed),
    "lemmas": lambda args: lemmas_suite(mmax=args.m, fold_trials=args.trials, seed=args.seed),
    "cubature": lambda args: cubature_suite(mmax=args.m, trig_trials=args.trials, seed=args.seed),
    "dimension": lambda args: dimension_suite(smax=args.smax),
}


def _default_seed() -> int:
    text = os.environ.get("SPHINTERP_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise InputError(f"SPHINTERP_SEED must be an integer, got {text!r}") from None


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path: str):
    with open(path, "r", encoding="utf-8-sig") as fh:
        return json.load(fh)


def _lat_file(args):
    if args.lat_file is None:
        raise InputError("--latitudes file requires --lat-file")
    return _read_json(args.lat_file)


def _builtin(name: str):
    if name not in BUILTIN_FUNCTIONS:
        raise InputError(f"unknown function {name!r}; choose from {sorted(BUILTIN_FUNCTIONS)}")
    return BUILTIN_FUNCTIONS[name]


def _parse_plan(text: str, n: int) -> PartitionPlan:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise InputError(f"plan {text!r} is not a comma-separated integer list")
    return PartitionPlan(n=n, lambdas=parts)


def cmd_gen_nodes(args) -> int:
    plan = _parse_plan(args.plan, args.n)
    if args.latitudes == "default":
        lats = default_latitudes(plan)
    elif args.latitudes == "legendre":
        if plan.sigma != 1:
            raise InputError("legendre latitudes require a single-group plan")
        m = plan.lambdas[0]
        lats = [legendre_latitudes(m)[:m]]
    else:
        lats = _lat_file(args)
    nodes = build_nodeset(plan, lats)
    _write_json(args.out, nodes.to_json_dict())
    print(f"{nodes.count()} points: {plan.summary()}")
    print(f"wrote {args.out}")
    return 0


def _read_data_csv(path: str, count: int) -> list[float]:
    values: dict[int, float] = {}
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (lineno == 1 and row[0].strip().lower() == "index"):
                continue
            if len(row) < 2:
                raise InputError(f"{path}:{lineno}: expected 'index,value'")
            try:
                idx = int(row[0])
                val = float(row[1])
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: {exc}")
            if idx in values:
                raise InputError(f"{path}:{lineno}: duplicate index {idx}")
            values[idx] = val
    if sorted(values) != list(range(count)):
        raise InputError(
            f"{path}: data must cover indices 0..{count - 1}, got {len(values)} rows"
        )
    return [values[i] for i in range(count)]


def cmd_interpolate(args) -> int:
    if args.grid_size < 1:
        raise InputError(f"--grid-size must be a positive integer, got {args.grid_size}")
    if not (math.isfinite(args.residual_tol) and args.residual_tol >= 0.0):
        raise InputError(f"--residual-tol must be finite and nonnegative, got {args.residual_tol!r}")
    nodes = NodeSet.from_json_dict(_read_json(args.nodes))
    count = nodes.count()
    if args.function is not None:
        f = _builtin(args.function)
        data = [f(th, ph) for th, ph in nodes.points().tolist()]
    else:
        data = _read_data_csv(args.data, count)
    report = solve(InterpolationProblem(nodes=nodes, data=tuple(data)))
    sol = report.solution
    n = sol.degree
    _write_json(
        args.out_coeffs,
        {
            "n": n,
            "a": [sol.coef[: n - k + 1, k, 0].tolist() for k in range(n + 1)],
            "b": [[0.0]] + [sol.coef[: n - k + 1, k, 1].tolist() for k in range(1, n + 1)],
        },
    )
    _write_json(
        args.out_report,
        {
            "n": n,
            "points": count,
            "residual_inf": report.residual_inf,
            "condition_estimate": report.condition_estimate,
            "pivot_min": report.pivot_min,
        },
    )
    if args.eval_grid is not None:
        q = args.grid_size
        thetas = [(i + 0.5) * math.pi / q for i in range(q)]
        phis = [j * math.pi / q for j in range(2 * q)]
        values = sol.eval(*np.meshgrid(thetas, phis, indexing="ij"))
        with open(args.eval_grid, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["theta", "phi", "value"])
            for th, row in zip(thetas, values):
                for ph, v in zip(phis, row):
                    writer.writerow([repr(th), repr(ph), repr(float(v))])
    print(
        f"solved {count} conditions: residual_inf={report.residual_inf:.3e}, "
        f"condition={report.condition_estimate:.3e}"
    )
    rel = report.residual_inf / max(1.0, max(abs(v) for v in data))
    if rel > args.residual_tol:
        print(
            f"error: relative residual {rel:.3e} exceeds --residual-tol "
            f"{args.residual_tol:.3e}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_cubature(args) -> int:
    f = None if args.apply is None else _builtin(args.apply)
    if args.latitudes == "legendre":
        lats = legendre_latitudes(args.m)
    elif args.latitudes == "default":
        lats = equispaced_latitudes(args.m)
    else:
        lats = check_mirrored(_lat_file(args))
        if len(lats) != 2 * args.m:
            raise InputError(f"--lat-file holds {len(lats)} latitudes, --m {args.m} needs {2 * args.m}")
    rule = build_rule(lats)
    cert = exactness_certificate(rule)
    _write_json(args.out_rule, rule.to_json_dict())
    _write_json(
        args.out_cert,
        {
            "m": rule.m,
            "basis_size": (2 * rule.m) ** 2,
            "max_abs_error": cert.max_abs_error,
            "min_weight": min(rule.weights),
            "weights_nonnegative": bool(min(rule.weights) >= 0.0),
            "total_node_weight": sum(w for _, _, w in rule.nodes()),
        },
    )
    print(
        f"rule m={rule.m}: {rule.node_count()} nodes, exactness max error "
        f"{cert.max_abs_error:.3e}, min weight {min(rule.weights):.6f}"
    )
    if f is not None:
        value = apply_rule(rule, f)
        print(f"integral[{args.apply}] = {value!r}")
    if cert.max_abs_error > TOL_EXACTNESS:
        print(
            f"error: exactness max error {cert.max_abs_error:.3e} exceeds {TOL_EXACTNESS:.0e}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_verify(args) -> int:
    if args.seed is None:
        args.seed = _default_seed()
    if args.seed < 0:
        raise InputError(f"seed must be a nonnegative integer, got {args.seed}")
    if args.suite not in _SUITES:
        raise InputError(f"unknown suite {args.suite!r}; choose from {sorted(_SUITES)}")
    if args.m < 1 or args.trials < 1:
        raise InputError("--m and --trials must be positive integers")
    if args.suite == "chebyshev" and args.rmax < 2:  # the sweep starts at r = 2
        raise InputError(f"--rmax must be at least 2, got {args.rmax}")
    rows = sorted(_SUITES[args.suite](args), key=lambda r: (r["case"], r["metric"]))
    checked = [r for r in rows if r["status"] != "info"]
    if not checked:
        raise InputError(f"suite {args.suite}: these options leave no case to check")
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["suite", "case", "metric", "value", "threshold", "status"]
            )
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
    failed = [r for r in rows if r["status"] == "fail"]
    print(
        f"suite {args.suite}: {len(checked) - len(failed)}/{len(checked)} checks passed"
        + (f", {len(failed)} FAILED" if failed else "")
    )
    for row in failed:
        print(
            f"  FAIL {row['case']} {row['metric']}: value={row['value']!r} "
            f"threshold={row['threshold']!r}"
        )
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphinterp",
        description=__doc__.splitlines()[0],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-nodes", help="generate an interpolation node set")
    p.add_argument("--n", type=int, required=True, help="odd polynomial degree")
    p.add_argument("--plan", type=str, required=True, help="composition, e.g. 2,1")
    p.add_argument(
        "--latitudes",
        choices=["default", "legendre", "file"],
        default="default",
        help="latitude source",
    )
    p.add_argument("--lat-file", type=str, help="JSON list of per-group latitude lists")
    p.add_argument("--out", type=str, default="nodes.json")
    p.set_defaults(func=cmd_gen_nodes)

    p = sub.add_parser("interpolate", help="solve an interpolation problem")
    p.add_argument("--nodes", type=str, required=True, help="node set JSON")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", type=str, help="CSV with rows 'index,value'")
    src.add_argument(
        "--function", type=str, help=f"built-in sample function: {sorted(BUILTIN_FUNCTIONS)}"
    )
    p.add_argument("--out-coeffs", type=str, default="coeffs.json")
    p.add_argument("--out-report", type=str, default="report.json")
    p.add_argument("--eval-grid", type=str, help="optional CSV of theta,phi,value samples")
    p.add_argument("--grid-size", type=int, default=24)
    p.add_argument(
        "--residual-tol",
        type=float,
        default=RESIDUAL_TOL,
        help="fail (exit 1) if the relative residual exceeds this",
    )
    p.set_defaults(func=cmd_interpolate)

    p = sub.add_parser("cubature", help="build a cubature rule and its certificate")
    p.add_argument("--m", type=int, required=True, help="half latitude count")
    p.add_argument(
        "--latitudes",
        choices=["legendre", "default", "file"],
        default="legendre",
        help="latitude source (default: legendre zeros)",
    )
    p.add_argument("--lat-file", type=str, help="JSON list of 2m latitudes")
    p.add_argument("--out-rule", type=str, default="rule.json")
    p.add_argument("--out-cert", type=str, default="certificate.json")
    p.add_argument("--apply", type=str, help="also integrate a built-in function")
    p.set_defaults(func=cmd_cubature)

    p = sub.add_parser("verify", help="run a verification sweep")
    p.add_argument("--suite", type=str, required=True, help=f"one of {sorted(_SUITES)}")
    p.add_argument("--n", type=int, default=5, help="degree for poisedness/catalog")
    p.add_argument("--m", type=int, default=4, help="size cap for factorization/lemmas/cubature")
    p.add_argument("--rmax", type=int, default=6, help="sweep cap for chebyshev")
    p.add_argument("--smax", type=int, default=20, help="sweep cap for dimension")
    p.add_argument("--trials", type=int, default=20, help="seeded trials per case")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=str, help="write per-case results CSV here")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    """Run one command: exit 0 on success, 1 on a numerical failure, 2 on bad input."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PoisednessError as exc:
        print(
            f"error: solve failed: {exc} (pivot_min={exc.pivot_min:.3e}, "
            f"condition={exc.condition_estimate:.3e})",
            file=sys.stderr,
        )
        return 1
    except WeightSumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InputError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
