"""Benchmark harness for sphinterp: three closed-loop workloads, one client.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload interp-ladder --seed 1 --seconds 35 --trace 0

With ``--trace 0`` the harness times passes over the workload's fixed job
list until ``--seconds`` have elapsed and reports the end-to-end metrics.
With ``--trace 1`` it runs one untraced pass, then traced passes, and
reports the per-layer metrics plus the tracing overhead. Either way it
checks every job's result, prints every metric with its unit, writes a full
report (provenance, per-job timings, health records, spans) to
``perfbench/out/``, and prints one JSON result object as the last line.

BLAS and OpenMP are pinned to one thread before numpy is imported, here and
in every child process. See perfbench/README.md for the workloads and what
each metric is expected to move.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("interp-ladder", "cubature-ladder", "cli-session")
SETUP_REPEATS = 3  # fresh interpreters per run; setup_s is their median
IMPORT_REPEATS = 3
IMPORT_PROBES = {
    "import.numpy_s": "numpy",
    "import.scipy_linalg_s": "scipy.linalg",
    "import.sphinterp_s": "sphinterp",
    "import.sphinterp_cli_s": "sphinterp.cli",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "job_s.large": "s",
}

CLI_COMMANDS = ("gen-nodes", "interpolate", "cubature", "verify")
# library calls the workloads wrap in spans; each gets <name>.self_pct and <name>.calls
LAYER_SPANS = (
    "nodes.build_nodeset",
    "nodes.default_latitudes",
    "nodes.seeded_latitudes",
    "nodes.legendre_latitudes",
    "spherical.eval",
    "interpolation.solve",
    "interpolation.poisedness_certificate",
    "factorization.chain_kernel_certificate",
    "cubature.build_rule",
    "cubature.exactness_certificate",
    "cubature.apply_rule",
    *(f"cli.{command}" for command in CLI_COMMANDS),
)
COUNTERS = {
    "interpolation.lu_flop": "flop",
    "interpolation.matrix_bytes": "B",
    "spherical.eval.points": "count",
    "cubature.apply_rule.f_calls": "count",
    "cubature.assemble_bytes": "B",
    "interpolation.raised": "count",
    "interpolation.silent_wrong": "count",
    "interpolation.oracle_disagree": "count",
    "interpolation.cert_failed": "count",
    "interpolation.chain_failed": "count",
    "cubature.raised": "count",
    "cli.exit_mismatch": "count",
}


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in IMPORT_PROBES}
    for name in LAYER_SPANS:
        units[f"{name}.self_pct"] = "%"
        units[f"{name}.calls"] = "count"
    units["interpolation.assemble_matrix.attributed_pct"] = "%"
    units["interpolation.assemble_matrix.calls"] = "count"
    units["interpolation.gflop_per_s"] = "Gflop/s"
    for command in CLI_COMMANDS:
        units[f"cli.{command}.main_pct"] = "%"
    units.update(COUNTERS)
    units["trace.overhead_s"] = "s"
    return units


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest job lists (perfbench/smoke.py)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Import sphinterp from this checkout's src/, never from an installed copy."""
    if not (SRC / "sphinterp" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'sphinterp'} not found; run from a sphinterp checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    import sphinterp

    if Path(sphinterp.__file__).resolve().parent != SRC / "sphinterp":
        sys.exit(f"error: imported sphinterp from {sphinterp.__file__}, not from {SRC}")
    return sphinterp


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    wall: float  # excludes traced-only attributed calls
    times: list[float]
    outcomes: list


def run_pass(jobs, tr) -> Pass:
    attributed = tr.attributed_s
    times, outcomes = [], []
    start = time.perf_counter()
    for job in jobs:
        tr.job = job.name
        t0 = time.perf_counter()
        outcomes.append(tr.call("job", job.run, tr))
        times.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start - (tr.attributed_s - attributed)
    return Pass(wall=wall, times=times, outcomes=outcomes)


def measure_passes(jobs, tr, start: float, seconds: float) -> list[Pass]:
    """Passes until ``seconds`` after ``start``; the last one may overrun by half a pass."""
    passes = [run_pass(jobs, tr)]
    while time.perf_counter() - start + 0.5 * passes[-1].wall < seconds:
        passes.append(run_pass(jobs, tr))
    return passes


def child_cmd(args, *extra: str) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    return cmd + (["--smoke"] if args.smoke else []) + list(extra)


def time_setup(args) -> float:
    """Fresh interpreter to ready: imports plus generation of inputs and references."""
    start = time.perf_counter()
    subprocess.run(child_cmd(args, "--setup-only"), check=True, timeout=150, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def time_import(module: str) -> float:
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], check=True, timeout=60, capture_output=True, text=True)
    return float(proc.stdout.strip())


def peak_rss_mb(workload: str) -> float:
    """Peak RSS of the worker process; for cli-session, of the largest child."""
    who = resource.RUSAGE_CHILDREN if workload == "cli-session" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def provenance(args, sphinterp) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sphinterp": sphinterp.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "threads_env": {var: os.environ[var] for var in THREAD_VARS},
        "seed": args.seed,
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def end_to_end(args, jobs, passes, setup_times) -> tuple[dict, dict]:
    from tracing import summarize

    samples = {
        "setup_s": setup_times,
        "job_s.small": [t for p in passes for t, job in zip(p.times, jobs) if job.size == "small"],
        "job_s.large": [t for p in passes for t, job in zip(p.times, jobs) if job.size == "large"],
    }
    attempted = sum(o.attempted for p in passes for o in p.outcomes)
    failed = sum(o.failed for p in passes for o in p.outcomes)
    values = {name: statistics.median(samples[name]) for name in ("setup_s", "job_s.large")}
    # a median pass: each job at its median over passes, so that a burst of
    # load on the shared machine during one job does not shift the whole pass
    values["wall_s"] = sum(statistics.median(p.times[i] for p in passes) for i in range(len(jobs)))
    # reported as the share that passed the gate, 1 - failed / attempted,
    # because an end-to-end metric must never read 0
    values["ok_ratio"] = 1.0 - failed / attempted
    values["peak_rss_mb"] = peak_rss_mb(args.workload)
    summaries = {name: summarize(vals) for name, vals in samples.items()}
    summaries["job_s.all"] = summarize([t for p in passes for t in p.times])
    summaries["wall_s"] = summarize([p.wall for p in passes])
    return values, summaries


def per_layer(tracer, baseline: Pass, passes: list[Pass], imports: dict) -> tuple[dict, dict]:
    from tracing import self_times, summarize

    count = len(passes)
    traced_wall = sum(p.wall for p in passes)
    in_passes = [s for s in tracer.spans if s.job != "setup" and s.name != "job"]
    by_name = self_times(in_passes)
    total = {name: sum(vals) for name, vals in by_name.items()}
    values = {name: statistics.median(vals) for name, vals in imports.items()}
    for name in LAYER_SPANS:
        values[f"{name}.self_pct"] = 100.0 * total.get(name, 0.0) / traced_wall
        values[f"{name}.calls"] = len(by_name.get(name, ())) / count
    assembly = total.get("interpolation.assemble_matrix", 0.0)
    values["interpolation.assemble_matrix.attributed_pct"] = 100.0 * assembly / traced_wall
    values["interpolation.assemble_matrix.calls"] = len(by_name.get("interpolation.assemble_matrix", ())) / count
    # LU time: solve and certificate self time minus their two assemblies per job
    lu_s = total.get("interpolation.solve", 0.0) + total.get("interpolation.poisedness_certificate", 0.0) - 2 * assembly
    lu_flop = tracer.counts["interpolation.lu_flop"]
    values["interpolation.gflop_per_s"] = lu_flop / lu_s / 1e9 if lu_s > 0.0 else 0.0
    for command in CLI_COMMANDS:
        main_s = total.get(f"cli.{command}.main", 0.0)
        run_s = total.get(f"cli.{command}", 0.0)
        values[f"cli.{command}.main_pct"] = 100.0 * main_s / run_s if run_s > 0.0 else 0.0
    for name in COUNTERS:
        values[name] = tracer.counts[name] / count
    values["trace.overhead_s"] = statistics.median(p.wall for p in passes) - baseline.wall
    setup_spans = self_times([s for s in tracer.spans if s.job == "setup"])
    details = {
        "traced_passes": count,
        "untraced_pass_wall_s": baseline.wall,
        "self_s_per_call": {name: summarize(vals) for name, vals in sorted(by_name.items())},
        "setup_self_s": {name: sum(vals) for name, vals in sorted(setup_spans.items())},
        "imports": {name: summarize(vals) for name, vals in imports.items()},
    }
    return values, details


def measure(args, workdir: Path, sphinterp) -> tuple[dict, dict, dict]:
    import workloads
    from tracing import NullTracer, Tracer

    tracer = Tracer() if args.trace else NullTracer()
    tracer.job = "setup"
    jobs = workloads.WORKLOADS[args.workload](args.seed, args.smoke, tracer, workdir)
    report = {"workload": args.workload, "provenance": provenance(args, sphinterp), "jobs": [j.name for j in jobs]}

    if args.trace:
        imports = {name: [time_import(mod) for _ in range(IMPORT_REPEATS)] for name, mod in IMPORT_PROBES.items()}
        start = time.perf_counter()
        baseline = run_pass(jobs, NullTracer())
        passes = measure_passes(jobs, tracer, start, args.seconds)
        metrics, report["per_layer"] = per_layer(tracer, baseline, passes, imports)
        checked = [baseline] + passes
        report["spans"] = [
            [s.name, s.job, s.parent, s.start, s.end] for s in tracer.spans
        ]
    else:
        setup_times = [time_setup(args) for _ in range(SETUP_REPEATS)]
        passes = measure_passes(jobs, tracer, time.perf_counter(), args.seconds)
        metrics, report["end_to_end"] = end_to_end(args, jobs, passes, setup_times)
        checked = passes

    first = checked[0].outcomes
    report["passes"] = len(checked)
    report["job_times_s"] = {job.name: [p.times[i] for p in checked] for i, job in enumerate(jobs)}
    report["pass_wall_s"] = [p.wall for p in checked]
    report["health"] = [dict(o.health, job=job.name, failed=o.failed, attempted=o.attempted) for job, o in zip(jobs, first)]
    result = {
        # the gate judged every job, and every pass saw the same verdicts
        "correct": all([o.key for o in p.outcomes] == [o.key for o in first] for p in checked),
        "attempted": sum(o.attempted for p in checked for o in p.outcomes),
        "failed": sum(o.failed for p in checked for o in p.outcomes),
    }
    return result, metrics, report


def describe(summary: dict | None) -> str:
    if not summary:
        return ""
    tail = f", p{summary['tail_pct']:g}={summary['tail']:.6g}" if "tail" in summary else ""
    return f"  (n={summary['n']}{tail})"


def main(argv=None) -> int:
    args = parse_args(argv)
    sphinterp = import_package()
    import workloads
    from tracing import NullTracer

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.setup_only:
            workloads.WORKLOADS[args.workload](args.seed, args.smoke, NullTracer(), workdir)
            return 0
        result, metrics, report = measure(args, workdir, sphinterp)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = per_layer_units() if args.trace else END_TO_END_UNITS
    result["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    report["result"] = result
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, default=str) + "\n", encoding="utf-8")

    summaries = report.get("end_to_end", {})
    for name, entry in result["metrics"].items():
        print(f"{name:48s} {entry['value']:.6g} {entry['unit']}{describe(summaries.get(name))}")
    for name in ("job_s.small", "job_s.all"):
        if name in summaries:
            print(f"{name + ' (report only)':48s} {summaries[name]['p50']:.6g} s{describe(summaries[name])}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}; report: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
