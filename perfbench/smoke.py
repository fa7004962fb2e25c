"""Smoke check for the benchmark: schema and metric names, never timing values.

Run from the repository root:

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at its smallest size (``--smoke``,
one pass) with tracing off and on, and checks that the last line of output
is the result object with exactly the metric names and units that
BENCHMARK.json declares. It also checks that the benchmark refuses to run,
without printing a result, in a directory that holds only BENCHMARK.json
and the benchmark's own files. Exits 1 on the first workload that fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(proc: subprocess.CompletedProcess, declared: list[dict]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    if not isinstance(result.get("correct"), bool):
        errors.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int) or result[key] < 0:
            errors.append(f"{key} is not a nonnegative integer")
    if result.get("attempted", 0) < 1:
        errors.append("attempted < 1")
    metrics = result.get("metrics", {})
    expected = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(expected):
        errors.append(f"metric names differ: missing {sorted(set(expected) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(expected))}")
    for name, entry in metrics.items():
        if set(entry) != {"value", "unit"}:
            errors.append(f"{name}: keys {sorted(entry)}")
        elif not isinstance(entry["value"], (int, float)) or not math.isfinite(entry["value"]):
            errors.append(f"{name}: value {entry['value']!r} is not a finite number")
        elif name in expected and entry["unit"] != expected[name]:
            errors.append(f"{name}: unit {entry['unit']!r} != {expected[name]!r}")
    return errors


def check_refuses_without_package(spec: dict) -> list[str]:
    bare = HERE / "out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["ran without the package: expected a nonzero exit and no result"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    checks = [("bare directory", lambda: check_refuses_without_package(spec))]
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            checks.append((f"{workload} --trace {trace}",
                           lambda w=workload, t=trace, d=declared: check_result(run(ROOT, w, t), d)))
    for label, check in checks:
        errors = check()
        print(f"{label}: {'ok' if not errors else 'FAILED'}", flush=True)
        for error in errors:
            print(f"  {error}")
        if errors:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
