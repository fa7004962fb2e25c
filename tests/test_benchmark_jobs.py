"""The benchmark's own smoke job lists run against the package.

``test_benchmark_entry_points`` checks that the names the benchmark calls
exist; this runs the calls, so a changed return type (an array where a
list was, say) fails here too. ``perfbench/workloads.py`` and
``perfbench/tracing.py`` are loaded from their files without writing
bytecode next to them.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload, jobs", [("interp-ladder", 14), ("cubature-ladder", 6)])
def test_smoke_jobs_of_the_benchmark_pass(monkeypatch, tmp_path, workload, jobs):
    workloads = _load("workloads", monkeypatch)
    tracer = _load("tracing", monkeypatch).NullTracer()
    job_list = workloads.WORKLOADS[workload](0, True, tracer, tmp_path)
    assert len(job_list) == jobs
    failed = {job.name: outcome.health for job in job_list if (outcome := job.run(tracer)).failed}
    assert failed == {}
