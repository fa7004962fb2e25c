"""The names the benchmark workloads call must exist in the package.

The benchmark imports the package from source and calls it by name, so
deleting or renaming one of those names breaks it without failing any
other test. This reads ``perfbench/workloads.py`` as text and imports
nothing from ``perfbench``.
"""

import importlib
import re
from pathlib import Path

import sphinterp

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def test_names_the_benchmark_workloads_use_exist():
    text = WORKLOADS.read_text()
    names = set(re.findall(r"\bsp\.([A-Za-z_]\w*)", text))
    assert {"solve", "poisedness_certificate", "assemble_matrix", "build_rule"} <= names
    assert sorted(n for n in names if not hasattr(sphinterp, n)) == []

    imported = re.findall(r"^\s*from (sphinterp[\w.]*) import ([\w, ]+)$", text, re.MULTILINE)
    assert ("sphinterp.verification", "TOL_EXACTNESS, TOL_PLANT_COEFF") in imported
    for module, listed in imported:
        for name in listed.split(", "):
            # a submodule such as ``cli`` is an attribute only once imported
            assert hasattr(importlib.import_module(module), name) or importlib.import_module(f"{module}.{name}")
