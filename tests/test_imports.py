"""Every module under src/ and tests/ uses each name it imports.

The repository has no linter configured, so this ``ast`` scan stands in
for an unused-import check. Package ``__init__`` files are exempt: their
imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src", "tests")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no ``Name`` node reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_scan_flags_an_unused_import():
    source = "import math\nimport os.path\nfrom a import b as c, d\nprint(math.pi, d)\n"
    assert unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((ROOT / module).read_text(encoding="utf-8")) == []
