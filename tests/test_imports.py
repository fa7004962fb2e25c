"""Every module under src/ and tests/ uses each name it imports or assigns.

The repository has no linter configured, so these ``ast`` scans stand in
for unused-import, unused-local and unused-private-name checks. Package
``__init__`` files are exempt from the import scan: their imports are the
public re-exports. A fourth scan keeps a helper that several modules
share public: no module under src/ imports an underscore name from a
sibling module. A fifth scan flags an attribute of a private class under
src/ that is set but never read in its module.
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
SRC_MODULES = sorted(path.relative_to(ROOT).as_posix() for path in (ROOT / "src").rglob("*.py"))


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


def _own_statements(func):
    """Statements of ``func``, not descending into nested functions or classes."""
    todo = list(func.body)
    while todo:
        node = todo.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
            todo.extend(child for child in ast.iter_child_nodes(node) if isinstance(child, (ast.stmt, ast.excepthandler)))


def unused_locals(source: str) -> list[str]:
    """``function:name`` for each plain ``name = value`` in a function that
    nothing in the function reads; loop and comprehension targets, tuple
    unpacking and class bodies are not plain assignments."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {node.id for node in ast.walk(func) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        read |= {node.target.id for node in ast.walk(func) if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name)}
        read |= {name for node in ast.walk(func) if isinstance(node, (ast.Global, ast.Nonlocal)) for name in node.names}
        assigned = {
            target.id
            for node in _own_statements(func)
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        found += [f"{func.name}:{name}" for name in sorted(assigned - read)]
    return found


def test_scan_flags_an_unused_local():
    source = (
        "def f(xs):\n"
        "    kept = 1\n"
        "    dropped = 2\n"
        "    a, b = xs\n"
        "    for item in xs:\n"
        "        pass\n"
        "    class C:\n"
        "        attr = 3\n"
        "    def g():\n"
        "        inner = kept\n"
        "    total = 0\n"
        "    total += 1\n"
        "    try:\n"
        "        pass\n"
        "    except ValueError:\n"
        "        caught = 4\n"
        "    return [y for y in xs]\n"
    )
    assert unused_locals(source) == ["f:caught", "f:dropped", "g:inner"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_locals(module):
    assert unused_locals((ROOT / module).read_text(encoding="utf-8")) == []


def unused_private_names(source: str) -> list[str]:
    """Module-level ``_function``, ``_Class`` and ``_CONSTANT`` names that
    nothing in the module reads (a helper a merge left behind)."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(target.id for target in targets if isinstance(target, ast.Name))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(name for name in defined - read if name.startswith("_") and not name.startswith("__"))


def test_scan_flags_an_unused_private_name():
    source = (
        "__all__ = []\n"
        "_USED = 1\n"
        "_UNUSED: int = 2\n"
        "def _helper():\n"
        "    return _USED\n"
        "def _orphan():\n"
        "    pass\n"
        "class _Left:\n"
        "    pass\n"
        "def public():\n"
        "    return _helper()\n"
    )
    assert unused_private_names(source) == ["_Left", "_UNUSED", "_orphan"]


@pytest.mark.parametrize("module", SRC_MODULES)
def test_no_unused_private_names(module):
    assert unused_private_names((ROOT / module).read_text(encoding="utf-8")) == []


def private_sibling_imports(source: str) -> list[str]:
    """Underscore names that relative or ``sphinterp`` imports bring in."""
    return sorted(
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").split(".")[0] == "sphinterp")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    )


def test_scan_flags_a_private_sibling_import():
    source = (
        "from __future__ import annotations\n"
        "from os.path import _joinrealpath\n"
        "from .nodes import mirror, _PI as pi\n"
        "from . import _cache\n"
        "from sphinterp.spherical import _helper\n"
        "from .errors import __doc__\n"
    )
    assert private_sibling_imports(source) == ["_PI", "_cache", "_helper"]


@pytest.mark.parametrize("module", SRC_MODULES)
def test_no_private_sibling_imports(module):
    assert private_sibling_imports((ROOT / module).read_text(encoding="utf-8")) == []


def unused_attributes(source: str) -> list[str]:
    """``_Class.name`` for each dataclass field or ``self.name = ...`` of a
    module-level ``_Class`` that no attribute access in the module reads."""
    tree = ast.parse(source)
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    found = []
    for cls in tree.body:
        if not (isinstance(cls, ast.ClassDef) and cls.name.startswith("_")):
            continue
        fields = {
            node.target.id for node in cls.body if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
        }
        fields |= {
            node.attr
            for node in ast.walk(cls)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"
        }
        found += [f"{cls.name}.{name}" for name in fields - read]
    return sorted(found)


def test_scan_flags_an_unused_attribute():
    source = (
        "@dataclass\n"
        "class _Group:\n"
        "    used: int\n"
        "    psi: float\n"
        "class _Chain:\n"
        "    def __init__(self, group):\n"
        "        self.group = group\n"
        "        self.norm_inf, self.size = 1.0, group.used\n"
        "        self.count: int = 0\n"
        "        self.count += 1\n"
        "        other.unread = 2\n"
        "    def width(self):\n"
        "        return self.size + self.group.used\n"
        "class Public:\n"
        "    def __init__(self):\n"
        "        self.unread = 3\n"
    )
    assert unused_attributes(source) == ["_Chain.count", "_Chain.norm_inf", "_Group.psi"]


@pytest.mark.parametrize("module", SRC_MODULES)
def test_no_unused_attributes(module):
    assert unused_attributes((ROOT / module).read_text(encoding="utf-8")) == []
