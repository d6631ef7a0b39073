"""Source hygiene: every name a package module imports is used there, and
every name the benchmark tracer binds exists."""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "regret_audit"
#: __init__.py imports names to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """Names imported in ``source`` and never referenced, skipping imports
    on lines marked ``# noqa`` (kept for code outside the module)."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_sees_unused_and_marked_imports():
    source = "import json\nimport os  # noqa: F401\nfrom typing import List\nx: List = []\n"
    assert unused_imports(source) == [(1, "json")]


def marked_imports(source: str):
    """Names imported in ``source`` on lines marked ``# noqa``."""
    lines = source.splitlines()
    return {alias.asname or alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
            if "# noqa" in lines[alias.lineno - 1]}


def test_tracer_targets_resolve_and_explain_every_marked_import():
    # perfbench/tracer.py rebinds these names from outside the package; a
    # renamed one breaks --trace 1, and a marked import it no longer binds
    # is a shim left behind
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    bound = set()
    for owner, attr, *_ in tracer.TARGETS:
        assert Path(inspect.getfile(owner)).parent == PACKAGE
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
        if inspect.ismodule(owner):
            bound.add((owner.__name__, attr))
    for path in sorted(PACKAGE.glob("*.py")):
        module = f"regret_audit.{path.stem}"
        for name in marked_imports(path.read_text(encoding="utf-8")):
            assert (module, name) in bound, f"{module}.{name} is imported for no tracer target"
