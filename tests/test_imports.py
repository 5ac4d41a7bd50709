"""Every name a module of ``entrocap`` imports is used in that module.

Uses only the standard library's ``ast``.  ``__init__.py`` is skipped (its imports are the public re-exports),
as is any imported name on a line marked ``# noqa: F401``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "entrocap"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_modules_are_found():
    assert {p.stem for p in MODULES} >= {"capacity", "channels", "entropy", "linalg"}


def test_detector_flags_an_unused_import():
    source = "import math\nfrom numpy import (\n    array,\n    zeros,  # noqa: F401\n)\nx = array([1])\n"
    assert unused_imports(source) == ["math (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
