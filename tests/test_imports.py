"""Every name a module of ``entrocap`` imports is used in that module, and every module-level private
function is referenced somewhere in the package outside its own body.

Uses only the standard library's ``ast``.  The import check skips ``__init__.py`` (its imports are the public
re-exports) and any imported name on a line marked ``# noqa: F401``.
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


def unreferenced_private_functions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each module-level ``_name`` function that no code outside its own body refers to."""
    defined, used = {}, set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            own = top.name if isinstance(top, ast.FunctionDef) else None
            if own and own.startswith("_") and not own.startswith("__"):
                defined[own] = module
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name is not None and name != own:
                    used.add(name)
    return sorted(f"{module}.{name}" for name, module in defined.items() if name not in used)


def test_modules_are_found():
    assert {p.stem for p in MODULES} >= {"capacity", "channels", "entropy", "linalg"}


def test_detector_flags_an_unused_import():
    source = "import math\nfrom numpy import (\n    array,\n    zeros,  # noqa: F401\n)\nx = array([1])\n"
    assert unused_imports(source) == ["math (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_an_unreferenced_private_function():
    sources = {
        "a": "def _used():\n    pass\n\ndef _recursive(n):\n    return _recursive(n - 1)\n\ndef __dunder__():\n    pass\n",
        "b": "from . import a\n\ndef _dead():\n    pass\n\ndef public():\n    return a._used()\n",
    }
    assert unreferenced_private_functions(sources) == ["a._recursive", "b._dead"]


def test_every_private_function_is_referenced():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unreferenced_private_functions(sources) == []
