"""The benchmark harness under ``bench/`` reads entrocap attributes by name and may not change with the
library, so every attribute it reads must keep resolving: a dropped re-export fails here, not in a bench run."""

import ast
import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _entrocap_module(node):
    """``"entrocap..."`` if ``node`` is ``importlib.import_module("entrocap...")``, else None."""
    if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "import_module" and node.args:
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and str(arg.value).split(".")[0] == "entrocap":
            return arg.value
    return None


def resolve(module, attr, want_module=False):
    """What ``from module import attr`` binds (an attribute, else a submodule), or None; with ``want_module``,
    None unless that is a module."""
    obj = getattr(importlib.import_module(module), attr, None)
    if obj is None and importlib.util.find_spec(f"{module}.{attr}") is not None:
        obj = importlib.import_module(f"{module}.{attr}")
    return obj if inspect.ismodule(obj) or not want_module else None


def attribute_reads(path):
    """``(module, attribute)`` pairs a harness file reads: ``alias.attr`` for every name bound to an entrocap
    module by ``import``, ``from entrocap import module`` or ``importlib.import_module``, and every name it
    imports from an entrocap module."""
    tree = ast.parse(path.read_text())
    aliases, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update({a.asname or a.name: a.name for a in node.names if a.name.split(".")[0] == "entrocap"})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "entrocap":
            for a in node.names:
                reads.add((node.module, a.name))
                if resolve(node.module, a.name, want_module=True):
                    aliases[a.asname or a.name] = f"{node.module}.{a.name}"
        elif isinstance(node, ast.Assign) and (module := _entrocap_module(node.value)):
            aliases.update({t.id: module for t in node.targets if isinstance(t, ast.Name)})
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            reads.add((aliases[node.value.id], node.attr))
    return reads


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


@pytest.mark.parametrize("name", ["test_bench.py", "tracer.py", "workloads.py", "run.py"])
def test_harness_attribute_reads_resolve(name):
    reads = attribute_reads(BENCH / name)
    for module, attr in sorted(reads):
        assert resolve(module, attr) is not None, f"bench/{name} reads {module}.{attr}"
    if name == "test_bench.py":  # the reads the scan must see, so that it cannot pass by finding none
        assert {("entrocap.entropy", "hermitian_eig"), ("entrocap.capacity", "cea_capacity")} <= reads


def test_tracer_names_resolve_to_wrapped_functions():
    # the tracer wraps the public functions a layer defines; a span name that names no such function
    # (an alias key, or the eigensolver span counted inside the oracle) silently reads zero
    tracer = load_tracer()
    for key in [*tracer.ALIASES, tracer.HERMITIAN_EIG_SPAN]:
        layer, attr = key.split(".")
        assert layer in tracer.LAYERS, key
        module = importlib.import_module(f"entrocap.{layer}")
        fn = getattr(module, attr, None)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, key


@pytest.mark.parametrize("seed", [17, 305])
def test_cli_specs_gates_pass_at_seed(seed):
    # seeds at which the identity qubit's chi run once ended below its gate; the last stdout line is the result
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", "cli_specs", "--seed", str(seed)]
    proc = subprocess.run([*argv, "--seconds", "1", "--trace", "0"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["failed"] == 0, proc.stdout
