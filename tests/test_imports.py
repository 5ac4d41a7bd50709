"""Every name a module of ``entrocap`` imports is used in that module, every module-level private
function is referenced somewhere in the package outside its own body, no function truncates an
integer argument with ``int()`` before checking that it is one, one function of ``capacity.py``
forms a state's channel and environment outputs, so a certificate's value and gradient share one product,
``capacity.py`` never calls the checked ``mutual_information_value``, so an accepted state's value and gradient
share one product too, and a channel's workspace is only ever borrowed for a ``with`` block that puts it back.

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


def _integer_check(node: ast.Call) -> bool:
    """``_is_integer(x)`` or ``isinstance(x, numbers.Integral)``."""
    name = getattr(node.func, "id", None)
    return name == "_is_integer" or (
        name == "isinstance" and len(node.args) == 2 and ast.unparse(node.args[1]) == "numbers.Integral"
    )


def unchecked_int_parameters(source: str) -> list[str]:
    """``function(param)`` for each ``int(param)`` on a parameter of the enclosing function that the function
    does not check first with :func:`_integer_check`: a float would be truncated silently."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef):
            continue
        params = {a.arg for a in (*func.args.posonlyargs, *func.args.args, *func.args.kwonlyargs)}
        calls = [
            node
            for node in ast.walk(func)
            if isinstance(node, ast.Call) and node.args and getattr(node.args[0], "id", None) in params
        ]
        for node in calls:
            name = node.args[0].id
            if getattr(node.func, "id", None) == "int" and not any(
                _integer_check(c) and c.args[0].id == name and c.lineno < node.lineno for c in calls
            ):
                found.append(f"{func.name}({name})")
    return found


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


def test_detector_flags_an_unchecked_int_on_a_parameter():
    # the parent versions of four builders, then the accepted shapes: a checked parameter, an
    # isinstance check, int() on a local, and a check that comes too late
    source = """
def chi_capacity(channel, constraint, members=None, opts=None):
    m = int(members) if members is not None else d * d

def sample_state(dim, rank=None, seed=0):
    rank = dim if rank is None else int(rank)

def replacement_channel(tau, dim_in=None):
    return KrausChannel(_prepare(w, u, _eye(len(w) if dim_in is None else int(dim_in))))

def cq_channel(states, dim_in=None):
    d_in = len(spectra) if dim_in is None else int(dim_in)

def constraint_tensor(constraint, n):
    if not _is_integer(n) or n < 1:
        raise ValidationError(n)
    n = int(n)

def _number(obj, where, integer=False):
    if integer and not (isinstance(obj, numbers.Integral) or float(obj).is_integer()):
        raise SpecFileError(obj, where)
    return int(obj) if integer else float(obj)

def rows(values):
    return [int(v) for v in values]

def late(k):
    k = int(k)
    if not _is_integer(k):
        raise ValidationError(k)
"""
    assert unchecked_int_parameters(source) == [
        "chi_capacity(members)", "sample_state(rank)", "replacement_channel(dim_in)", "cq_channel(dim_in)", "late(k)",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_unchecked_int_on_parameters(path):
    assert unchecked_int_parameters(path.read_text()) == []


# the one function of capacity.py that forms a state's output and environment output
EVALUATOR = "_mi_spectra"


def own_calls(func: ast.FunctionDef) -> list[str]:
    """Names of the functions that ``func`` calls in its own body, leaving out the functions nested in it."""
    names, stack = [], list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef):
            continue
        if isinstance(node, ast.Call):
            names.append(getattr(node.func, "id", None) or getattr(node.func, "attr", None))
        stack.extend(ast.iter_child_nodes(node))
    return names


def repeated_evaluations(source: str) -> list[str]:
    """``function -> callee`` for each call that forms or diagonalizes a state's outputs outside :data:`EVALUATOR`:
    ``_output_and_environment`` anywhere else (the evaluator calls it exactly once), ``hermitian_log2`` anywhere,
    and ``mutual_information_value`` in a ``certificate``, whose value comes with its gradient."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef):
            continue
        calls = own_calls(func)
        banned = {"hermitian_log2"} | ({"mutual_information_value"} if func.name == "certificate" else set())
        if func.name != EVALUATOR:
            banned.add("_output_and_environment")
        elif calls.count("_output_and_environment") != 1:
            found.append(f"{func.name} -> _output_and_environment x{calls.count('_output_and_environment')}")
        found += [f"{func.name} -> {name}" for name in calls if name in banned]
    return sorted(found)


def test_detector_flags_a_second_evaluation():
    # the parent's gradient and certificate, which formed the outputs of rho_eps once for the value and once for
    # the gradient; then an evaluator that forms them twice
    source = """
def _mi_gradient(channel, rho, log2_rho=None):
    out, env = _output_and_environment(channel, rho)
    grad = (
        -(hermitian_log2(rho) if log2_rho is None else log2_rho)
        - dual_apply(channel, hermitian_log2(out))
        + dual_environment(channel, hermitian_log2(env))
    )
    return 0.5 * (grad + grad.conj().T)

def _ascend(channel, constraint, opts, start, budget):
    def certificate(state):
        grad = _mi_gradient(channel, rho_eps)
        return mutual_information_value(channel, rho_eps) + max(ascent, 0.0), grad, lin

    while iterations < budget:
        step = LN2 * _mi_gradient(channel, rho, log_rho / LN2)
        cand = mutual_information_value(channel, cand_rho)

def _mi_spectra(channel, rho, rho_w):
    out, env = _output_and_environment(channel, rho)
    return _output_and_environment(channel, rho)
"""
    assert repeated_evaluations(source) == [
        "_mi_gradient -> _output_and_environment",
        "_mi_gradient -> hermitian_log2",
        "_mi_gradient -> hermitian_log2",
        "_mi_gradient -> hermitian_log2",
        "_mi_spectra -> _output_and_environment x2",
        "certificate -> mutual_information_value",
    ]


def test_capacity_evaluates_each_certificate_state_once():
    source = (PACKAGE / "capacity.py").read_text()
    assert f"def {EVALUATOR}(" in source
    assert repeated_evaluations(source) == []


# the checked public evaluator, which keeps no eigenpairs: capacity.py evaluates every state by EVALUATOR instead
CHECKED_EVALUATOR = "mutual_information_value"


def checked_evaluations(source: str) -> list[str]:
    """``function -> mutual_information_value`` for each call of :data:`CHECKED_EVALUATOR` (``<module>`` for a call
    outside any function): a value from it discards the eigenpairs that the state's gradient needs."""
    tree = ast.parse(source)
    scopes = [("<module>", tree), *((f.name, f) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef))]
    calls = [(name, call) for name, scope in scopes for call in own_calls(scope)]
    return sorted(f"{name} -> {call}" for name, call in calls if call == CHECKED_EVALUATOR)


def test_detector_flags_a_checked_evaluation():
    # the earlier start, face start and candidate, each valued by the checked evaluator; then the public
    # function itself, which is allowed, and the accepted candidate
    source = """
def mutual_information_value(channel, rho):
    return mutual_information(rho, channel, route="entropies")

def cea_capacity(channel, constraint, opts=None):
    start = (h, rho, log_rho, eig, mutual_information_value(channel, rho))

def _face_start(channel, constraint, h, q):
    return face, face_con, (h, rho, log_rho, eig, mutual_information_value(face, rho))

def _ascend(channel, constraint, opts, start, budget):
    while iterations < budget:
        cand = mutual_information_value(channel, cand_rho)

def _ascend_fused(channel, constraint, opts, start, budget):
    cand, cand_spectra = _mi_spectra(channel, cand_rho, cand_eig[0])
"""
    assert checked_evaluations(source) == [
        "_ascend -> mutual_information_value",
        "_face_start -> mutual_information_value",
        "cea_capacity -> mutual_information_value",
    ]


def test_capacity_never_calls_the_checked_evaluator():
    source = (PACKAGE / "capacity.py").read_text()
    assert f"def {CHECKED_EVALUATOR}(" in source
    assert checked_evaluations(source) == []


# a channel's workspace: the key it is kept under in the channel's __dict__, the helper that lends it for a
# ``with`` block, and the one other function that may name the key (pickling leaves the workspace out)
WORK_KEY, WORK_HELPER, WORK_READERS = "_work", "_workspace", {"_workspace", "__getstate__"}


def _names_work_key(node: ast.AST) -> bool:
    return (isinstance(node, ast.Constant) and node.value == WORK_KEY) or getattr(node, "attr", None) == WORK_KEY


def workspace_leaks(source: str) -> list[str]:
    """Each way ``source`` could lose or share a channel's workspace: the key named outside
    :data:`WORK_READERS`, a function that takes it out of the channel (``.pop``) and does not put it back in a
    ``finally``, and a call of :data:`WORK_HELPER` that is not the context expression of a ``with``."""
    tree, found = ast.parse(source), []
    allowed = {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and func.name in WORK_READERS
        for node in ast.walk(func)
    }
    found += [f"line {n.lineno} names {WORK_KEY}" for n in ast.walk(tree)
              if _names_work_key(n) and id(n) not in allowed]
    with_items = {id(item.context_expr) for node in ast.walk(tree) if isinstance(node, ast.With) for item in node.items}
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        borrows = any(
            isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "pop" and any(map(_names_work_key, n.args))
            for n in ast.walk(func)
        )
        returned = any(
            isinstance(t, ast.Try) and any(_names_work_key(n) for stmt in t.finalbody for n in ast.walk(stmt))
            for t in ast.walk(func)
        )
        if borrows and not returned:
            found.append(f"{func.name} does not put {WORK_KEY} back in a finally")
        found += [
            f"{func.name} calls {WORK_HELPER} outside a with"
            for n in ast.walk(func)
            if isinstance(n, ast.Call) and getattr(n.func, "id", None) == WORK_HELPER and id(n) not in with_items
        ]
    return sorted(found)


def test_detector_flags_a_leaked_workspace():
    # a helper that puts the workspace back only when the block raises nothing, a kernel that borrows it by
    # hand, a kernel that enters the helper without a with, and the accepted shape
    source = """
@contextmanager
def _workspace(op):
    work = op.__dict__.pop("_work", None)
    yield work
    op.__dict__["_work"] = work

def apply(op, rho):
    work = op.__dict__.pop("_work", None)
    out = np.dot(work[0], rho)
    op._work = work
    return out

def environment_output(op, rho):
    work = _workspace(op).__enter__()
    return np.dot(work[0], rho)

def dual_apply(op, a):
    with _workspace(op) as work:
        return np.dot(a, work[0])
"""
    assert workspace_leaks(source) == [
        "_workspace does not put _work back in a finally",
        "apply does not put _work back in a finally",
        "environment_output calls _workspace outside a with",
        "line 11 names _work",
        "line 9 names _work",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_workspace_is_only_borrowed_for_a_with_block(path):
    assert workspace_leaks(path.read_text()) == []


def test_workspace_helper_is_found():
    source = (PACKAGE / "channels.py").read_text()
    assert f"def {WORK_HELPER}(" in source and f'"{WORK_KEY}"' in source
