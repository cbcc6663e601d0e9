"""Source checks for the tolerance policy: one `Tolerances` object decides,
every other small float is a named constant, and the classifiers take their
operands and, when they read it, `tol`, nothing else."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "opgeo"
#: classes whose field defaults may hold tolerance values
CONFIG_CLASSES = {"Tolerances"}
#: the operands a public classifier may take besides the keyword-only `tol`
OPERANDS = {"x", "y", "w", "cert"}
#: other parameters, each with a caller that needs a value of its own
SETTINGS_ALLOWED = {
    ("classify_all", "unit"): "cmd_classify passes --unit or the document's unit_identified",
    ("lumer_slopes", "alphas"): (
        "is_self_adjoint_lumer passes alpha / max(1, ||x||); acceptance criterion 6 reads alpha = 1e-3"
    ),
    ("norming_annihilates_defect", "samples"): "harness T2P draws 50 functionals, criterion 4 draws 100",
    ("norming_annihilates_defect", "rng"): "harness T2P samples from its per-trial stream",
}

#: float tolerances a public function may take, each with its reason
FLOAT_TOLERANCES_ALLOWED = {
    ("numeric_span_rank", "tol"): "a rank cut relative to σ_max; acceptance criterion 3 passes it",
}


def _is_constant_name(target: ast.expr) -> bool:
    return isinstance(target, ast.Name) and target.id.lstrip("_").isupper()


def _small_floats(node: ast.AST):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and type(sub.value) is float and 0.0 < abs(sub.value) < 1e-2:
            yield sub


def _unnamed_small_floats(tree: ast.Module):
    """Small float literals outside module-level UPPER_CASE assignments and
    outside the field defaults of CONFIG_CLASSES."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            if all(_is_constant_name(t) for t in targets):
                continue
        if isinstance(stmt, ast.ClassDef) and stmt.name in CONFIG_CLASSES:
            for sub in stmt.body:
                if not isinstance(sub, ast.AnnAssign):
                    yield from _small_floats(sub)
            continue
        yield from _small_floats(stmt)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_small_floats_are_named(path):
    tree = ast.parse(path.read_text())
    found = [f"{path.name}:{n.lineno}: {n.value!r}" for n in _unnamed_small_floats(tree)]
    assert found == [], "tolerance-like literals outside named constants: " + ", ".join(found)


def _public_functions(module: str = "classify.py"):
    tree = ast.parse((SRC / module).read_text())
    return [fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")]


def test_classifiers_take_no_float_tolerance():
    offending, exempted = [], set()
    for fn in _public_functions("classify.py") + _public_functions("algebra.py"):
        a = fn.args
        for arg in a.posonlyargs + a.args + a.kwonlyargs:
            name = arg.arg.lower()
            if (fn.name, arg.arg) in FLOAT_TOLERANCES_ALLOWED:
                exempted.add((fn.name, arg.arg))
            elif ("tol" in name or "threshold" in name) and getattr(arg.annotation, "id", None) != "Tolerances":
                offending.append(f"{fn.name}({arg.arg})")
    assert offending == []
    assert exempted == set(FLOAT_TOLERANCES_ALLOWED)


def test_checker_flags_an_inline_tolerance():
    tree = ast.parse(
        "A_TOL = 1e-8\n"
        "class Tolerances:\n    equality: float = 1e-8\n"
        "def f(x, tol=1e-6):\n    return x <= 1e-8\n"
    )
    assert [n.value for n in _unnamed_small_floats(tree)] == [1e-6, 1e-8]


def test_classifiers_take_operands_and_tol_alone():
    offending, used = [], set()
    for fn in _public_functions():
        a = fn.args
        for arg in a.posonlyargs + a.args:
            if arg.arg == "tol":
                offending.append(f"{fn.name}({arg.arg}) is not keyword-only")
        for arg in a.posonlyargs + a.args + a.kwonlyargs:
            if (fn.name, arg.arg) in SETTINGS_ALLOWED:
                used.add((fn.name, arg.arg))
            elif arg.arg not in OPERANDS | {"tol"}:
                offending.append(f"{fn.name}({arg.arg})")
    assert offending == []
    # an allowance whose parameter is gone is dropped with it
    assert used == set(SETTINGS_ALLOWED)


def test_a_taken_tol_is_read():
    # a route that reads no tolerance takes no `tol`: the Lumer slopes and
    # the adjoint recovery read norm and state values alone
    unread = []
    for fn in _public_functions():
        a = fn.args
        if any(arg.arg == "tol" for arg in a.posonlyargs + a.args + a.kwonlyargs):
            names = {n.id for stmt in fn.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            if "tol" not in names:
                unread.append(fn.name)
    assert unread == []


def test_cli_assembles_no_verdict():
    # verdicts are assembled in opgeo.classify alone: cli.py builds no
    # Verdict and calls no route, it prints what classify_all returns
    tree = ast.parse((SRC / "cli.py").read_text())
    offending = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "opgeo.classify":
            offending += [a.name for a in node.names if a.name.startswith("is_") or a.name == "Verdict"]
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Verdict":
            offending.append(f"Verdict(...) at line {node.lineno}")
    assert offending == []


def test_generators_import_nothing_from_classify():
    # the generators sit below the classifiers they feed: a draw depends on
    # no classify code
    tree = ast.parse((SRC / "generators.py").read_text())
    imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    imported += [f"{n.module}.{a.name}" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names]
    assert [name for name in imported if name.startswith("opgeo.classify")] == []
