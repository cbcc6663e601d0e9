"""Source checks for the tolerance policy: one `Tolerances` object decides,
every other small float is a named constant, and the classifiers take their
operands and, when they read it, `tol`, nothing else.  And for the imports:
each name is imported from the module that defines it, and importing a
module loads only the layers beneath it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "opgeo"
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

#: numpy.linalg calls outside opgeo.linalg, each with its reason
LINALG_CALLS_ALLOWED = {
    ("generators.py", "qr"): "a Haar draw, not a measurement: it reads no norm or spectrum of an operand",
}

#: float tolerances a public function may take, each with its reason
FLOAT_TOLERANCES_ALLOWED = {}

#: names a module imports and never reads, each with its reason
UNUSED_IMPORTS_ALLOWED = {
    ("harness.py", "x1_member"): "bench/test_bench.py asserts opgeo.harness.x1_member, which the tracer rebinds",
    ("cli.py", "element_norm"): "bench/test_bench.py asserts opgeo.cli.element_norm, which the tracer rebinds",
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


def _numpy_linalg_uses(tree: ast.Module):
    """(line, name) of each numpy.linalg attribute a module reads, whether
    through `np.linalg.name` or `numpy.linalg.name`, and of each import of
    numpy.linalg or of a name from it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
            inner = node.value
            if inner.attr == "linalg" and isinstance(inner.value, ast.Name) and inner.value.id in ("np", "numpy"):
                yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.linalg"):
            for a in node.names:
                if node.module == "numpy.linalg" or a.name == "linalg":
                    yield node.lineno, a.name
        elif isinstance(node, ast.Import):
            yield from ((node.lineno, a.name) for a in node.names if a.name == "numpy.linalg")


def test_numpy_linalg_is_called_from_opgeo_linalg_alone():
    # every eigensolve and SVD passes the finiteness and shape guards of
    # opgeo.linalg; a docstring that names numpy.linalg is not a call
    offending, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for lineno, name in _numpy_linalg_uses(ast.parse(path.read_text())):
            if (path.name, name) in LINALG_CALLS_ALLOWED:
                used.add((path.name, name))
            else:
                offending.append(f"{path.name}:{lineno}: {name}")
    assert offending == []
    assert used == set(LINALG_CALLS_ALLOWED)


def test_linalg_scan_flags_each_spelling():
    tree = ast.parse(
        '"""np.linalg.eigh in a docstring"""\n'
        "import numpy.linalg\n"
        "from numpy import linalg\n"
        "from numpy.linalg import svd\n"
        "w = np.linalg.eigh(a)\n"
        "s = numpy.linalg.svd(a)\n"
    )
    assert sorted(_numpy_linalg_uses(tree)) == [(2, "numpy.linalg"), (3, "linalg"), (4, "svd"), (5, "eigh"), (6, "svd")]


def _unused_imports(tree: ast.Module):
    """(line, name) of each name a module imports and never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for a in node.names:
                imported.setdefault((a.asname or a.name).split(".")[0], node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unused_imports_are_the_bench_names():
    # an import no code reads is dead weight; the two the benchmark's tracer
    # rebinds are read from outside, by bench/test_bench.py
    offending, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        for lineno, name in _unused_imports(ast.parse(path.read_text())):
            if (path.name, name) in UNUSED_IMPORTS_ALLOWED:
                used.add((path.name, name))
            else:
                offending.append(f"{path.name}:{lineno}: {name}")
    assert offending == []
    assert used == set(UNUSED_IMPORTS_ALLOWED)


def test_unused_import_scan_flags_each_form():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import json\n"
        "import numpy as np\n"
        "import os.path\n"
        "from opgeo.algebra import Element, element_norm\n"
        "x = np.zeros(2)\n"
        "y = os.path.join('a')\n"
        "def f(e: Element): return e\n"
    )
    assert _unused_imports(tree) == [(2, "json"), (5, "element_norm")]


def _top_level_names(tree: ast.Module) -> set[str]:
    """Names a module defines at its top level: functions, classes and
    assigned names, not the names it imports."""
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _homes() -> dict[str, set[str]]:
    """opgeo module -> the names `from module import name` may take there:
    its top-level names, and for the package its submodules."""
    homes = {f"opgeo.{p.stem}": _top_level_names(ast.parse(p.read_text())) for p in SRC.glob("*.py")}
    homes["opgeo"] = homes.pop("opgeo.__init__") | {p.stem for p in SRC.glob("*.py")}
    return homes


def _imports_from_elsewhere(tree: ast.Module, homes: dict[str, set[str]]):
    """(line, module.name) of each `from opgeo... import name` whose module
    does not define the name itself, but re-exports it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in homes:
            for a in node.names:
                if a.name not in homes[node.module]:
                    yield node.lineno, f"{node.module}.{a.name}"


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")), ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_each_name_is_imported_from_its_home(path):
    # one import path per name: a module that re-exports what it imports is
    # not where the name is read from
    found = _imports_from_elsewhere(ast.parse(path.read_text()), _homes())
    assert [f"{path.name}:{line}: {name}" for line, name in found] == []


def test_import_home_scan_flags_a_reexport():
    homes = {"opgeo": {"algebra", "__version__"}, "opgeo.algebra": {"Tolerances"}, "opgeo.classify": {"x1_member"}}
    tree = ast.parse(
        "from opgeo import algebra, Tolerances\n"
        "from opgeo.classify import Tolerances, x1_member\n"
        "def f():\n    from opgeo.algebra import Tolerances\n"
    )
    assert sorted(_imports_from_elsewhere(tree, homes)) == [(1, "opgeo.Tolerances"), (2, "opgeo.classify.Tolerances")]


_ALGEBRA_LAYER = {"errors", "linalg", "algebra"}
#: each module with the opgeo modules that importing it loads, itself included
LOADED_BY = {
    "errors": {"errors"},
    "linalg": {"errors", "linalg"},
    "algebra": _ALGEBRA_LAYER,
    "generators": _ALGEBRA_LAYER | {"generators"},
    "classify": _ALGEBRA_LAYER | {"classify"},
    "documents": _ALGEBRA_LAYER | {"classify", "documents"},
    "harness": _ALGEBRA_LAYER | {"classify", "generators", "harness"},
    "cli": {p.stem for p in SRC.glob("*.py") if p.name != "__init__.py"},
}


def test_every_module_has_its_runtime_layer():
    assert set(LOADED_BY) == {p.stem for p in SRC.glob("*.py") if p.name != "__init__.py"}


@pytest.mark.parametrize("module", sorted(LOADED_BY))
def test_imports_follow_the_layers_at_runtime(module):
    # the package binds no submodule, so a fresh `import opgeo.X` loads X and
    # the layers beneath it that X imports, nothing above or beside it
    paths = [str(SRC.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    script = f"import sys, opgeo.{module}; print(*sorted(n for n in sys.modules if n.split('.')[0] == 'opgeo'))"
    report = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert report.stdout.split() == sorted({"opgeo"} | {f"opgeo.{m}" for m in LOADED_BY[module]})
